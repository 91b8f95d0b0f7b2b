"""Command-line interface.

A command exits 0, or 4 when the check it runs (oracle, gradcheck) fails.
A library error exits with the code :data:`EXIT_CODES` gives its class.
Only ``train-toy`` (and ``gradcheck --op toy_forward``) imports the trainer,
and only ``gradcheck`` the gradient checks.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .autodiff import NonDeterministicError, NonFiniteError
from .core import (
    AlignmentError,
    Imv,
    TrainDivergenceError,
    UntrainedModelError,
    compute_imv,
    enumerate_monotonic_paths,
    validate_imv,
)
from .matrixio import parse_numbers, read_matrix, read_vector, write_matrix, write_pgm, write_vector
from .monotonic import (
    DegenerateImvError,
    KernelConfig,
    SmaWeights,
    align_from_imv,
    hma_transform,
    sma_loss,
)
from .positions import extract_positions

__all__ = ["main", "load_run_config", "ConfigError", "EXIT_CODES"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3
EXIT_NUMERIC = 4

# An error exits with the code of the first class in its MRO listed here, so
# a subclass's entry wins over its base's whatever the order below.
EXIT_CODES = {
    ValueError: EXIT_USAGE,  # malformed files and configs, rejected settings
    OSError: EXIT_USAGE,  # an input or output path that cannot be opened
    UntrainedModelError: EXIT_USAGE,
    AlignmentError: EXIT_CONTRACT,  # invalid alignment or IMV input
    DegenerateImvError: EXIT_NUMERIC,
    NonFiniteError: EXIT_NUMERIC,
    NonDeterministicError: EXIT_NUMERIC,
    TrainDivergenceError: EXIT_NUMERIC,
}


class ConfigError(ValueError):
    """A run-configuration document is malformed."""


# An error line keeps about this many characters of its message, which may
# quote an invalid value, a matrix header or a config value.
_MAX_ERROR_CHARS = 400


def _bounded(message: str) -> str:
    """``message``, its middle cut out if it is over ``_MAX_ERROR_CHARS``."""
    half = _MAX_ERROR_CHARS // 2
    return message if len(message) <= _MAX_ERROR_CHARS else f"{message[:half]} ... {message[-half:]}"


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated options (a removed ``--h`` is not ``--help``) and
    bounds its error line; its subparsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        super().error(_bounded(message))


def _number(kind):
    """An option type: exactly one ``kind`` (int or float), read by
    matrixio's parser, which refuses ``1_0`` and non-ASCII digits."""

    def read(text: str):
        values = parse_numbers([text], kind) if text else None  # numpy warns on ""
        if values is None or values.size != 1:
            raise ValueError(f"expected one {kind.__name__}, got {text!r}")
        return values.item()

    read.__name__ = kind.__name__  # argparse's error line names the type
    return read


def load_run_config(path) -> tuple[ToyTask, TrainConfig, str | None, str]:
    """Read a flat JSON run configuration for the toy trainer command.

    Keys are the fields of :class:`ToyTask` (its ``seed`` spelled
    ``task_seed``), the fields of :class:`TrainConfig`, and the two output
    files: ``report_path`` (default ``"toy_report.jsonl"``; ``null`` or an
    empty string writes no report) and ``heatmap_path`` (default
    ``"toy_alignment.pgm"``). Absent keys take the library defaults.
    Unknown keys, invalid settings, a path that is not a string (or an empty
    heatmap path) and a path that names a directory or lies in a missing one
    raise :class:`ConfigError`. Returns (task, trainer settings, report
    path, heatmap path).
    """
    import json

    from .toy import ToyTask, TrainConfig

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON must be an object")
    task_keys = {"task_seed" if f.name == "seed" else f.name for f in fields(ToyTask)}
    train_keys = {f.name for f in fields(TrainConfig)}
    unknown = set(raw) - task_keys - train_keys - {"report_path", "heatmap_path"}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    report_path = raw.pop("report_path", "toy_report.jsonl")
    heatmap_path = raw.pop("heatmap_path", "toy_alignment.pgm")
    if not (report_path is None or isinstance(report_path, str)):
        raise ConfigError(f"{path}: report_path must be a string or null, got {report_path!r}")
    if not (isinstance(heatmap_path, str) and heatmap_path):
        raise ConfigError(f"{path}: heatmap_path must be a non-empty string, got {heatmap_path!r}")
    for key, out in (("report_path", report_path), ("heatmap_path", heatmap_path)):
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ConfigError(f"{path}: {key} {out!r} names a directory or lies in a missing one")
    task_args = {"seed" if k == "task_seed" else k: raw.pop(k) for k in set(raw) & task_keys}
    try:
        if "sma_weights" in raw:
            w = raw["sma_weights"]
            if not (isinstance(w, list) and len(w) == 4):
                raise ValueError(f"sma_weights must be a list of 4 numbers, got {w!r}")
            raw["sma_weights"] = SmaWeights(*w)
        return ToyTask(**task_args), TrainConfig(**raw), report_path, heatmap_path
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_imv(args) -> Imv:
    values = read_vector(args.imv)
    return Imv(values, args.t1)


def cmd_imv(args) -> int:
    alpha = read_matrix(args.alignment)
    imv = compute_imv(alpha)
    report = validate_imv(imv)
    print(report.summary())
    if args.out:
        write_vector(args.out, imv.values)
    else:
        print(",".join(f"{x:.12g}" for x in imv.values))
    return EXIT_OK


def cmd_hma(args) -> int:
    out = hma_transform(_read_imv(args))
    if args.out:
        write_vector(args.out, out.values)
    print(",".join(f"{x:.12g}" for x in out.values))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    alpha = align_from_imv(_read_imv(args), KernelConfig(sigma2=args.sigma2))
    write_matrix(args.out, alpha)
    print(f"wrote {alpha.shape[0]}x{alpha.shape[1]} alignment to {args.out}")
    return EXIT_OK


def cmd_positions(args) -> int:
    pos = extract_positions(_read_imv(args), KernelConfig(sigma2=args.sigma2))
    if args.out:
        write_vector(args.out, pos.values)
    print(",".join(f"{x:.12g}" for x in pos.values))
    return EXIT_OK


def cmd_sma(args) -> int:
    print(repr(float(sma_loss(_read_imv(args)))))
    return EXIT_OK


def cmd_oracle(args) -> int:
    paths = enumerate_monotonic_paths(args.t1, args.t2)
    # a path's IMV is integer, so the exact step constraint allows steps of 0 or 1 only
    reports = [validate_imv(compute_imv(m), tol=0.0) for m in paths]
    ok = all(r.monotone_continuous and r.complete for r in reports)
    print(f"{len(paths)} paths, {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_gradcheck(args) -> int:
    from .checks import run_check

    report = run_check(args.op, seed=args.seed)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_train_toy(args) -> int:
    from .toy import make_batch, sequence_forward, train

    task, cfg, report_path, heatmap_path = load_run_config(args.config)
    model, report = train(task, cfg)
    if report_path:
        report.write_jsonl(report_path)
    print(
        f"mode={cfg.mode} steps={cfg.steps}: "
        f"final loss {report.final_loss:.4f}, accuracy {report.final_accuracy:.3f}, "
        f"diagonality {report.final_diagonality:.3f}, "
        f"steps-to-threshold {report.steps_to_threshold}"
    )
    # final alignment of the first pool sequence, for eyeballing convergence
    batch = make_batch(task, 0)
    final = sequence_forward(model.params, batch, cfg)
    write_pgm(heatmap_path, final.alpha_recon)
    print(f"report: {report_path}; heatmap: {heatmap_path}")
    return EXIT_OK


def cmd_heatmap(args) -> int:
    write_pgm(args.out, read_matrix(args.alignment))
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="imvalign",
        description="Monotonic sequence alignment via index mapping vectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("imv", help="compute and validate the IMV of an alignment matrix")
    p.add_argument("--alignment", required=True, help="matrix CSV (rows,cols header)")
    p.add_argument("--out", help="write the IMV as single-column CSV")
    p.set_defaults(func=cmd_imv)

    def imv_args(p):
        p.add_argument("--imv", required=True, help="IMV file, one float per line")
        p.add_argument("--t1", required=True, type=_number(int), help="input length bound")

    p = sub.add_parser("hma", help="hard monotonic transform of a raw IMV")
    imv_args(p)
    p.add_argument("--out", help="write the transformed IMV")
    p.set_defaults(func=cmd_hma)

    p = sub.add_parser("reconstruct", help="Gaussian alignment matrix from an IMV")
    imv_args(p)
    p.add_argument("--sigma2", type=_number(float), default=KernelConfig.sigma2)
    p.add_argument("--out", required=True, help="output matrix CSV")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("positions", help="aligned output position per input token")
    imv_args(p)
    p.add_argument("--sigma2", type=_number(float), default=KernelConfig.sigma2)
    p.add_argument("--out", help="write the positions as single-column CSV")
    p.set_defaults(func=cmd_positions)

    p = sub.add_parser("sma", help="soft monotonic alignment loss of an IMV")
    imv_args(p)
    p.set_defaults(func=cmd_sma)

    p = sub.add_parser("oracle", help="enumerate hard monotonic paths and verify their IMVs")
    p.add_argument("--t1", required=True, type=_number(int))
    p.add_argument("--t2", required=True, type=_number(int))
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gradcheck", help="finite-difference check of a named operation")
    p.add_argument("--op", required=True, help="the operation to check; an unknown name lists the known ones")
    p.add_argument("--seed", type=_number(int), default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="run the toy trainer from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("heatmap", help="export an alignment matrix as an ASCII PGM image")
    p.add_argument("--alignment", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {_bounded(str(exc))}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
