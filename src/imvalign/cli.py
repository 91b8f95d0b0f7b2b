"""Command-line interface.

Exit codes: 0 success, 2 usage or parse error (including an invalid
numeric setting such as a NaN, infinite, non-positive or sub-5.6e-309
sigma2), 3 contract violation (invalid alignment/IMV input), 4 numeric
failure (degenerate transform, failed gradient check, diverged training).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .autodiff import NonFiniteError
from .checks import CHECKABLE_OPS, run_check
from .core import (
    MAX_ALIGNMENT_ENTRIES,
    AlignmentError,
    Imv,
    compute_imv,
    enumerate_monotonic_paths,
    validate_imv,
)
from .matrixio import read_matrix, read_vector, write_matrix, write_pgm, write_vector
from .monotonic import (
    DegenerateImvError,
    KernelConfig,
    SmaWeights,
    align_from_imv,
    hma_transform,
    sma_loss,
)
from .positions import extract_positions
from .toy import ToyTask, TrainConfig, TrainDivergenceError, make_batch, sequence_forward, train

__all__ = ["main", "load_run_config", "ConfigError"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3
EXIT_NUMERIC = 4

class ConfigError(ValueError):
    """A run-configuration document is malformed."""


def load_run_config(path) -> tuple[ToyTask, TrainConfig, str | None, str]:
    """Read a flat JSON run configuration for the toy trainer command.

    Keys are the fields of :class:`ToyTask` (its ``seed`` spelled
    ``task_seed``), the fields of :class:`TrainConfig`, and the two output
    files: ``report_path`` (default ``"toy_report.jsonl"``; ``null`` or an
    empty string writes no report) and ``heatmap_path`` (default
    ``"toy_alignment.pgm"``). Absent keys take the library defaults.
    Unknown keys, invalid settings and a path that is not a string (or an
    empty heatmap path) raise :class:`ConfigError`. Returns (task, trainer
    settings, report path, heatmap path).
    """
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
    task_args = {"seed" if k == "task_seed" else k: raw.pop(k) for k in set(raw) & task_keys}
    try:
        if "sma_weights" in raw:
            w = raw["sma_weights"]
            if not isinstance(w, (list, tuple)) or len(w) != 4:
                raise ValueError("sma_weights must be a list of 4 numbers")
            raw["sma_weights"] = SmaWeights(*(float(x) for x in w))
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
    weights = SmaWeights(args.lambda0, args.lambda1, args.lambda2, args.lambda3)
    loss = sma_loss(_read_imv(args), weights, boundary=args.boundary)
    print(repr(float(loss)))
    return EXIT_OK


def cmd_oracle(args) -> int:
    if not 2 <= args.t1 <= args.t2:
        print(f"error: the oracle needs 2 <= t1 <= t2, got t1={args.t1}, t2={args.t2}", file=sys.stderr)
        return EXIT_USAGE
    size = args.t1 * args.t2
    # one matrix alone over the cap: the count is not worth computing
    count = math.comb(args.t2 - 1, args.t1 - 1) if size <= MAX_ALIGNMENT_ENTRIES else None
    if count is None or count * size > MAX_ALIGNMENT_ENTRIES:
        paths = f"C({args.t2 - 1}, {args.t1 - 1})" if count is None else count
        print(
            f"error: {args.t1}x{args.t2} has {paths} monotonic paths; the oracle "
            f"builds at most {MAX_ALIGNMENT_ENTRIES} matrix entries",
            file=sys.stderr,
        )
        return EXIT_USAGE
    paths = enumerate_monotonic_paths(args.t1, args.t2)
    # a path's IMV is integer, so the exact step constraint allows steps of 0 or 1 only
    reports = [validate_imv(compute_imv(m), tol=0.0) for m in paths]
    ok = all(r.monotone_continuous and r.complete for r in reports)
    print(f"{len(paths)} paths, {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_gradcheck(args) -> int:
    report = run_check(args.op, seed=args.seed, h=args.h, tol=args.tol)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_train_toy(args) -> int:
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
    parser = argparse.ArgumentParser(
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
        p.add_argument("--t1", required=True, type=int, help="input length bound")

    p = sub.add_parser("hma", help="hard monotonic transform of a raw IMV")
    imv_args(p)
    p.add_argument("--out", help="write the transformed IMV")
    p.set_defaults(func=cmd_hma)

    p = sub.add_parser("reconstruct", help="Gaussian alignment matrix from an IMV")
    imv_args(p)
    p.add_argument("--sigma2", type=float, default=KernelConfig.sigma2)
    p.add_argument("--out", required=True, help="output matrix CSV")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("positions", help="aligned output position per input token")
    imv_args(p)
    p.add_argument("--sigma2", type=float, default=KernelConfig.sigma2)
    p.add_argument("--out", help="write the positions as single-column CSV")
    p.set_defaults(func=cmd_positions)

    p = sub.add_parser("sma", help="soft monotonic alignment loss of an IMV")
    imv_args(p)
    for i in range(4):
        p.add_argument(f"--lambda{i}", type=float, default=1.0)
    p.add_argument("--boundary", choices=("square", "abs"), default="square")
    p.set_defaults(func=cmd_sma)

    p = sub.add_parser("oracle", help="enumerate hard monotonic paths and verify their IMVs")
    p.add_argument("--t1", required=True, type=int)
    p.add_argument("--t2", required=True, type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gradcheck", help="finite-difference check of a named operation")
    p.add_argument("--op", required=True, choices=sorted(CHECKABLE_OPS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
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
    except (DegenerateImvError, NonFiniteError, TrainDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AlignmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, FileNotFoundError) as exc:
        # malformed files and configs (MatrixFormatError, ConfigError) and
        # settings the library's configs reject
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
