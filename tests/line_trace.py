"""List the statements of ``src/imvalign`` that a run never executes.

Runs pytest, or with ``--callers`` the package's own callers, in this
interpreter under :func:`sys.settrace`, records every line of
``src/imvalign/*.py`` that executes, and prints each statement none of whose
lines ran as ``file:line: source``. It needs only the standard library and
pytest (``coverage`` is not required) and is not itself a test.

    python tests/line_trace.py              # the whole suite
    python tests/line_trace.py --fast       # without criteria 7/8 and the golden test
    python tests/line_trace.py -- -k autodiff   # pytest arguments after --
    python tests/line_trace.py --callers    # the demos, the CLI and the benchmark

Code that runs only in a child process shows as unrun: under pytest, the
demos and the CLI tests that start a fresh interpreter trace nothing here.
``--callers`` runs no test. It runs every demo in a temporary working
directory, every CLI subcommand through ``cli.main`` on small generated files
(``gradcheck`` once per checkable op, and one command as ``python -m
imvalign.cli`` does), and one round each of the benchmark's toy-train (small),
align-long and grad-long workloads, at seed 1. A statement it leaves unrun is
one that only the tests reach.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dis
import importlib.util
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import types
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "imvalign"
SLOW = [
    "--deselect", "tests/test_acceptance.py::test_criterion_7_mode_convergence_contrast",
    "--deselect", "tests/test_acceptance.py::test_criterion_8_rate_control",
    "--ignore", str(ROOT / "tests" / "test_golden_toy.py"),
]


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines at which bytecode of ``code`` or a nested code object starts."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(source: str, filename: str):
    """(first line, lines that can run) for each statement and ``except``
    clause; a compound statement owns its header lines, not its body's."""
    tree = ast.parse(source, filename)
    executable = _code_lines(compile(source, filename, "exec"))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, (ast.stmt, ast.excepthandler)):
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        if own & executable:
            yield node.lineno, own & executable


def trace(run) -> tuple[int, dict[str, set[int]]]:
    """Call ``run()``; return what it returned and the executed lines of
    each package file."""
    hits: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def _run_demos(workdir: Path) -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        cwd = workdir / demo.stem
        cwd.mkdir()
        os.chdir(cwd)
        runpy.run_path(str(demo), run_name="__main__")


def _run_cli(workdir: Path) -> list[str]:
    """Every subcommand through ``cli.main``; the failed commands."""
    import numpy as np

    from imvalign import cli
    from imvalign.checks import CHECKABLE_OPS
    from imvalign.matrixio import write_matrix, write_vector

    rng = np.random.default_rng(1)
    alpha = rng.random((5, 12)) + 4.0 * np.eye(5).repeat(3, axis=1)[:, :12]
    alpha /= alpha.sum(axis=0)
    raw = alpha.T @ np.arange(5.0)
    files = {name: str(workdir / name) for name in ("alpha.csv", "raw.csv", "star.csv", "config.json")}
    write_matrix(files["alpha.csv"], alpha)
    write_vector(files["raw.csv"], raw)
    write_vector(files["star.csv"], np.linspace(0.0, 4.0, 12))
    Path(files["config.json"]).write_text(json.dumps({
        "steps": 3, "report_path": str(workdir / "report.jsonl"),
        "heatmap_path": str(workdir / "heatmap.pgm")}))
    imv = lambda name: ["--imv", files[name], "--t1", "5"]
    commands = [
        ["imv", "--alignment", files["alpha.csv"]],
        ["imv", "--alignment", files["alpha.csv"], "--out", str(workdir / "imv.csv")],
        ["hma", *imv("raw.csv"), "--out", str(workdir / "hma.csv")],
        ["reconstruct", *imv("star.csv"), "--out", str(workdir / "rec.csv")],
        ["positions", *imv("star.csv"), "--out", str(workdir / "pos.csv")],
        ["sma", *imv("raw.csv")],
        ["oracle", "--t1", "3", "--t2", "5"],
        *(["gradcheck", "--op", op] for op in sorted(CHECKABLE_OPS)),
        ["train-toy", "--config", files["config.json"]],
        ["heatmap", "--alignment", files["alpha.csv"], "--out", str(workdir / "alpha.pgm")],
    ]
    failed = [" ".join(argv) for argv in commands if cli.main(argv) != 0]
    # as `python -m imvalign.cli` runs it
    argv, sys.argv = sys.argv, ["imvalign", "oracle", "--t1", "3", "--t2", "4"]
    try:
        with warnings.catch_warnings():
            # runpy warns that the module it runs again is already imported
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("imvalign.cli", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            failed.append("python -m imvalign.cli " + " ".join(sys.argv[1:]))
    finally:
        sys.argv = argv
    return failed


def _run_benchmark() -> int:
    """One round each of toy-train (small), align-long and grad-long; the
    number of failed operations and round checks."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # for workloads' sibling imports
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    stats = workloads.Stats()
    workloads.toy_round(workloads.toy_inputs(1, small=True), stats, {}, contextlib.nullcontext)
    for seq in workloads.align_inputs(1, small=False):
        workloads.align_sequence(seq, stats)
    for seq in workloads.grad_inputs(1, small=False):
        workloads.grad_sequence(seq, stats, contextlib.nullcontext)
    return stats.failed + int(stats.sums.get("round_checks_failed", 0))


def run_callers() -> int:
    """Run the demos, the CLI and the benchmark rounds; 0 when all passed."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        workdir = Path(tmp)
        try:
            _run_demos(workdir)
        finally:
            os.chdir(cwd)
        failed_commands = _run_cli(workdir)
        failed_ops = _run_benchmark()
    for command in failed_commands:
        print(f"failed: imvalign {command}", file=sys.stderr)
    if failed_ops:
        print(f"failed: {failed_ops} benchmark operation(s) or round check(s)", file=sys.stderr)
    return int(bool(failed_commands or failed_ops))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fast", action="store_true",
                        help="skip criteria 7/8 and the golden test (the slow training runs)")
    parser.add_argument("--callers", action="store_true",
                        help="run the demos, the CLI and the benchmark rounds instead of pytest")
    parser.add_argument("pytest_args", nargs="*", help="passed to pytest after --")
    args = parser.parse_args(argv)
    if args.callers:
        code, hits = trace(run_callers)
        what = "by the demos, the CLI and the benchmark rounds"
    else:
        import pytest

        pytest_args = [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *args.pytest_args]
        code, hits = trace(lambda: pytest.main(pytest_args + (SLOW if args.fast else [])))
        what = ("in this process (code run only in subprocesses, such as the demos "
                "and the fresh-interpreter CLI tests, shows as unrun)")

    unrun = 0
    print(f"\nStatements of src/imvalign never executed {what}:")
    for filename in sorted(hits):
        source = Path(filename).read_text(encoding="utf-8")
        lines = source.splitlines()
        for lineno, own in sorted(_statements(source, filename)):
            if not own & hits[filename]:
                unrun += 1
                print(f"{Path(filename).relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{unrun} statement(s) unrun; exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
