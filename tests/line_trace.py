"""List the statements of ``src/imvalign`` that a pytest run never executes.

Runs pytest in this interpreter under :func:`sys.settrace`, records every
line of ``src/imvalign/*.py`` that executes, and prints each statement none
of whose lines ran as ``file:line: source``. It needs only the standard
library and pytest (``coverage`` is not required) and is not itself a test.

    python tests/line_trace.py              # the whole suite
    python tests/line_trace.py --fast       # without criteria 7/8 and the golden test
    python tests/line_trace.py -- -k autodiff   # pytest arguments after --

Code that runs only in a child process shows as unrun: the demos and the
CLI tests that start a fresh interpreter trace nothing here.
"""

from __future__ import annotations

import argparse
import ast
import dis
import sys
import threading
import types
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


def trace(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args``; return its exit code and the
    executed lines of each package file."""
    import pytest

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
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fast", action="store_true",
                        help="skip criteria 7/8 and the golden test (the slow training runs)")
    parser.add_argument("pytest_args", nargs="*", help="passed to pytest after --")
    args = parser.parse_args(argv)
    pytest_args = [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *args.pytest_args]
    code, hits = trace(pytest_args + (SLOW if args.fast else []))

    unrun = 0
    print("\nStatements of src/imvalign never executed in this process "
          "(code run only in subprocesses, such as the demos and the "
          "fresh-interpreter CLI tests, shows as unrun):")
    for filename in sorted(hits):
        source = Path(filename).read_text(encoding="utf-8")
        lines = source.splitlines()
        for lineno, own in sorted(_statements(source, filename)):
            if not own & hits[filename]:
                unrun += 1
                print(f"{Path(filename).relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{unrun} statement(s) unrun; pytest exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
