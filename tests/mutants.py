"""Mutation testing: each listed bug must fail the tests named for it.

A mutant is (file, exact snippet, replacement, test ids). For each one this
script copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml``
into a temporary directory, replaces the snippet in the copy, runs pytest
there on the named tests, and reports the mutant killed (a test failed) or
survived (all passed). A survivor means a missing test. The exit code is 1
when a mutant survived or a run went wrong (pytest could not run the tests,
or imported ``imvalign`` from somewhere other than the copy), else 0. It
needs only the standard library and pytest, and is not itself a test:
running every mutant takes minutes.

    python tests/mutants.py              # every mutant
    python tests/mutants.py -k adam      # the mutants whose name contains "adam"
    python tests/mutants.py --list

``tests/test_mutants.py`` checks that each snippet occurs exactly once in
its file, so that a change to the code cannot silently disable a mutant.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "adam-first-moment-rate-rounded",
        "src/imvalign/toy.py",
        "m += (1 - 0.9) * (grad - m)",
        "m += 0.1 * (grad - m)",
        ("tests/test_toy.py::test_flat_optimizers_equal_the_per_parameter_updates",),
    ),
    Mutant(
        "streaming-nearest-row-truncated",
        "src/imvalign/monotonic.py",
        "shift = logits[min(max(round(new_pi), 0), t1 - 1)]",
        "shift = logits[min(max(int(new_pi), 0), t1 - 1)]",
        ("tests/test_monotonic.py::test_streaming_step_and_run_match_the_reference_bit_for_bit",),
    ),
    Mutant(
        "softmax-gradient-negated-in-place",
        "src/imvalign/autodiff.py",
        "t = np.multiply(np.negative(g), y)",
        "t = -g\n    t *= y",
        ("tests/test_golden_toy.py::test_toy_training_matches_the_golden_file",),
    ),
    Mutant(
        "second-variables-call-per-step",
        "src/imvalign/toy.py",
        "    params = model.variables(tape)\n",
        "    model.variables(tape)\n    params = model.variables(tape)\n",
        ("tests/test_benchmark_hooks.py::test_train_asks_for_tape_variables_once_per_step",),
    ),
    Mutant(
        "far-position-check-removed",
        "src/imvalign/monotonic.py",
        "    if not isfinite(d * d * (-1.0 / kernel.sigma2)):\n",
        "    if False:\n",
        ("tests/test_monotonic.py::test_align_from_imv_raises_exactly_where_a_position_is_too_far",
         "tests/test_cli.py::test_reconstruct_rejects_a_position_too_far_from_every_row"),
    ),
    Mutant(
        "far-position-distance-not-clamped-inside-the-rows",
        "src/imvalign/monotonic.py",
        "d = max(-lo, hi - (imv.t1 - 1.0), 0.0)",
        "d = max(-lo, hi - (imv.t1 - 1.0))",
        ("tests/test_monotonic.py::test_align_from_imv_raises_exactly_where_a_position_is_too_far",),
    ),
    Mutant(
        "reference-sub-gradient-sign",
        "tests/reference_tape.py",
        "_accumulate(b, ad._unbroadcast(-g, b_data.shape))",
        "_accumulate(b, ad._unbroadcast(g, b_data.shape))",
        ("tests/test_autodiff.py::test_fused_sma_penalty_is_bit_identical_to_chain",),
    ),
    Mutant(
        "reference-div-gradient-sign",
        "tests/reference_tape.py",
        "_accumulate(b, ad._unbroadcast(-g * out_data / b_data, b_data.shape))",
        "_accumulate(b, ad._unbroadcast(g * out_data / b_data, b_data.shape))",
        ("tests/test_autodiff.py::test_fused_softmax_is_bit_identical_to_chain",),
    ),
    Mutant(
        "matmul-vector-backward-as-plain-matmul",
        "src/imvalign/autodiff.py",
        "(g2 * b2.T if bd.ndim == 1 else g2 @ b2.T)",
        "(g2 @ b2.T)",
        ("tests/test_autodiff.py::test_matmul_gradients_equal_the_four_branch_backward",),
    ),
    Mutant(
        "band-edge-check-dropped",
        "src/imvalign/autodiff.py",
        "    if ends[0, lo > 0].any() or ends[-1, lo < n - width].any():\n",
        "    if False:\n",
        ("tests/test_autodiff.py::test_band_falls_back_where_rounding_widens_the_window",),
    ),
    Mutant(
        "gradcheck-kink-exclusion-dropped",
        "src/imvalign/autodiff.py",
        "            if not _signatures_equal(plus_sig, minus_sig):\n",
        "            if False:\n",
        ("tests/test_autodiff.py::test_relu_at_zero_is_excluded_not_failed",
         "tests/test_autodiff.py::test_hma_rectifier_kink_is_excluded_not_failed"),
    ),
    Mutant(
        "validate-imv-upper-tolerance-dropped",
        "src/imvalign/core.py",
        "(deltas > 1.0 + tol)",
        "(deltas > 1.0)",
        ("tests/test_core.py", "tests/test_acceptance.py::test_criterion_2_constraint_equivalence"),
    ),
    Mutant(
        "validate-imv-lower-tolerance-dropped",
        "src/imvalign/core.py",
        "(deltas < -tol)",
        "(deltas < 0.0)",
        ("tests/test_core.py", "tests/test_acceptance.py::test_criterion_2_constraint_equivalence"),
    ),
    Mutant(
        "validate-imv-boundary-tolerance-dropped",
        "src/imvalign/core.py",
        "abs(pi[0]) <= tol and abs(pi[-1] - (imv.t1 - 1)) <= tol",
        "pi[0] == 0.0 and pi[-1] == imv.t1 - 1",
        ("tests/test_core.py", "tests/test_acceptance.py::test_criterion_2_constraint_equivalence"),
    ),
    Mutant(
        "first-nonfinite-needs-every-entry-bad",
        "src/imvalign/autodiff.py",
        "            if not np.isfinite(v.data).all():\n",
        "            if not np.isfinite(v.data).any():\n",
        ("tests/test_autodiff.py::test_scan_names_the_node_a_checking_tape_raises_at",),
    ),
    Mutant(
        "release-keeps-the-nodes-tape",
        "src/imvalign/autodiff.py",
        "        for v in self.nodes:\n            v.tape = None\n",
        "        for v in self.nodes:\n            pass\n",
        ("tests/test_autodiff.py::test_release_keeps_the_nodes_gradients_and_first_nonfinite_node",),
    ),
)


# Written into the copy and loaded with -p: records where imvalign came from.
_ORIGIN_PLUGIN = """\
import sys


def pytest_sessionfinish(session):
    module = sys.modules.get("imvalign")
    with open({out!r}, "w", encoding="utf-8") as fh:
        fh.write(getattr(module, "__file__", None) or "")
"""


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "_work", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """("killed" | "survived" | "error", detail) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        copy.mkdir()
        _copy_checkout(copy)
        target = copy / mutant.path
        source = target.read_text(encoding="utf-8")
        if source.count(mutant.snippet) != 1:
            return "error", f"snippet occurs {source.count(mutant.snippet)} times in {mutant.path}"
        target.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        plugins = Path(tmp) / "plugins"
        plugins.mkdir()
        origin = Path(tmp) / "origin.txt"
        (plugins / "mutant_origin.py").write_text(_ORIGIN_PLUGIN.format(out=str(origin)), encoding="utf-8")
        src = copy / "src"
        # The copy's own src must come first: the checkout's pythonpath setting
        # and an inherited PYTHONPATH would otherwise import the unmutated code.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(plugins)])}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-p", "mutant_origin",
             "--rootdir", str(copy), "-o", f"pythonpath={src}", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        imported = origin.read_text(encoding="utf-8") if origin.exists() else ""
        if not imported.startswith(str(src) + os.sep):
            return "error", f"imvalign was imported from {imported or 'nowhere'}, not the copy"
        summary = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
        if proc.returncode == 1:
            return "killed", summary
        if proc.returncode == 0:
            return "survived", summary
        return "error", f"pytest exit code {proc.returncode}: {summary}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", dest="pattern", default="", help="run the mutants whose name contains this")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.pattern in m.name]
    if args.list:
        for m in chosen:
            print(f"{m.name}: {m.path}: {m.snippet.strip()!r} -> {m.replacement.strip()!r}")
        return 0
    outcomes = []
    for mutant in chosen:
        outcome, detail = run_mutant(mutant)
        outcomes.append(outcome)
        print(f"{outcome:8s} {mutant.name}: {detail}", flush=True)
    counts = {o: outcomes.count(o) for o in ("killed", "survived", "error")}
    print(f"{counts['killed']} killed, {counts['survived']} survived, {counts['error']} error(s)")
    return int(counts["survived"] > 0 or counts["error"] > 0)


if __name__ == "__main__":
    sys.exit(main())
