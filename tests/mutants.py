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
        "near = round(new_pi)\n",
        "near = int(new_pi)\n",
        ("tests/test_monotonic.py::test_streaming_step_at_a_tiny_sigma2_is_one_hot_at_the_nearest_row",),
    ),
    Mutant(
        "streaming-band-radius-drops-the-gap",
        "src/imvalign/monotonic.py",
        "radius = sqrt(gap * gap - BAND_CUTOFF * sigma2)",
        "radius = sqrt(-BAND_CUTOFF * sigma2)",
        ("tests/test_monotonic.py::test_streaming_step_is_within_its_bound_of_the_dense_kernel",),
    ),
    Mutant(
        "streaming-band-window-one-row-short",
        "src/imvalign/monotonic.py",
        "hi = floor(last) + 1 if",
        "hi = floor(last) if",
        ("tests/test_monotonic.py::test_streaming_step_is_within_its_bound_of_the_dense_kernel",
         "tests/test_monotonic.py::test_streaming_step_at_a_tiny_sigma2_is_one_hot_at_the_nearest_row"),
    ),
    Mutant(
        "data-fast-path-skips-the-dtype-check",
        "src/imvalign/autodiff.py",
        "if type(x) is np.ndarray and x.dtype is _FLOAT64:",
        "if isinstance(x, np.ndarray):",
        ("tests/test_autodiff.py::test_data_returns_a_float64_array_itself_and_converts_anything_else",),
    ),
    Mutant(
        "size-cap-message-prints-a-huge-length-in-full",
        "src/imvalign/core.py",
        'return f"{Decimal(n):.3g}"',
        "return str(n)",
        ("tests/test_cli.py::test_a_huge_length_over_the_size_cap_gives_a_short_error_line",
         "tests/test_toy.py::test_infer_names_a_huge_output_length_in_a_short_message",
         "tests/test_core.py::test_size_cap_names_a_length_too_long_for_str"),
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
        "    j = ad.first_far_entry(rows, p, kernel.sigma2)\n",
        "    j = None\n",
        ("tests/test_monotonic.py::test_align_from_imv_raises_exactly_where_a_position_is_too_far",),
    ),
    Mutant(
        "far-position-row-resolution-bound-dropped",
        "src/imvalign/monotonic.py",
        "if j is not None or huge.size:",
        "if j is not None:",
        ("tests/test_monotonic.py::test_align_from_imv_raises_exactly_where_a_position_is_too_far",
         "tests/test_cli.py::test_reconstruct_rejects_a_position_past_float64_row_resolution"),
    ),
    Mutant(
        "far-bound-takes-the-larger-magnitude-not-their-sum",
        "src/imvalign/autodiff.py",
        "reach = float(np.abs(a).max(initial=0.0)) + float(np.abs(b).max(initial=0.0))",
        "reach = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))",
        ("tests/test_positions.py::test_a_positions_kernel_raises_exactly_where_an_entry_is_too_far",),
    ),
    Mutant(
        "far-nearest-search-takes-one-neighbour",
        "src/imvalign/autodiff.py",
        'np.minimum(b - a.take(k - 1, mode="clip"), a.take(k, mode="clip") - b)',
        'a.take(k, mode="clip") - b',
        ("tests/test_positions.py::test_a_positions_kernel_raises_exactly_where_an_entry_is_too_far",),
    ),
    Mutant(
        "nonfinite-positions-check-dropped",
        "src/imvalign/positions.py",
        "    i = ad.first_far_entry(imv.values, tokens, kernel.sigma2)\n",
        "    i = None\n",
        ("tests/test_positions.py::test_extract_positions_rejects_a_finite_imv_too_far_from_a_token",
         "tests/test_cli.py::test_positions_rejects_a_finite_imv_too_far_from_every_token"),
    ),
    Mutant(
        "density-matrix-far-check-dropped",
        "src/imvalign/positions.py",
        "    if i is not None:\n",
        "    if False:\n",
        ("tests/test_positions.py::test_a_positions_kernel_raises_exactly_where_an_entry_is_too_far",),
    ),
    Mutant(
        "nonfinite-positions-check-refuses-a-nonfinite-imv",
        "src/imvalign/autodiff.py",
        "np.flatnonzero(np.isfinite(b))",
        "np.arange(b.size)",
        ("tests/test_monotonic.py::test_align_from_imv_gives_a_nonfinite_position_a_nan_column",),
    ),
    Mutant(
        "far-token-scan-replaced-by-the-reach-bound",
        "src/imvalign/autodiff.py",
        "far = np.isinf(near * near * scale)",
        "far = np.ones(near.shape, dtype=bool)",
        ("tests/test_positions.py::test_a_positions_kernel_raises_exactly_where_an_entry_is_too_far",
         "tests/test_monotonic.py::test_align_from_imv_raises_exactly_where_a_position_is_too_far"),
    ),
    Mutant(
        "align-from-positions-far-check-dropped",
        "src/imvalign/positions.py",
        "    j = ad.first_far_entry(e, steps, kernel.sigma2)\n",
        "    j = None\n",
        ("tests/test_positions.py::test_a_positions_kernel_raises_exactly_where_an_entry_is_too_far",),
    ),
    Mutant(
        "cli-imports-the-trainer-at-module-level",
        "src/imvalign/cli.py",
        "from .positions import extract_positions\n",
        "from .positions import extract_positions\nfrom .toy import train\n",
        ("tests/test_imports.py::test_importing_the_cli_loads_neither_the_trainer_nor_json",),
    ),
    Mutant(
        "package-getattr-imports-an-unknown-name",
        "src/imvalign/__init__.py",
        "    if module is None and name not in _EXPORTS:\n",
        "    if False:\n",
        ("tests/test_imports.py::test_an_unknown_name_raises_attribute_error",),
    ),
    Mutant(
        "run-config-accepts-a-directory-as-an-output-path",
        "src/imvalign/cli.py",
        "if out and (os.path.isdir(out) or not",
        "if out and (not",
        ("tests/test_cli.py::test_an_unusable_path_exits_2_with_one_error_line",),
    ),
    Mutant(
        "cli-error-line-not-bounded",
        "src/imvalign/cli.py",
        "if len(message) <= _MAX_ERROR_CHARS else",
        "if True else",
        ("tests/test_cli.py::test_an_error_quoting_a_huge_input_gives_one_short_error_line",),
    ),
    Mutant(
        "exit-code-looked-up-by-exact-class",
        "src/imvalign/cli.py",
        "return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)",
        "return EXIT_CODES[type(exc)]",
        ("tests/test_cli.py::test_a_library_exception_raised_by_a_command_exits_with_its_code",),
    ),
    Mutant(
        "oracle-cap-refuses-exactly-its-entries",
        "src/imvalign/core.py",
        "count * t1 * t2 > MAX_ALIGNMENT_ENTRIES",
        "count * t1 * t2 >= MAX_ALIGNMENT_ENTRIES",
        ("tests/test_core.py::test_enumerate_cap_admits_exactly_its_entries",),
    ),
    Mutant(
        "oracle-count-computed-for-any-size",
        "src/imvalign/core.py",
        "math.comb(t2 - 1, t1 - 1) if t1 * t2 <= MAX_ALIGNMENT_ENTRIES else None",
        "math.comb(t2 - 1, t1 - 1)",
        ("tests/test_core.py::test_enumerate_refuses_sizes_over_its_cap_before_building_a_path",
         "tests/test_cli.py::test_oracle_refuses_sizes_over_its_cap"),
    ),
    Mutant(
        "oracle-count-skipped-at-one-matrix-of-exactly-the-cap",
        "src/imvalign/core.py",
        "if t1 * t2 <= MAX_ALIGNMENT_ENTRIES else None",
        "if t1 * t2 < MAX_ALIGNMENT_ENTRIES else None",
        ("tests/test_core.py::test_enumerate_cap_admits_exactly_its_entries",),
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
        "    if z[0, lo > 0].any() or z[-1, lo < n - width].any():\n",
        "    if False:\n",
        ("tests/test_autodiff.py::test_band_falls_back_where_rounding_widens_the_window",),
    ),
    Mutant(
        "band-mask-left-at-the-exp-underflow-constant",
        "src/imvalign/autodiff.py",
        "_masked_softmax(logits, 0, BAND_CUTOFF)",
        "_masked_softmax(logits, 0)",
        ("tests/test_autodiff.py::test_banded_gaussian_softmax_matches_the_dense_chain",),
    ),
    Mutant(
        "band-cutoff-loosened",
        "src/imvalign/autodiff.py",
        "BAND_CUTOFF = math.log(2.0 ** -53)",
        "BAND_CUTOFF = -20.0",
        ("tests/test_autodiff.py::test_band_is_within_its_stated_bound_of_the_dense_kernel",),
    ),
    Mutant(
        "band-window-as-wide-as-a-not-refused",
        "src/imvalign/autodiff.py",
        "    if width >= n:\n",
        "    if False:\n",
        ("tests/test_autodiff.py::test_band_edge_cases_run_dense_where_it_cannot_apply",),
    ),
    Mutant(
        "band-size-gate-refuses-exactly-its-entries",
        "src/imvalign/autodiff.py",
        "if n * m < _BAND_MIN_ENTRIES",
        "if n * m <= _BAND_MIN_ENTRIES",
        ("tests/test_autodiff.py::test_band_runs_from_its_size_constant_of_entries",),
    ),
    Mutant(
        "positions-frame-index-shifted",
        "src/imvalign/autodiff.py",
        "e = (y * idx).sum(axis=0)",
        "e = (y * (idx + 1)).sum(axis=0)",
        ("tests/test_positions.py::test_banded_positions_are_the_density_matrix_s_mean_within_their_bound",
         "tests/test_autodiff.py::test_banded_positions_gradients_equal_the_banded_chain_bit_for_bit"),
    ),
    Mutant(
        "positions-nonfinite-upstream-fallback-dropped",
        "src/imvalign/autodiff.py",
        "        if dense is None and np.isfinite(g.sum()):\n",
        "        if dense is None:\n",
        ("tests/test_autodiff.py::test_a_nonfinite_upstream_gradient_gives_the_positions_chain_s_gradients",),
    ),
    Mutant(
        "positions-dense-steps-reversed",
        "src/imvalign/autodiff.py",
        "e = y @ steps",
        "e = y @ steps[::-1]",
        ("tests/test_autodiff.py::test_dense_positions_are_one_node_and_the_dense_chain_bit_for_bit",),
    ),
    Mutant(
        "positions-dense-gradient-operands-swapped",
        "src/imvalign/autodiff.py",
        "g_t, g_p = grads(np.outer(g, steps), want_t, want_p)",
        "g_t, g_p = grads(np.outer(g, steps), want_p, want_t)",
        ("tests/test_autodiff.py::test_dense_positions_are_one_node_and_the_dense_chain_bit_for_bit",),
    ),
    Mutant(
        "positions-band-below-its-size-constant",
        "src/imvalign/autodiff.py",
        "if td.size * pd.size >= _BAND_MIN_ENTRIES else None",
        "if True else None",
        ("tests/test_autodiff.py::test_positions_band_runs_from_its_size_constant_of_entries",
         "tests/test_toy.py::test_default_training_runs_the_dense_gaussian_kernel"),
    ),
    Mutant(
        "hma-rectifier-leaks-negative-steps",
        "src/imvalign/autodiff.py",
        "np.maximum(d, 0.0)",
        "np.maximum(d, 0.01 * d)",
        ("tests/test_relations.py::test_the_hard_transform_of_its_own_output_is_that_output",),
    ),
    Mutant(
        "align-from-positions-accepts-a-length-that-is-not-an-integer",
        "src/imvalign/positions.py",
        "    if not is_integer(t2) or t2 < 1:\n",
        "    if t2 < 1:\n",
        ("tests/test_positions.py::test_align_from_positions_refuses_a_length_that_is_not_an_integer",),
    ),
    Mutant(
        "align-from-positions-step-grid-stretched",
        "src/imvalign/positions.py",
        "    steps = index_vector(t2)\n",
        "    steps = np.linspace(0.0, t2, t2)\n",
        ("tests/test_relations.py::test_shifting_the_positions_and_the_length_shifts_the_alignment",),
    ),
    Mutant(
        "scale-positions-divides-by-the-rate",
        "src/imvalign/positions.py",
        "return AlignedPositions(positions.e * rate)",
        "return AlignedPositions(positions.e / rate)",
        ("tests/test_relations.py::test_a_higher_rate_never_infers_a_shorter_length",),
    ),
    Mutant(
        "infer-t2-non-finite-projection-not-refused",
        "src/imvalign/positions.py",
        "    if not math.isfinite(projected):\n",
        "    if False:\n",
        ("tests/test_positions.py::test_infer_t2_refuses_a_projection_that_is_not_finite",),
    ),
    Mutant(
        "scale-positions-overflow-guard-dropped",
        "src/imvalign/positions.py",
        "    if math.isinf(largest * float(rate)):\n",
        "    if False:\n",
        ("tests/test_positions.py::test_scale_positions_refuses_a_finite_position_that_would_overflow",
         "tests/test_toy.py::test_infer_refuses_a_rate_that_stretches_every_position_to_inf"),
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
        "(deltas <= 1.0 + tol)",
        "(deltas <= 1.0)",
        ("tests/test_core.py", "tests/test_acceptance.py::test_criterion_2_constraint_equivalence"),
    ),
    Mutant(
        "validate-imv-lower-tolerance-dropped",
        "src/imvalign/core.py",
        "(deltas >= -tol)",
        "(deltas >= 0.0)",
        ("tests/test_core.py", "tests/test_acceptance.py::test_criterion_2_constraint_equivalence"),
    ),
    Mutant(
        "validate-imv-nan-step-passes",
        "src/imvalign/core.py",
        "~((deltas >= -tol) & (deltas <= 1.0 + tol))",
        "(deltas < -tol) | (deltas > 1.0 + tol)",
        ("tests/test_core.py::test_validate_flags_a_nan_step",),
    ),
    Mutant(
        "validate-imv-report-always-monotone",
        "src/imvalign/core.py",
        "        return not self.violations\n",
        "        return True\n",
        ("tests/test_core.py::test_validate_flags_negative_step",),
    ),
    Mutant(
        "write-pgm-finite-check-dropped",
        "src/imvalign/matrixio.py",
        "    if not np.isfinite(m).all():\n",
        "    if False:\n",
        ("tests/test_matrixio.py::test_write_pgm_refuses_a_non_finite_entry_before_opening_the_file",),
    ),
    Mutant(
        "infer-negative-token-id-accepted",
        "src/imvalign/toy.py",
        "valid = (ids >= 0) & (ids < vocab)",
        "valid = (ids < vocab)",
        ("tests/test_toy.py::test_infer_refuses_token_ids_that_are_not_vocabulary_indices",),
    ),
    Mutant(
        "validate-imv-boundary-tolerance-dropped",
        "src/imvalign/core.py",
        "abs(pi[0]) <= tol and abs(pi[-1] - (imv.t1 - 1)) <= tol",
        "pi[0] == 0.0 and pi[-1] == imv.t1 - 1",
        ("tests/test_core.py", "tests/test_acceptance.py::test_criterion_2_constraint_equivalence"),
    ),
    Mutant(
        "step-gradient-keeps-a-negative-zero",
        "src/imvalign/autodiff.py",
        "x.grad + 0.0",
        "x.grad.copy()",
        ("tests/test_autodiff.py::test_step_gradients_keep_the_zero_signs_of_the_chain",),
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
    Mutant(
        "train-config-accepts-sgd",
        "src/imvalign/toy.py",
        'if self.optimizer != "adam":',
        'if self.optimizer not in ("sgd", "adam"):',
        ("tests/test_toy.py::test_train_config_rejects_invalid_numeric_settings",),
    ),
    Mutant(
        "run-check-refusal-dropped",
        "src/imvalign/checks.py",
        "    try:\n        builder = CHECKABLE_OPS[name]\n    except KeyError:\n",
        "    builder = CHECKABLE_OPS[name]\n    if False:\n",
        ("tests/test_cli.py::test_run_check_rejects_unknown_op", "tests/test_cli.py::test_gradcheck_command"),
    ),
    Mutant(
        "kernel-cap-refuses-exactly-the-cap",
        "src/imvalign/core.py",
        "if int(t1) * int(t2) > MAX_ALIGNMENT_ENTRIES:",
        "if int(t1) * int(t2) >= MAX_ALIGNMENT_ENTRIES:",
        ("tests/test_positions.py::test_every_gaussian_kernel_is_built_at_the_size_cap_and_refused_over_it",),
    ),
    Mutant(
        "kernel-cap-product-wraps-in-numpy-integers",
        "src/imvalign/core.py",
        "if int(t1) * int(t2) > MAX_ALIGNMENT_ENTRIES:",
        "if t1 * t2 > MAX_ALIGNMENT_ENTRIES:",
        ("tests/test_positions.py::test_every_gaussian_kernel_is_built_at_the_size_cap_and_refused_over_it",),
    ),
    Mutant(
        "read-body-shape-comparison-dropped",
        "src/imvalign/matrixio.py",
        "    if data.shape != shape:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_imv_refuses_a_header_wider_than_row_0_before_allocating",
         "tests/test_matrixio.py::test_read_matrix_rejects_bad_inputs"),
    ),
    Mutant(
        "read-body-finite-check-dropped",
        "src/imvalign/matrixio.py",
        "    if not np.isfinite(data).all():\n        raise MatrixFormatError(f\"{path}: non-finite",
        "    if False:\n        raise MatrixFormatError(f\"{path}: non-finite",
        ("tests/test_matrixio.py::test_read_matrix_rejects_bad_inputs",
         "tests/test_matrixio.py::test_read_vector_rejects_bad_inputs"),
    ),
    Mutant(
        "read-body-reads-a-trailing-comment",
        "src/imvalign/matrixio.py",
        'delimiter=",", comments=None,',
        'delimiter=",",',
        ("tests/test_matrixio.py::test_readers_refuse_what_only_float_or_a_comment_rule_would_read",),
    ),
    Mutant(
        "read-vector-takes-the-first-of-several-columns",
        "src/imvalign/matrixio.py",
        "(len(lines), 1)",
        '(len(lines), lines[0].count(",") + 1 if lines else 1)',
        ("tests/test_matrixio.py::test_read_vector_rejects_bad_inputs",),
    ),
    Mutant(
        "imv-accepts-a-non-integer-t1",
        "src/imvalign/core.py",
        "if not is_integer(self.t1) or self.t1 < 1:",
        "if self.t1 < 1:",
        ("tests/test_core.py::test_imv_refuses_a_t1_that_is_not_an_integer",),
    ),
    Mutant(
        "float-field-rule-dropped",
        "src/imvalign/core.py",
        'if f.type == "float" and not',
        "if False and not",
        ("tests/test_toy.py::test_train_config_rejects_invalid_numeric_settings",
         "tests/test_cli.py::test_run_config_refuses_a_setting_that_is_not_a_number_naming_it"),
    ),
    Mutant(
        "float-field-big-integer-clause-dropped",
        "src/imvalign/core.py",
        'if f.type == "float" and integer and abs(value) > sys.float_info.max:',
        "if False:",
        ("tests/test_monotonic.py::test_configs_refuse_a_field_that_is_not_a_real_naming_it",
         "tests/test_cli.py::test_run_config_refuses_a_setting_that_is_not_a_number_naming_it"),
    ),
    Mutant(
        "negative-seed-accepted",
        "src/imvalign/core.py",
        "    if seed < 0:\n",
        "    if False:\n",
        ("tests/test_toy.py::test_train_config_rejects_invalid_numeric_settings",
         "tests/test_cli.py::test_run_config_refuses_a_setting_that_is_not_a_number_naming_it",
         "tests/test_cli.py::test_run_check_refuses_a_negative_seed_naming_it",
         "tests/test_cli.py::test_gradcheck_refuses_a_negative_seed_on_one_error_line"),
    ),
    Mutant(
        "sma-weights-skip-the-field-rule",
        "src/imvalign/monotonic.py",
        "        check_fields(self)\n        for name in",
        "        for name in",
        ("tests/test_monotonic.py::test_configs_refuse_a_field_that_is_not_a_real_naming_it",),
    ),
    Mutant(
        "kernel-config-skips-the-field-rule",
        "src/imvalign/monotonic.py",
        "        check_fields(self)\n        if not (0 < self.sigma2",
        "        if not (0 < self.sigma2",
        ("tests/test_monotonic.py::test_configs_refuse_a_field_that_is_not_a_real_naming_it",),
    ),
    Mutant(
        "cli-reads-abbreviated-options",
        "src/imvalign/cli.py",
        "super().__init__(allow_abbrev=False, **kwargs)",
        "super().__init__(**kwargs)",
        ("tests/test_cli.py::test_gradcheck_invalid_setting_exits_2",
         "tests/test_cli.py::test_an_abbreviated_option_exits_2"),
    ),
    Mutant(
        "matrix-header-read-with-int",
        "src/imvalign/matrixio.py",
        "shape = tuple(int(n) for n in parse_numbers(lines[:1], np.int64)[0])",
        "shape = (int(header[0]), int(header[1]))",
        ("tests/test_matrixio.py::test_read_matrix_refuses_a_header_only_int_would_read",),
    ),
    Mutant(
        "t1-option-read-with-int",
        "src/imvalign/cli.py",
        'p.add_argument("--t1", required=True, type=_number(int), help=',
        'p.add_argument("--t1", required=True, type=int, help=',
        ("tests/test_cli.py::test_a_number_only_python_would_read_exits_2",),
    ),
    Mutant(
        "hma-transform-check-redraw-dropped",
        "src/imvalign/checks.py",
        "    while np.all(np.diff(pi) <= 0):\n",
        "    if False:\n",
        ("tests/test_cli.py::test_run_check_redraws_a_non_increasing_hma_transform_input",),
    ),
    Mutant(
        "ap-loss-without-its-stabiliser",
        "src/imvalign/positions.py",
        "AP_EPSILON = 1e-6",
        "AP_EPSILON = 0.0",
        ("tests/test_positions.py::test_ap_loss_identical_zeros",),
    ),
    Mutant(
        "infer-increment-check-dropped",
        "src/imvalign/toy.py",
        "    if bad.size:\n",
        "    if False:\n",
        ("tests/test_toy.py::test_infer_refuses_a_nonfinite_predicted_increment",),
    ),
    Mutant(
        "train-config-allows-zero-steps",
        "src/imvalign/toy.py",
        "if self.steps < 1 or",
        "if self.steps < 0 or",
        ("tests/test_toy.py::test_zero_steps_are_refused",),
    ),
    Mutant(
        "hma-rescales-to-t1",
        "src/imvalign/monotonic.py",
        "float(imv.t1 - 1), DEGENERATE_EPS)",
        "float(imv.t1), DEGENERATE_EPS)",
        ("tests/test_relations.py::test_time_reversal_reflects_the_output",),
    ),
    Mutant(
        "align-from-imv-row-grid-shifted",
        "src/imvalign/monotonic.py",
        "    rows = index_vector(imv.t1)\n",
        "    rows = index_vector(imv.t1) + 1.0\n",
        ("tests/test_relations.py::test_reflecting_the_imv_flips_its_alignment_on_both_axes",),
    ),
    Mutant(
        "density-token-grid-shifted",
        "src/imvalign/positions.py",
        "    tokens = index_vector(imv.t1)\n",
        "    tokens = index_vector(imv.t1) + 1.0\n",
        ("tests/test_relations.py::test_reflecting_the_imv_reflects_its_positions",),
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
