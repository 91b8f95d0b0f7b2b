"""Monotonic sequence alignment via index mapping vectors.

The index mapping vector (IMV) of an alignment matrix gives the expected
input position for every output step. This package provides the IMV
calculus — soft and hard monotonic constraints, Gaussian alignment
reconstruction, aligned-position extraction and length inference — plus a
small tape-based reverse-mode gradient engine so every operation is
trainable, and a desk-scale trainer contrasting the constraint strategies.

Submodules load on first use: ``import imvalign`` imports none of them, and
``imvalign.Imv`` (or ``from imvalign import Imv``) imports only ``core`` and
what it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines each.
_EXPORTS = {
    "autodiff": "GradCheckReport NonDeterministicError NonFiniteError Tape Value forward_backward gradcheck",
    "attention": "scaled_dot_alignment",
    "checks": "CHECKABLE_OPS run_check",
    "core": "AlignmentError Imv ImvValidationReport TrainDivergenceError UntrainedModelError check_alignment "
    "compute_imv context_map enumerate_monotonic_paths index_vector validate_imv",
    "monotonic": "DegenerateImvError KernelConfig SmaWeights StreamingHmaState align_from_imv hma_transform "
    "sma_loss streaming_hma_run streaming_hma_step",
    "positions": "AlignedPositions align_from_positions ap_loss extract_positions "
    "infer_t2 scale_positions",
    "toy": "MODES SequenceForward ToyBatch ToyModel ToyTask TrainConfig TrainReport alignment_accuracy "
    "diagonality_score infer make_batch positions_from_durations sequence_forward token_patterns train",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    """Import a public name's submodule, or a submodule, on first use."""
    module = _SOURCE.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
