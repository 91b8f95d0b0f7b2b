"""Monotonic sequence alignment via index mapping vectors.

The index mapping vector (IMV) of an alignment matrix gives the expected
input position for every output step. This package provides the IMV
calculus — soft and hard monotonic constraints, Gaussian alignment
reconstruction, aligned-position extraction and length inference — plus a
small tape-based reverse-mode gradient engine so every operation is
trainable, and a desk-scale trainer contrasting the constraint strategies.
"""

from .autodiff import (
    GradCheckReport,
    NonDeterministicError,
    NonFiniteError,
    Tape,
    Value,
    forward_backward,
    gradcheck,
)
from .attention import scaled_dot_alignment
from .checks import CHECKABLE_OPS, run_check
from .core import (
    AlignmentError,
    Imv,
    ImvValidationReport,
    check_alignment,
    compute_imv,
    context_map,
    enumerate_monotonic_paths,
    index_vector,
    validate_imv,
)
from .monotonic import (
    DegenerateImvError,
    KernelConfig,
    SmaWeights,
    StreamingHmaState,
    align_from_imv,
    hma_transform,
    sma_loss,
    streaming_hma_run,
    streaming_hma_step,
)
from .positions import (
    AlignedPositions,
    ApLossConfig,
    align_from_positions,
    ap_loss,
    density_matrix,
    extract_positions,
    infer_t2,
    scale_positions,
)
from .toy import (
    MODES,
    SequenceForward,
    ToyBatch,
    ToyModel,
    ToyTask,
    TrainConfig,
    TrainDivergenceError,
    TrainReport,
    UntrainedModelError,
    alignment_accuracy,
    diagonality_score,
    infer,
    make_batch,
    positions_from_durations,
    sequence_forward,
    token_patterns,
    train,
)

__version__ = "0.1.0"
