"""Desk-scale monotonic seq2seq task and trainer.

Synthetic stand-in for a text-to-frames problem: each vocabulary token has
a fixed frame pattern which the target repeats for a random duration, plus
noise. A small encoder/decoder is trained end to end through the alignment
machinery; the constraint mode (none, soft penalty, hard transform) is the
only thing that changes between runs, which makes the convergence contrast
between the three directly comparable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .attention import scaled_dot_alignment
from .core import MAX_ALIGNMENT_ENTRIES, AlignmentError, compute_imv, context_map
from .monotonic import DegenerateImvError, KernelConfig, SmaWeights, hma_transform, sma_loss
from .positions import ApLossConfig, AlignedPositions, align_from_positions, ap_loss, extract_positions, infer_t2, scale_positions

__all__ = [
    "MODES",
    "ToyTask",
    "ToyBatch",
    "TrainConfig",
    "TrainReport",
    "ToyModel",
    "SequenceForward",
    "TrainDivergenceError",
    "UntrainedModelError",
    "token_patterns",
    "positions_from_durations",
    "make_batch",
    "sequence_forward",
    "train",
    "infer",
    "alignment_accuracy",
    "diagonality_score",
]

MODES = ("NM", "SMA", "HMA")


class TrainDivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, step: int, cause: str):
        super().__init__(f"training diverged at step {step}: {cause}")
        self.step = step


class UntrainedModelError(RuntimeError):
    """Inference was requested from a model that was never trained."""


def _require_integer_fields(config) -> None:
    """Raise ValueError unless every ``int`` field of the dataclass ``config``
    holds an integer: a numpy integer is one, a bool or a float is not."""
    for f in fields(config):
        value = getattr(config, f.name)
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if f.type == "int" and not integer:
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ToyTask:
    """Synthetic monotonic transduction task definition."""

    vocab: int = 6
    embed_dim: int = 16
    frame_dim: int = 8
    dmin: int = 1
    dmax: int = 4
    noise_sigma: float = 0.1
    t1_min: int = 4
    t1_max: int = 8
    seed: int = 0

    def __post_init__(self):
        _require_integer_fields(self)
        if self.vocab < 2:
            raise ValueError("vocab must be >= 2")
        if self.embed_dim < 1 or self.frame_dim < 1:
            raise ValueError("embed_dim and frame_dim must be >= 1")
        if self.dmin < 1 or self.dmax < self.dmin:
            raise ValueError("need 1 <= dmin <= dmax")
        if self.t1_min < 2 or self.t1_max < self.t1_min:
            raise ValueError("need 2 <= t1_min <= t1_max")
        t2_max = int(self.t1_max) * int(self.dmax)
        if int(self.t1_max) * t2_max > MAX_ALIGNMENT_ENTRIES:
            raise ValueError(
                f"t1_max={self.t1_max} and dmax={self.dmax} allow a {self.t1_max}x{t2_max} "
                f"alignment, over the cap of {MAX_ALIGNMENT_ENTRIES} entries"
            )
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be non-negative and finite, got {self.noise_sigma}")


@dataclass(frozen=True)
class ToyBatch:
    """One synthetic sequence pair with its ground-truth alignment."""

    token_ids: np.ndarray
    frames: np.ndarray
    durations: np.ndarray
    e_star: np.ndarray

    @property
    def t1(self) -> int:
        return self.token_ids.shape[0]

    @property
    def t2(self) -> int:
        return self.frames.shape[0]


def token_patterns(task: ToyTask) -> np.ndarray:
    """The fixed per-token frame pattern bank (vocab, frame_dim)."""
    rng = np.random.default_rng(np.random.SeedSequence((task.seed, 0x9A77E)))
    return rng.normal(size=(task.vocab, task.frame_dim))


def positions_from_durations(durations) -> np.ndarray:
    """Centre of each token's frame span: cumulative duration minus half
    the token's own duration."""
    d = np.asarray(durations, dtype=np.float64)
    return np.cumsum(d) - d / 2.0


def _positionally_degenerate(token_ids: np.ndarray) -> bool:
    """True when every distinct token's positions share the same mean.

    Repeated tokens receive identical attention weights (identical keys),
    so the expected input position of any content-only attention column is
    a weight-independent constant for such sequences — palindromes like
    [4, 1, 1, 4] being the common case. Nothing can align them.
    """
    sums: dict[int, int] = {}
    counts: dict[int, int] = {}
    for i, t in enumerate(token_ids):
        sums[int(t)] = sums.get(int(t), 0) + i
        counts[int(t)] = counts.get(int(t), 0) + 1
    items = list(sums)
    first = items[0]
    return all(
        sums[v] * counts[first] == sums[first] * counts[v] for v in items[1:]
    )


def make_batch(task: ToyTask, seed: int) -> ToyBatch:
    """Deterministic sequence sample: same (task, seed) gives identical data.

    Positionally degenerate token sequences (see
    :func:`_positionally_degenerate`) are resampled; they admit no
    alignment signal at all.
    """
    rng = np.random.default_rng(np.random.SeedSequence((task.seed, 1, seed)))
    t1 = int(rng.integers(task.t1_min, task.t1_max + 1))
    token_ids = rng.integers(0, task.vocab, size=t1)
    while _positionally_degenerate(token_ids):
        token_ids = rng.integers(0, task.vocab, size=t1)
    durations = rng.integers(task.dmin, task.dmax + 1, size=t1)
    patterns = token_patterns(task)
    frames = np.repeat(patterns[token_ids], durations, axis=0)
    if task.noise_sigma > 0:
        frames = frames + task.noise_sigma * rng.normal(size=frames.shape)
    return ToyBatch(
        token_ids=token_ids,
        frames=frames,
        durations=durations,
        e_star=positions_from_durations(durations),
    )


@dataclass(frozen=True)
class TrainConfig:
    """Trainer settings; ``mode`` selects the monotonic strategy. The
    defaults are the acceptance run on ``ToyTask(seed=0)``, which
    ``imvalign train-toy``, the benchmark and criterion 7 train."""

    mode: str = "HMA"
    steps: int = 1200
    lr: float = 1e-2
    batch_size: int = 8
    pool_size: int = 32
    sma_weights: SmaWeights = field(default_factory=SmaWeights)
    ap_weight: float = 1.0
    sigma2: float = KernelConfig.sigma2
    epsilon: float = 1e-6
    seed: int = 1
    optimizer: str = "adam"
    accuracy_threshold: float = 0.9

    def __post_init__(self):
        _require_integer_fields(self)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0, batch_size >= 1")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.pool_size < self.batch_size:
            raise ValueError("pool_size must be >= batch_size")
        if not 0 <= self.ap_weight < np.inf:
            raise ValueError(f"ap_weight must be non-negative and finite, got {self.ap_weight}")
        if math.isnan(self.accuracy_threshold):
            raise ValueError("accuracy_threshold must not be NaN")
        KernelConfig(sigma2=self.sigma2)
        ApLossConfig(epsilon=self.epsilon)


@dataclass
class TrainReport:
    """Per-step training trace plus convergence summaries."""

    mode: str
    recon_loss: np.ndarray
    ap_loss: np.ndarray
    sma_loss: np.ndarray
    total_loss: np.ndarray
    accuracy: np.ndarray
    diagonality: np.ndarray
    accuracy_threshold: float

    @property
    def steps_to_threshold(self) -> Optional[int]:
        """First step whose accuracy reaches the threshold, or None."""
        reached = np.flatnonzero(self.accuracy >= self.accuracy_threshold)
        return int(reached[0]) if reached.size else None

    @property
    def final_loss(self) -> float:
        return float(self.recon_loss[-1])

    @property
    def final_accuracy(self) -> float:
        return float(self.accuracy[-1])

    @property
    def final_diagonality(self) -> float:
        return float(self.diagonality[-1])

    @property
    def best_accuracy(self) -> float:
        return float(self.accuracy.max())

    def records(self):
        columns = [getattr(self, name).tolist() for name in _TRACE_FIELDS]
        for step, values in enumerate(zip(*columns)):
            yield {"step": step, **dict(zip(_TRACE_FIELDS, values))}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")


# the per-step trace: every np.ndarray field, in JSONL key order
_TRACE_FIELDS = tuple(f.name for f in fields(TrainReport) if f.type == "np.ndarray")


class ToyModel:
    """Parameter container: embeddings, frame projection, linear decoder,
    and the two-layer increment predictor."""

    def __init__(self, task: ToyTask, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
        d, f, h = task.embed_dim, task.frame_dim, task.embed_dim
        scale = d**-0.5
        self.task = task
        self.params: dict[str, np.ndarray] = {
            "embed": rng.normal(size=(task.vocab, d)),
            "frame_proj": rng.normal(size=(f, d)) * f**-0.5,
            "decoder": rng.normal(size=(d, f)) * scale,
            "decoder_bias": np.zeros(f),
            "pred_w1": rng.normal(size=(d, h)) * scale,
            "pred_b1": np.zeros(h),
            "pred_w2": rng.normal(size=h) * h**-0.5,
            "pred_b2": np.zeros(()),
        }
        self.trained = False

    def variables(self, tape: ad.Tape) -> dict[str, ad.Value]:
        return {name: tape.variable(value) for name, value in self.params.items()}


@dataclass(frozen=True)
class SequenceForward:
    """Outputs of :func:`sequence_forward`: the sequence loss and its terms
    (``sma`` is None outside SMA mode), the detached increment-predictor
    targets, the aligned positions and the reconstructed alignment, each
    traced when the parameters are."""

    loss: "np.ndarray | ad.Value"
    recon: "np.ndarray | ad.Value"
    ap: "np.ndarray | ad.Value"
    sma: "Optional[np.ndarray | ad.Value]"
    ap_targets: np.ndarray
    positions: AlignedPositions
    alpha_recon: "np.ndarray | ad.Value"


def _predict_deltas(params, emb):
    """Increment predictor: positive position increments per token."""
    hidden = ad.tanh(ad.matmul(emb, params["pred_w1"]) + params["pred_b1"])
    raw = ad.matmul(hidden, params["pred_w2"]) + params["pred_b2"]
    return ad.exp(raw)


def _decode(params, emb, positions: AlignedPositions, t2: int, kernel: KernelConfig):
    """Alignment reconstructed from aligned positions, and the frames the
    linear decoder predicts from it."""
    alpha = align_from_positions(positions, t2, kernel)
    ctx = context_map(alpha, emb)
    return alpha, ad.matmul(ctx, params["decoder"]) + params["decoder_bias"]


def sequence_forward(
    params,
    batch: ToyBatch,
    cfg: TrainConfig,
    ap_targets: Optional[np.ndarray] = None,
) -> SequenceForward:
    """The toy model's forward pass over one sequence.

    ``params`` is either ``model.params`` (plain arrays, untraced) or the
    traced values from :meth:`ToyModel.variables`; both evaluate the same
    arithmetic. ``ap_targets`` overrides the increment-predictor targets;
    by default they are recomputed (detached) from the current alignment.
    The loss is ``recon + ap_weight * ap``, plus ``sma`` in SMA mode.
    """
    kernel = KernelConfig(sigma2=cfg.sigma2)
    emb = params["embed"][batch.token_ids]
    queries = ad.matmul(batch.frames, params["frame_proj"])
    alpha = scaled_dot_alignment(queries, emb)
    imv = compute_imv(alpha)
    imv_mono = hma_transform(imv) if cfg.mode == "HMA" else imv
    positions = extract_positions(imv_mono, kernel)
    alpha_recon, pred = _decode(params, emb, positions, batch.t2, kernel)
    recon = ad.mean_squared_error(pred, batch.frames)

    # increment predictor is trained against the extracted positions;
    # targets are detached and rectified so the log-scale loss sees
    # non-negative increments even under a non-monotone mode
    if ap_targets is None:
        ap_targets = np.maximum(positions.deltas, 0.0)
    predicted_deltas = _predict_deltas(params, emb)
    ap = ap_loss(predicted_deltas, ap_targets, ApLossConfig(epsilon=cfg.epsilon))

    sma = sma_loss(imv, cfg.sma_weights) if cfg.mode == "SMA" else None
    loss = recon + cfg.ap_weight * ap
    if sma is not None:
        loss = loss + sma
    return SequenceForward(loss, recon, ap, sma, ap_targets, positions, alpha_recon)


def alignment_accuracy(alpha: np.ndarray, e_star: np.ndarray) -> float:
    """Fraction of tokens whose attended span midpoint lands within one
    frame of the true token centre."""
    t1, t2 = alpha.shape
    owner = np.argmax(alpha, axis=0)
    # first and last column of every token; a token owning none keeps -1
    cols = np.arange(t2)
    first = np.full(t1, t2)
    last = np.full(t1, -1)
    np.minimum.at(first, owner, cols)
    np.maximum.at(last, owner, cols)
    owned = last >= 0
    midpoint = (first[owned] + last[owned]) / 2.0
    return np.count_nonzero(np.abs(midpoint - e_star[owned]) <= 1.0) / t1


def _rank_correlation(owner: np.ndarray) -> float:
    """Spearman correlation between ``owner`` and its index: Pearson
    correlation of average ranks (tied values share the mean of their
    ranks). ``owner`` holds non-negative integers, not all equal."""
    n = owner.shape[0]
    counts = np.bincount(owner)
    # value v takes ranks below+1 .. below+count, averaging cumsum - (count-1)/2
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[owner]
    x = ranks - (n + 1) / 2.0
    y = np.arange(n) - (n - 1) / 2.0
    return float(x @ y / np.sqrt((x @ x) * (y @ y)))


def diagonality_score(alpha: np.ndarray) -> float:
    """Column sharpness times the rank correlation between attended token
    and output step; near 1 for a clean diagonal, near 0 for mush."""
    sharpness = float(alpha.max(axis=0).mean())
    owner = np.argmax(alpha, axis=0)
    if np.all(owner == owner[0]) or alpha.shape[1] < 2:
        return 0.0
    return sharpness * _rank_correlation(owner)


class _Sgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for name, g in grads.items():
            params[name] -= self.lr * g


class _Adam:
    def __init__(self, lr):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for name, g in grads.items():
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m += (1 - 0.9) * (g - m)
            v += (1 - 0.999) * (g * g - v)
            m_hat = m / (1 - 0.9**self.t)
            v_hat = v / (1 - 0.999**self.t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def _evaluate_step(model, batches, cfg, tape):
    """One optimization step's forward pass over a batch of sequences.

    A sequence whose raw IMV happens to be non-increasing (a transient
    reversed-alignment state; the hard transform has nothing to rescale)
    contributes no gradient this step and is skipped; updates from the
    rest of the batch move the model out of such states.
    """
    params = model.variables(tape)
    total = None
    n = 0
    sums: dict[str, float] = {}
    for batch in batches:
        try:
            out = sequence_forward(params, batch, cfg)
        except DegenerateImvError:
            continue
        n += 1
        total = out.loss if total is None else total + out.loss
        seq = {
            "recon_loss": float(out.recon.data),
            "ap_loss": float(out.ap.data),
            "sma_loss": 0.0 if out.sma is None else float(out.sma.data),
            "accuracy": alignment_accuracy(out.alpha_recon.data, batch.e_star),
            "diagonality": diagonality_score(out.alpha_recon.data),
        }
        # running sums in batch order keep every trace entry bit-reproducible
        for name, value in seq.items():
            sums[name] = sums.get(name, 0.0) + value
    if total is None:
        raise DegenerateImvError("every sequence in the batch has a degenerate IMV")
    mean_loss = total * (1.0 / n)
    entry = {name: value / n for name, value in sums.items()}
    entry["total_loss"] = float(mean_loss.data)
    return mean_loss, params, entry


def _train_step(model, batches, cfg, step):
    """One step's forward pass, and its backward pass when training.

    The loss and every gradient are checked once. When a check fails, or
    the forward raises, the error names the tape's first non-finite node
    (:meth:`ad.Tape.first_nonfinite`) if there is one; a non-finite loss
    is such a node. Returns (traced parameters, trace entry).
    """
    tape = ad.Tape()
    failure = None
    try:
        mean_loss, params, entry = _evaluate_step(model, batches, cfg, tape)
    except Exception as exc:
        failure = exc
    if failure is None and np.isfinite(mean_loss.data):
        if cfg.steps > 0:
            tape.backward(mean_loss)
        bad = [n for n, v in params.items() if v.grad is not None and not np.isfinite(v.grad).all()]
        if not bad:
            return params, entry
        failure = TrainDivergenceError(step, f"non-finite gradient of parameter '{bad[0]}'")
    failure = tape.first_nonfinite() or failure
    if isinstance(failure, (ad.NonFiniteError, DegenerateImvError)):
        raise TrainDivergenceError(step, str(failure)) from failure
    raise failure


def train(task: ToyTask, cfg: TrainConfig) -> tuple[ToyModel, TrainReport]:
    """Run the toy trainer; returns the model and its per-step report.

    Fully deterministic for a fixed (task, cfg): data, initialization, and
    updates derive from the seeds alone. ``steps=0`` evaluates the initial
    state once without updating. Writes no file (see :meth:`TrainReport.write_jsonl`).
    Raises :class:`TrainDivergenceError` with the offending step if the
    loss or a gradient goes non-finite.
    """
    model = ToyModel(task, cfg.seed)
    optimizer = _Adam(cfg.lr) if cfg.optimizer == "adam" else _Sgd(cfg.lr)
    pool = [make_batch(task, s) for s in range(cfg.pool_size)]

    trace = []
    for step in range(max(cfg.steps, 1)):
        batches = [
            pool[(step * cfg.batch_size + b) % cfg.pool_size]
            for b in range(cfg.batch_size)
        ]
        params, entry = _train_step(model, batches, cfg, step)
        trace.append(entry)
        if cfg.steps > 0:
            grads = {name: v.grad for name, v in params.items() if v.grad is not None}
            optimizer.step(model.params, grads)

    model.trained = cfg.steps > 0
    columns = {name: np.array([entry[name] for entry in trace]) for name in _TRACE_FIELDS}
    return model, TrainReport(cfg.mode, accuracy_threshold=cfg.accuracy_threshold, **columns)


def infer(
    model: ToyModel,
    token_ids,
    rate: float = 1.0,
    sigma2: float = KernelConfig.sigma2,
    t2: Optional[int] = None,
) -> np.ndarray:
    """Generate frames for a token sequence without any reference output.

    The increment predictor supplies aligned positions, the positions are
    stretched by ``rate``, the output length follows from the stretched
    positions (or an explicit ``t2`` override), and the decoder runs on the
    reconstructed alignment.
    """
    if not model.trained:
        raise UntrainedModelError("model has not been trained")
    ids = np.asarray(token_ids, dtype=np.intp)
    if ids.size == 0:
        raise AlignmentError("token sequence is empty")
    emb = model.params["embed"][ids]
    deltas = _predict_deltas(model.params, emb)
    positions = scale_positions(AlignedPositions(np.cumsum(deltas)), rate)
    length = t2 if t2 is not None else infer_t2(positions)
    _, frames = _decode(model.params, emb, positions, length, KernelConfig(sigma2=sigma2))
    return frames
