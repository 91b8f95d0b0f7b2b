"""Span tracing from outside the library.

:func:`instrument` replaces the public functions of each ``imvalign`` module
with timing wrappers in every module namespace that holds them, so calls are
timed where the callers look them up (``imvalign.toy.hma_transform`` as well
as ``imvalign.monotonic.hma_transform``) without editing the library. It
also wraps ``Tape.record``, ``Tape.backward`` and every backward closure the
tape receives. Spans (name, start, end, parent) are kept in memory and
written out by :meth:`Tracer.save`; self times and counters are summed as
spans close.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Spans stored for writing out; beyond this many only the sums are kept.
MAX_STORED_SPANS = 1_000_000

# (module, attribute, span name) of every traced library function.
TRACED_FUNCTIONS = (
    ("autodiff", "softmax", "autodiff.softmax"),
    ("attention", "scaled_dot_alignment", "attention.scaled_dot_alignment"),
    ("core", "compute_imv", "core.compute_imv"),
    ("core", "validate_imv", "core.validate_imv"),
    ("core", "context_map", "core.context_map"),
    ("core", "enumerate_monotonic_paths", "core.enumerate_monotonic_paths"),
    ("monotonic", "hma_transform", "monotonic.hma_transform"),
    ("monotonic", "sma_loss", "monotonic.sma_loss"),
    ("monotonic", "align_from_imv", "monotonic.align_from_imv"),
    ("monotonic", "streaming_hma_run", "monotonic.streaming_hma_run"),
    ("monotonic", "streaming_hma_step", "monotonic.streaming_hma_step"),
    ("positions", "extract_positions", "positions.extract_positions"),
    ("positions", "align_from_positions", "positions.align_from_positions"),
    ("positions", "ap_loss", "positions.ap_loss"),
    ("positions", "infer_t2", "positions.infer_t2"),
    ("toy", "train", "toy.train"),
    ("toy", "_evaluate_step", "toy.evaluate_step"),
    ("toy", "make_batch", "toy.make_batch"),
    ("toy", "infer", "toy.infer"),
    ("toy", "alignment_accuracy", "toy.metrics"),
    ("toy", "diagonality_score", "toy.metrics"),
    ("matrixio", "read_matrix", "matrixio.read"),
    ("matrixio", "read_vector", "matrixio.read"),
    ("matrixio", "write_matrix", "matrixio.write"),
    ("matrixio", "write_vector", "matrixio.write"),
    ("matrixio", "write_pgm", "matrixio.write"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """In-memory span recorder with per-name self-time sums."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.depth = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dropped = 0
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.active = True
        # open spans: [name id, start, time covered by child spans]
        self._stack: list[list] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        self._stack.append([nid, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        nid, start, child = self._stack.pop()
        duration = end - start
        self.self_s[self.names[nid]] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.start) < MAX_STORED_SPANS:
            # spans are stored as they close, before their parent has an
            # index, so the depth is kept and turned into a parent by save()
            self.name_id.append(nid)
            self.depth.append(len(self._stack))
            self.start.append(start)
            self.end.append(end)
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block (the benchmark's own checks) are not traced."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def save(self, path: str, header: dict) -> None:
        """Write every stored span with its parent index (-1 for a root)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=_parents(np.frombuffer(self.depth, dtype=np.int32)),
            start=start,
            end=end,
            dropped=self.dropped,
            header=repr(header),
        )


def _parents(depth: np.ndarray) -> np.ndarray:
    """Parent index of each span. Spans are stored in closing order, so a
    span's parent is the first span stored after it one level shallower."""
    parent = np.full(depth.shape[0], -1, dtype=np.int64)
    open_at: dict[int, list[int]] = defaultdict(list)
    for i in range(depth.shape[0]):
        d = int(depth[i])
        for child in open_at.pop(d + 1, ()):
            parent[child] = i
        open_at[d].append(i)
    return parent


def _matrixio_bytes(tracer: Tracer, fn):
    """Count the size of the file each read or write touched."""

    @functools.wraps(fn)
    def counted(path, *args, **kwargs):
        result = fn(path, *args, **kwargs)
        if tracer.active:
            tracer.counts["matrixio.bytes"] += os.path.getsize(path)
        return result

    return counted


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the timing wrappers for the duration of the block."""
    import imvalign
    from imvalign import autodiff

    modules = [m for name, m in sys.modules.items() if name == "imvalign" or name.startswith("imvalign.")]
    saved: list[tuple[object, str, object]] = []

    def replace(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module_name, attr, span in TRACED_FUNCTIONS:
        original = getattr(getattr(imvalign, module_name), attr)
        wrapped = tracer.wrap(span, original)
        if module_name == "matrixio":
            wrapped = _matrixio_bytes(tracer, wrapped)
        if attr == "hma_transform":
            wrapped = _count_degenerate(tracer, wrapped)
        for module in modules:
            if getattr(module, attr, None) is original:
                replace(module, attr, wrapped)

    record_id = tracer.intern("autodiff.record")
    original_record = autodiff.Tape.record
    backward_ids: dict[str, int] = {}

    def record(tape, name, out_data, backward):
        if not tracer.active:
            return original_record(tape, name, out_data, backward)
        tracer.counts[f"autodiff.op.{name}.calls"] += 1
        bid = backward_ids.get(name)
        if bid is None:
            bid = backward_ids[name] = tracer.intern(f"autodiff.op.{name}.backward")

        def timed_backward(g):
            tracer.enter(bid)
            try:
                backward(g)
            finally:
                tracer.exit()

        tracer.enter(record_id)
        try:
            return original_record(tape, name, out_data, timed_backward)
        finally:
            tracer.exit()

    replace(autodiff.Tape, "record", record)
    replace(autodiff.Tape, "backward", tracer.wrap("autodiff.backward", autodiff.Tape.backward))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _count_degenerate(tracer: Tracer, fn):
    from imvalign.monotonic import DegenerateImvError

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DegenerateImvError:
            if tracer.active:
                tracer.counts["monotonic.hma_degenerate"] += 1
            raise

    return counted
