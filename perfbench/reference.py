"""Host-speed reference: fixed work made of benchmark code only.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30% over seconds to minutes, for the same work (see README.md,
"Steadiness"). Each run therefore also times a fixed reference task,
interleaved with the program's operations, and reports each end-to-end time
scaled to a nominal host speed:

    reported = measured x NOMINAL / (median reference time in the same run)

The reference never calls ``imvalign``, so a change to the program moves
the measured times but not the scale. Two references exist, one for each
kind of work the workloads time:

- :class:`HostClock` ticks in-process: tiny numpy operations in a Python
  loop (the toy trainer's kind of work) and a Gaussian softmax over a
  64x512 array (the long workloads' kind);
- :func:`probe_seconds` starts a fresh interpreter that imports numpy (the
  kind of work that dominates set-up and each CLI command).

The unscaled figures and the scales are printed on each run's detail line.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

import verify

# Medians on the host the reference figures in README.md come from (2 vCPUs
# of a shared Intel Xeon host, Python 3.11, numpy 2.4); they set the unit,
# not the steadiness.
NOMINAL_TICK_S = 1.0e-3
NOMINAL_PROBE_S = 0.16

_SMALL = np.linspace(0.0, 1.0, 8)
_ROWS = np.arange(64, dtype=np.float64)
_COLS = np.linspace(0.0, 63.0, 512)


def reference_work() -> float:
    acc = 0.0
    for i in range(40):
        w = np.exp(-(_SMALL - 0.01 * i) ** 2)
        acc += float(w.sum() / (1.0 + w.max()))
    alpha = verify.gaussian_softmax(_ROWS, _COLS, 0.25)
    return acc + float(verify.expected_imv(alpha)[-1])


class HostClock:
    """Times the in-process reference task each time it ticks."""

    def __init__(self, nominal_s: float = NOMINAL_TICK_S):
        self.nominal_s = nominal_s
        self.samples: list[float] = []

    def tick(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)

    def scale(self) -> float:
        """Measured times are multiplied by this to read at nominal speed."""
        return self.nominal_s / statistics.median(self.samples) if self.samples else 1.0


def probe_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start
