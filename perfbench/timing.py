"""Calibrated wall-clock timing for a shared machine.

On a small shared box the speed of the same Python code drifts by up to 2x
over tens of seconds, because neighbours load the same physical cores.  A
fixed calibration kernel (a Python loop of small dense solves and numpy
calls, the same mix as the package's hot paths) is timed before and after
every measured call and, from a SIGALRM handler, every PROBE_INTERVAL_S
while the call runs.
The call's wall time, less the time spent in the handler, is rescaled to
the speed at which the kernel takes CAL_REF_S.  A reported second is
therefore a "reference second"; the raw wall time is kept next to it in
every record.  The kernel is benchmark code, so a change to the package
moves the ratio and shows; a change that slowed the whole interpreter
(threads left spinning, say) would hide.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

CAL_REF_S = 0.0025   # kernel time that defines one reference second
CAL_REPEATS = 3      # kernel runs per calibration sample (median taken)
PROBE_INTERVAL_S = 0.2

_RNG = np.random.default_rng(20100401)
_M = _RNG.random((12, 12))
_M = _M @ _M.T + 12.0 * np.eye(12)
_V = _RNG.random(12)
_W = _RNG.random(120)


def _kernel() -> float:
    """Small dense solves and elementwise numpy in a Python loop, as in the
    barrier solver.  A loop of scalar numpy calls alone was tried first: it
    did not slow when a neighbour process ran the grid solve on the other
    core, while the package slowed by 40%; this kernel slowed with it."""
    s = 0.0
    for i in range(150):
        y = np.linalg.solve(_M, _V + i)
        s += float(np.exp(-0.01 * _W).sum()) + float(y @ y)
        s += float((np.hstack([_M, _M]).T @ _V)[0])
    return s


def calibrate() -> float:
    """Median wall time of the calibration kernel, in seconds."""
    samples = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


@dataclass(frozen=True)
class Sample:
    """One measured interval: raw wall seconds and the speed factor around it."""

    raw_s: float
    scale: float

    @property
    def s(self) -> float:
        """Reference seconds."""
        return self.raw_s * self.scale


class _Probe:
    """Times the kernel from a SIGALRM handler while a call runs."""

    def __init__(self):
        self.kernel_s: list = []

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.kernel_s.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def measure(fn):
    """Run fn() under the speed probe; returns (result, Sample)."""
    before = calibrate()
    with _Probe() as probe:
        t0 = time.perf_counter()
        out = fn()
    elapsed = time.perf_counter() - t0   # the probe is stopped: no handler runs after this
    after = calibrate()
    kernel = probe.kernel_s + [before, after]
    return out, Sample(elapsed - sum(probe.kernel_s), CAL_REF_S / statistics.median(kernel))


def after_the_fact(raw_s: float) -> Sample:
    """Scale an interval that ended just now (process start to imports)."""
    return Sample(raw_s, CAL_REF_S / calibrate())
