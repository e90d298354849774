"""Drift-corrected timing: a fixed reference kernel sampled through the work.

The host's CPU speed drifts by about ±20% from one second to the next,
and that drift shows up equally in wall time, in CPU time, inside one
process and across processes.  A timing that is not corrected for it
measures the host, not the program.

:class:`DriftMeter` therefore runs a fixed reference kernel — this
file's own Python and numpy code, never a call into ``repro`` — in two
ways while a phase runs:

* as a *probe* between timed segments, and
* from a ``SIGALRM`` interval timer *inside* long segments (a cold plan
  lasts a few hundred milliseconds, and the drift moves within it).

Each sample gives the host's speed at one instant, ``nominal / kernel
seconds``.  A segment's speed is the time average of the piecewise-
linear speed curve through the probe before it, the samples inside it
and the probe after it; its corrected time is ``raw × speed``.  The
kernel's own time is never part of a segment.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Kernel seconds the corrected timings are normalised to.  Fixed, so a
#: corrected time reads "seconds on a host where the kernel takes this
#: long"; it is near the kernel's median on the 2-vCPU host the
#: benchmark was tuned on.
NOMINAL_REF_S = 0.25e-3

#: Seconds between samples inside a segment.  Each sample costs about a
#: tenth of that; it is taken out of every segment it falls in.
SAMPLE_INTERVAL_S = 0.005

_REF_ARRAY = np.linspace(0.5, 2.5, 512)


def reference_kernel() -> float:
    """A fixed slice of dict/tuple churn and small-array numpy math.

    The mix mirrors the program's own: Python-level bookkeeping loops
    beside short vectorised kernels.
    """
    acc: dict[tuple[int, int], float] = {}
    for i in range(400):
        key = (i % 53, i % 7)
        acc[key] = acc.get(key, 0.0) + i * 0.5
    rows = sorted(acc.items())
    x = _REF_ARRAY
    for _ in range(12):
        x = np.sqrt(x * x + 1.0) - 0.5
        x = x[::-1].copy()
    return len(rows) + float(x.sum())


def _time_kernel() -> float:
    # One untimed run first: right after a segment the kernel's data is
    # out of cache, which would measure the segment's cache footprint
    # rather than the host's speed.
    reference_kernel()
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


class DriftMeter:
    """Records timed segments and reference samples of one phase.

    Use it as a context manager around the phase (that arms the sampling
    timer), call :meth:`probe` between segments and :meth:`timed` or
    :meth:`start`/:meth:`stop` around each piece of work.
    """

    def __init__(self) -> None:
        #: Reference samples in time order: when taken, kernel seconds.
        self._times: list[float] = []
        self._kernels: list[float] = []
        #: (start, end, raw seconds excluding timer samples)
        self._segments: list[tuple[float, float, float]] = []
        self._stolen = 0.0
        self._open: tuple[float, float] | None = None
        self._previous = None

    # -- sampling --------------------------------------------------------

    def _on_alarm(self, signum, frame) -> None:
        entered = time.perf_counter()
        self._record(entered, _time_kernel())
        self._stolen += time.perf_counter() - entered

    def __enter__(self) -> "DriftMeter":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextmanager
    def _quiet(self):
        """Hold the timer's signal off (it is delivered once released)."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def probe(self) -> float:
        """Time the reference kernel between segments."""
        with self._quiet():
            at = time.perf_counter()
            kernel = _time_kernel()
        self._record(at, kernel)
        return kernel

    def _record(self, at: float, kernel: float) -> None:
        self._times.append(at)
        self._kernels.append(kernel)

    # -- segments --------------------------------------------------------

    def work_clock(self) -> float:
        """``perf_counter`` minus the time spent in timer samples so far."""
        return time.perf_counter() - self._stolen

    def start(self) -> None:
        self._open = (time.perf_counter(), self._stolen)

    def stop(self) -> int:
        """Close the open segment; returns its index."""
        ended = time.perf_counter()
        started, stolen = self._open
        self._open = None
        self._segments.append((started, ended, ended - started - (self._stolen - stolen)))
        return len(self._segments) - 1

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` as one segment; returns ``(result, index)``."""
        self.start()
        result = fn(*args, **kwargs)
        return result, self.stop()

    # -- reading ---------------------------------------------------------

    def speed_of(self, index: int) -> float:
        """Time-averaged host speed (nominal ÷ kernel) over segment ``index``.

        The speed curve is linear between samples; the last sample before
        the segment stands at its start and the first after it at its end.
        """
        started, ended, _ = self._segments[index]
        first = max(0, bisect.bisect_left(self._times, started) - 1)
        last = bisect.bisect_left(self._times, ended) + 1
        points = [
            (at, NOMINAL_REF_S / kernel)
            for at, kernel in zip(self._times[first:last], self._kernels[first:last])
        ]
        if not points:
            raise RuntimeError("a drift-corrected segment has no reference sample")
        inner = [(at, speed) for at, speed in points if started < at < ended]
        curve = [(started, points[0][1]), *inner, (ended, points[-1][1])]
        if ended <= started:
            return (curve[0][1] + curve[-1][1]) / 2
        area = sum((t1 - t0) * (s0 + s1) / 2 for (t0, s0), (t1, s1) in zip(curve, curve[1:]))
        return area / (ended - started)

    def raw(self, index: int) -> float:
        return self._segments[index][2]

    def corrected(self, index: int) -> float:
        """Segment ``index`` scaled to the nominal reference speed."""
        return self.raw(index) * self.speed_of(index)

    @property
    def probes(self) -> list[float]:
        """Kernel seconds of every reference sample, in time order."""
        return list(self._kernels)

    def speed(self) -> float:
        """Host speed over the phase: nominal ÷ median sample (1.0 = nominal)."""
        return NOMINAL_REF_S / statistics.median(self._kernels)

