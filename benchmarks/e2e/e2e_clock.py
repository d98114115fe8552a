"""Pass timing in reference-host seconds.

The hosts this benchmark runs on are shared: for minutes at a time a
neighbour can slow the interpreter by up to 2x, in CPU time as much as in
wall time, so raw timings of identical work swing by tens of percent
between runs.  ``HostClock`` measures the host's speed while it
times: every ``INTERVAL_S`` of process CPU time a ``SIGPROF`` handler
times a fixed piece of interpreter work (``calibration_loop``, ~0.1 ms).
Each stretch of the pass between two samples is scaled by
``REFERENCE_NS`` over the median of the five nearest samples, so the
result is the time the pass would have taken on the reference host at
its quiet speed.  The samples' own time is left out.  Raw wall time is
kept alongside.

The loop runs right after simulator code, so it also feels the cache
state the simulator leaves behind: a change that alters the simulator's
memory footprint a lot can move the samples, and with them ``wall_s``,
by a few percent, in the direction that hides part of the change.  The
raw time is therefore reported next to it.

Nothing the simulator computes depends on the handler: it touches only
its own objects, between two bytecodes of the main thread.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter_ns

INTERVAL_S = 0.05
WINDOW = 5
#: ``calibration_loop``'s median time on the reference host (2-core Xeon
#: VM, Python 3.11) when nothing else ran on it.
REFERENCE_NS = 118_500


def calibration_loop() -> int:
    """A fixed piece of interpreter work: arithmetic and dict stores."""
    d = {}
    x = 0
    for i in range(1500):
        x += i * i
        d[i & 63] = x
    return x


class HostClock:
    """Context manager timing its block in raw and reference-host seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []  # (start ns, cost ns)
        self.t0 = self.t1 = 0

    def _sample(self, *_args) -> None:
        t0 = perf_counter_ns()
        calibration_loop()
        self.samples.append((t0, perf_counter_ns() - t0))

    def __enter__(self) -> "HostClock":
        for _ in range(WINDOW):  # the speed at the start of the block
            self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.t1 = perf_counter_ns()
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def raw_s(self) -> float:
        return (self.t1 - self.t0) / 1e9

    @property
    def wall_s(self) -> float:
        """The block's time on the reference host, in seconds."""
        # A signal already pending when the timer stops may be handled
        # after t1; such a sample is not part of the block.
        samples = [s for s in self.samples if sum(s) <= self.t1]
        costs = [c for _, c in samples]
        total = 0.0
        start = self.t0
        for k in range(WINDOW, len(samples)):
            at, cost = samples[k]
            speed = statistics.median(costs[k - 2:k + 3])
            total += (at - start) * REFERENCE_NS / speed
            start = at + cost
        speed = statistics.median(costs[-WINDOW:])
        total += (self.t1 - start) * REFERENCE_NS / speed
        return total / 1e9
