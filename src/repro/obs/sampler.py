"""Interval sampler: fixed-width time-series of scheduler state.

A self-rearming engine event reads — never mutates — per-CPU scheduler
state every ``interval_ns`` of *simulated* time: runqueue depth, interval
utilization, whether the running task is spinning, plus machine-wide VB
block counts, BWD deschedules, and migration-stall time.  Because the
callbacks are read-only and event ordering is insertion-stable, sampling
cannot perturb simulation results (asserted by tests/test_obs.py).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..kernel.task import MODE_SPIN, VBLOCKED

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel

#: Stop sampling past this many ticks — long runs keep the prefix rather
#: than growing without bound (``truncated`` records what was cut).
MAX_SAMPLES = 200_000


class Sampler:
    """Periodic read-only probe of one kernel's scheduler state."""

    def __init__(self, kernel: "Kernel", interval_ns: int,
                 max_samples: int = MAX_SAMPLES):
        if interval_ns < 1:
            raise ValueError("sample interval must be >= 1 ns")
        self.kernel = kernel
        self.interval_ns = interval_ns
        self.max_samples = max_samples
        ncpus = len(kernel.cpus)
        self.times: list[int] = []
        self.depth: list[list[int]] = [[] for _ in range(ncpus)]
        self.util: list[list[float]] = [[] for _ in range(ncpus)]
        self.spin: list[list[int]] = [[] for _ in range(ncpus)]
        self.vb_blocked: list[int] = []
        self.bwd_deschedules: list[int] = []
        self.stall_delta_ns: list[int] = []
        self.psi_some_ns: list[int] = []
        self.psi_full_ns: list[int] = []
        self.truncated = 0
        self._prev_used = [0] * ncpus
        self._prev_stall = 0
        self._event = None
        self._t0 = 0

    def start(self) -> None:
        # Samples are anchored to the grid t0 + k*interval (rearming via
        # absolute times), so a long run keeps a stable cadence instead of
        # drifting off whatever time the previous tick happened to fire at.
        self._t0 = self.kernel.engine.now
        self._event = self.kernel.engine.schedule_at(
            self._t0 + self.interval_ns, self._tick)

    def stop(self) -> None:
        if self._event is not None:
            self.kernel.engine.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        self._event = None
        k = self.kernel
        now = k.engine.now
        if len(self.times) >= self.max_samples:
            self.truncated += 1
            return  # stop rearming; the prefix is kept
        self.times.append(now)
        for i, cpu in enumerate(k.cpus):
            used = cpu.busy_ns + cpu.sched_ns + cpu.irq_ns + cpu.poll_ns
            curr = cpu.rq.curr
            if curr is not None and now > cpu.run_started:
                # In-flight busy time not yet folded by _sync_current.
                used += now - cpu.run_started
            delta = used - self._prev_used[i]
            self._prev_used[i] = used
            self.util[i].append(
                min(1.0, max(0.0, delta / self.interval_ns))
            )
            self.depth[i].append(cpu.rq.nr_running)
            self.spin[i].append(
                1 if (curr is not None and curr.mode is MODE_SPIN) else 0
            )
        stall = sum(c.stall_ns for c in k.cpus)
        self.stall_delta_ns.append(stall - self._prev_stall)
        self._prev_stall = stall
        self.vb_blocked.append(
            sum(1 for t in k.tasks if t.state is VBLOCKED)
        )
        self.bwd_deschedules.append(
            k.bwd.stats.deschedules if k.bwd is not None else 0
        )
        # PSI cumulative stall time, extended to ``now`` without flushing
        # the kernel's accounting (read-only, like everything above).
        # Exact even though the kernel only settles its clocks on
        # predicate flips: since ``_psi_last`` both predicates were
        # constant, so the extension is a straight line.
        some = k.psi_some_ns
        full = k.psi_full_ns
        if k.psi_waiting > 0:
            dt = now - k._psi_last
            if dt > 0:
                some += dt
                if k.psi_running == 0:
                    full += dt
        self.psi_some_ns.append(some)
        self.psi_full_ns.append(full)
        self._event = k.engine.schedule_at(
            self._t0 + (len(self.times) + 1) * self.interval_ns, self._tick)

    @property
    def samples(self) -> int:
        return len(self.times)

    def to_dict(self) -> dict[str, Any]:
        return {
            "interval_ns": self.interval_ns,
            "samples": self.samples,
            "truncated": self.truncated,
            "t0_ns": self._t0,
            "times": list(self.times),
            "cpus": [
                {"id": i, "depth": self.depth[i], "util": self.util[i],
                 "spin": self.spin[i]}
                for i in range(len(self.util))
            ],
            "vb_blocked": list(self.vb_blocked),
            "bwd_deschedules": list(self.bwd_deschedules),
            "stall_delta_ns": list(self.stall_delta_ns),
            "psi_some_ns": list(self.psi_some_ns),
            "psi_full_ns": list(self.psi_full_ns),
        }
