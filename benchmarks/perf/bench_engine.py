"""Engine throughput microbenchmark.

Drives the discrete-event engine with the event mix the simulator
produces in practice:

* **tick chains** — per-CPU events that fire and immediately reschedule
  a successor, frequently landing on a deadline another chain already
  occupies (ties the engine breaks by schedule order);
* **cancel/reschedule churn** — a fraction of events are cancelled
  before firing and rescheduled (slice-expiry invalidation);
* **cancel-heavy pollution** — a rolling population of far-future
  timers is continuously issued and torn down, so nearly every queued
  entry is a tombstone.  Without compaction the queue grows without
  bound and every drain pays for the dead weight; ``peak_queue`` in the
  report pins the fix (it stays near the live count).

The headline metric is ``ref_events_per_s``: events actually fired per
reference-host second (``common.repeat_best_ref``), best of three rounds.
This is the number the CI perf-smoke job gates on.  ``events_per_s`` is
the same round in raw wall seconds.  ``cancel_heavy`` reports its rounds
the same two ways, ungated.
"""

from __future__ import annotations

from collections import deque

from common import bootstrap, repeat_best_ref

bootstrap()

from repro.sim.engine import Engine  # noqa: E402

_CHAINS = 8  # concurrent tick chains, like 8 CPUs
_PERIODS = (100, 100, 100, 250, 250, 500, 700, 1000)  # deliberate collisions


def _never() -> None:  # a decoy timer body that must not run
    raise AssertionError("cancelled decoy fired")


def _drive_cancel_heavy(n_events: int) -> tuple[int, int]:
    """Tick chains shadowed by a rolling window of cancelled timers."""
    e = Engine()
    decoys: deque = deque()
    peak = 0

    def tick(chain: int) -> None:
        nonlocal peak
        e.schedule(_PERIODS[chain], tick, chain)
        # Two new long timers per event, tear down the oldest two: the
        # cancel-heavy steady state (connection timeouts, watchdogs).
        decoys.append(e.schedule(50_000_000, _never))
        decoys.append(e.schedule(60_000_000, _never))
        while len(decoys) > 64:
            e.cancel(decoys.popleft())
        if e.events_run % 256 == 0:
            q = e.queue_len()
            if q > peak:
                peak = q
        if e.events_run >= n_events:
            e.stop()

    for chain in range(_CHAINS):
        e.schedule(_PERIODS[chain], tick, chain)
    e.run(max_events=n_events + 1)
    for h in decoys:
        e.cancel(h)
    return e.events_run, peak


def _drive(n_events: int) -> int:
    e = Engine()

    def tick(chain: int) -> None:
        # Reschedule self; every 16th firing also cancels and re-issues
        # (the slice-expiry pattern).
        h = e.schedule(_PERIODS[chain], tick, chain)
        if e.events_run % 16 == 0:
            e.cancel(h)
            e.schedule(_PERIODS[chain], tick, chain)
        if e.events_run >= n_events:
            e.stop()

    for chain in range(_CHAINS):
        e.schedule(_PERIODS[chain], tick, chain)
    e.run(max_events=n_events + 1)
    assert e.events_run >= n_events
    return e.events_run


def run(quick: bool = False) -> dict:
    n = 100_000 if quick else 600_000
    ref_wall, wall, fired = repeat_best_ref(lambda: _drive(n))
    ch_n = n // 4  # each event also issues 2 timers + 2 cancels
    ch_ref_wall, ch_wall, (ch_fired, ch_peak) = repeat_best_ref(
        lambda: _drive_cancel_heavy(ch_n))
    return {
        "events": fired,
        "wall_s": round(wall, 6),
        "events_per_s": round(fired / wall, 1),
        "ref_wall_s": round(ref_wall, 6),
        "ref_events_per_s": round(fired / ref_wall, 1),
        "cancel_heavy": {
            "events": ch_fired,
            "wall_s": round(ch_wall, 6),
            "events_per_s": round(ch_fired / ch_wall, 1),
            "ref_wall_s": round(ch_ref_wall, 6),
            "ref_events_per_s": round(ch_fired / ch_ref_wall, 1),
            "peak_queue": ch_peak,
        },
    }


if __name__ == "__main__":
    print(run(quick=True))
