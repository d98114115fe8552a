"""Shared helpers for the perf microbenchmark suite.

Each ``bench_*`` module exposes ``run(quick: bool) -> dict`` returning a
flat JSON-able metrics dict.  ``repeat_best_ref`` runs a timed closure a
few times and keeps the best round in reference-host seconds — the
standard way to damp scheduler noise on a shared machine without long
runs — so every benchmark reports a ``ref_*`` number beside its raw one.
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.abspath(os.path.join(_HERE, "..", ".."))
_SRC = os.path.join(REPO_ROOT, "src")
_E2E = os.path.join(REPO_ROOT, "benchmarks", "e2e")


def bootstrap() -> None:
    """Make ``repro`` importable when invoked as a plain script."""
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)


def repeat_best_ref(fn, rounds: int = 3) -> tuple[float, float, object]:
    """Run ``fn()`` ``rounds`` times, each under benchmarks/e2e's
    ``HostClock``, which samples the host's speed while the round runs.
    Return the fastest round's reference-host and raw seconds, and the
    last return value.  A shared host can run the same code up to 2x
    slower for minutes; reference-host seconds take that out, raw ones
    do not.  ``fn`` must be idempotent."""
    if _E2E not in sys.path:
        sys.path.append(_E2E)  # after src/: e2e's module names stay out
    from e2e_clock import HostClock

    best = (float("inf"), float("inf"))
    value = None
    for _ in range(rounds):
        with HostClock() as clock:
            value = fn()
        if clock.wall_s < best[0]:
            best = (clock.wall_s, clock.raw_s)
    return best[0], best[1], value
