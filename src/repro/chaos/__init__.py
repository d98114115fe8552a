"""Chaos harness: deterministic fault injection + kernel invariant checking.

The paper's headline scenario is CPU *elasticity* — cores appearing and
disappearing under a live workload (Figures 10-12) — and its mechanisms
(virtual blocking, busy-waiting detection) live or die on their behavior
under hostile timing.  This package provides the correctness backstop:

* :mod:`repro.chaos.faults` — serializable, seeded *injection plans* that
  perturb a run at simulated-time points: CPU hot-remove/hot-add, delayed
  or dropped futex wakeups, spurious epoll readiness, hrtimer jitter on
  the BWD monitor, and forced migration storms.
* :mod:`repro.chaos.invariants` — an always-available checker that
  validates kernel state after engine events: no task lost or duplicated
  across runqueues, ``min_vruntime`` monotonicity, VB-sentinel keys never
  selected to run, futex wait-queue <-> task-state agreement,
  ``nr_schedulable``/``nr_blocked`` counters matching a from-scratch
  recount, and global forward progress.
* :mod:`repro.chaos.bundle` — replay bundles: any failure under chaos is
  a one-command deterministic repro (``repro chaos replay bundle.json``).

Activation mirrors the observability layer (:mod:`repro.obs.session`):
``with chaos_session(plan):`` installs a :class:`ChaosController` on every
kernel constructed inside the block.  The invariant checker alone can also
be enabled without chaos via the ``REPRO_CHECK_INVARIANTS=1`` environment
variable; it is read-only and never perturbs results.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..errors import InvariantViolation
from .bundle import (
    ChaosOutcome,
    ReplayBundle,
    make_bundle,
    replay_bundle,
    run_chaos_spec,
)
from .controller import ChaosController, ChaosStats
from .faults import (
    FAULT_KINDS,
    SERVING_KINDS,
    FaultEvent,
    InjectionPlan,
    random_plan,
)
from .invariants import InvariantChecker


class ChaosSession:
    """One active injection plan; kernels built inside register here."""

    def __init__(self, plan: InjectionPlan):
        self.plan = plan
        self.controllers: list[ChaosController] = []


_STACK: list[ChaosSession] = []


def current_chaos() -> ChaosSession | None:
    """The innermost active chaos session, or None."""
    return _STACK[-1] if _STACK else None


@contextmanager
def chaos_session(plan: InjectionPlan) -> Iterator[ChaosSession]:
    """Apply ``plan`` to every kernel constructed inside the block."""
    sess = ChaosSession(plan)
    _STACK.append(sess)
    try:
        yield sess
    finally:
        _STACK.remove(sess)


__all__ = [
    "FAULT_KINDS",
    "SERVING_KINDS",
    "FaultEvent",
    "InjectionPlan",
    "random_plan",
    "InvariantChecker",
    "InvariantViolation",
    "ChaosController",
    "ChaosStats",
    "ChaosOutcome",
    "ReplayBundle",
    "make_bundle",
    "replay_bundle",
    "run_chaos_spec",
    "ChaosSession",
    "chaos_session",
    "current_chaos",
]
