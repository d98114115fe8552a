"""High-resolution periodic timers (hrtimers).

BWD arms one per core at a 100 us period (Section 3.2).  A thin wrapper
over engine events that re-arms itself and supports cancellation.
"""

from __future__ import annotations

from typing import Callable

from ..sim.engine import Engine


class HrTimer:
    """A periodic timer delivering ``callback(now)`` every ``period_ns``."""

    def __init__(
        self,
        engine: Engine,
        period_ns: int,
        callback: Callable[[int], None],
        name: str = "hrtimer",
    ):
        if period_ns <= 0:
            raise ValueError("hrtimer period must be positive")
        self.engine = engine
        self.period_ns = period_ns
        self.callback = callback
        self.name = name
        self.fires = 0
        self._handle: list | None = None  # the armed engine entry
        self._active = False

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self._arm()

    def _arm(self) -> None:
        self._handle = self.engine.schedule(self.period_ns, self._fire)

    def _fire(self) -> None:
        if not self._active:
            return
        self.fires += 1
        self.callback(self.engine.now)
        if self._active:
            self._arm()

    def nudge(self, delta_ns: int) -> bool:
        """Shift the next fire by ``delta_ns`` (may be negative, clamped to
        now).  Subsequent periods are unaffected.  Returns False when the
        timer is not armed.  Used by the chaos harness to model hrtimer
        jitter racing the scheduler."""
        if not self._active or self._handle is None:
            return False
        engine = self.engine
        target = max(engine.now, self._handle[0] + delta_ns)
        engine.cancel(self._handle)
        self._handle = engine.schedule_at(target, self._fire)
        return True

    def cancel(self) -> None:
        self._active = False
        if self._handle is not None:
            self.engine.cancel(self._handle)
            self._handle = None
