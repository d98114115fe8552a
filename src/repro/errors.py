"""Exception hierarchy for the repro simulator.

All errors raised by the library derive from :class:`ReproError` so callers
can catch simulator failures without masking programming errors elsewhere.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent internal state."""


class DeadlockError(SimulationError):
    """No runnable task exists and no future event can make one runnable."""

    def __init__(self, message: str, blocked_tasks: tuple[str, ...] = ()):
        super().__init__(message)
        self.blocked_tasks = blocked_tasks


class InvariantViolation(SimulationError):
    """A kernel invariant check failed (see ``repro.chaos.invariants``).

    Carries enough structure to build a replay bundle: which invariant
    tripped, the simulated time and global event index at the failure
    point, and free-form details describing the offending state.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str = "",
        time_ns: int = 0,
        events_run: int = 0,
        details: dict | None = None,
    ):
        super().__init__(message)
        self.invariant = invariant
        self.time_ns = time_ns
        self.events_run = events_run
        self.details = details or {}


class ProgramError(ReproError):
    """A simulated thread program yielded an invalid action."""


class TopologyError(ConfigError):
    """The requested hardware topology cannot be constructed."""
