"""Pause-loop exiting (PLE) model — VM-only spin mitigation.

PLE (Intel) and Pause Filter (AMD) trap to the hypervisor when a *vCPU*
executes many PAUSE instructions in a tight window.  Two structural limits,
both reproduced here and in the evaluation (Figures 13/14):

1. Only spin loops that actually execute PAUSE/NOP are visible.  Ad-hoc
   spins (e.g. NPB ``lu``'s plain flag-polling loop) never trigger it.
2. PLE operates on the vCPU, not the guest thread: the hypervisor
   deschedules the vCPU briefly, but the *guest* scheduler still considers
   the spinning thread runnable and reschedules it, so thread-level
   oversubscription inside the guest is not relieved — PLE performs like
   vanilla in the paper's tests.
"""

from __future__ import annotations

import math

from ..config import PleConfig


class PauseLoopExiting:
    """Per-vCPU PLE state: continuous PAUSE-spin time since last break."""

    def __init__(self, config: PleConfig, num_cpus: int):
        self.config = config
        # A disabled PLE never fires: its spin window never closes.
        self._window_ns = config.window_ns if config.enabled else math.inf
        self._spin_since: list[int | None] = [None] * num_cpus
        self.exits = 0

    def observe(self, cpu: int, now: int, spinning_with_pause: bool) -> bool:
        """Update per-vCPU state; returns True when a PLE exit fires.

        Called whenever the monitoring layer samples the vCPU.  The spin
        clock resets whenever the vCPU is not in a PAUSE-based spin.
        """
        if not spinning_with_pause:
            self._spin_since[cpu] = None
            return False
        since = self._spin_since[cpu]
        if since is None:
            self._spin_since[cpu] = now
            return False
        if now - since >= self._window_ns:
            self._spin_since[cpu] = now  # re-arm after the exit
            self.exits += 1
            return True
        return False

    def reset(self, cpu: int) -> None:
        self._spin_since[cpu] = None
