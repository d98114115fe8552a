"""What is left of the removed hot-core selector.

The simulator has one hot core, :class:`repro.sim.engine.Engine` and
:class:`repro.kernel.runqueue.CfsRunqueue`, and nothing selects it: the
``--backend`` flag and its environment variable are gone.
:func:`set_backend` and :func:`repro.fastpath.build.load_fastcore` exist
only because ``benchmarks/e2e/e2e_bench.py``'s ``prepare`` imports both.
"""

from __future__ import annotations

import warnings

BACKENDS = ("pure", "fast")


def set_backend(name: str) -> None:
    """Check ``name`` and warn that it selects nothing (kept only for
    ``benchmarks/e2e``, see the module docstring)."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}: expected {BACKENDS}")
    warnings.warn("the backend selector (set_backend) has no effect and "
                  "will be removed", FutureWarning, stacklevel=2)
