"""Opt-in accelerated engine/runqueue backend (``--backend fast``).

The simulator ships two interchangeable hot cores:

* ``pure`` (default) — the reference implementation:
  :class:`repro.sim.engine.Engine` (bucketed timer wheel) and
  :class:`repro.kernel.runqueue.CfsRunqueue` (red-black tree).
* ``fast`` — this package: a slab/heap event engine (a C extension
  compiled on first use, with a pure-Python slab fallback), a
  heap-with-tombstones runqueue, and struct-of-arrays load columns for
  numpy balance scans.  It draws no random numbers itself: the batched
  arrival draws in :mod:`repro.workloads.loadgen` run on both backends.

The backend is a process-global execution detail, *not* part of
:class:`~repro.config.SimConfig` or any cache key: both backends
produce bit-identical results by construction (same event total order,
same RNG draw order), which the golden-digest suite and the parity
harness in ``tests/test_fastpath.py`` enforce.  Select with
``set_backend("fast")``, the ``REPRO_BACKEND`` environment variable, or
the ``--backend`` CLI flag.
"""

from __future__ import annotations

import os

BACKENDS = ("pure", "fast")

_backend = os.environ.get("REPRO_BACKEND", "pure").strip() or "pure"
if _backend not in BACKENDS:
    raise ValueError(
        f"REPRO_BACKEND={_backend!r}: expected one of {BACKENDS}"
    )


def current_backend() -> str:
    """The active backend name (``pure`` or ``fast``)."""
    return _backend


def set_backend(name: str) -> None:
    """Select the process-global backend for kernels built afterwards."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}: expected {BACKENDS}")
    _backend = name


def fastcore_available() -> bool:
    """True when the compiled C engine is (or can be made) importable."""
    from .build import load_fastcore

    return load_fastcore() is not None


def engine_class():
    """The engine class the current backend would instantiate."""
    if _backend == "fast":
        from .build import load_fastcore

        core = load_fastcore()
        if core is not None:
            return core.FastEngine
        from .engine import SlabEngine

        return SlabEngine
    from ..sim.engine import Engine

    return Engine


def make_engine():
    """A fresh engine for the current backend."""
    return engine_class()()


def runqueue_class():
    """The runqueue class the current backend would instantiate."""
    if _backend == "fast":
        from .runqueue import FastCfsRunqueue

        return FastCfsRunqueue
    from ..kernel.runqueue import CfsRunqueue

    return CfsRunqueue


def make_runqueue(cpu_id: int):
    """A fresh per-CPU runqueue for the current backend."""
    return runqueue_class()(cpu_id)


def backend_info() -> dict:
    """Backend provenance for reports (BENCH_core.json, telemetry)."""
    info = {"backend": _backend}
    if _backend == "fast":
        info["fastcore"] = fastcore_available()
    return info


def add_backend_argument(parser) -> None:
    """Attach the shared ``--backend`` CLI flag to an argparse parser."""
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="simulator hot core: 'pure' (reference) or 'fast' "
        "(accelerated; bit-identical results). Defaults to "
        "$REPRO_BACKEND or 'pure'.",
    )


def apply_backend_argument(args) -> None:
    """Honor ``--backend`` if the caller's parser carried it."""
    backend = getattr(args, "backend", None)
    if backend:
        set_backend(backend)
