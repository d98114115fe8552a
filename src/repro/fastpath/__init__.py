"""Deprecated hot-core selector (``--backend``, ``REPRO_BACKEND``).

The simulator has one hot core: :class:`repro.sim.engine.Engine` and
:class:`repro.kernel.runqueue.CfsRunqueue`.  For one more version the
selector still accepts ``pure`` and ``fast``; both run that core and
emit a ``FutureWarning``.  Unknown names are still rejected.
"""

from __future__ import annotations

import os
import warnings

BACKENDS = ("pure", "fast")

_backend = "pure"


def current_backend() -> str:
    """The backend name last selected (deprecated: both run one core)."""
    return _backend


def set_backend(name: str) -> None:
    """Deprecated no-op: check ``name`` and warn that it has no effect."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}: expected {BACKENDS}")
    _backend = name
    warnings.warn("the backend selector (--backend, REPRO_BACKEND, "
                  "set_backend) has no effect and will be removed",
                  FutureWarning, stacklevel=2)


def add_backend_argument(parser) -> None:
    """Attach the deprecated ``--backend`` flag to an argparse parser."""
    parser.add_argument("--backend", choices=list(BACKENDS), default=None,
                        help="deprecated, no effect: every backend runs "
                             "the one simulator core")


def apply_backend_argument(args) -> None:
    """Honor ``--backend``, else ``$REPRO_BACKEND``, if the caller's
    parser carried the flag.  Raises ValueError on an unknown name."""
    if not hasattr(args, "backend"):
        return
    name = args.backend or os.environ.get("REPRO_BACKEND", "").strip()
    if name:
        set_backend(name)
