"""Shared helpers for the appendix benchmarks.

The ``bench_*.py`` files here cover experiments beyond the paper's
numbered figures and tables (mechanism ablations, NPB on the OpenMP
runtime layer).  Each runs its sweep once (simulations are
deterministic; repeated timing rounds would only measure the host),
prints the rows, and asserts the qualitative claims on them.  The
paper's figures and tables themselves come from ``repro figNN [--quick]``
/ ``repro tableN`` and are checked by the fidelity specs
(``docs/validation.md``).

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
