#!/usr/bin/env python3
"""Full-fidelity report: regenerate every table and figure in one run.

Usage::

    python benchmarks/run_all.py [--scale 1.0] [--quick] [--jobs N]
                                 [--no-cache] [--cache-dir DIR]
                                 [--results FILE] [--seed N]
                                 [--strict] [--validate]

Every data point (app x thread-count x kernel-mode x core-count) is a
deterministic simulation.  Data points that repeat another's experiment
(the same runner, params and seed, such as Figure 1's vanilla runs reused
as Figure 9's baselines) are simulated once per run and share the result.
The report fans the distinct experiments out across a process pool
(``--jobs``, default ``os.cpu_count()``) and caches each result under
``.repro-cache/`` keyed on (config, seed, repro version).
Output is byte-identical for a fixed seed regardless of ``--jobs`` or
cache state; a warm-cache re-run executes zero simulations.

``--quick`` is a *default* for ``--scale`` (0.3): an explicit ``--scale``
always wins, with a warning when both are given.  A machine-readable
``results.json`` artifact is written alongside the printed tables.

``--validate`` additionally checks the produced results against the
paper fidelity specs (``docs/validation.md``) and exits 4 on an
uncatalogued drift; ``--strict`` turns partial results (specs that
failed after retries) into exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.runners.full_report import add_report_flags, main_from_args


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    add_report_flags(ap)
    return main_from_args(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
