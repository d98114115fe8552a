#!/usr/bin/env python3
"""Report-sampling end-to-end benchmark: one workload per run.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload memcached --seed 2021 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs the five workloads one after another, each in its own process, and
prints one record line per workload for ``compare.py``.  See README.md.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from e2e_bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
