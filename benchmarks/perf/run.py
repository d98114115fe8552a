#!/usr/bin/env python3
"""Perf microbenchmark driver.

Runs the core-simulator microbenchmarks and writes ``BENCH_core.json``
at the repo root:

    python benchmarks/perf/run.py              # full sizes
    python benchmarks/perf/run.py --quick      # CI sizes
    python benchmarks/perf/run.py --quick --check-baseline

``--check-baseline`` compares against the committed
``benchmarks/perf/baseline.json`` and exits non-zero when engine
throughput dropped more than ``--tolerance`` (default 30%).  Throughput
is counted in events per reference-host second (``ref_events_per_s``,
timed under benchmarks/e2e's ``HostClock``), so a host slowed by its
neighbours does not fail the gate and a slower engine does.

Result determinism is gated by ``tests/test_determinism.py``, not here.

To refresh the baseline after an intentional change:
``python benchmarks/perf/run.py --quick --write-baseline``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from common import REPO_ROOT, bootstrap

bootstrap()

import bench_engine  # noqa: E402
import bench_kernel  # noqa: E402
import bench_loadgen  # noqa: E402
import bench_runqueue  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "baseline.json")
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_core.json")

_BENCHES = {
    "engine": bench_engine,
    "runqueue": bench_runqueue,
    "kernel": bench_kernel,
    "loadgen": bench_loadgen,
}


def collect(quick: bool) -> dict:
    from repro import __version__

    results = {}
    for name, mod in _BENCHES.items():
        print(f"[bench] {name} ...", flush=True)
        results[name] = mod.run(quick=quick)
        print(f"[bench] {name}: {json.dumps(results[name])}", flush=True)
    return {
        "version": __version__,
        "quick": quick,
        "python": platform.python_version(),
        "benchmarks": results,
    }


def check_baseline(report: dict, tolerance: float) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    try:
        with open(BASELINE_PATH, "r", encoding="utf-8") as f:
            baseline = json.load(f)
    except OSError:
        return [f"no baseline at {BASELINE_PATH}; run with --write-baseline"]
    problems: list[str] = []

    base_tp = baseline["benchmarks"]["engine"]["ref_events_per_s"]
    cur_tp = report["benchmarks"]["engine"]["ref_events_per_s"]
    floor = base_tp * (1.0 - tolerance)
    if cur_tp < floor:
        problems.append(
            f"engine throughput regression: {cur_tp:.0f} reference-host "
            f"events/s < {floor:.0f} (baseline {base_tp:.0f} - "
            f"{tolerance:.0%})"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI sizes (smaller event counts)")
    ap.add_argument("--check-baseline", action="store_true",
                    help="fail on an engine-throughput regression")
    ap.add_argument("--write-baseline", action="store_true",
                    help="refresh benchmarks/perf/baseline.json")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed engine-throughput drop (default 0.30)")
    ap.add_argument("--output", default=OUTPUT_PATH,
                    help="where to write the report JSON")
    args = ap.parse_args(argv)

    report = collect(quick=args.quick)
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}")

    if args.write_baseline:
        with open(BASELINE_PATH, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {BASELINE_PATH}")

    if args.check_baseline:
        problems = check_baseline(report, args.tolerance)
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        if problems:
            return 1
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
