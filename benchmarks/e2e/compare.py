#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs against BENCHMARK.json.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py BASE HEAD

BASE and HEAD are run sets: a JSON-lines file of the records that
``run.py --workload all`` prints (``{"workload", "seed", "trace",
"backend", "result", "raw"}``), or ``FILE:NAME`` for the set ``NAME`` of a
baseline file shaped like ``baseline.json`` (``{"sets": {NAME: [records]}}``).
Within each workload a BASE run pairs with the HEAD run at the same seed
(in file order when a seed repeats); unpaired runs are left out.  Run the
two commits alternately, at the same seeds, so each pair ran close in
time and on the same inputs.

For every end-to-end metric and workload it prints each side's median and
quartiles, the change (the median of the per-seed HEAD / BASE ratios,
signed so that positive is worse) and a verdict:

* ``win`` — HEAD is better in at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than BASE's interquartile range;
* ``unresolved`` — the spread of the per-seed ratios (IQR / median) is
  wider than the metric's bound, and not every HEAD run beats every BASE
  run;
* ``regression`` — the change is worse than the bound;
* ``ok`` — none of the above.

Taking the spread and the change from per-seed ratios leaves out what
the seed itself does to a metric, which both sides share.  Where the
records carry raw host times (``raw``), a ``raw`` row follows the scaled
metric, marked when its spread is within the bound and its change differs
from the scaled one by more than the bound.  Per-layer metrics from traced records (``trace`` 1) are listed
with their medians, without a verdict: they have no bound.  The exit
status is 1 when any verdict is ``regression`` or any run was incorrect or
had failures.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Callable

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_set(source: str) -> list[dict]:
    """Records of a run set: ``FILE`` (JSON lines) or ``FILE:NAME``."""
    path, _, name = source.partition(":")
    with open(path, encoding="utf-8") as f:
        if name:
            return json.load(f)["sets"][name]
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def verdict(base: list[float], head: list[float], better: str,
            bound: float) -> tuple[str, dict]:
    """The verdict for one (metric, workload), plus its statistics.
    ``base[i]`` and ``head[i]`` are a pair: runs at the same seed."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (head - base) > 0: worse
    mb, q1b, q3b = quartiles(base)
    mh, q1h, q3h = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    ratios = [h / b if b else (1.0 if h == b else math.inf) for b, h in pairs]
    mr, q1r, q3r = quartiles(ratios)
    spread = _relative(q3r - q1r, mr)
    worse = sign * (mr - 1.0)
    all_better = (max(head) < min(base) if better == "lower"
                  else min(head) > max(base))
    stats = {"base": (mb, q1b, q3b), "head": (mh, q1h, q3h), "wins": wins,
             "pairs": len(pairs), "change": worse, "spread": spread}
    if wins >= 0.9 * len(pairs) and sign * (mb - mh) > q3b - q1b:
        return "win", stats
    if spread > bound and not all_better:
        return "unresolved", stats
    if worse > bound:
        return "regression", stats
    return "ok", stats


def _by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        if rec.get("trace", 0) == trace and rec.get("result") is not None:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def _paired(base: list[dict], head: list[dict],
            value: Callable[[dict], float | None]) -> tuple[list, list]:
    """The values of BASE and HEAD runs at the same seed, as two lists
    in pair order; pairs where either run lacks the value are left out."""
    by_seed: dict = {}
    for rec in head:
        by_seed.setdefault(rec.get("seed"), []).append(rec)
    bv, hv = [], []
    for rec in base:
        partners = by_seed.get(rec.get("seed"))
        if partners:
            b, h = value(rec), value(partners.pop(0))
            if b is not None and h is not None:
                bv.append(b)
                hv.append(h)
    return bv, hv


def _metric(name: str) -> Callable[[dict], float | None]:
    return lambda rec: rec["result"]["metrics"].get(name, {}).get("value")


def _raw(name: str) -> Callable[[dict], float | None]:
    return lambda rec: rec.get("raw", {}).get(name)


def compare(base: list[dict], head: list[dict], bench: dict,
            out=None) -> int:
    out = out or sys.stdout
    status = 0
    for side, records in (("BASE", base), ("HEAD", head)):
        bad = [r for r in records if r.get("result") is None
               or not r["result"]["correct"] or r["result"]["failed"]]
        if bad:
            status = 1
            print(f"{side}: {len(bad)} run(s) incorrect or with failures: "
                  + ", ".join(f"{r['workload']}@{r.get('seed')}" for r in bad),
                  file=out)

    def row(workload: str, name: str, st: dict, bound: float, v: str) -> None:
        print(f"{workload:<12} {name:<12} "
              f"{'%.4g [%.4g, %.4g]' % st['base']:>30} "
              f"{'%.4g [%.4g, %.4g]' % st['head']:>30} "
              f"{st['change']:>+8.1%} {st['spread']:>7.1%} "
              f"{st['wins']:>3}/{st['pairs']:<2} {bound:>6.0%}  {v}", file=out)

    b_runs, h_runs = _by_workload(base, 0), _by_workload(head, 0)
    print(f"{'workload':<12} {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'change':>8} {'spread':>7} "
          f"{'wins':>6} {'bound':>6}  verdict", file=out)
    for workload in sorted(set(b_runs) & set(h_runs)):
        for m in bench["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            bv, hv = _paired(b_runs[workload], h_runs[workload], _metric(name))
            if not bv:
                continue
            v, st = verdict(bv, hv, better, bound)
            status = status or int(v == "regression")
            row(workload, name, st, bound, v)
            bv, hv = _paired(b_runs[workload], h_runs[workload], _raw(name))
            if bv:
                _, raw = verdict(bv, hv, better, bound)
                differs = (raw["spread"] <= bound
                           and abs(raw["change"] - st["change"]) > bound)
                row("", "  raw", raw, bound,
                    "differs from scaled" if differs else "")

    b_traced, h_traced = _by_workload(base, 1), _by_workload(head, 1)
    for workload in sorted(set(b_traced) & set(h_traced)):
        print(f"\nper-layer medians, {workload} (traced runs; no verdict)",
              file=out)
        for m in bench["per_layer"]:
            bv, hv = _paired(b_traced[workload], h_traced[workload],
                             _metric(m["name"]))
            if bv:
                mb, mh = statistics.median(bv), statistics.median(hv)
                print(f"  {m['name']:<36} {mb:>14.6g} {mh:>14.6g} "
                      f"{_relative(mh - mb, mb):>+8.1%}", file=out)
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="parent commit's run set")
    ap.add_argument("head", help="change's run set")
    args = ap.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        bench = json.load(f)
    return compare(load_set(args.base), load_set(args.head), bench)


if __name__ == "__main__":
    sys.exit(main())
