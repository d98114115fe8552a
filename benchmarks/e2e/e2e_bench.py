"""Report-sampling end-to-end benchmark.

Each workload is a fixed slice of the quick report's spec list,
``build_all_specs(ReportParams(scale=0.3, quick=True, seed=S))``, some
with a shorter simulated horizon, run through ``ParallelRunner(jobs=1)``
with no result cache: one process and one thread, the default ``pure``
backend and the default per-spec timeout.  A run repeats passes over the
slice for ``--seconds`` and reports the median pass, so the work each
number measures is the same on every commit.  README.md documents the
workloads, the metrics, the traced run and how to compare two commits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from e2e_clock import HostClock

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RUN_PY = HERE / "run.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
FIXTURE = ROOT / "benchmarks" / "fixtures" / "results-quick.json"
FIXTURE_SEED = 2021
OUT_DIR = ROOT / ".bench_build" / "e2e"
SCALE = 0.3
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 60

#: name -> (report sections, regex the spec id must match, parameter
#: overrides).  An override replaces a parameter in the specs that have
#: it; it shortens the simulated horizon so that one pass takes 1.1-1.6 s
#: on the reference host.  README.md says why each slice was chosen.
WORKLOADS: dict[str, tuple[tuple[str, ...], str, dict]] = {
    "memcached": (("fig12",), r"fig12/16c/16T", {"duration_ms": 50.0}),
    "primitives": (("fig10",), r"fig10b/(mutex|cond|barrier)/(1|8|32)c/",
                   {"iterations": 100}),
    "spin_bwd": (("fig13",), "", {"total_stages": 120}),
    "serving": (("serve",), r"serve/(open/0\.9x|closed/high"
                r"|colo/vm/optimized|resil/crash)$", {"duration_ms": 40.0}),
    "short_specs": (("fig01", "fig02", "fig03", "fig04", "fig09", "sched"),
                    "", {}),
}
#: Two fig02 specs (~30 ms): for the tests and a quick install check.
#: Not in BENCHMARK.json and not part of ``--workload all``.
SMOKE = {"smoke": (("fig02",), r"fig02/1T/", {})}
#: Cheap specs (~0.6 s) that reach the dispatch cycle, futex and VB wakes,
#: epoll, spinning with PLE, and the non-CFS policies.  Every run re-runs
#: them at the fixture's seed and compares them with the fixture, so each
#: run checks the program against committed results.
CANARY = (("fig02", "fig10", "fig13", "serve", "sched"),
          r"fig02/1T/|fig10a/(mutex|cond|barrier)/2T/"
          r"|fig13/kvm/ticket/8T\(vanilla\)$|serve/colo/container/vanilla$"
          r"|sched/(eevdf|fifo_rr)/4x$", {})

# Environment settings that would change what is measured.  The benchmark
# always runs the simulator's defaults; --backend selects the hot core.
_ENV_OVERRIDES = ("REPRO_BACKEND", "REPRO_POLICY", "REPRO_CHECK_INVARIANTS",
                  "REPRO_NO_FASTCORE")


def prepare_env() -> None:
    """Pin the simulator's settings and make ``repro`` importable.

    Must run before ``repro`` is imported: the policy default is read at
    import time.  The C core of ``--backend fast`` is compiled into the
    checkout, and the compiler's temporary files stay there too."""
    for var in _ENV_OVERRIDES:
        os.environ.pop(var, None)
    os.environ["REPRO_FASTCORE_CACHE"] = str(OUT_DIR / "fastcore")
    os.environ["TMPDIR"] = str(OUT_DIR / "tmp")
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def canonical(value) -> str:
    """The byte form results are compared in (sorted keys, no spaces)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def select_specs(sections: tuple[str, ...], pattern: str, overrides: dict,
                 seed: int) -> list:
    """The report's specs in ``sections`` whose id matches ``pattern``,
    with ``overrides`` applied to the parameters each spec has."""
    from repro.runners.full_report import ReportParams, build_all_specs

    rx = re.compile(pattern)
    params = ReportParams(scale=SCALE, quick=True, seed=seed)
    return [dataclasses.replace(spec, params={
                **spec.params,
                **{k: v for k, v in overrides.items() if k in spec.params}})
            for section, specs in build_all_specs(params)
            if section.key in sections
            for spec in specs if rx.match(spec.id)]


# ---------------------------------------------------------------------
# References
# ---------------------------------------------------------------------
def load_reference(path: Path) -> dict[str, str]:
    """Spec id -> canonical result, from a results.json-shaped file."""
    with open(path, encoding="utf-8") as f:
        artifact = json.load(f)
    return {e["id"]: canonical(e["result"]) for e in artifact["results"]}


def save_results(path: Path, specs: list, results: list, **meta) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    artifact = {**meta, "results": [{"id": s.id, "result": r}
                                    for s, r in zip(specs, results)]}
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(artifact, f, sort_keys=True)
    os.replace(tmp, path)


def prepare(args: argparse.Namespace) -> tuple[list, dict | None]:
    """Everything before the first spec is dispatched: the backend, the
    spec slice and the ``--reference`` file if one is given.  Returns
    (specs, reference or None).  Without a reference, the run is tied to
    committed results by the canary."""
    from repro.fastpath import set_backend

    set_backend(args.backend)
    if args.backend == "fast":
        from repro.fastpath.build import load_fastcore

        load_fastcore()  # a cold compile must not land in wall_s
    specs = select_specs(*{**WORKLOADS, **SMOKE}[args.workload], args.seed)
    reference = load_reference(Path(args.reference)) if args.reference else None
    return specs, reference


# ---------------------------------------------------------------------
# The measured pass and its check
# ---------------------------------------------------------------------
def run_pass(specs: list) -> tuple[list, HostClock, dict]:
    """Run the slice once; returns (results, its timing, failures)."""
    from repro.runners.parallel import ParallelRunner

    # cache_dir=None: no result reuse and no recorded timings from a
    # .repro-cache/ that happens to sit in the working directory.
    runner = ParallelRunner(jobs=1, cache_dir=None, use_cache=False,
                            strict=False)
    with HostClock() as clock:
        results = runner.run(specs)
    return results, clock, runner.stats.failures


def check(specs: list, results: list, failures: dict,
          reference: dict[str, str] | None) -> list[str]:
    """Ids of specs that raised, timed out or differ from the reference."""
    bad = []
    for spec, result in zip(specs, results):
        if spec.id in failures or not isinstance(result, dict):
            bad.append(spec.id)
        elif reference is not None and reference.get(spec.id) != canonical(result):
            bad.append(spec.id)
    return bad


def timed_passes(specs: list, reference: dict[str, str] | None,
                 seconds: float) -> tuple[list[HostClock], list, list[str]]:
    """Passes over the slice until ``seconds`` have gone by, at least one.
    Returns (each pass's clock, the first pass's results, bad spec ids).

    Each pass is checked against ``reference``; without one, the passes
    after the first must repeat the first pass's results byte for byte."""
    clocks: list[HostClock] = []
    bad: list[str] = []
    first: list = []
    start = time.perf_counter()
    while not clocks or time.perf_counter() - start < seconds:
        results, clock, failures = run_pass(specs)
        bad += check(specs, results, failures, reference)
        if not clocks:
            first = results
            if reference is None:
                reference = {s.id: canonical(r) for s, r in zip(specs, results)}
        clocks.append(clock)
    return clocks, first, bad


def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, float], raw: dict[str, float] | None = None) -> None:
    """Print the result line: the last line of standard output.  ``raw``,
    the unscaled host times, goes on a line of its own just before it."""
    units = declared_units()
    if raw:
        print(json.dumps({"raw": raw}), flush=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)


# ---------------------------------------------------------------------
# Child processes: set-up probes and the traced run's untraced passes
# ---------------------------------------------------------------------
def _base_cmd(args: argparse.Namespace, workload: str,
              seconds: int | None = None) -> list[str]:
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, str(RUN_PY), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds)]
    if args.reference:
        cmd += ["--reference", args.reference]
    return cmd


def probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Time from spawning a fresh interpreter to its first spec being
    ready to dispatch (imports, spec building, reference loading), as
    (raw seconds, reference-host seconds).  The child times its own
    set-up with a ``HostClock`` and reports the clock's scale factor on
    its ``ready`` line."""
    cmd = _base_cmd(args, args.workload) + ["--backend", args.backend,
                                            "--probe-setup"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if len(line) != 2 or line[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {cmd}")
    return elapsed, elapsed * float(line[1])


def run_child(args: argparse.Namespace, backend: str) -> dict:
    """One untraced pass in a fresh process; returns its saved results
    file plus ``correct`` from its result line."""
    path = OUT_DIR / f"run-{args.workload}-{args.seed}-{backend}.json"
    path.unlink(missing_ok=True)
    cmd = _base_cmd(args, args.workload, seconds=0) + [
        "--trace", "0", "--backend", backend, "--setup-runs", "0",
        "--save-results", str(path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines or not path.exists():
        raise RuntimeError(f"untraced {backend} run failed: {cmd}")
    with open(path, encoding="utf-8") as f:
        saved = json.load(f)
    saved["correct"] = proc.returncode == 0 and json.loads(lines[-1])["correct"]
    return saved


# ---------------------------------------------------------------------
# Run modes
# ---------------------------------------------------------------------
def plain_run(args: argparse.Namespace) -> int:
    from e2e_trace import CycleCounters

    with HostClock() as setup_clock:
        specs, reference = prepare(args)
    raw_setup_s = time.perf_counter() - T_START
    setup_s = raw_setup_s * setup_clock.wall_s / setup_clock.raw_s
    counters = CycleCounters() if args.backend == "fast" else None
    with counters.installed() if counters else nullcontext():
        clocks, results, bad = timed_passes(specs, reference, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(c.wall_s for c in clocks)
    raw_wall_s = statistics.median(c.raw_s for c in clocks)
    attempted = len(clocks) * len(specs)

    if args.save_results:
        meta = {"workload": args.workload, "seed": args.seed,
                "backend": args.backend, "passes": len(clocks),
                "wall_s": wall_s, "raw_wall_s": raw_wall_s}
        if counters:  # per pass: every pass makes the same events
            meta["fastpath"] = {
                "fast_events": counters.fast_events // len(clocks),
                "bailouts": counters.bailouts // len(clocks)}
        save_results(Path(args.save_results), specs, results, **meta)
    canary = select_specs(*CANARY, FIXTURE_SEED)
    canary_results, _, canary_failures = run_pass(canary)
    attempted += len(canary)
    bad += check(canary, canary_results, canary_failures,
                 load_reference(FIXTURE))
    if args.setup_runs:
        probes = [probe_setup(args) for _ in range(args.setup_runs)]
        raw_setup_s = statistics.median(raw for raw, _ in probes)
        setup_s = statistics.median(scaled for _, scaled in probes)
    print(f"{args.workload} seed={args.seed} backend={args.backend}: "
          f"{attempted} specs, {len(bad)} failed, {len(clocks)} passes, "
          f"median pass {wall_s:.3f} s (raw {raw_wall_s:.3f} s), "
          f"set-up {setup_s:.3f} s (raw {raw_setup_s:.3f} s), "
          f"peak RSS {peak_rss_mb:.1f} MB", file=sys.stderr)
    emit(not bad, attempted, len(bad), {
        "wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb},
        raw={"wall_s": raw_wall_s, "setup_s": raw_setup_s})
    return 1 if bad else 0


def layer_metrics(tracer, traced: HostClock, pure: dict, fast: dict,
                  span_cost_ns: float) -> dict[str, float]:
    """Per-layer metrics from a traced pass and the untraced pure and fast
    passes of the same slice.  Span times are raw host time, so shares of
    the traced pass use its raw time; whole-pass times are in
    reference-host seconds, like ``wall_s``."""
    from e2e_trace import WAKE_SPANS

    t = tracer
    events = t.events
    pure_wall = pure["wall_s"]
    m = {
        "runners.specs": t.calls("runner.spec"),
        "runners.kernel_init_s": t.inclusive_s("kernel.init"),
        "runners.overhead_s": traced.raw_s - t.inclusive_s("runner.spec"),
        "engine.events": events,
        "engine.scheduled": t.scheduled,
        "engine.fired_frac": events / t.scheduled if t.scheduled else 0.0,
        "engine.self_s": t.self_s("engine.run"),
        "engine.host_ns_per_event": pure_wall * 1e9 / events if events else 0.0,
    }
    for name in ("kernel.dispatch",) + WAKE_SPANS + (
            "bwd.tick", "bwd.deschedule", "ple.tick", "balance.tick"):
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.self_s"] = t.self_s(name)
    m["kernel.wake.share"] = sum(t.self_s(n) for n in WAKE_SPANS) / traced.raw_s
    ticks = t.calls("bwd.tick")
    m["bwd.deschedules_per_tick"] = (
        t.calls("bwd.deschedule") / ticks if ticks else 0.0)
    m["workload.program.steps"] = t.calls("workload.program")
    m["workload.program.self_s"] = t.self_s("workload.program")
    for name in ("workload.clients", "resilience"):
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.self_s"] = t.self_s(name)

    counts = fast["fastpath"]
    covered = counts["fast_events"] + counts["bailouts"]
    same = ([canonical(r) for r in fast["results"]]
            == [canonical(r) for r in pure["results"]])
    m.update({
        "fastpath.wall_s": fast["wall_s"],
        "fastpath.speedup": pure_wall / fast["wall_s"],
        "fastpath.fast_events": counts["fast_events"],
        "fastpath.bailouts": counts["bailouts"],
        "fastpath.fast_frac": counts["fast_events"] / covered if covered else 0.0,
        "fastpath.digest_match": 1.0 if same else 0.0,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_pct": 100.0 * (traced.wall_s / pure_wall - 1.0),
        "trace.span_cost_ns": span_cost_ns,
    })
    return m


def traced_run(args: argparse.Namespace) -> int:
    from e2e_trace import LayerTracer, span_cost_ns

    specs, _ = prepare(args)
    pure = run_child(args, "pure")
    fast = run_child(args, "fast")
    tracer = LayerTracer()
    with tracer.installed():
        results, traced, failures = run_pass(specs)
    untraced = {e["id"]: canonical(e["result"]) for e in pure["results"]}
    bad = check(specs, results, failures, untraced)
    spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(str(spans))
    metrics = layer_metrics(tracer, traced, pure, fast, span_cost_ns())
    print(f"{args.workload} seed={args.seed}: traced {traced.wall_s:.3f} s "
          f"(untraced {pure['wall_s']:.3f} s, fast {fast['wall_s']:.3f} s), "
          f"{len(tracer.spans)} raw spans in {spans}", file=sys.stderr)
    correct = not bad and pure["correct"] and fast["correct"]
    emit(correct, len(specs), len(bad), metrics)
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another; prints one
    record line per workload, with the run's raw host times if any."""
    status = 0
    for workload in WORKLOADS:
        cmd = _base_cmd(args, workload) + [
            "--trace", str(args.trace), "--backend", args.backend,
            "--setup-runs", str(args.setup_runs)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = [json.loads(line) for line in proc.stdout.splitlines()
                 if line.startswith("{")]
        status = status or proc.returncode
        record = {"workload": workload, "seed": args.seed,
                  "trace": args.trace, "backend": args.backend,
                  "result": lines[-1] if lines else None}
        for line in lines[:-1]:
            if "raw" in line:
                record["raw"] = line["raw"]
        print(json.dumps(record), flush=True)
    return status


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all", *SMOKE])
    ap.add_argument("--seed", type=int, default=FIXTURE_SEED)
    ap.add_argument("--seconds", type=int, default=10,
                    help="how long to repeat passes over the workload's "
                         "fixed slice (at least one pass; 0: one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from one traced pass "
                         "plus one untraced pure and one fast pass")
    ap.add_argument("--backend", choices=("pure", "fast"), default="pure")
    ap.add_argument("--reference", metavar="FILE",
                    help="results file to compare against byte for byte "
                         "(written by --save-results)")
    ap.add_argument("--save-results", metavar="FILE",
                    help="write this run's per-spec results to FILE")
    ap.add_argument("--setup-runs", type=int, default=SETUP_RUNS,
                    help="fresh processes timed for setup_s (median); 0 "
                         "times this process's own set-up instead")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 0 or args.setup_runs < 0:
        ap.error("--seconds and --setup-runs must be non-negative")
    if args.trace and args.backend != "pure":
        ap.error("the traced run is pure; it runs the fast pass itself")
    if args.workload == "all" and args.save_results:
        ap.error("--save-results needs a single workload")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    prepare_env()
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the simulator from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        with HostClock() as clock:
            prepare(args)
        print(f"ready {clock.wall_s / clock.raw_s!r}", flush=True)
        return 0
    if args.trace:
        return traced_run(args)
    return plain_run(args)
