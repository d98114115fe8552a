"""Command-line interface: regenerate any of the paper's experiments.

Examples::

    python -m repro list
    python -m repro all --quick --jobs 4
    python -m repro fig01 --scale 0.5
    python -m repro fig12 --quick --jobs 2 --validate
    python -m repro table2
    python -m repro suite streamcluster --threads 32 --cores 8 --optimized
    python -m repro ablations
    python -m repro validate --results results.json --strict
    python -m repro docs --check

The full command/flag reference (``docs/cli.md``) and the exit-code
table are generated from this module — see ``python -m repro docs`` and
:mod:`repro.exitcodes`.
"""

from __future__ import annotations

import argparse
import sys

from .config import optimized_config, vanilla_config
from .errors import ConfigError
from .exitcodes import (
    EXIT_CHAOS_VIOLATION,
    EXIT_FAILURE,
    EXIT_FIDELITY_VIOLATION,
    EXIT_OK,
    EXIT_USAGE,
)
from .runners import ablations as ab
from .runners import format_table
from .workloads import SUITE, profile, run_suite_benchmark


def _add_scale(p: argparse.ArgumentParser, default: float | None) -> None:
    p.add_argument("--scale", type=float, default=default,
                   help="workload scale (1.0 = full fidelity)")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=2021)


def cmd_list(_args) -> int:
    rows = [
        [p.name, p.suite, p.group.value, p.kind.value,
         f"{p.sync_interval_us:.0f}"]
        for p in SUITE.values()
    ]
    print(format_table(
        ["benchmark", "suite", "group", "sync", "interval (us)"], rows,
        title="modeled benchmarks",
    ))
    from .kernel.policy import POLICIES, available

    print(format_table(
        ["policy", "sched class", "description"],
        [[name, POLICIES[name].sched_class, POLICIES[name].description]
         for name in available()],
        title="scheduling policies (--policy; see docs/scheduling.md)",
    ))
    return 0


def cmd_all(args) -> int:
    """``repro all`` and every per-section command (``args.sections``)."""
    from .runners.full_report import main_from_args

    return main_from_args(args)


def cmd_serve(args) -> int:
    if args.resilience or args.faults:
        return _serve_resilience_point(args)
    return cmd_all(args)


def _serve_resilience_point(args) -> int:
    """Ad-hoc overload run: one open-loop serving point under a
    resilience policy and/or a fault plan (``repro serve --resilience
    retry-budget --faults plan.json``).  Bad preset names and corrupt
    plan files raise ConfigError -> usage exit (2)."""
    import json as _json

    from .chaos import InjectionPlan
    from .runners.parallel import run_serving_open, vanilla_desc
    from .workloads.serving import DEFAULT_SLO, SATURATION_RATE

    resilience = args.resilience
    if resilience and resilience.lstrip().startswith("{"):
        resilience = _json.loads(resilience)
    plan = InjectionPlan.load(args.faults).to_json() if args.faults else None
    dur, warm = (80.0, 10.0) if args.quick else (300.0, 30.0)
    rate = SATURATION_RATE * args.rate_frac
    print(f"serving point: rate {rate / 1e3:.0f} k/s "
          f"({args.rate_frac:g}x saturation), {dur:.0f} ms horizon, "
          f"resilience={args.resilience or 'off'}, "
          f"faults={args.faults or 'none'}")
    res = run_serving_open(
        vanilla_desc(4, args.seed), workers=8, rate=rate,
        duration_ms=dur, warmup_ms=warm,
        slo=DEFAULT_SLO.as_dict(),
        resilience=resilience, faults=plan,
    )
    lat = res["latency"] or {}
    slo = res["slo"]
    print(f"goodput {res['goodput_ops'] / 1e3:.1f} k/s "
          f"(offered {res['offered_ops'] / 1e3:.1f}), "
          f"p99 {lat.get('p99', float('nan')):.0f} us, "
          f"p999 {lat.get('p999', float('nan')):.0f} us, "
          f"SLO {slo['violations']}/{slo['windows']} windows violated")
    resil = res.get("resilience")
    if resil:
        stats = {k: v for k, v in resil["stats"].items() if v}
        if stats:
            print("  " + ", ".join(f"{k}={v}"
                                   for k, v in sorted(stats.items())))
        client = resil.get("client")
        if client:
            print(f"  amplification {client['amplification']:.3f} "
                  f"({client['attempts']} attempts / "
                  f"{client['originals']} originals)")
        rec = resil.get("recovery")
        if rec:
            ttr = rec.get("time_to_recovery_ms")
            print("  time-to-recovery: "
                  + (f"{ttr:.1f} ms" if ttr is not None else "none "
                     "(no clean SLO window after the fault cleared)"))
    if args.results and args.results != "none":
        with open(args.results, "w", encoding="utf-8") as f:
            _json.dump(res, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.results}")
    return 0


def cmd_ablations(args) -> int:
    for rows, key in ((ab.vb_ablation(seed=args.seed), "full VB"),
                      (ab.bwd_ablation(seed=args.seed), "full BWD")):
        by = {}
        for r in rows:
            by.setdefault(r.workload, {})[r.variant] = r.duration_ns
        for wl, d in by.items():
            print(format_table(
                ["variant", "time (ms)", f"vs {key}"],
                [[v, t / 1e6, t / d[key]] for v, t in d.items()],
                title=f"{rows[0].mechanism.upper()} ablation — {wl}",
            ))
    return 0


def cmd_adapt(args) -> int:
    from .errors import SimulationError
    from .runners.adaptation import runtime_adaptation

    try:
        run = runtime_adaptation(
            args.setting, core_schedule=args.cores, seed=args.seed
        )
    except SimulationError as exc:
        print(f"crashed (as real pinned programs do): {exc}")
        return EXIT_FAILURE
    print(format_table(
        ["t (ms)", "cores", "phases/window", "utilization %"],
        [[w.t_start_ms, w.cores, w.phases_completed, w.utilization_pct]
         for w in run.windows],
        title=f"runtime adaptation — {run.setting}",
        float_fmt="{:.1f}",
    ))
    return 0


def _print_hists(extra: dict) -> None:
    hist_rows = [
        [key[len("hist:"):-len("_ns")], int(s["count"]), s["p50"] / 1e3,
         s["p95"] / 1e3, s["p99"] / 1e3, s["max"] / 1e3]
        for key, s in sorted(extra.items())
        if key.startswith("hist:")
    ]
    if hist_rows:
        print(format_table(
            ["metric", "n", "p50 (us)", "p95 (us)", "p99 (us)", "max (us)"],
            hist_rows, title="latency distributions", float_fmt="{:.1f}",
        ))


def cmd_npb(args) -> int:
    from .workloads.npb_omp import NpbOmpConfig, run_npb_omp

    cfg = (
        optimized_config(cores=args.cores, seed=args.seed)
        if args.optimized
        else vanilla_config(cores=args.cores, seed=args.seed)
    )

    def go():
        return run_npb_omp(args.kernel, args.threads, cfg, NpbOmpConfig())

    if args.trace:
        from .obs import observe
        from .obs.export import write_artifacts

        with observe() as session:
            r = go()
        paths = write_artifacts(
            session.recorder, args.trace,
            meta={"benchmark": f"npb/{args.kernel}",
                  "threads": args.threads, "seed": args.seed},
        )
    else:
        paths = {}
        r = go()
    print(f"{r.kernel} (OpenMP model): {r.nthreads} threads on "
          f"{r.cores} cores, {r.regions} parallel regions")
    print(f"  execution time   {r.duration_ns / 1e6:10.2f} ms")
    print(f"  barriers/blocks  {r.stats.blocks:10d}")
    print(f"  migrations       {r.stats.total_migrations:10d}")
    for kind, path in paths.items():
        print(f"  trace ({kind})    -> {path}")
    return 0


def cmd_suite(args) -> int:
    prof = profile(args.benchmark)
    cfg = (
        optimized_config(cores=args.cores, seed=args.seed)
        if args.optimized
        else vanilla_config(cores=args.cores, seed=args.seed)
    )

    def go():
        return run_suite_benchmark(
            prof, args.threads, cfg, work_scale=args.scale,
            pinned=args.pinned,
        )

    session = None
    if args.trace:
        from .obs import observe

        with observe(sample_interval_us=args.sample_interval_us) as session:
            run = go()
    else:
        run = go()
    s = run.stats
    print(f"{prof.name}: {args.threads} threads on {args.cores} cores "
          f"({'optimized' if args.optimized else 'vanilla'} kernel)")
    print(f"  execution time     {run.duration_ns / 1e6:10.2f} ms")
    print(f"  CPU utilization    {s.cpu_utilization_pct:10.1f} %·cpus")
    print(f"  context switches   {s.context_switches:10d}")
    print(f"  blocks / wakeups   {s.blocks:10d} / {s.wakeups}")
    print(f"  migrations         {s.total_migrations:10d} "
          f"({s.migrations_cross_node} cross-node)")
    print(f"  time spinning      {s.total_spin_ns / 1e6:10.2f} ms")
    if session is not None:
        from .obs.export import write_artifacts

        paths = write_artifacts(
            session.recorder, args.trace,
            meta={"benchmark": prof.name, "threads": args.threads,
                  "cores": args.cores, "seed": args.seed},
        )
        n = session.recorder.count()
        for kind, path in paths.items():
            print(f"  trace ({kind:6s})     {n:10d} events -> {path}")
        _print_hists(s.extra_dict)
        if session.samplers:
            from .obs.timeline import render_sampler

            print(render_sampler(session.samplers[0]))
    return 0


def _resolve_section_spec(args):
    """Select one ExperimentSpec of a figure/table section.

    Shared by ``repro trace`` / ``repro profile`` / ``repro top``.
    Returns ``(params, spec)``, or an int exit code (0 after ``--list``,
    2 on a bad section/spec selector).
    """
    from .runners.full_report import (
        ReportParams, SECTIONS, resolve_scale,
    )

    section = next((s for s in SECTIONS if s.key == args.section), None)
    if section is None:
        keys = ", ".join(s.key for s in SECTIONS)
        print(f"unknown section {args.section!r}; one of: {keys}",
              file=sys.stderr)
        return 2
    params = ReportParams(
        scale=resolve_scale(args.scale, args.quick, warn=sys.stderr),
        quick=args.quick, seed=args.seed,
    )
    specs = section.build(params)
    if args.list:
        for i, spec in enumerate(specs):
            print(f"{i:3d}  {spec.id}")
        return 0
    if args.spec_id is not None:
        spec = next((s for s in specs if s.id == args.spec_id), None)
        if spec is None:
            print(f"no spec {args.spec_id!r} in {args.section} "
                  f"(try --list)", file=sys.stderr)
            return 2
    else:
        if not 0 <= args.index < len(specs):
            print(f"--index {args.index} out of range "
                  f"(0..{len(specs) - 1})", file=sys.stderr)
            return 2
        spec = specs[args.index]
    return params, spec


def cmd_trace(args) -> int:
    from .obs import observe
    from .obs.export import write_artifacts
    from .obs.timeline import render_sampler
    from .runners.parallel import execute_spec

    resolved = _resolve_section_spec(args)
    if isinstance(resolved, int):
        return resolved
    params, spec = resolved

    print(f"tracing {spec.id} (scale {params.scale}, seed {spec.seed})")
    with observe(sample_interval_us=args.sample_interval_us,
                 capacity=args.capacity) as session:
        execute_spec(spec.payload(), timeout_s=None)
    rec = session.recorder
    paths = write_artifacts(
        rec, args.out,
        meta={"spec": spec.id, "seed": spec.seed, "scale": params.scale},
    )
    drop = f" ({rec.dropped} dropped)" if rec.dropped else ""
    print(f"{rec.count()} events{drop}")
    for kind, path in paths.items():
        print(f"  {kind:6s} -> {path}")
    _print_hists({f"hist:{name}": h.summary()
                  for name, h in session.hists.items() if h.count})
    if session.samplers:
        print(render_sampler(session.samplers[0]))
    return 0


def cmd_profile(args) -> int:
    from .obs import observe
    from .runners.parallel import execute_spec
    from .telemetry import folded_stacks, render_folded, write_folded

    resolved = _resolve_section_spec(args)
    if isinstance(resolved, int):
        return resolved
    params, spec = resolved

    print(f"profiling {spec.id} (scale {params.scale}, seed {spec.seed})",
          file=sys.stderr)
    with observe(capacity=args.capacity) as session:
        execute_spec(spec.payload(), timeout_s=None)
    rec = session.recorder
    if rec.dropped:
        print(f"warning: trace incomplete: {rec.dropped} events dropped — "
              f"the profile covers only the surviving suffix of the run",
              file=sys.stderr)
    folded = folded_stacks(rec)
    if args.out:
        n = write_folded(args.out, folded)
        print(f"{n} folded stacks -> {args.out} "
              f"(flamegraph.pl / speedscope 'folded' input)")
    else:
        print(render_folded(folded), end="")
    return 0


def cmd_top(args) -> int:
    from .obs import observe
    from .runners.parallel import execute_spec
    from .telemetry import render_top, session_telemetry

    resolved = _resolve_section_spec(args)
    if isinstance(resolved, int):
        return resolved
    params, spec = resolved

    print(f"sampling {spec.id} (scale {params.scale}, seed {spec.seed}, "
          f"every {args.sample_interval_us:g} us)", file=sys.stderr)
    with observe(sample_interval_us=args.sample_interval_us) as session:
        execute_spec(spec.payload(), timeout_s=None)
    telemetry = session_telemetry(session)
    if telemetry is None or not session.samplers:
        print("no kernel ran for this spec — nothing to show",
              file=sys.stderr)
        return EXIT_FAILURE
    primary = min(telemetry["primary"], len(session.samplers) - 1)
    print(render_top(
        session.samplers[primary].to_dict(),
        telemetry["snapshots"][telemetry["primary"]],
        frames=args.frames, width=args.width, top_n=args.top,
    ))
    return 0


def cmd_analyze(args) -> int:
    from .obs.analyze import analyze_file

    return analyze_file(args.trace, bins=args.bins)


def _chaos_workload(args) -> dict:
    from .runners.parallel import optimized_desc, vanilla_desc

    desc = (optimized_desc(args.cores, args.seed) if args.optimized
            else vanilla_desc(args.cores, args.seed))
    return {
        "runner": "suite_point",
        "params": {"name": args.benchmark, "nthreads": args.threads,
                   "config": desc, "work_scale": args.scale},
        "seed": args.seed,
    }


def _print_chaos_outcome(out) -> None:
    active = {k: v for k, v in out.stats.items() if v}
    print(f"faults applied: {out.stats.get('faults_applied', 0)}, "
          f"invariant checks: {out.invariant_checks}")
    if active:
        print("  " + ", ".join(f"{k}={v}" for k, v in sorted(active.items())))
    if out.violation is None:
        print(f"clean run (result sha256 {out.result_sha256[:16]}...)")
    else:
        v = out.violation
        print(f"FAILURE [{v.get('invariant')}]: {v.get('message')}")


def cmd_chaos_run(args) -> int:
    import dataclasses as dc

    from .chaos import InjectionPlan, make_bundle, random_plan, run_chaos_spec

    if args.plan:
        plan = InjectionPlan.load(args.plan)
    else:
        plan = random_plan(
            args.chaos_seed,
            duration_ns=int(args.duration_ms * 1e6),
            intensity=args.intensity,
        )
    if args.no_invariants:
        plan = dc.replace(plan, check_invariants=False)
    if args.horizon_ms is not None:
        plan = dc.replace(
            plan, progress_horizon_ns=int(args.horizon_ms * 1e6)
        )
    workload = _chaos_workload(args)
    print(f"chaos run: {args.benchmark} x{args.threads} on {args.cores} "
          f"cores, {len(plan.events)} fault(s), chaos seed {plan.seed}")
    out = run_chaos_spec(workload, plan)
    _print_chaos_outcome(out)
    if args.bundle or not out.ok:
        path = args.bundle or "chaos-bundle.json"
        make_bundle(workload, plan, out).save(path)
        print(f"replay bundle -> {path}"
              + ("" if out.ok else f"  (repro: repro chaos replay {path})"))
    return EXIT_OK if out.ok else EXIT_CHAOS_VIOLATION


def cmd_chaos_replay(args) -> int:
    from .chaos import ReplayBundle, replay_bundle

    bundle = ReplayBundle.load(args.bundle)
    want = (bundle.violation or {}).get("invariant", "clean")
    print(f"replaying {args.bundle}: recorded outcome {want!r}, "
          f"{len(bundle.plan.get('events', []))} fault(s)")
    outcome, reproduced, diffs = replay_bundle(bundle)
    _print_chaos_outcome(outcome)
    if reproduced:
        print("outcome REPRODUCED deterministically")
        return EXIT_OK
    print("outcome NOT reproduced:")
    for d in diffs:
        print(f"  {d}")
    return EXIT_FAILURE


def cmd_validate(args) -> int:
    import json

    from .validate import Results, evaluate
    from .validate.compare import Status
    from .validate.report import write_experiments_md

    try:
        results = Results.load(args.results)
    except FileNotFoundError:
        print(f"no results artifact at {args.results!r} — produce one "
              f"with `python -m repro all` or benchmarks/run_all.py",
              file=sys.stderr)
        return EXIT_FAILURE
    report = evaluate(results, quick_only=True if args.quick else None)

    style = {
        Status.MATCH: "ok", Status.DEVIATION: "DEVIATION",
        Status.VIOLATION: "VIOLATION", Status.MISSING: "MISSING",
        Status.SKIPPED: "skipped",
    }
    print(format_table(
        ["spec", "paper", "measured", "band", "status"],
        [
            [o.spec.id, o.spec.paper, o.measured_display,
             f"{o.spec.band_text()} {o.spec.unit}".rstrip(),
             style[o.status]]
            for o in report.outcomes
        ],
        title=f"fidelity validation — seed {report.seed}, "
              f"scale {report.scale:g}",
    ))
    counts = report.counts()
    print(f"{len(report.outcomes)} specs: {counts['MATCH']} match, "
          f"{counts['DEVIATION']} known deviations, "
          f"{counts['VIOLATION']} violations, {counts['MISSING']} missing, "
          f"{counts['SKIPPED']} skipped")
    for o in report.violations + report.by_status(Status.MISSING):
        print(f"  {style[o.status]} {o.spec.id}: {o.message}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report.as_dict(), f, indent=1, sort_keys=True)
        print(f"structured report -> {args.json}")
    if args.update_docs:
        write_experiments_md(results, args.docs)
        print(f"regenerated {args.docs} from "
              f"{args.results} (seed {report.seed}, scale {report.scale:g})")
    if report.failed(strict=args.strict):
        return EXIT_FIDELITY_VIOLATION
    return EXIT_OK


def cmd_docs(args) -> int:
    from .kernel.policy import update_policy_table
    from .validate.cli_docs import render_cli_md

    targets = [(args.out, render_cli_md(build_parser()))]
    sched_md = "docs/scheduling.md"
    try:
        with open(sched_md, encoding="utf-8") as f:
            # The guide is hand-written; only its policy comparison table
            # (between the BEGIN/END GENERATED markers) is regenerated
            # from the registry.
            targets.append((sched_md, update_policy_table(f.read())))
    except FileNotFoundError:
        pass
    rc = EXIT_OK
    for path, text in targets:
        try:
            with open(path, encoding="utf-8") as f:
                current = f.read()
        except FileNotFoundError:
            current = None
        if args.check:
            if current != text:
                print(f"{path} is stale — regenerate with "
                      f"`python -m repro docs`", file=sys.stderr)
                rc = EXIT_FAILURE
            else:
                print(f"{path} is up to date")
            continue
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        print(f"wrote {path}")
    return rc


def cmd_chaos_plan(args) -> int:
    from .chaos import random_plan

    plan = random_plan(
        args.chaos_seed,
        duration_ns=int(args.duration_ms * 1e6),
        intensity=args.intensity,
    )
    plan.save(args.out)
    print(format_table(
        ["t (ms)", "fault", "params"],
        [[e.at_ns / 1e6, e.kind, str(e.params)] for e in plan.events],
        title=f"injection plan -> {args.out}", float_fmt="{:.2f}",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from the HPDC '21 thread-"
                    "oversubscription paper (simulated).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the modeled benchmarks").set_defaults(
        fn=cmd_list
    )

    from .runners.full_report import SECTIONS, add_report_flags

    p = sub.add_parser(
        "all",
        help="regenerate every figure/table via the parallel cached runner",
    )
    add_report_flags(p)
    p.set_defaults(fn=cmd_all)

    # One command per report section: the same specs, cache keys, table
    # and fidelity checks as that section of `repro all`.
    for section in SECTIONS:
        p = sub.add_parser(section.key, help=section.title)
        add_report_flags(p)
        p.set_defaults(fn=cmd_all, sections=[section.key],
                       results=f"results-{section.key}.json")
    sub._name_parser_map["table1"] = sub._name_parser_map["fig09"]  # alias

    # serve alone adds flags: an ad-hoc point off the section's grid.
    p = sub._name_parser_map["serve"]
    p.add_argument("--resilience", default=None, metavar="PRESET",
                   help="overload-control policy for an ad-hoc open-loop "
                        "point: a preset name (repro.resilience.PRESETS) "
                        "or an inline JSON policy dict. Skips the section "
                        "sweep; see docs/resilience.md")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="serving fault plan (worker-crash / "
                        "tenant-slowdown / conn-drop events) to inject "
                        "into the ad-hoc point")
    p.add_argument("--rate-frac", type=float, default=1.2,
                   metavar="FRAC", help="offered load as a fraction of "
                        "saturation for the ad-hoc point (default 1.2)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("ablations", help="VB and BWD mechanism ablations")
    _add_seed(p)
    p.set_defaults(fn=cmd_ablations)

    p = sub.add_parser(
        "adapt", help="live CPU hot-plug under an oversubscribed workload"
    )
    p.add_argument("--setting", default="32T(optimized)",
                   choices=["8T(vanilla)", "32T(vanilla)", "32T(pinned)",
                            "32T(optimized)"])
    p.add_argument("--cores", type=int, nargs="+",
                   default=[8, 4, 2, 8, 16, 32, 8])
    _add_seed(p)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser(
        "npb", help="run an NPB kernel via its OpenMP region structure"
    )
    p.add_argument("kernel", choices=["ep", "cg", "mg", "is", "ft"])
    p.add_argument("--threads", type=int, default=32)
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--optimized", action="store_true")
    p.add_argument("--trace", metavar="BASE",
                   help="record a scheduling trace to BASE.jsonl + "
                        "BASE.chrome.json")
    _add_seed(p)
    p.set_defaults(fn=cmd_npb)

    p = sub.add_parser("suite", help="run one modeled benchmark")
    p.add_argument("benchmark", choices=sorted(SUITE))
    p.add_argument("--threads", type=int, default=32)
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--optimized", action="store_true")
    p.add_argument("--pinned", action="store_true")
    p.add_argument("--trace", metavar="BASE",
                   help="record a scheduling trace; BASE ending in .csv "
                        "writes the legacy CSV, anything else writes "
                        "BASE.jsonl + BASE.chrome.json")
    p.add_argument("--sample-interval-us", type=float, default=None,
                   metavar="US",
                   help="with --trace, sample per-CPU state at this period")
    _add_scale(p, default=1.0)
    _add_seed(p)
    p.set_defaults(fn=cmd_suite)

    def _add_section_spec_flags(sp: argparse.ArgumentParser,
                                verb: str) -> None:
        sp.add_argument("section",
                        help=f"figure/table key, e.g. fig01 (see `repro "
                             f"{verb} fig01 --list`)")
        sp.add_argument("--list", action="store_true",
                        help="list the section's experiment specs and exit")
        sp.add_argument("--index", type=int, default=0,
                        help=f"which spec of the section to {verb} "
                             f"(default 0)")
        sp.add_argument("--spec-id", default=None,
                        help="select the spec by id instead of --index")
        sp.add_argument("--quick", action="store_true",
                        help="use the quick workload scale")
        _add_scale(sp, default=None)
        _add_seed(sp)

    p = sub.add_parser(
        "trace",
        help="re-run one experiment of a figure/table with full "
             "observability and ship its trace artifacts",
    )
    _add_section_spec_flags(p, "trace")
    p.add_argument("--out", default="trace", metavar="BASE",
                   help="artifact base name (default 'trace' -> "
                        "trace.jsonl + trace.chrome.json)")
    p.add_argument("--sample-interval-us", type=float, default=100.0,
                   metavar="US",
                   help="interval-sampler period (default 100 us)")
    p.add_argument("--capacity", type=int, default=None,
                   help="trace ring-buffer capacity (events)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="re-run one experiment and fold its trace into on-/off-CPU "
             "stacks (flamegraph.pl / speedscope 'folded' input)",
    )
    _add_section_spec_flags(p, "profile")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the folded stacks here instead of stdout")
    p.add_argument("--capacity", type=int, default=None,
                   help="trace ring-buffer capacity (events)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "top",
        help="re-run one experiment and render a top-style replay: "
             "per-CPU utilization bars, runqueue depths, PSI pressure, "
             "and the top tasks by wait time",
    )
    _add_section_spec_flags(p, "top")
    p.add_argument("--sample-interval-us", type=float, default=100.0,
                   metavar="US",
                   help="sampling period of the replayed frames "
                        "(default 100 us)")
    p.add_argument("--frames", type=int, default=4,
                   help="number of frames across the run (default 4)")
    p.add_argument("--width", type=int, default=40,
                   help="utilization bar width (default 40)")
    p.add_argument("--top", type=int, default=8, metavar="N",
                   help="rows in the top-tasks table (default 8)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "analyze", help="summarize a JSONL trace produced by --trace/trace"
    )
    p.add_argument("trace", help="path to a .jsonl trace file")
    p.add_argument("--bins", type=int, default=64,
                   help="width of the utilization timeline (default 64)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "chaos",
        help="fault injection + invariant checking (run / replay / plan)",
    )
    csub = p.add_subparsers(dest="chaos_command", required=True)

    def _chaos_plan_flags(cp) -> None:
        cp.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for the generated injection plan")
        cp.add_argument("--intensity", default="medium",
                        choices=["light", "medium", "heavy"])
        cp.add_argument("--duration-ms", type=float, default=50.0,
                        help="simulated-time horizon faults are spread over")

    cp = csub.add_parser(
        "run", help="run one benchmark under an injection plan with "
                    "invariant checking; exit 3 on a violation",
    )
    cp.add_argument("--benchmark", default="fluidanimate",
                    choices=sorted(SUITE))
    cp.add_argument("--threads", type=int, default=32)
    cp.add_argument("--cores", type=int, default=8)
    cp.add_argument("--optimized", action="store_true")
    cp.add_argument("--plan", default=None, metavar="FILE",
                    help="load the injection plan from FILE instead of "
                         "generating one")
    _chaos_plan_flags(cp)
    cp.add_argument("--bundle", default=None, metavar="FILE",
                    help="always write a replay bundle here (on a "
                         "violation one is written regardless, default "
                         "chaos-bundle.json)")
    cp.add_argument("--no-invariants", action="store_true",
                    help="inject faults without the invariant checker")
    cp.add_argument("--horizon-ms", type=float, default=None,
                    help="no-progress horizon for the progress invariant")
    _add_scale(p=cp, default=0.2)
    _add_seed(cp)
    cp.set_defaults(fn=cmd_chaos_run)

    cp = csub.add_parser(
        "replay", help="re-run a replay bundle and verify the recorded "
                       "outcome reproduces; exit 1 if it does not",
    )
    cp.add_argument("bundle", help="path to a replay bundle JSON file")
    cp.set_defaults(fn=cmd_chaos_replay)

    cp = csub.add_parser("plan", help="generate a seeded injection plan")
    _chaos_plan_flags(cp)
    cp.add_argument("--out", default="chaos-plan.json", metavar="FILE")
    cp.set_defaults(fn=cmd_chaos_plan)

    p = sub.add_parser(
        "validate",
        help="check a results artifact against the paper's fidelity "
             "specs; exit 4 on a violation",
    )
    p.add_argument("--results", default="results.json", metavar="FILE",
                   help="results artifact from `repro all` / run_all.py "
                        "(default results.json)")
    p.add_argument("--update-docs", action="store_true",
                   help="regenerate EXPERIMENTS.md from the spec registry "
                        "plus this artifact")
    p.add_argument("--docs", default="EXPERIMENTS.md", metavar="FILE",
                   help="path written by --update-docs "
                        "(default EXPERIMENTS.md)")
    p.add_argument("--strict", action="store_true",
                   help="also exit 4 when a spec could not be evaluated "
                        "(missing/failed results)")
    p.add_argument("--quick", action="store_true",
                   help="evaluate only the quick-scale spec subset even "
                        "for a full-fidelity artifact")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the structured validation report here")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "docs",
        help="regenerate docs/cli.md from the argparse tree",
    )
    p.add_argument("--out", default="docs/cli.md", metavar="FILE",
                   help="output path (default docs/cli.md)")
    p.add_argument("--check", action="store_true",
                   help="verify the file matches instead of writing; "
                        "exit 1 on drift")
    p.set_defaults(fn=cmd_docs)

    # Every command that builds kernels honors the process-global
    # scheduling policy (repro.kernel.policy) and accepts the deprecated
    # --backend flag (repro.fastpath).  Parsing-only commands have
    # nothing to schedule, and the chaos parent delegates to its own
    # subcommands below.
    from .fastpath import add_backend_argument
    from .kernel.policy import add_policy_argument

    backendless = {"list", "analyze", "validate", "docs", "chaos"}
    seen: set[int] = set()
    for name, sp in sub._name_parser_map.items():
        if name in backendless or id(sp) in seen:
            continue
        seen.add(id(sp))
        add_backend_argument(sp)
        add_policy_argument(sp)
    for name, cp in csub._name_parser_map.items():
        if name != "plan":
            add_backend_argument(cp)
            add_policy_argument(cp)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .fastpath import apply_backend_argument
    from .kernel.policy import apply_policy_argument

    try:
        apply_backend_argument(args)
    except ValueError as exc:  # argparse checked --backend: the env is bad
        print(f"error: REPRO_BACKEND: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    try:
        apply_policy_argument(args)
        return args.fn(args)
    except BrokenPipeError:  # e.g. ``python -m repro list | head``
        return 0
    except ConfigError as exc:
        # Unusable input (corrupt plan/bundle file, unknown preset, bad
        # policy dict): a structured one-liner, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
