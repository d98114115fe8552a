"""Heavy-traffic serving: SLO tracking, open/closed loops, colocation."""

from __future__ import annotations

import pytest

from repro.config import optimized_config, vanilla_config
from repro.kernel import Kernel
from repro.workloads.serving import (
    SATURATION_RATE,
    ServingConfig,
    SloPolicy,
    SloTracker,
    closed_loop_serve,
    open_loop_serve,
)

US = 1_000
MS = 1_000_000


# ---------------------------------------------------------------------------
# SloPolicy / SloTracker
# ---------------------------------------------------------------------------

def test_slo_policy_validation_and_roundtrip():
    with pytest.raises(ValueError):
        SloPolicy(p99_target_us=0)
    with pytest.raises(ValueError):
        SloPolicy(p99_target_us=100.0, p999_target_us=-1.0)
    with pytest.raises(ValueError):
        SloPolicy(p99_target_us=100.0, window_ms=0)
    pol = SloPolicy(p99_target_us=100.0, p999_target_us=500.0, window_ms=2.0)
    assert SloPolicy.from_dict(pol.as_dict()) == pol


def test_serving_config_validation():
    with pytest.raises(ValueError):
        ServingConfig(workers=0)


def test_slo_tracker_windows_violations_and_merged_intervals():
    k = Kernel(vanilla_config(cores=1, seed=1))
    pol = SloPolicy(p99_target_us=100.0, window_ms=1.0)
    tr = SloTracker(k, "t", pol)
    # Window 0 fast, windows 1+2 slow (contiguous violations), window 3
    # has no completions at all, window 4 fast again.
    for w, lat_us in ((0, 50), (1, 500), (2, 500), (4, 50)):
        for i in range(10):
            k.engine.schedule(
                w * MS + i * 10 * US + 1,
                lambda lat=lat_us: tr.record(lat * US),
            )
    k.run_for(6 * MS)
    k.shutdown()
    res = tr.result()
    assert res["windows"] == 4
    assert res["violations"] == 2
    assert res["empty_windows"] == 1
    # The two violated windows are contiguous: one merged interval.
    assert res["violation_intervals"] == [[1 * MS, 3 * MS]]
    assert res["compliance_pct"] == pytest.approx(50.0)
    assert res["worst_window_p99_us"] > 100.0


def test_slo_tracker_close_idempotent_and_warmup_excluded():
    k = Kernel(vanilla_config(cores=1, seed=2))
    tr = SloTracker(k, "t", SloPolicy(p99_target_us=1.0, window_ms=1.0),
                    warmup_ns=5 * MS)
    k.engine.schedule(1 * MS, lambda: tr.record(10 * MS))  # warmup: ignored
    k.engine.schedule(6 * MS, lambda: tr.record(10 * MS))  # measured
    k.run_for(8 * MS)
    k.shutdown()
    tr.close()
    tr.close()
    res = tr.result()
    assert res["windows"] == 1
    assert res["violations"] == 1
    # The interval is phrased in post-warmup window coordinates.
    assert res["violation_intervals"] == [[6 * MS, 7 * MS]]


def test_slo_tracker_emits_trace_events():
    from repro.obs import observe

    with observe() as session:
        r = open_loop_serve(
            vanilla_config(cores=4, seed=2021),
            rate=SATURATION_RATE * 1.2, duration_ms=30.0, warmup_ms=5.0,
        )
    assert r["slo"]["violations"] >= 1
    events = [e for e in session.recorder.events
              if e.kind == "slo-violation"]
    assert len(events) >= 1
    assert events[0].detail["tenant"] == "serve"
    assert events[0].detail["end_ns"] > events[0].detail["start_ns"]


def test_slo_tracker_sample_exactly_on_warmup_boundary():
    """A completion landing at exactly t0 opens window 0; one tick
    earlier is still warmup and must not count anywhere."""
    k = Kernel(vanilla_config(cores=1, seed=5))
    tr = SloTracker(k, "t", SloPolicy(p99_target_us=1000.0, window_ms=1.0),
                    warmup_ns=5 * MS)
    k.engine.schedule(5 * MS - 1, lambda: tr.record(10 * US))  # warmup
    k.engine.schedule(5 * MS, lambda: tr.record(10 * US))      # boundary
    k.run_for(7 * MS)
    k.shutdown()
    tr.close()
    res = tr.result()
    assert res["windows"] == 1
    assert res["violations"] == 0
    assert tr.window_log() == [(0, 1, False)]


def test_slo_tracker_zero_window_run():
    """A run that records nothing closes cleanly: zero windows, 100%
    compliance, no intervals, empty window log."""
    k = Kernel(vanilla_config(cores=1, seed=6))
    tr = SloTracker(k, "t", SloPolicy(p99_target_us=1.0, window_ms=1.0))
    k.run_for(3 * MS)
    k.shutdown()
    tr.close()
    res = tr.result()
    assert res["windows"] == 0
    assert res["violations"] == 0
    assert res["compliance_pct"] == 100.0
    assert res["violation_intervals"] == []
    assert tr.window_log() == []
    # A straggler after close() cannot reopen a window.
    tr.record(5 * MS)
    assert tr.result()["windows"] == 0


def test_slo_tracker_window_log_marks_adjacent_violations():
    """The window log carries per-window verdicts; adjacent violated
    windows stay distinct in the log even though the *intervals* merge."""
    k = Kernel(vanilla_config(cores=1, seed=7))
    tr = SloTracker(k, "t", SloPolicy(p99_target_us=100.0, window_ms=1.0))
    for w, lat_us in ((0, 50), (1, 500), (2, 500), (3, 50)):
        for i in range(5):
            k.engine.schedule(
                w * MS + i * 10 * US + 1,
                lambda lat=lat_us: tr.record(lat * US),
            )
    k.run_for(5 * MS)
    k.shutdown()
    tr.close()
    assert tr.window_log() == [
        (0, 5, False), (1, 5, True), (2, 5, True), (3, 5, False)
    ]
    assert tr.result()["violation_intervals"] == [[1 * MS, 3 * MS]]


def test_analyze_merges_slo_violation_intervals():
    from repro.obs.analyze import slo_violation_intervals
    from repro.sim.trace import TraceEvent

    def ev(start, end):
        return TraceEvent(time=end, kind="slo-violation", cpu=-1, task=None,
                          detail={"tenant": "a", "start_ns": start,
                                  "end_ns": end})

    merged = slo_violation_intervals(
        [ev(0, 10), ev(10, 20), ev(30, 40)]
    )
    assert merged == {"a": [[0.0, 20.0], [30.0, 40.0]]}


# ---------------------------------------------------------------------------
# Open vs closed loop
# ---------------------------------------------------------------------------

def test_open_loop_clean_under_capacity_collapses_past_it():
    clean = open_loop_serve(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 0.5, duration_ms=40.0, warmup_ms=5.0,
    )
    # The overload run needs a longer horizon: the goodput gap grows as
    # the queue builds (at 40 ms it is still within a few percent).
    over = open_loop_serve(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 1.2, duration_ms=80.0, warmup_ms=5.0,
    )
    assert clean["slo"]["violations"] == 0
    assert clean["latency"]["p999"] > clean["latency"]["p99"] > 0
    assert over["slo"]["violations"] >= 1
    assert over["latency"]["p99"] > 20 * clean["latency"]["p99"]
    # Past saturation the served rate stops tracking the offered rate.
    assert over["offered_ops"] > over["goodput_ops"] * 1.05


def test_closed_loop_overload_stays_bounded():
    r = closed_loop_serve(
        vanilla_config(cores=4, seed=2021),
        connections=96, duration_ms=40.0, warmup_ms=5.0,
    )
    assert r["completed"] > 1000
    # Finite population = built-in back-pressure: no open-loop collapse.
    assert r["latency"]["p99"] < 5_000.0


def test_closed_loop_vb_cuts_oversubscribed_tail():
    """Sixteen epoll workers on four cores (the CloudSuite-style web
    serving the paper mentions but does not show): virtual blocking cuts
    the p99 without giving up goodput."""
    def run(cfg):
        return closed_loop_serve(cfg, ServingConfig(workers=16),
                                 connections=48, think_us=100.0,
                                 duration_ms=40.0)

    van = run(vanilla_config(cores=4, seed=9))
    opt = run(optimized_config(cores=4, seed=9, bwd=False))
    for r in (van, opt):
        assert r["completed"] > 100
        assert r["latency"]["count"] == r["completed"]
    assert opt["latency"]["p99"] < van["latency"]["p99"]
    assert opt["goodput_ops"] >= 0.95 * van["goodput_ops"]


# ---------------------------------------------------------------------------
# Runner layer: schedules, colocation modes, determinism
# ---------------------------------------------------------------------------

def test_schedule_from_desc_kinds_and_errors():
    from repro.runners.parallel import ExperimentError, schedule_from_desc

    burst = schedule_from_desc({
        "kind": "burst", "rate_per_sec": 100_000.0,
        "burst_multiplier": 3.0, "period_ms": 10.0, "duty": 0.2,
    })
    assert burst.peak_rate_per_sec == pytest.approx(300_000.0)
    assert burst.mean_rate_per_sec() == pytest.approx(140_000.0)
    users = schedule_from_desc({
        "kind": "users", "users": 2_000_000,
        "requests_per_user_per_sec": 0.05,
    })
    assert users.is_constant
    assert users.mean_rate_per_sec() == pytest.approx(100_000.0)
    with pytest.raises(ExperimentError):
        schedule_from_desc({"kind": "sawtooth", "rate_per_sec": 1.0})


def test_colocation_runs_with_and_without_ple():
    # Without PLE the execution mode changes nothing, so the native,
    # container and VM rows share the vanilla run; PLE runs in a VM.
    from repro.runners.parallel import (
        ple_desc,
        run_serving_colo,
        vanilla_desc,
    )

    for desc in (vanilla_desc(4, 2021), ple_desc(4, 2021)):
        r = run_serving_colo(desc, workers=8, rate=SATURATION_RATE * 0.25,
                             duration_ms=30.0, warmup_ms=5.0)
        assert r["serve"]["completed"] > 0
        assert r["serve"]["slo"]["windows"] >= 1
        assert r["batch"]["progress_actions"] > 0
        assert r["batch"]["threads"] == 16


def test_colocation_vb_bwd_cut_serving_tail():
    from repro.runners.parallel import (
        optimized_desc,
        run_serving_colo,
        vanilla_desc,
    )

    kw = dict(workers=8, rate=SATURATION_RATE * 0.25,
              duration_ms=80.0, warmup_ms=10.0)
    van = run_serving_colo(vanilla_desc(4, 2021), **kw)
    opt = run_serving_colo(optimized_desc(4, 2021), **kw)
    assert opt["serve"]["latency"]["p99"] < van["serve"]["latency"]["p99"]
    # The tail win must not come out of the batch tenant's progress.
    assert (opt["batch"]["progress_actions"]
            >= 0.9 * van["batch"]["progress_actions"])


def test_serving_runner_deterministic_across_jobs():
    from repro.runners.parallel import (
        ExperimentSpec,
        ParallelRunner,
        vanilla_desc,
    )

    spec = ExperimentSpec(
        id="t/serve-burst", runner="serving_open",
        params={
            "config": vanilla_desc(4, 2021), "workers": 8,
            "rate": {"kind": "burst", "rate_per_sec": 100_000.0,
                     "burst_multiplier": 3.0, "period_ms": 10.0},
            "duration_ms": 30.0, "warmup_ms": 5.0,
        },
        seed=2021,
    )
    outs = [
        ParallelRunner(jobs=jobs, use_cache=False).run([spec])[0]
        for jobs in (1, 2)
    ]
    assert outs[0] == outs[1]
    assert outs[0]["completed"] > 0


def test_no_negative_latency_samples_in_clean_serving_run():
    # The kernel-side probe guards clamp (and count) negative latency
    # samples; a clean serving run must never trip them.
    k = Kernel(vanilla_config(cores=2, seed=3))
    assert k.negative_latency_samples == 0
    r = open_loop_serve(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 0.25, duration_ms=20.0, warmup_ms=2.0,
    )
    assert r["completed"] > 0


def test_cli_serve_wiring():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--quick"])
    assert args.fn.__name__ == "cmd_serve"
    assert args.results == "results-serve.json"
    assert args.quick is True
