"""Chaos harness: plan serialization, fault application, determinism
(byte-identical replay bundles), failure reproduction, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    ChaosController,
    FaultEvent,
    InjectionPlan,
    ReplayBundle,
    chaos_session,
    current_chaos,
    make_bundle,
    random_plan,
    replay_bundle,
    run_chaos_spec,
)
from repro.chaos.bundle import result_checksum
from repro.config import SchedulerConfig
from repro.errors import ConfigError, ReproError
from repro.runners.parallel import RUNNERS, optimized_desc, vanilla_desc

MS = 1_000_000
US = 1_000


def workload(nthreads=8, cores=2, scale=0.05, seed=7, kind="vanilla",
             name="fluidanimate"):
    """A small barrier-heavy suite point (~10 ms simulated)."""
    desc = (vanilla_desc(cores, seed) if kind == "vanilla"
            else optimized_desc(cores, seed))
    return {
        "runner": "suite_point",
        "params": {"name": name, "nthreads": nthreads, "config": desc,
                   "work_scale": scale},
        "seed": seed,
    }


def drop_plan(horizon_ns=5 * MS):
    """A permanent lost wakeup: the progress invariant must catch it."""
    return InjectionPlan(
        seed=0,
        events=(FaultEvent(1 * MS, "wake-drop", {
            "duration_ns": 50 * MS, "max_drops": 64, "redeliver_ns": None,
        }),),
        progress_horizon_ns=horizon_ns,
    )


# ---------------------------------------------------------------------
# plans: generation, validation, serialization
# ---------------------------------------------------------------------
def test_random_plan_is_deterministic():
    assert random_plan(3) == random_plan(3)
    assert random_plan(3) != random_plan(4)
    plan = random_plan(3, intensity="heavy")
    assert len(plan.events) >= 24
    assert all(e.at_ns <= f.at_ns for e, f in zip(plan.events,
                                                  plan.events[1:]))


def test_random_plan_is_cpu_neutral():
    plan = random_plan(11, intensity="heavy")
    removes = sum(e.params["count"] for e in plan.events
                  if e.kind == "cpu-remove")
    adds = sum(e.params["count"] for e in plan.events
               if e.kind == "cpu-add")
    assert removes == adds
    # Random wake-drops always carry a redelivery window (never a
    # permanent lost wakeup — the workload must be able to finish).
    for e in plan.events:
        if e.kind == "wake-drop":
            assert e.params["redeliver_ns"] is not None


def test_fault_event_validation():
    with pytest.raises(ConfigError):
        FaultEvent(0, "split-brain")
    with pytest.raises(ConfigError):
        FaultEvent(-1, "cpu-remove")
    with pytest.raises(ConfigError):
        random_plan(0, intensity="apocalyptic")
    with pytest.raises(ConfigError):
        InjectionPlan(check_interval_events=0)


def test_plan_json_roundtrip(tmp_path):
    plan = random_plan(5, duration_ns=5 * MS)
    assert InjectionPlan.from_json(plan.to_json()) == plan
    path = str(tmp_path / "plan.json")
    plan.save(path)
    assert InjectionPlan.load(path) == plan
    with pytest.raises(ConfigError):
        InjectionPlan.from_json({"version": 99})


# ---------------------------------------------------------------------
# fault application + determinism
# ---------------------------------------------------------------------
def test_empty_plan_reproduces_the_plain_run():
    w = workload()
    plain = RUNNERS[w["runner"]](**w["params"])
    out = run_chaos_spec(w, InjectionPlan())
    assert out.ok and out.violation is None
    assert out.result == plain
    assert out.result_sha256 == result_checksum(plain)
    assert out.invariant_checks > 0  # the checker ran under chaos


def test_bundles_are_byte_identical_across_runs():
    w = workload()
    plan = random_plan(1, duration_ns=5 * MS)
    a = make_bundle(w, plan, run_chaos_spec(w, plan))
    b = make_bundle(w, plan, run_chaos_spec(w, plan))
    assert a.dumps() == b.dumps()
    assert a.stats["faults_applied"] > 0  # the plan really perturbed it


def test_cpu_remove_and_add_apply():
    w = workload(nthreads=16)
    plan = InjectionPlan(events=(
        FaultEvent(1 * MS, "cpu-remove", {"count": 1}),
        FaultEvent(3 * MS, "cpu-add", {"count": 1}),
    ))
    out = run_chaos_spec(w, plan)
    assert out.ok, out.violation
    assert out.stats["cpu_removes"] == 1 and out.stats["cpu_adds"] == 1
    kinds = [a["kind"] for a in out.applied]
    assert kinds == ["cpu-remove", "cpu-add"]
    assert out.applied[0]["note"] == {"from": 2, "to": 1}


def test_wake_delay_and_redelivered_drop_apply():
    w = workload(nthreads=16)
    plan = InjectionPlan(events=(
        FaultEvent(1 * MS, "wake-delay",
                   {"duration_ns": 4 * MS, "delay_ns": 200 * US}),
        FaultEvent(1 * MS, "wake-drop",
                   {"duration_ns": 4 * MS, "max_drops": 4,
                    "redeliver_ns": 300 * US}),
    ))
    out = run_chaos_spec(w, plan)
    # Delayed and dropped-then-redelivered wakes still let the run finish
    # with zero violations (the invariant checker is on by default).
    assert out.ok, out.violation
    assert out.stats["wakes_delayed"] > 0
    assert out.stats["wakes_dropped"] > 0
    assert out.stats["wakes_dropped"] == out.stats["wakes_redelivered"]


def test_migration_storm_and_bwd_jitter_apply():
    w = workload(nthreads=16, kind="optimized")
    plan = InjectionPlan(events=(
        FaultEvent(1 * MS, "migration-storm", {"moves": 8}),
        FaultEvent(2 * MS, "bwd-jitter", {"delta_ns": 50 * US}),
    ))
    out = run_chaos_spec(w, plan)
    assert out.ok, out.violation
    assert out.stats["forced_migrations"] > 0
    jitter = [a for a in out.applied if a["kind"] == "bwd-jitter"]
    assert jitter and jitter[0]["note"]["applied"] is True
    assert out.stats["timer_nudges"] == 1


def test_epoll_spurious_wakes_memcached():
    w = {
        "runner": "memcached",
        "params": {"config": vanilla_desc(2, 7), "workers": 8,
                   "duration_ms": 50.0},
        "seed": 7,
    }
    plan = InjectionPlan(events=(
        FaultEvent(5 * MS, "epoll-spurious", {"count": 2}),
        FaultEvent(20 * MS, "epoll-spurious", {"count": 2}),
    ))
    out = run_chaos_spec(w, plan)
    assert out.ok, out.violation
    assert out.stats["spurious_epolls"] > 0


# ---------------------------------------------------------------------
# failure capture + deterministic replay
# ---------------------------------------------------------------------
def test_lost_wakeup_caught_and_replayed(tmp_path):
    w = workload()
    out = run_chaos_spec(w, drop_plan())
    assert not out.ok
    assert out.violation["invariant"] == "progress"
    assert out.violation["time_ns"] > 0 and out.violation["events_run"] > 0
    assert out.result is None and out.result_sha256 is None
    assert out.trace_tail  # the last events before the stall are captured

    bundle = make_bundle(w, drop_plan(), out)
    path = str(tmp_path / "bundle.json")
    bundle.save(path)
    loaded = ReplayBundle.load(path)
    assert loaded.to_json() == bundle.to_json()

    replayed, reproduced, diffs = replay_bundle(loaded)
    assert reproduced and diffs == []
    assert replayed.violation == out.violation


def test_lost_wakeup_is_reported_within_its_horizon():
    # The stalled kernel's only events are balance ticks, far fewer than
    # one full-check interval apart: the progress check must still fire
    # at the first event past the horizon.
    horizon = 5 * MS
    out = run_chaos_spec(workload(), drop_plan(horizon))
    assert out.violation["invariant"] == "progress"
    stalled = out.violation["details"]["stalled_ns"]
    assert horizon < stalled <= horizon + SchedulerConfig().balance_interval_ns


def test_replay_detects_a_nonmatching_bundle():
    w = workload()
    out = run_chaos_spec(w, drop_plan())
    bundle = make_bundle(w, drop_plan(), out)
    bundle.violation = dict(bundle.violation, time_ns=1, events_run=1)
    _, reproduced, diffs = replay_bundle(bundle)
    assert not reproduced
    assert any("time_ns" in d for d in diffs)


def test_bundle_version_guard():
    with pytest.raises(ReproError):
        ReplayBundle.from_json({"version": 99, "workload": {}, "plan": {}})


def test_run_chaos_spec_rejects_unknown_runner():
    with pytest.raises(ReproError):
        run_chaos_spec({"runner": "not-a-runner", "params": {}, "seed": 0},
                       InjectionPlan())


# ---------------------------------------------------------------------
# session plumbing
# ---------------------------------------------------------------------
def test_chaos_session_stacks_and_registers_controllers():
    assert current_chaos() is None
    with chaos_session(InjectionPlan()) as sess:
        assert current_chaos() is sess
        from repro.config import vanilla_config
        from repro.kernel import Kernel

        k = Kernel(vanilla_config(cores=1, seed=7))
        assert isinstance(k._chaos, ChaosController)
        assert sess.controllers == [k._chaos]
        assert k.invariants is not None  # chaos forces the checker on
        assert k.trace.enabled  # and the trace, for the bundle tail
    assert current_chaos() is None


# ---------------------------------------------------------------------
# CLI: repro chaos run / replay / plan
# ---------------------------------------------------------------------
def _run_cli(argv):
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    return args.fn(args)


def test_cli_chaos_plan_and_clean_run(tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    assert _run_cli(["chaos", "plan", "--chaos-seed", "2",
                     "--duration-ms", "5", "--out", plan_path]) == 0
    plan = InjectionPlan.load(plan_path)
    assert plan.seed == 2 and plan.events

    bundle_path = str(tmp_path / "clean.json")
    rc = _run_cli(["chaos", "run", "--benchmark", "fluidanimate",
                   "--threads", "8", "--cores", "2", "--scale", "0.05",
                   "--plan", plan_path, "--bundle", bundle_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "faults applied" in out
    loaded = ReplayBundle.load(bundle_path)
    assert loaded.violation is None and loaded.result_sha256


def test_cli_chaos_failure_run_then_replay(tmp_path, capsys):
    plan_path = str(tmp_path / "drop.json")
    drop_plan().save(plan_path)
    bundle_path = str(tmp_path / "fail.json")
    rc = _run_cli(["chaos", "run", "--benchmark", "fluidanimate",
                   "--threads", "8", "--cores", "2", "--scale", "0.05",
                   "--seed", "7", "--plan", plan_path,
                   "--bundle", bundle_path])
    assert rc == 3  # violation exit code
    assert "FAILURE [progress]" in capsys.readouterr().out

    rc = _run_cli(["chaos", "replay", bundle_path])
    assert rc == 0  # reproduced deterministically
    assert "REPRODUCED" in capsys.readouterr().out
