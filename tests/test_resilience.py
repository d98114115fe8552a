"""Overload resilience: policies, breaker, retries, chaos, recovery.

The headline contracts:

* default OFF — a run with no policy and no faults is byte-identical to
  the pre-resilience serving path (and an *inactive* policy object too);
* retry storms amplify offered load without a budget and are bounded
  with one (the Finagle negative control);
* admission control restores goodput under overload;
* a crashed worker restarts and the run reports a finite
  time-to-recovery;
* corrupt plan/bundle files fail with ConfigError -> CLI usage exit 2.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    SERVING_KINDS,
    FaultEvent,
    InjectionPlan,
    random_plan,
)
from repro.config import vanilla_config
from repro.errors import ConfigError
from repro.kernel import Kernel
from repro.resilience import (
    PRESETS,
    CircuitBreaker,
    ResiliencePolicy,
    WindowSeries,
    fault_clear_ns,
    preset,
    resolve_policy,
    time_to_recovery_ns,
)
from repro.workloads.serving import (
    SATURATION_RATE,
    closed_loop_serve,
    colocation_run,
    open_loop_serve,
)

US = 1_000
MS = 1_000_000


# ---------------------------------------------------------------------------
# Policy dataclass, presets, resolution
# ---------------------------------------------------------------------------

def test_policy_defaults_are_inactive():
    p = ResiliencePolicy()
    assert not p.active
    assert not p.admission_active
    assert not p.client_active


def test_policy_validation():
    with pytest.raises(ConfigError):
        ResiliencePolicy(admission="bogus")
    with pytest.raises(ConfigError):
        ResiliencePolicy(queue_limit=0)
    with pytest.raises(ConfigError):
        ResiliencePolicy(timeout_us=-1.0)
    with pytest.raises(ConfigError):
        ResiliencePolicy(breaker_failure_pct=120)


def test_policy_roundtrip_and_unknown_fields():
    for name in PRESETS:
        p = preset(name)
        assert ResiliencePolicy.from_dict(p.as_dict()) == p
        assert p.active
    with pytest.raises(ConfigError):
        ResiliencePolicy.from_dict({"no_such_knob": 1})


def test_resolve_policy_forms():
    assert resolve_policy(None) is None
    p = preset("retry-budget")
    assert resolve_policy(p) is p
    assert resolve_policy("retry-budget") == p
    assert resolve_policy(p.as_dict()) == p
    with pytest.raises(ConfigError):
        resolve_policy("no-such-preset")
    with pytest.raises(ConfigError):
        resolve_policy(42)


# ---------------------------------------------------------------------------
# Circuit breaker state machine
# ---------------------------------------------------------------------------

def _breaker(policy=None):
    k = Kernel(vanilla_config(cores=1, seed=3))
    pol = policy or ResiliencePolicy(
        timeout_us=1000.0, breaker=True, breaker_window=16,
        breaker_failure_pct=50, breaker_min_samples=4,
        breaker_open_ms=1.0, breaker_probes=2,
    )
    return k, CircuitBreaker(k, pol)


def test_breaker_trips_on_failure_rate_and_reprobes():
    k, br = _breaker()
    assert br.state == "closed"
    for ok in (True, False, False, False):
        assert br.admit() == "allow"
        br.record(ok)
    assert br.state == "open"
    assert br.opened == 1
    assert br.admit() == "reject"
    assert br.rejected == 1
    # After the open window the breaker half-opens and admits probes.
    k.engine.schedule(2 * MS, lambda: None)
    k.run_for(2 * MS)
    assert br.admit() == "probe"
    assert br.state == "half-open"
    assert br.admit() == "probe"
    assert br.admit() == "reject"  # probe quota exhausted
    br.record(True, probe=True)
    br.record(True, probe=True)
    assert br.state == "closed"
    assert br.reclosed == 1


def test_breaker_probe_failure_retrips():
    k, br = _breaker()
    for ok in (False, False, False, False):
        br.record(ok)
    assert br.state == "open"
    k.engine.schedule(2 * MS, lambda: None)
    k.run_for(2 * MS)
    assert br.admit() == "probe"
    br.record(False, probe=True)
    assert br.state == "open"
    assert br.opened == 2


# ---------------------------------------------------------------------------
# Recovery helpers
# ---------------------------------------------------------------------------

def test_fault_clear_ns():
    assert fault_clear_ns(5 * MS, "worker-crash", {"dead_ns": 2 * MS}) == 7 * MS
    assert fault_clear_ns(5 * MS, "worker-crash", {}) == 15 * MS  # default 10 ms
    assert fault_clear_ns(5 * MS, "tenant-slowdown",
                          {"duration_ns": 3 * MS}) == 8 * MS
    assert fault_clear_ns(5 * MS, "conn-drop", {}) == 5 * MS


def test_window_series_pads_to_equal_length():
    s = WindowSeries(t0=0, window_ns=MS)
    s.offer(0)
    s.offer(2 * MS + 1)
    s.complete(100)
    d = s.as_dict()
    assert d["offered"] == [1, 0, 1]
    assert d["completed"] == [1, 0, 0]
    assert d["window_ms"] == 1.0


def test_time_to_recovery_walks_window_log():
    class FakeTracker:
        t0 = 0
        window_ns = MS

        def window_log(self):
            # idx, completions, violated
            return [(0, 5, False), (1, 5, True), (3, 5, False)]

    tr = FakeTracker()
    # Fault clears mid-window-1: window 2 is missing from the log (no
    # completions -> treated as violated), so window 3 is the recovery.
    assert time_to_recovery_ns(tr, int(1.5 * MS)) == 4 * MS - int(1.5 * MS)
    # Cleared after the last logged window: no recovery.
    assert time_to_recovery_ns(tr, 10 * MS) is None


# ---------------------------------------------------------------------------
# End-to-end behaviors (quick horizons)
# ---------------------------------------------------------------------------

def _overloaded(policy, **kw):
    return open_loop_serve(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 1.2, duration_ms=80.0, warmup_ms=10.0,
        resilience=policy, **kw,
    )


def test_retry_storm_amplifies_and_budget_bounds_it():
    storm = _overloaded("retry-storm")
    budget = _overloaded("retry-budget")
    amp_storm = storm["resilience"]["client"]["amplification"]
    amp_budget = budget["resilience"]["client"]["amplification"]
    assert amp_storm >= 2.0
    assert amp_budget <= 1.2
    assert budget["resilience"]["stats"]["retries_denied"] > 0
    # The storm's extra attempts are real load: more timeouts per original.
    assert (storm["resilience"]["stats"]["retries"]
            > budget["resilience"]["stats"]["retries"])


def test_fail_fast_shedding_restores_goodput():
    shed = _overloaded("shed-fail-fast")
    stats = shed["resilience"]["stats"]
    assert stats["shed_queue"] > 0
    assert shed["goodput_ops"] >= 0.9 * SATURATION_RATE
    assert shed["latency"]["p99"] < 2_000.0  # vs ~16 ms unprotected


def test_worker_crash_restart_and_finite_recovery():
    plan = InjectionPlan(seed=7, events=(
        FaultEvent(20 * MS, "worker-crash",
                   {"worker": 0, "dead_ns": 10 * MS}),
    ))
    r = open_loop_serve(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 0.5, duration_ms=60.0, warmup_ms=5.0,
        resilience="retry-budget", faults=plan,
    )
    resil = r["resilience"]
    assert resil["stats"]["worker_restarts"] == 1
    rec = resil["recovery"]
    assert rec["fault_clear_ns"] == 30 * MS
    assert rec["time_to_recovery_ns"] is not None
    assert 0 < rec["time_to_recovery_ms"] < 30.0
    # The goodput series shows the dead-time dip and the recovery.
    series = resil["series"]
    assert sum(series["completed"]) == r["completed"]


def test_tenant_slowdown_and_conn_drop_apply():
    plan = InjectionPlan(seed=9, events=(
        FaultEvent(10 * MS, "tenant-slowdown",
                   {"factor": 4.0, "duration_ns": 5 * MS}),
        FaultEvent(12 * MS, "conn-drop", {"count": 16}),
    ))
    r = open_loop_serve(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 0.9, duration_ms=30.0, warmup_ms=5.0,
        resilience="retry-budget", faults=plan,
    )
    stats = r["resilience"]["stats"]
    assert stats["conn_dropped"] > 0
    # The 4x slowdown window pushes work past the 1.5 ms client timeout.
    assert stats["timeouts"] > 0
    clean = open_loop_serve(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 0.9, duration_ms=30.0, warmup_ms=5.0,
        resilience="retry-budget",
    )
    assert r["latency"]["p99"] > clean["latency"]["p99"]


def test_faults_alone_activate_the_rig():
    plan = InjectionPlan(seed=1, events=(
        FaultEvent(10 * MS, "conn-drop", {"count": 4}),
    ))
    # 1.2x overload keeps the accept queues non-empty so the drop lands.
    r = open_loop_serve(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 1.2, duration_ms=25.0, warmup_ms=5.0,
        faults=plan,
    )
    assert "resilience" in r
    assert r["resilience"]["policy"] is None
    assert r["resilience"]["stats"]["conn_dropped"] > 0


def test_closed_loop_and_colocation_accept_policies():
    r = closed_loop_serve(
        vanilla_config(cores=4, seed=2021), connections=64,
        duration_ms=30.0, warmup_ms=5.0, resilience="retry-budget",
    )
    assert r["resilience"]["client"]["originals"] > 0
    c = colocation_run(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 0.25, duration_ms=30.0, warmup_ms=5.0,
        resilience="full",
    )
    assert "resilience" in c["serve"]
    assert c["batch"]["progress_actions"] > 0


# ---------------------------------------------------------------------------
# Default-off byte-identity
# ---------------------------------------------------------------------------

def _canon(r):
    return json.dumps(r, sort_keys=True)


def test_resilience_off_is_byte_identical():
    kw = dict(rate=SATURATION_RATE * 0.9, duration_ms=30.0, warmup_ms=5.0)
    plain = open_loop_serve(vanilla_config(cores=4, seed=2021), **kw)
    off = open_loop_serve(vanilla_config(cores=4, seed=2021),
                          resilience=ResiliencePolicy(), **kw)
    off2 = open_loop_serve(vanilla_config(cores=4, seed=2021),
                           resilience=ResiliencePolicy().as_dict(), **kw)
    assert _canon(plain) == _canon(off) == _canon(off2)
    assert "resilience" not in plain


# ---------------------------------------------------------------------------
# Hardened plan/bundle loading (satellite) + random serving plans
# ---------------------------------------------------------------------------

def test_injection_plan_load_rejects_garbage(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        InjectionPlan.load(str(missing))

    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"seed": 1, "events": [')
    with pytest.raises(ConfigError, match="not valid JSON"):
        InjectionPlan.load(str(truncated))

    notdict = tmp_path / "list.json"
    notdict.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        InjectionPlan.load(str(notdict))

    malformed = tmp_path / "bad.json"
    malformed.write_text('{"events": [{"kind": "cpu-remove"}]}')
    with pytest.raises(ConfigError, match="malformed"):
        InjectionPlan.load(str(malformed))


def test_replay_bundle_load_rejects_garbage(tmp_path):
    from repro.chaos import ReplayBundle

    truncated = tmp_path / "bundle.json"
    truncated.write_text('{"version": 1, "plan": {')
    with pytest.raises(ConfigError, match="not valid JSON"):
        ReplayBundle.load(str(truncated))
    notdict = tmp_path / "arr.json"
    notdict.write_text("[]")
    with pytest.raises(ConfigError, match="JSON object"):
        ReplayBundle.load(str(notdict))


def test_cli_usage_exit_on_bad_resilience_inputs(tmp_path, capsys):
    from repro.cli import main
    from repro.exitcodes import EXIT_USAGE

    assert main(["serve", "--quick", "--resilience", "no-such-preset",
                 "--results", "none"]) == EXIT_USAGE
    assert "unknown resilience preset" in capsys.readouterr().err

    corrupt = tmp_path / "plan.json"
    corrupt.write_text('{"seed": 1, "events": [')
    assert main(["serve", "--quick", "--faults", str(corrupt),
                 "--results", "none"]) == EXIT_USAGE
    assert "not valid JSON" in capsys.readouterr().err


def test_random_plan_serving_kinds_gated_and_roundtrip():
    base = random_plan(5, duration_ns=50 * MS, intensity="heavy")
    assert not any(e.kind in SERVING_KINDS for e in base.events)
    srv = random_plan(5, duration_ns=50 * MS, intensity="heavy",
                      serving=True)
    kinds = {e.kind for e in srv.events}
    assert kinds & SERVING_KINDS
    # Serving faults stay out of the lighter intensities even when asked.
    light = random_plan(5, duration_ns=50 * MS, intensity="light",
                        serving=True)
    assert not any(e.kind in SERVING_KINDS for e in light.events)
    # Round-trip through JSON preserves the plan exactly.
    assert InjectionPlan.from_json(srv.to_json()) == srv


def test_serving_faults_without_serving_run_are_skipped():
    """A serving-kind fault in a non-serving chaos run is a no-op note."""
    from repro.chaos import chaos_session

    plan = InjectionPlan(seed=3, events=(
        FaultEvent(2 * MS, "worker-crash", {"worker": 0}),
    ))
    with chaos_session(plan):
        k = Kernel(vanilla_config(cores=1, seed=4))
        k.run_for(5 * MS)
        k.shutdown()
    assert k._chaos.stats.serving_skipped == 1
