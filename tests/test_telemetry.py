"""Telemetry subsystem: schedstats, PSI pressure, exporters, top/profile.

The determinism contract (docs/telemetry.md) is the load-bearing part:
telemetry must never perturb simulation results, and its own artifacts
must be byte-identical across ``--jobs`` values and cache states.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import vanilla_config
from repro.kernel.kernel import Kernel
from repro.obs import observe
from repro.obs.analyze import analyze_file
from repro.obs.hist import Log2Histogram, merge_histograms
from repro.prog.actions import Compute, Yield
from repro.runners.full_report import ReportParams, build_all_specs
from repro.runners.parallel import ParallelRunner
from repro.telemetry.collect import (
    artifact_base,
    load_spec_summary,
    session_telemetry,
    summarize,
)
from repro.telemetry.exporters import to_openmetrics, validate_openmetrics
from repro.telemetry.pressure import (
    pressure_dict,
    series_rows,
    window_averages,
)
from repro.telemetry.profile import folded_stacks, render_folded, write_folded
from repro.telemetry.registry import MetricsRegistry, registry_from_schedstats
from repro.telemetry.schedstats import snapshot
from repro.telemetry.top import render_top

MS = 1_000_000


def _compute_prog(total_ns, chunk_ns):
    done = 0
    while done < total_ns:
        yield Compute(min(chunk_ns, total_ns - done))
        done += chunk_ns
        yield Yield()


def _run_kernel(cores: int, tasks: int, total_ms: int = 4) -> Kernel:
    k = Kernel(vanilla_config(cores=cores, seed=2021))
    for i in range(tasks):
        k.spawn(_compute_prog(total_ms * MS, MS // 2), name=f"t{i}")
    k.run_to_completion()
    return k


# --- PSI pressure ----------------------------------------------------------


def test_psi_some_under_oversubscription_and_clocks_settle():
    k = _run_kernel(cores=1, tasks=4)
    k._psi_update(k.now)
    # 4 always-runnable tasks on one CPU: tasks waited most of the run.
    assert k.psi_some_ns > 0
    # ... but something was always running, so "full" never triggered.
    assert k.psi_full_ns == 0
    # All tasks exited: predicates are back to idle ...
    assert k.psi_waiting == 0 and k.psi_running == 0
    # ... and the machine-wide depth integral settles with zero residue.
    k._depth_delta(k.now, 0)
    assert k._rqd_total == 0
    assert k.rq_depth_integral_ns > k.now  # avg depth > 1 when 4 tasks share


def test_psi_zero_when_undersubscribed():
    k = _run_kernel(cores=4, tasks=2)
    k._psi_update(k.now)
    assert k.psi_some_ns == 0
    assert k.psi_full_ns == 0


def test_pressure_dict_shape_and_series_rows():
    k = _run_kernel(cores=1, tasks=4, total_ms=30)  # > one 10ms bucket
    p = pressure_dict(k)
    # Fair round-robin keeps all four tasks runnable to the very end, so
    # "some" can cover the entire run — but never exceed it.
    assert 0.0 < p["avg"]["some"] <= 1.0
    assert p["avg"]["full"] == 0.0
    assert p["checkpoints"], "run spans several checkpoint buckets"
    assert set(p["windows"]) == {"avg10", "avg60", "avg300"}
    rows = series_rows(p)
    assert len(rows) == len(p["checkpoints"])
    # Cumulative counters are monotone and per-bucket fractions bounded.
    for prev, cur in zip(rows, rows[1:]):
        assert cur["cpu_some_ns"] >= prev["cpu_some_ns"]
    assert all(0.0 <= r["some"] <= 1.0 for r in rows)


def test_window_averages_hand_fixture():
    # 30s run, stall accumulating only in the last 10s (5s of "some").
    checkpoints = [
        (10_000_000_000, 0, 0),
        (20_000_000_000, 0, 0),
        (30_000_000_000, 5_000_000_000, 0),
    ]
    w = window_averages(checkpoints, 0, 30_000_000_000, 5_000_000_000, 0)
    assert w["avg10"]["some"] == pytest.approx(0.5)
    # avg60/avg300 clamp to the 30s run -> whole-run average.
    assert w["avg60"]["some"] == pytest.approx(5 / 30)
    assert w["avg300"]["some"] == pytest.approx(5 / 30)
    assert all(v["full"] == 0.0 for v in w.values())


# --- schedstats snapshot ---------------------------------------------------


def test_snapshot_is_json_pure_and_consistent():
    k = _run_kernel(cores=2, tasks=6)
    stats = snapshot(k)
    json.dumps(stats, allow_nan=False)  # JSON-pure or this raises
    m = stats["machine"]
    assert m["nr_switches"] == sum(c["nr_switches"] for c in stats["cpus"])
    assert m["nr_tasks"] == len(stats["tasks"]) == 6
    assert m["rq_depth_avg"] > 1.0  # 6 tasks on 2 CPUs
    assert m["rq_depth_integral_ns"] == pytest.approx(
        m["rq_depth_avg"] * m["elapsed_ns"])


# --- registry + OpenMetrics ------------------------------------------------


def test_openmetrics_export_is_valid():
    k = _run_kernel(cores=2, tasks=4)
    reg = registry_from_schedstats(snapshot(k))
    text = to_openmetrics(reg.snapshot())
    assert validate_openmetrics(text) == []
    assert text.endswith("# EOF\n")
    assert "repro_pressure_cpu_stall_ns" in text
    assert "repro_runqueue_depth_avg" in text


def test_registry_rejects_schema_change():
    reg = MetricsRegistry()
    reg.counter("x_total_events", labelnames=("cpu",))
    with pytest.raises(ValueError):
        reg.gauge("x_total_events", labelnames=("cpu",))
    with pytest.raises(ValueError):
        reg.counter("x_total_events", labelnames=("task",))


def test_openmetrics_validator_catches_garbage():
    assert validate_openmetrics("repro_x{bad= 1\n# EOF\n")
    assert validate_openmetrics("repro_x 1\n")  # missing # EOF


# --- top / profile ---------------------------------------------------------


def test_render_top_frames_and_summary():
    with observe(sample_interval_us=100) as session:
        k = _run_kernel(cores=2, tasks=6)
    sampler = session.samplers[0].to_dict()
    out = render_top(sampler, stats=snapshot(k), frames=3)
    assert "pressure" in out
    assert "cpu   0" in out and "cpu   1" in out
    assert "t0" in out  # top-tasks table names the busiest tasks


def test_render_top_empty_sampler_message():
    out = render_top({"times": [], "t0_ns": 0, "interval_ns": 1000,
                      "cpus": [], "psi_some_ns": [], "psi_full_ns": []})
    assert "no samples recorded" in out


def test_folded_stacks_roundtrip(tmp_path):
    with observe() as session:
        _run_kernel(cores=1, tasks=4)
    folded = folded_stacks(session.recorder)
    assert any(s.endswith(";oncpu") for s in folded)
    text = render_folded(folded)
    assert text == render_folded(dict(reversed(list(folded.items()))))
    path = tmp_path / "x.folded"
    assert write_folded(str(path), folded) == len(folded)
    lines = path.read_text().splitlines()
    assert lines == sorted(lines)
    assert all(int(line.rsplit(" ", 1)[1]) > 0 for line in lines)


# --- sampler grid anchoring (satellite) ------------------------------------


def test_sampler_ticks_anchor_to_absolute_grid():
    with observe(sample_interval_us=250) as session:
        _run_kernel(cores=1, tasks=2)
    d = session.samplers[0].to_dict()
    interval = d["interval_ns"]
    assert d["times"], "run long enough to tick"
    for i, t in enumerate(d["times"]):
        assert t == d["t0_ns"] + (i + 1) * interval


# --- analyze robustness (satellite) ----------------------------------------


def test_analyze_missing_file_exits_one(tmp_path, capsys):
    assert analyze_file(str(tmp_path / "nope.jsonl")) == 1
    assert "cannot read" in capsys.readouterr().err


def test_analyze_empty_file_exits_one(tmp_path, capsys):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert analyze_file(str(p)) == 1
    assert "empty" in capsys.readouterr().err


def test_analyze_garbage_file_exits_one(tmp_path, capsys):
    p = tmp_path / "garbage.jsonl"
    p.write_bytes(b"\x00\xffnot json at all\n{truncated")
    assert analyze_file(str(p)) == 1
    assert "analyze:" in capsys.readouterr().err


# --- histogram merge (satellite) -------------------------------------------


def test_merge_histograms_accumulates_without_mutating():
    a, b = Log2Histogram("lat"), Log2Histogram("lat")
    for v in (10, 100, 1000):
        a.record(v)
    b.record(100_000)
    merged = merge_histograms({"lat": a}, {"lat": b})
    assert merged["lat"].count == 4
    assert a.count == 3 and b.count == 1  # inputs untouched
    assert merged["lat"] is not a and merged["lat"] is not b


# --- end-to-end: metrics-dir artifacts are deterministic -------------------

QUICK_PARAMS = ReportParams(scale=0.3, quick=True, seed=2021)


def _streamcluster_specs():
    out = []
    for _section, specs in build_all_specs(QUICK_PARAMS):
        out.extend(s for s in specs if s.id.startswith("fig09/streamcluster/"))
    return out


def _dir_bytes(d) -> dict[str, bytes]:
    return {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}


def test_metrics_dir_bytes_identical_across_jobs_and_cache(tmp_path):
    specs = _streamcluster_specs()
    assert len(specs) >= 2

    d1, d4, dc = tmp_path / "j1", tmp_path / "j4", tmp_path / "cache"
    cache = tmp_path / "result-cache"
    for d in (d1, d4, dc):
        d.mkdir()

    r1 = ParallelRunner(jobs=1, use_cache=False, metrics_dir=d1).run(specs)
    r4 = ParallelRunner(jobs=4, use_cache=False, metrics_dir=d4).run(specs)
    assert r1 == r4
    assert _dir_bytes(d1) == _dir_bytes(d4)

    # Warm a result cache, then run with metrics_dir: cache reads are
    # bypassed (artifacts must come from a real simulation) and the
    # artifacts match the cold-cache bytes exactly.
    warm = ParallelRunner(jobs=2, cache_dir=cache).run(specs)
    rc = ParallelRunner(jobs=2, cache_dir=cache, metrics_dir=dc).run(specs)
    assert warm == r1 and rc == r1
    assert _dir_bytes(dc) == _dir_bytes(d1)

    # Expected artifact triple per spec, and the .om files all validate.
    for spec in specs:
        base = artifact_base(spec.id)
        for suffix in (".metrics.json", ".om", ".series.jsonl"):
            assert (d1 / (base + suffix)).exists()
        om = (d1 / (base + ".om")).read_text()
        assert validate_openmetrics(om) == []
        summary = load_spec_summary(str(d1), spec.id)
        assert summary is not None
        assert {"kernels", "pressure", "machine"} <= set(summary)

    # The paper's thesis in the pressure numbers: 4x oversubscription
    # stalls, 1x does not.
    by_id = {s.id: load_spec_summary(str(d1), s.id) for s in specs}
    some = {i: s["pressure"]["some_avg"] for i, s in by_id.items()}
    assert some["fig09/streamcluster/8T"] == 0.0
    assert some["fig09/streamcluster/32T"] > 0.1


def test_session_telemetry_summarize_shape():
    with observe() as session:
        _run_kernel(cores=1, tasks=4)
    telemetry = session_telemetry(session)
    assert telemetry["kernels"] == 1 and telemetry["primary"] == 0
    s = summarize(telemetry)
    assert s["pressure"]["some_ns"] > 0
    assert s["pressure"]["full_ns"] == 0
    assert s["machine"]["nr_tasks"] == 4


def test_session_telemetry_empty_session_is_none():
    with observe() as session:
        pass
    assert session_telemetry(session) is None
