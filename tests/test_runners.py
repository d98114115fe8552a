"""Report sections and table formatting (fast, scaled-down runs of the
sections' own specs via ``run_section`` in conftest.py)."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.runners import format_table
from repro.runners.full_report import (
    SECTIONS,
    ReportParams,
    fig03_histogram,
    fig03_intervals_us,
    fig09_row,
    run_full_report,
)
from repro.runners.parallel import ParallelRunner

FIXTURE = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / \
    "results-quick.json"


def test_format_table_alignment():
    text = format_table(
        ["name", "x"], [["abc", 1.234], ["de", 10.0]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "x" in lines[1]
    assert "1.23" in text and "10.00" in text


def _duration(res: dict, spec_id: str) -> int:
    return res[spec_id]["duration_ns"]


def test_fig01_rows_have_groups(run_section):
    res = run_section("fig01", 0.25,
                      lambda i: i.split("/")[1] in ("ep", "streamcluster"))
    ratio = {name: _duration(res, f"fig01/{name}/32T")
             / _duration(res, f"fig01/{name}/8T")
             for name in ("ep", "streamcluster")}
    assert 0.9 < ratio["ep"] < 1.1
    assert ratio["streamcluster"] > 1.15


def test_fig02_flat_normalized_curve(run_section):
    res = run_section("fig02", 1.0,
                      lambda i: i.split("/")[1] in ("1T", "2T", "3T", "4T"),
                      total_work_ms=8)
    for kind, hi in (("pure", 1.02), ("atomic", 1.03)):
        base = _duration(res, f"fig02/1T/{kind}")
        assert all(0.98 < _duration(res, f"fig02/{n}T/{kind}") / base < hi
                   for n in range(1, 5))
    per_switch = run_section("fig02", 1.0, lambda i: i == "fig02/per_switch",
                             nthreads=4)["fig02/per_switch"]["per_switch_ns"]
    assert 800 < per_switch < 2500


def test_fig03_histogram_buckets(run_section):
    intervals = fig03_intervals_us(run_section("fig03", 0.2))
    assert len(intervals) == 30  # 32 minus the two spinning apps
    hist = fig03_histogram(intervals)
    assert sum(c for _, c in hist) == len(intervals)
    # Most programs synchronize at >= 200 us (the paper's observation).
    fast = sum(c for label, c in hist[:2])
    assert fast <= 3


def test_fig04_series_structure(run_section):
    res = run_section("fig04", 1.0,
                      sizes_bytes=[256 * 1024, 8 * 1024 * 1024])
    assert {sid.split("/")[1] for sid in res} == {
        "seq-r", "seq-rmw", "rnd-r", "rnd-rmw"}
    for r in res.values():
        assert len(r["series"]) == 2


def test_fig09_row_properties(run_section):
    r = fig09_row(run_section("fig09", 0.25,
                              lambda i: i.startswith("fig09/ocean/")),
                  "ocean")
    assert r.vanilla_ratio > 1.1
    assert r.optimized_ratio < r.vanilla_ratio
    assert r.migr_in_32t > r.migr_in_8t
    assert r.util_opt > r.util_32t


def test_fig10_speedups(run_section):
    res = run_section("fig10", 1.0,
                      lambda i: i.startswith("fig10a/") and "/32T/" in i,
                      iterations=200)
    sp = {prim: _duration(res, f"fig10a/{prim}/32T/van")
          / _duration(res, f"fig10a/{prim}/32T/opt")
          for prim in ("mutex", "cond", "barrier")}
    assert sp["barrier"] > 1.05
    assert sp["cond"] > sp["mutex"]


def test_fig11_pinned_crash_recorded(run_section):
    res = run_section("fig11", 0.15,
                      lambda i: i.startswith("fig11/streamcluster/2c/"))
    assert "fig11/streamcluster/2c/32T(pinned)" in res
    assert all(
        r["duration_ns"] is None or r["duration_ns"] > 0 for r in res.values()
    )


def test_fig12_rows(run_section):
    res = run_section("fig12", 1.0, lambda i: i.startswith("fig12/4c/"),
                      duration_ms=80)
    assert {sid.split("/")[2] for sid in res} == {
        "4T(vanilla)", "16T(vanilla)", "16T(optimized)"}
    assert (res["fig12/4c/16T(optimized)"]["latency"]["p99"]
            < res["fig12/4c/16T(vanilla)"]["latency"]["p99"])


def test_fig13_ple_only_in_kvm():
    section = next(s for s in SECTIONS if s.key == "fig13")
    settings = {}
    for spec in section.build(ReportParams(1.0, False)):
        _, env, _alg, setting = spec.id.split("/")
        settings.setdefault(env, set()).add(setting)
    assert "32T(PLE)" not in settings["container"]
    assert "32T(PLE)" in settings["kvm"]


def test_fig14_optimized_recovers(run_section):
    res = run_section(
        "fig14", 0.2,
        lambda i: i.startswith("fig14/volrend/container/")
        and i.split("/")[3] in ("8T", "32T"),
    )
    d = {tuple(sid.split("/")[3:]): r["duration_ns"] for sid, r in res.items()}
    assert d[("32T", "vanilla")] > 3 * d[("8T", "vanilla")]
    assert d[("32T", "optimized")] < d[("32T", "vanilla")] / 2


def test_fig15_optimized_wins(run_section):
    res = run_section("fig15", 0.3,
                      lambda i: i.startswith("fig15/streamcluster/"))
    d = {sid.split("/")[2]: r["duration_ns"] for sid, r in res.items()}
    assert d["optimized"] < d["pthread"]
    assert d["optimized"] < d["shfllock"]


def test_table2_sensitivity(run_section):
    res = run_section("table2", 1.0,
                      lambda i: i.split("/")[1] in ("mcs", "ttas"),
                      duration_ms=150)
    for r in res.values():
        assert r["true_positives"] / r["tries"] > 0.9
        assert r["tries"] >= r["true_positives"]


def test_table3_specificity(run_section):
    r = run_section("table3", 0.3, lambda i: i == "table3/ft")["table3/ft"]
    assert 1.0 - r["false_positives"] / r["tries"] > 0.98
    assert r["overhead_pct"] < 5.0


# ---------------------------------------------------------------------
# Every section against the committed quick fixture, without simulating
# ---------------------------------------------------------------------
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


QUICK = ReportParams(0.3, True, 2021)


@pytest.mark.parametrize("section", SECTIONS, ids=lambda s: s.key)
def test_section_specs_and_render_match_fixture(section):
    """Each section builds exactly its slice of the committed quick
    artifact, in order, and renders from those results alone."""
    results = _fixture()["results"]
    start = sum(len(s.build(QUICK)) for s in SECTIONS[:SECTIONS.index(section)])
    specs = section.build(QUICK)
    entries = results[start:start + len(specs)]
    assert [s.payload() for s in specs] == [
        {k: e[k] for k in ("id", "runner", "params", "seed")} for e in entries
    ]
    out = io.StringIO()
    section.render(QUICK, {e["id"]: e["result"] for e in entries}, out)
    assert out.getvalue().strip()
    if section is SECTIONS[-1]:
        assert start + len(specs) == len(results)


def test_section_validate_covers_the_fidelity_specs_it_feeds(tmp_path):
    """``sections=["fig09"]`` validates Table 1 too: its claims read the
    Figure 9 runs.  Served from a cache seeded with the fixture."""
    from repro.validate.specs import SPECS

    seeder = ParallelRunner(jobs=1, cache_dir=tmp_path)
    fig09 = next(s for s in SECTIONS if s.key == "fig09")
    by_id = {e["id"]: e["result"] for e in _fixture()["results"]}
    specs = fig09.build(QUICK)
    for spec in specs:
        seeder.cache_store(spec, by_id[spec.id])
    out = io.StringIO()
    rc = run_full_report(quick=True, jobs=1, cache_dir=str(tmp_path),
                         results_path=None, out=out,
                         progress_out=io.StringIO(), validate=True,
                         sections=["fig09"])
    assert rc == 0
    text = out.getvalue()
    assert f"specs: {len(specs)} total, 0 simulated" in text
    fed = [s for s in SPECS if s.section in ("fig09", "table1", "telemetry")]
    assert f"{len(fed)} specs: " in text
