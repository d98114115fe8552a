"""The determinism gate: fixed-seed results never move.

A fixed sample of the quick report's specs must reproduce the committed
fixture (``benchmarks/fixtures/results-quick.json``) byte for byte in
every runner configuration that must not change a result: ``jobs`` 1
and 2, a cold and a warm result cache, per-spec telemetry on
(``metrics_dir``) and a non-CFS process-default policy.  Every cell runs
under the kernel invariant checker the suite installs, on the same
dispatch path production runs take.  A change that moves a result on
purpose regenerates the fixture and EXPERIMENTS.md (docs/validation.md)
and says why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.kernel.policy import current_policy, set_default_policy
from repro.runners.full_report import ReportParams, build_all_specs
from repro.runners.parallel import RUNNERS, ParallelRunner, canonical_json
from repro.telemetry.collect import artifact_base

FIXTURE = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / \
    "results-quick.json"

#: Every fig02 spec and the fig09 streamcluster/is runs, plus one spec or
#: more of each other sampled runner: a pinned crash point, PLE, a lock
#: library, every policy.  fig02/per_switch and sched/cfs/switch, like
#: fig01's and fig09's streamcluster/8T, are one experiment.
SAMPLE_PREFIXES = ("fig02/", "fig09/streamcluster/", "fig09/is/")
SAMPLE_IDS = {
    "fig01/streamcluster/8T", "fig04/seq-r",
    "fig10a/barrier/2T/van", "fig10a/barrier/2T/opt",
    "fig11/ep/2c/32T(pinned)",
    "fig13/kvm/mcs/8T(vanilla)", "fig13/container/pthread/32T(optimized)",
    "fig14/volrend/vm/8T/PLE", "fig15/radix/mcstp",
    "table2/cna", "table3/ft", "serve/colo/container/vanilla",
    "sched/cfs/switch", "sched/eevdf/switch", "sched/fifo_rr/switch",
}

#: Runners the sample leaves out: each costs 0.7 s or more per spec, and
#: the full-report runs in CI cover them (``serving_colo`` exercises the
#: open-loop server path).  ``debug_*`` runners are not in the report.
UNSAMPLED_RUNNERS = {"memcached", "serving_open", "serving_closed"}

#: cell -> (jobs, cache, metrics_dir, process-default policy).  The
#: cache is off, written ("write") or read back warm ("warm").
CELLS = {
    "jobs1-cold": (1, None, False, None),
    "jobs2-cold-write": (2, "write", False, None),
    "jobs2-warm": (2, "warm", False, None),
    "jobs2-metrics": (2, None, True, None),
    "jobs1-eevdf-default": (1, None, False, "eevdf"),
    "jobs2-eevdf-default": (2, None, False, "eevdf"),
}


@pytest.fixture(scope="module")
def sample():
    """The sampled specs, built under the CFS default before any cell
    switches it; their fixture entries as ``{"id", "result"}``; the
    number of distinct experiments (runner, params, seed) among them;
    and the ids the fixture run recorded telemetry for."""
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    entries = {e["id"]: e for e in fixture["results"]}
    specs = [s for _, sec in build_all_specs(ReportParams(0.3, True, 2021))
             for s in sec
             if s.id.startswith(SAMPLE_PREFIXES) or s.id in SAMPLE_IDS]
    distinct = len({canonical_json([entries[s.id][k]
                                    for k in ("runner", "params", "seed")])
                    for s in specs})
    assert {s.runner for s in specs} == {
        name for name in RUNNERS
        if name not in UNSAMPLED_RUNNERS and not name.startswith("debug_")}
    assert sum(s.id.startswith("fig02/") for s in specs) == 17
    assert sum(s.id.startswith("fig09/") for s in specs) == 6
    assert distinct < len(specs)  # the shared-experiment path runs
    assert any("policy" in s.params["config"] for s in specs
               if "config" in s.params)
    expected = [{"id": s.id, "result": entries[s.id]["result"]}
                for s in specs]
    instrumented = [s.id for s in specs if s.id in fixture["telemetry"]]
    return specs, expected, distinct, instrumented


@pytest.fixture(scope="module")
def written_cache(sample, tmp_path_factory):
    """A cold jobs-2 run writing a result cache, shared by the cell that
    checks the cold run and the cell that reads the cache back."""
    cache = tmp_path_factory.mktemp("determinism-cache")
    runner = ParallelRunner(jobs=2, cache_dir=cache)
    return cache, runner.run(sample[0]), runner.stats


@pytest.fixture
def default_policy(monkeypatch):
    """Switch the process-default policy for this process and for
    spawn-started workers (``REPRO_POLICY``); both are restored."""
    prev = current_policy()

    def switch(name: str) -> None:
        monkeypatch.setenv("REPRO_POLICY", name)
        set_default_policy(name)

    yield switch
    set_default_policy(prev)


@pytest.mark.parametrize("cell", CELLS)
def test_sample_reproduces_fixture(cell, sample, default_policy, request,
                                   tmp_path):
    specs, expected, distinct, instrumented = sample
    jobs, cache, metrics, policy = CELLS[cell]
    if policy is not None:
        default_policy(policy)
    if cache == "write":
        _, results, stats = request.getfixturevalue("written_cache")
    else:
        runner = ParallelRunner(
            jobs=jobs,
            cache_dir=(request.getfixturevalue("written_cache")[0]
                       if cache == "warm" else None),
            metrics_dir=tmp_path if metrics else None)
        results = runner.run(specs)
        stats = runner.stats

    got = [{"id": s.id, "result": r} for s, r in zip(specs, results)]
    differ = [g["id"] for g, e in zip(got, expected)
              if canonical_json(g) != canonical_json(e)]
    assert not differ, f"{cell}: results differ from the fixture: {differ}"
    assert canonical_json(got) == canonical_json(expected)

    if cache == "warm":
        assert (stats.executed, stats.cache_hits) == (0, len(specs))
    elif metrics:
        # Per-spec artifacts turn grouping off: every spec simulates and
        # writes the triple wherever the fixture run recorded telemetry.
        assert (stats.executed, stats.shared) == (len(specs), 0)
        assert len(list(tmp_path.glob("*.om"))) == len(instrumented)
        for spec_id in instrumented:
            for suffix in (".metrics.json", ".om", ".series.jsonl"):
                assert (tmp_path / (artifact_base(spec_id) + suffix)).is_file()
    else:
        assert stats.cache_hits == 0
        assert (stats.executed, stats.shared) == (
            distinct, len(specs) - distinct)
