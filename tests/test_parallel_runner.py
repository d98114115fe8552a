"""Parallel/cached experiment runner: result order, cache keys, fault
handling, and the full-report flag resolution."""

from __future__ import annotations

import collections
import dataclasses
import functools
import io
import json
import os
import shutil
import time

import pytest

from repro.config import ExecMode, optimized_config, ple_config, vanilla_config
from repro.errors import ReproError
from repro.runners.full_report import (
    QUICK_SCALE,
    SECTIONS,
    ReportParams,
    build_all_specs,
    resolve_scale,
)
from repro.runners.parallel import (
    QUARANTINE_DIR,
    RUNNERS,
    ExperimentError,
    ExperimentSpec,
    ParallelRunner,
    cache_key,
    canonical_json,
    classify_failure,
    execute_spec_timed,
    vanilla_desc,
)
from repro.sync.spin import ALL_SPINLOCKS, behaviour_twin
from repro.workloads.profiles import SUITE


def fig1_subset_specs(work_scale: float = 0.05, seed: int = 2021):
    """A small Figure-1 subset: two apps x (8T, 32T) on 8 cores."""
    return [
        ExperimentSpec(
            id=f"fig01/{name}/{n}T",
            runner="suite_point",
            params={"name": name, "nthreads": n,
                    "config": vanilla_desc(8, seed),
                    "work_scale": work_scale},
            seed=seed,
        )
        for name in ("is", "ep")
        for n in (8, 32)
    ]


# ---------------------------------------------------------------------
# result order (results across jobs and cache states: test_determinism.py)
# ---------------------------------------------------------------------
def test_results_come_back_in_spec_order(tmp_path):
    specs = fig1_subset_specs()
    runner = ParallelRunner(jobs=2, cache_dir=tmp_path)
    results = runner.run(specs)
    assert len(results) == len(specs)
    # Re-run from cache and interleave cached order arbitrarily: results
    # must still land at their spec's index.
    shuffled = [specs[2], specs[0], specs[3], specs[1]]
    warm = ParallelRunner(jobs=2, cache_dir=tmp_path).run(shuffled)
    by_id = {s.id: r for s, r in zip(specs, results)}
    assert warm == [by_id[s.id] for s in shuffled]


# ---------------------------------------------------------------------
# cache behavior
# ---------------------------------------------------------------------
def test_cache_hit_skips_simulation(tmp_path):
    specs = fig1_subset_specs()[:2]
    cold = ParallelRunner(jobs=1, cache_dir=tmp_path)
    res1 = cold.run(specs)
    assert cold.stats.executed == 2 and cold.stats.cache_hits == 0
    warm = ParallelRunner(jobs=1, cache_dir=tmp_path)
    res2 = warm.run(specs)
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 2
    assert res1 == res2


def test_cache_misses_on_config_change(tmp_path):
    base = fig1_subset_specs(work_scale=0.05)[:1]
    changed = fig1_subset_specs(work_scale=0.06)[:1]
    assert cache_key(base[0]) != cache_key(changed[0])
    ParallelRunner(jobs=1, cache_dir=tmp_path).run(base)
    r = ParallelRunner(jobs=1, cache_dir=tmp_path)
    r.run(changed)
    assert r.stats.cache_hits == 0 and r.stats.executed == 1


def test_cache_misses_on_seed_change(tmp_path):
    base = fig1_subset_specs(seed=2021)[:1]
    reseeded = fig1_subset_specs(seed=2022)[:1]
    assert cache_key(base[0]) != cache_key(reseeded[0])
    ParallelRunner(jobs=1, cache_dir=tmp_path).run(base)
    r = ParallelRunner(jobs=1, cache_dir=tmp_path)
    r.run(reseeded)
    assert r.stats.cache_hits == 0 and r.stats.executed == 1


def test_cache_invalidated_on_version_bump(tmp_path):
    specs = fig1_subset_specs()[:1]
    r1 = ParallelRunner(jobs=1, cache_dir=tmp_path, version="1.0.0")
    r1.run(specs)
    # same version: hit
    r2 = ParallelRunner(jobs=1, cache_dir=tmp_path, version="1.0.0")
    r2.run(specs)
    assert r2.stats.cache_hits == 1
    # bumped version: miss, fresh simulation
    r3 = ParallelRunner(jobs=1, cache_dir=tmp_path, version="1.0.1")
    r3.run(specs)
    assert r3.stats.cache_hits == 0 and r3.stats.executed == 1


def test_corrupt_cache_entry_is_recomputed_and_quarantined(tmp_path):
    specs = fig1_subset_specs()[:1]
    r1 = ParallelRunner(jobs=1, cache_dir=tmp_path)
    res1 = r1.run(specs)
    (entry,) = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    (tmp_path / entry).write_text("{not json", encoding="utf-8")
    r2 = ParallelRunner(jobs=1, cache_dir=tmp_path)
    res2 = r2.run(specs)
    assert r2.stats.executed == 1 and r2.stats.quarantined == 1
    assert res1 == res2
    # The bad entry is kept as evidence, not deleted ...
    assert (tmp_path / QUARANTINE_DIR / entry).exists()
    # ... and the recompute rewrote a valid entry in its place.
    r3 = ParallelRunner(jobs=1, cache_dir=tmp_path)
    r3.run(specs)
    assert r3.stats.cache_hits == 1 and r3.stats.quarantined == 0


def _tamper_entry(cache_dir, mutate):
    """Load the single cache entry, apply ``mutate``, write it back."""
    (name,) = [p for p in os.listdir(cache_dir) if p.endswith(".json")]
    path = cache_dir / name
    entry = json.loads(path.read_text(encoding="utf-8"))
    mutate(entry)
    path.write_text(json.dumps(entry), encoding="utf-8")
    return name


def test_cache_schema_mismatch_is_quarantined(tmp_path):
    specs = fig1_subset_specs()[:1]
    res1 = ParallelRunner(jobs=1, cache_dir=tmp_path).run(specs)
    name = _tamper_entry(tmp_path, lambda e: e.update(schema=1))
    r = ParallelRunner(jobs=1, cache_dir=tmp_path)
    assert r.run(specs) == res1  # recomputed, not trusted
    assert r.stats.quarantined == 1 and r.stats.cache_hits == 0
    assert (tmp_path / QUARANTINE_DIR / name).exists()


def test_cache_checksum_mismatch_is_quarantined(tmp_path):
    specs = fig1_subset_specs()[:1]
    res1 = ParallelRunner(jobs=1, cache_dir=tmp_path).run(specs)

    def flip_result(entry):  # bit-rot in the payload, checksum now stale
        entry["result"]["duration_ns"] += 1

    _tamper_entry(tmp_path, flip_result)
    r = ParallelRunner(jobs=1, cache_dir=tmp_path)
    assert r.run(specs) == res1
    assert r.stats.quarantined == 1 and r.stats.cache_hits == 0


def test_cache_wrong_spec_entry_is_quarantined(tmp_path):
    """A file copied to the wrong key (or a hash collision) must not leak
    another spec's result."""
    specs = fig1_subset_specs()[:1]
    ParallelRunner(jobs=1, cache_dir=tmp_path).run(specs)
    _tamper_entry(tmp_path, lambda e: e.update(seed=999))
    r = ParallelRunner(jobs=1, cache_dir=tmp_path)
    r.run(specs)
    assert r.stats.quarantined == 1 and r.stats.executed == 1


@pytest.mark.parametrize("differs", ["params", "version"])
def test_cache_entry_of_another_experiment_is_quarantined(tmp_path, differs):
    """An intact entry copied to another experiment's key path, with the
    same runner and seed, must not serve that experiment: an 8-thread
    result must not answer for 32 threads, nor an old version's result
    for a new version."""
    def spec(nthreads):
        return ExperimentSpec(
            id=f"is/{nthreads}T", runner="suite_point",
            params={"name": "is", "nthreads": nthreads,
                    "config": vanilla_desc(8, 1), "work_scale": 0.05},
            seed=1)

    src = spec(8)
    dst, version = (spec(32), "1.0.0") if differs == "params" else (src, "1.0.1")
    (res8,) = ParallelRunner(jobs=1, cache_dir=tmp_path,
                             version="1.0.0").run([src])
    name = cache_key(dst, version) + ".json"
    shutil.copy(tmp_path / (cache_key(src, "1.0.0") + ".json"), tmp_path / name)
    r = ParallelRunner(jobs=1, cache_dir=tmp_path, version=version)
    (res,) = r.run([dst])
    assert r.stats.quarantined == 1 and r.stats.cache_hits == 0
    assert r.stats.executed == 1
    assert (tmp_path / QUARANTINE_DIR / name).exists()
    if differs == "params":
        assert res["duration_ns"] != res8["duration_ns"]


def test_cache_entries_written_atomically_with_integrity_fields(tmp_path):
    from repro.runners.parallel import CACHE_SCHEMA, _entry_checksum

    specs = fig1_subset_specs()[:2]
    ParallelRunner(jobs=2, cache_dir=tmp_path).run(specs)
    names = sorted(os.listdir(tmp_path))
    assert not [n for n in names if ".tmp." in n]  # no partial files left
    for name in [n for n in names if n.endswith(".json")]:
        entry = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["sha256"] == _entry_checksum(entry)


def test_no_cache_mode_writes_nothing(tmp_path):
    specs = fig1_subset_specs()[:1]
    r = ParallelRunner(jobs=1, cache_dir=tmp_path, use_cache=False)
    r.run(specs)
    assert list(tmp_path.iterdir()) == []


def test_cache_key_is_stable_and_param_order_independent():
    a = ExperimentSpec(id="x", runner="suite_point",
                       params={"name": "is", "nthreads": 8}, seed=1)
    b = ExperimentSpec(id="y", runner="suite_point",
                       params={"nthreads": 8, "name": "is"}, seed=1)
    assert cache_key(a) == cache_key(b)  # id is a label, not part of the key
    assert len(cache_key(a)) == 64


# ---------------------------------------------------------------------
# shared experiments: specs with the same runner, params and seed
# ---------------------------------------------------------------------
def _logged_execute(log_path, payload, *args, **kwargs):
    """``execute_spec_timed`` that first appends the spec id to a file, so
    executions count in pool workers too (bound with functools.partial,
    which pickles)."""
    with open(log_path, "a", encoding="utf-8") as f:
        f.write(payload["id"] + "\n")
    return execute_spec_timed(payload, *args, **kwargs)


def _count_executions(monkeypatch, tmp_path):
    """Route the runner through :func:`_logged_execute`; returns a
    function that reads back the ids executed so far."""
    from repro.runners import parallel

    log = tmp_path / "executed.log"
    monkeypatch.setattr(parallel, "execute_spec_timed",
                        functools.partial(_logged_execute, str(log)))
    return lambda: log.read_text(encoding="utf-8").split() if log.exists() else []


def _twin_specs():
    """Two ids for one experiment, the params given in another key order."""
    (spec,) = fig1_subset_specs()[:1]
    twin = ExperimentSpec(id="fig09/is/8T", runner=spec.runner,
                          params=dict(reversed(list(spec.params.items()))),
                          seed=spec.seed)
    assert list(twin.params) != list(spec.params)
    return [spec, twin]


@pytest.mark.parametrize("jobs", [1, 2])
def test_identical_specs_simulate_once(monkeypatch, tmp_path, jobs):
    executed = _count_executions(monkeypatch, tmp_path)
    specs = [*_twin_specs(), fig1_subset_specs()[1]]
    r = ParallelRunner(jobs=jobs, use_cache=False)
    results = r.run(specs)
    assert sorted(executed()) == sorted([specs[0].id, specs[2].id])
    assert r.stats.executed == 2 and r.stats.shared == 1
    assert r.stats.completed == 3 and r.stats.cache_hits == 0
    # The copy names the spec whose simulation it came from.
    assert r.stats.shared_from == {specs[1].id: specs[0].id}
    assert results[0] == results[1] != results[2]
    # The copy is what the twin's own simulation gives.
    assert results[1] == ParallelRunner(jobs=1, use_cache=False).run(
        specs[1:2])[0]


def test_shared_results_are_independent_objects():
    first, second = ParallelRunner(jobs=1, use_cache=False).run(_twin_specs())
    assert first == second and first is not second
    snapshot = json.dumps(second, sort_keys=True)
    first["stats"]["extra"].clear()
    first["duration_ns"] += 1
    assert json.dumps(second, sort_keys=True) == snapshot


@pytest.mark.parametrize("jobs", [1, 2])
def test_shared_failure_fails_every_member(monkeypatch, tmp_path, jobs):
    executed = _count_executions(monkeypatch, tmp_path)
    specs = [_bad_spec("bad-a"), _bad_spec("bad-b")]
    r = ParallelRunner(jobs=jobs, use_cache=False, retries=1, strict=False,
                       backoff_base_s=0.0)
    assert r.run(specs) == [None, None]
    # One experiment, tried twice; the member is not retried on its own.
    assert executed() == ["bad-a", "bad-a"] and r.stats.retried == 1
    assert r.stats.failed == 2 and r.stats.completed == 0
    assert r.stats.failures["bad-a"] == r.stats.failures["bad-b"]
    assert r.stats.failures["bad-b"]["kind"] == "exception"
    strict = ParallelRunner(jobs=jobs, use_cache=False, retries=0)
    with pytest.raises(ExperimentError, match="bad-a"):
        strict.run(specs)


def test_shared_experiments_cache_one_entry_each(tmp_path):
    specs = [*_twin_specs(), *fig1_subset_specs()[1:3]]
    distinct = {cache_key(s) for s in specs}
    assert len(distinct) == len(specs) - 1
    cold = ParallelRunner(jobs=2, cache_dir=tmp_path)
    res_cold = cold.run(specs)
    assert cold.stats.executed == len(distinct) and cold.stats.shared == 1
    assert cold.stats.shared_from == {specs[1].id: specs[0].id}
    entries = sorted(p for p in os.listdir(tmp_path) if p.endswith(".json"))
    assert entries == sorted(k + ".json" for k in distinct)
    warm = ParallelRunner(jobs=2, cache_dir=tmp_path)
    assert warm.run(specs) == res_cold
    assert warm.stats.cache_hits == len(specs)
    assert warm.stats.executed == 0 and warm.stats.shared == 0
    # A cache hit is not a copy: every spec read its own entry.
    assert warm.stats.shared_from == {}


# ---------------------------------------------------------------------
# Environment twins: without PLE the execution mode is only a label
# ---------------------------------------------------------------------
def _pipeline_json(config, algorithm: str = "ticket",
                   nthreads: int = 16) -> str:
    from repro.workloads.pipeline import spin_pipeline_run

    r = dataclasses.asdict(
        spin_pipeline_run(config, algorithm, nthreads, total_stages=128))
    del r["algorithm"]  # the label; the lock's behaviour is what ran
    return canonical_json(r)


def test_mode_changes_nothing_without_ple():
    """The invariant that lets native, container and VM twins share one
    simulation: a kernel without PLE gives the same result, stats
    included, in every mode.  A cost charged to the VM alone would break
    it, and the report's descriptors would then need their mode back."""
    for base in (vanilla_config(cores=4), optimized_config(cores=4, vb=False)):
        runs = {_pipeline_json(base.replace(mode=mode)) for mode in ExecMode}
        assert len(runs) == 1, base
    # The comparison sees what the VM does add: PLE moves the stats.
    assert _pipeline_json(ple_config(cores=4)) != _pipeline_json(
        vanilla_config(cores=4).replace(mode=ExecMode.VM))


def test_environment_twins_share_their_container_run():
    """Every non-PLE point of fig13's kvm rows, fig14's vm rows and the
    native and VM colocation rows is its container twin's experiment; a
    PLE point shares no run with a non-PLE point."""
    specs = [s for _, sec in build_all_specs(ReportParams(0.3, True, 2021))
             for s in sec]
    key = {s.id: cache_key(s) for s in specs}
    twins = {}
    for spec_id in key:
        parts = spec_id.split("/")
        if parts[0] == "fig13" and parts[1] == "kvm":
            twins[spec_id] = "/".join(["fig13", "container", *parts[2:]])
        elif parts[0] == "fig14" and parts[2] == "vm":
            twins[spec_id] = "/".join([*parts[:2], "container", *parts[3:]])
        elif parts[:2] == ["serve", "colo"] and parts[2] != "container":
            twins[spec_id] = "/".join(["serve", "colo", "container", parts[3]])
    ple = {s.id for s in specs if s.params.get("config", {}).get("kind")
           == "ple"}
    assert len(ple) == 17 and ple <= set(twins)
    assert len(twins) - len(ple) == 46
    for spec_id, twin in twins.items():
        if spec_id in ple:
            assert twin not in key, spec_id
        else:
            assert key[spec_id] == key[twin], spec_id
    # No PLE point shares a non-PLE run.  fig13's share with their lock
    # twins (see test_fig13_runs_each_lock_behaviour_once); the others
    # run alone.
    groups = _key_groups(specs)
    ple_groups = [g for g in groups if g & ple]
    assert all(g <= ple for g in ple_groups)
    assert sorted(len(g) for g in ple_groups if min(g).startswith("fig13/")
                  ) == [1, 1, 1, 1, 2, 4]
    assert all(len(g) == 1 for g in ple_groups
               if not min(g).startswith("fig13/"))


def _key_groups(specs) -> set[frozenset[str]]:
    """The spec ids of each experiment (each distinct cache key)."""
    groups = collections.defaultdict(set)
    for s in specs:
        groups[cache_key(s)].add(s.id)
    return {frozenset(g) for g in groups.values()}


# ---------------------------------------------------------------------
# Lock-behaviour twins: the kernel sees a spinlock's discipline, and its
# PAUSE flag only under PLE
# ---------------------------------------------------------------------
@pytest.mark.parametrize("make_config, pause_visible", [
    (lambda: vanilla_config(cores=4), False),
    (lambda: optimized_config(cores=4, vb=False), False),
    (lambda: ple_config(cores=4), True),
], ids=["vanilla", "optimized", "ple"])
def test_lock_twins_give_equal_results(make_config, pause_visible):
    """The invariant that lets fig13's lock twins share one simulation:
    algorithms with one twin give the same result, stats included."""
    for nthreads in (8, 32):
        runs = {alg: _pipeline_json(make_config(), alg, nthreads)
                for alg in ALL_SPINLOCKS}
        for alg, run in runs.items():
            twin = behaviour_twin(alg, pause_visible)
            assert run == runs[twin], (alg, twin, nthreads)
    if pause_visible:
        # PLE sees PAUSE, so the split by PAUSE flag is needed.
        assert runs["clh"] != runs["alock-ls"]
        assert runs["pthread"] != runs["ttas"]


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_fig13_runs_each_lock_behaviour_once(quick):
    fig13 = next(s for s in SECTIONS if s.key == "fig13")
    specs = fig13.build(ReportParams(QUICK_SCALE if quick else 1.0, quick))

    def ids(envs, algs, setting):
        return frozenset(f"fig13/{env}/{alg}/{setting}"
                         for env in envs for alg in algs)

    both = ("container", "kvm")
    want = {
        ids(both, algs, setting)
        for algs in (("alock-ls", "clh", "mcs", "partitioned", "ticket"),
                     ("malth",), ("pthread", "ttas"), ("cna", "aqs"))
        for setting in ("8T(vanilla)", "32T(vanilla)", "32T(optimized)")
    } | {
        ids(("kvm",), algs, "32T(PLE)")
        for algs in (("alock-ls",), ("clh", "mcs", "partitioned", "ticket"),
                     ("malth",), ("pthread",), ("ttas",), ("cna", "aqs"))
    }
    assert len(specs) == 70 and len(want) == 18
    assert _key_groups(specs) == want


def test_unpinned_fig11_points_share_their_twins_run():
    """Only a ``32T(pinned)`` point carries ``pinned`` and ``crash_ok``;
    every other fig11 point with the kernel, threads and work scale of a
    fig01, fig03 or fig09 spec is that spec's experiment."""
    specs = [s for _, sec in build_all_specs(ReportParams(0.3, True, 2021))
             for s in sec]
    key = {s.id: cache_key(s) for s in specs}
    shared = 0
    for spec in specs:
        if not spec.id.startswith("fig11/"):
            continue
        _, app, cores, setting = spec.id.split("/")
        if setting == "32T(pinned)":
            assert spec.params["pinned"] and spec.params["crash_ok"]
            continue
        assert not {"pinned", "crash_ok"} & spec.params.keys(), spec.id
        n = spec.params["nthreads"]
        if cores == "8c" and setting == "32T(optimized)":
            twin = f"fig09/{app}/opt"
        elif cores == "8c":
            twin = f"fig01/{app}/{n}T"
        elif cores == "32c" and n == SUITE[app].optimal_threads and (
                setting != "32T(optimized)"):
            twin = f"fig03/{app}"
        else:
            continue
        if twin in key:
            assert key[spec.id] == key[twin], spec.id
            shared += 1
    assert shared == 28


# ---------------------------------------------------------------------
# timeouts and worker crashes
# ---------------------------------------------------------------------
def test_timeout_aborts_spec_inline():
    spec = ExperimentSpec(id="sleepy", runner="debug_sleep",
                          params={"seconds": 10.0}, seed=0)
    r = ParallelRunner(jobs=1, use_cache=False, timeout_s=0.2, retries=0)
    t0 = time.monotonic()
    with pytest.raises(ExperimentError, match="sleepy"):
        r.run([spec])
    assert time.monotonic() - t0 < 5.0  # interrupted, not slept out


def test_timeout_aborts_spec_in_pool():
    spec = ExperimentSpec(id="sleepy", runner="debug_sleep",
                          params={"seconds": 10.0}, seed=0)
    r = ParallelRunner(jobs=2, use_cache=False, timeout_s=0.2, retries=0)
    t0 = time.monotonic()
    with pytest.raises(ExperimentError, match="sleepy"):
        r.run([spec])
    assert time.monotonic() - t0 < 8.0


def test_worker_crash_is_retried_once(tmp_path):
    marker = tmp_path / "crashed-once"
    spec = ExperimentSpec(id="crashy", runner="debug_crash_once",
                          params={"marker_path": str(marker)}, seed=0)
    r = ParallelRunner(jobs=2, use_cache=False, retries=1)
    results = r.run([spec])
    assert results == [{"ok": True}]
    assert r.stats.retried == 1
    assert marker.exists()


def test_persistent_failure_raises_after_retries(tmp_path):
    spec = ExperimentSpec(id="bad", runner="suite_point",
                          params={"name": "no-such-benchmark", "nthreads": 8,
                                  "config": vanilla_desc(8, 0)},
                          seed=0)
    r = ParallelRunner(jobs=1, use_cache=False, retries=1)
    with pytest.raises(ExperimentError, match="bad"):
        r.run([spec])
    assert isinstance(ExperimentError("x"), ReproError)


def test_unknown_runner_rejected():
    spec = ExperimentSpec(id="nope", runner="not-a-runner", params={}, seed=0)
    with pytest.raises(ExperimentError):
        ParallelRunner(jobs=1, use_cache=False, retries=0).run([spec])


# ---------------------------------------------------------------------
# failure taxonomy, backoff, keep-going mode, soft deadline
# ---------------------------------------------------------------------
def test_classify_failure_taxonomy():
    from concurrent.futures.process import BrokenProcessPool

    from repro.errors import SoftTimeoutError

    assert classify_failure(TimeoutError("x")) == "timeout"
    assert classify_failure(SoftTimeoutError("x")) == "timeout"
    assert classify_failure(BrokenProcessPool("x")) == "crash"
    assert classify_failure(ValueError("x")) == "exception"


def test_backoff_schedule_is_deterministic_and_capped():
    r = ParallelRunner(jobs=1, use_cache=False, backoff_base_s=0.25)
    schedule = [r._backoff_s(a) for a in range(1, 8)]
    assert schedule == [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 8.0]
    # Jitterless by design: the same attempt always waits the same time.
    assert schedule == [r._backoff_s(a) for a in range(1, 8)]


def _bad_spec(spec_id="bad"):
    return ExperimentSpec(id=spec_id, runner="suite_point",
                          params={"name": "no-such-benchmark", "nthreads": 8,
                                  "config": vanilla_desc(8, 0)},
                          seed=0)


def test_keep_going_records_failure_and_continues(tmp_path):
    specs = [_bad_spec(), *fig1_subset_specs()[:1]]
    r = ParallelRunner(jobs=1, cache_dir=tmp_path, retries=0,
                       strict=False, backoff_base_s=0.0)
    results = r.run(specs)
    assert results[0] is None  # the failed spec's slot, not an exception
    assert results[1] is not None and results[1]["duration_ns"] > 0
    assert r.stats.failed == 1 and r.stats.completed == 1
    assert r.stats.failures["bad"]["kind"] == "exception"
    assert "no-such-benchmark" in r.stats.failures["bad"]["error"]


def test_keep_going_classifies_timeouts_in_pool():
    spec = ExperimentSpec(id="sleepy", runner="debug_sleep",
                          params={"seconds": 10.0}, seed=0)
    r = ParallelRunner(jobs=2, use_cache=False, timeout_s=0.2, retries=0,
                       strict=False)
    assert r.run([spec]) == [None]
    assert r.stats.failures["sleepy"]["kind"] == "timeout"


def test_strict_failure_reports_spec_and_cause():
    r = ParallelRunner(jobs=1, use_cache=False, retries=1,
                       backoff_base_s=0.0)
    with pytest.raises(ExperimentError, match="2 attempts") as ei:
        r.run([_bad_spec()])
    assert "bad" in str(ei.value)


def test_soft_deadline_times_out_without_sigalrm(monkeypatch):
    """On platforms without SIGALRM the engine's polled soft deadline is
    the only timeout; a never-terminating simulation must still stop."""
    import signal as signal_mod

    monkeypatch.delattr(signal_mod, "SIGALRM", raising=False)
    spec = ExperimentSpec(id="spin", runner="debug_spin_sim",
                          params={}, seed=0)
    r = ParallelRunner(jobs=1, use_cache=False, timeout_s=0.3, retries=0)
    t0 = time.monotonic()
    with pytest.raises(ExperimentError, match="spin"):
        r.run([spec])
    assert time.monotonic() - t0 < 10.0


def test_soft_deadline_cleared_after_spec(monkeypatch):
    """A timed spec must not leave its deadline armed for the next one."""
    from repro.sim import engine as engine_mod

    import signal as signal_mod

    monkeypatch.delattr(signal_mod, "SIGALRM", raising=False)
    spec = ExperimentSpec(id="spin", runner="debug_spin_sim",
                          params={"max_events": 100}, seed=0)
    r = ParallelRunner(jobs=1, use_cache=False, timeout_s=5.0, retries=0)
    (res,) = r.run([spec])
    assert res == {"events": 100}
    assert engine_mod._SOFT_DEADLINE is None


# ---------------------------------------------------------------------
# full-report decomposition and flag resolution
# ---------------------------------------------------------------------
def test_full_report_spec_ids_unique_and_runners_registered():
    # Results, failures and shared experiments are all keyed by spec id,
    # so ids must be unique at every scale.
    for params in (ReportParams(scale=0.3, quick=True),
                   ReportParams(scale=1.0, quick=False)):
        sections = build_all_specs(params)
        specs = [s for _, sec in sections for s in sec]
        ids = [s.id for s in specs]
        assert len(ids) == len(set(ids))
        assert len(specs) > 400  # every figure/table data point is one spec
        assert {s.runner for s in specs} <= set(RUNNERS)
        assert all(s.seed == 2021 for s in specs)
        # params must be JSON-serializable (cache key + worker payload)
        for s in specs:
            json.dumps(s.params)


def test_resolve_scale_quick_is_only_a_default():
    assert resolve_scale(None, quick=False) == 1.0
    assert resolve_scale(None, quick=True) == QUICK_SCALE
    # explicit --scale wins over --quick, with a warning
    err = io.StringIO()
    assert resolve_scale(0.7, quick=True, warn=err) == 0.7
    assert "overrides" in err.getvalue()
    # explicit scale without --quick: no warning
    err = io.StringIO()
    assert resolve_scale(0.7, quick=False, warn=err) == 0.7
    assert err.getvalue() == ""


def test_run_all_flags_roundtrip():
    import argparse

    from repro.runners.full_report import add_report_flags

    ap = argparse.ArgumentParser()
    add_report_flags(ap)
    args = ap.parse_args(["--quick", "--jobs", "4", "--no-cache",
                          "--cache-dir", "/tmp/x", "--seed", "3",
                          "--results", "none", "--max-retries", "2",
                          "--strict"])
    assert args.quick and args.jobs == 4 and args.no_cache
    assert args.cache_dir == "/tmp/x" and args.seed == 3
    assert args.results == "none"
    assert args.max_retries == 2 and args.strict
    # keep-going is the default; one retry matches the old behavior
    args = ap.parse_args([])
    assert args.max_retries == 1 and not args.strict


def test_cli_all_subcommand_registered():
    from repro.cli import build_parser

    args = build_parser().parse_args(["all", "--quick", "--jobs", "2"])
    assert args.fn.__name__ == "cmd_all"
    assert args.quick and args.jobs == 2


# ---------------------------------------------------------------------
# trace artifacts: determinism across jobs / cache states
# ---------------------------------------------------------------------
def _trace_bytes(trace_dir, specs):
    from repro.runners.parallel import trace_artifact_name

    return {
        s.id: (trace_dir / trace_artifact_name(s.id)).read_bytes()
        for s in specs
    }


def test_traces_byte_identical_across_jobs_and_cache(tmp_path):
    # The last spec repeats the first's experiment under another id: with
    # a trace dir it still simulates and ships its own trace.
    specs = fig1_subset_specs()[:2]
    specs.append(dataclasses.replace(specs[0], id="fig09/is/8T"))
    cache = tmp_path / "cache"

    d1 = tmp_path / "t-serial"
    ParallelRunner(jobs=1, use_cache=False, trace_dir=str(d1)).run(specs)
    serial = _trace_bytes(d1, specs)
    assert all(serial.values())  # nonempty artifacts, one per spec

    d2 = tmp_path / "t-parallel"
    ParallelRunner(jobs=2, use_cache=False, trace_dir=str(d2)).run(specs)
    assert _trace_bytes(d2, specs) == serial

    # Warm the result cache, then trace again: the runner must bypass
    # cache reads (every spec re-simulates) and the bytes must still
    # match the cold-cache runs.
    ParallelRunner(jobs=1, cache_dir=cache).run(specs)
    d3 = tmp_path / "t-warm"
    warm = ParallelRunner(jobs=2, cache_dir=cache, trace_dir=str(d3))
    res_traced = warm.run(specs)
    assert warm.stats.cache_hits == 0
    assert warm.stats.executed == len(specs)
    assert _trace_bytes(d3, specs) == serial
    # ... and the results themselves equal the cached ones
    assert res_traced == ParallelRunner(jobs=1, cache_dir=cache).run(specs)


def test_trace_artifact_names_are_filesystem_safe():
    from repro.runners.parallel import trace_artifact_name

    name = trace_artifact_name("fig09/lu_cb/32T")
    assert "/" not in name and name.endswith(".jsonl")


def test_stats_extra_round_trips_through_cache(tmp_path):
    specs = fig1_subset_specs()[:1]
    cold = ParallelRunner(jobs=1, cache_dir=tmp_path)
    (res1,) = cold.run(specs)
    warm = ParallelRunner(jobs=1, cache_dir=tmp_path)
    (res2,) = warm.run(specs)
    assert warm.stats.cache_hits == 1
    assert res1 == res2
    extra = res1["stats"]["extra"]
    assert "hist:wakeup_latency_ns" in extra
    for stat in ("count", "p50", "p95", "p99", "max"):
        assert stat in extra["hist:wakeup_latency_ns"]
