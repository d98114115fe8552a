"""Integration tests asserting the paper's headline claims end-to-end.

Each test is one claim from the paper, checked as a *shape* (ordering /
rough factor) on scaled-down runs of the report sections' own specs
(``run_section`` in conftest.py).  The full-fidelity numbers live in the
fidelity specs and EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.runners.full_report import fig09_row
from repro.runners.parallel import (
    ExperimentSpec,
    ParallelRunner,
    suite_opt_desc,
    vanilla_desc,
)

SCALE = 0.35


def ratio(run_section, name, seeds=(2021, 7)):
    """Mean 32T/8T slowdown over a couple of seeds (migration storms are
    stochastic; the paper averages 10 runs)."""
    rs = []
    for seed in seeds:
        res = run_section("fig01", SCALE,
                          lambda i: i.startswith(f"fig01/{name}/"), seed=seed)
        rs.append(res[f"fig01/{name}/32T"]["duration_ns"]
                  / res[f"fig01/{name}/8T"]["duration_ns"])
    return sum(rs) / len(rs)


def fig09_rows(run_section, names):
    res = run_section("fig09", SCALE, lambda i: i.split("/")[1] in names)
    return [fig09_row(res, name) for name in names]


class TestSection2Findings:
    def test_direct_cs_cost_constant_1_5us(self, run_section):
        """Claim: CS cost ~1.5 us, independent of thread count."""
        c4, c8 = (
            run_section("fig02", 1.0, lambda i: i == "fig02/per_switch",
                        seed=1, nthreads=n)["fig02/per_switch"]["per_switch_ns"]
            for n in (4, 8)
        )
        assert 1_000 < c4 < 2_200
        assert abs(c4 - c8) < 500

    def test_most_apps_unaffected_by_oversubscription(self, run_section):
        """Claim (Figure 1): groups 1 and 2 do not suffer."""
        for name in ("blackscholes", "ep", "raytrace"):
            assert ratio(run_section, name) < 1.08

    def test_benefit_group_improves(self, run_section):
        assert ratio(run_section, "facesim") < 1.0

    def test_spinning_apps_collapse(self, run_section):
        """Claim (Figure 1): up to ~25x for lu, ~10x for volrend."""
        r_lu = ratio(run_section, "lu")
        r_vol = ratio(run_section, "volrend")
        assert r_lu > 10
        assert r_vol > 4
        assert r_lu > r_vol  # lu is the worst case, as in the paper

    def test_blocking_apps_suffer_5_to_60_percent(self, run_section):
        for name in ("streamcluster", "ocean", "cg"):
            r = ratio(run_section, name)
            assert 1.05 < r < 2.5, name


class TestVirtualBlocking:
    def test_vb_recovers_blocking_apps(self, run_section):
        """Claim (Figure 9): up to 77% gain; optimized close to baseline."""
        for r in fig09_rows(run_section, ["streamcluster", "ocean", "cg", "is"]):
            assert r.optimized_ratio < r.vanilla_ratio
            assert r.optimized_ratio < 1.25  # close to the 8T baseline

    def test_vb_sometimes_beats_baseline(self, run_section):
        """Claim: VB outperformed the baseline for freqmine/ocean/cg/mg."""
        rows = fig09_rows(run_section, ["ocean", "cg", "mg", "freqmine"])
        assert sum(1 for r in rows if r.optimized_ratio < 1.0) >= 2

    def test_vb_recovers_on_hyperthreads(self):
        """Claim (Figure 9): the trend is similar on 8 hyperthreads of 4
        cores (the SMT variant, the only user of smt_throughput_factor)."""
        seed = 2021
        specs = [
            ExperimentSpec(
                id=f"fig09/{name}/{label}", runner="suite_point",
                params={"name": name, "nthreads": nthreads, "config": cfg,
                        "work_scale": 0.4},
                seed=seed,
            )
            for name in ("streamcluster", "ocean", "cg", "is", "sp")
            for label, nthreads, cfg in (
                ("8T", 8, vanilla_desc(8, seed, smt=True)),
                ("32T", 32, vanilla_desc(8, seed, smt=True)),
                ("opt", 32, suite_opt_desc(name, 8, seed, smt=True)),
            )
        ]
        values = ParallelRunner(jobs=1, use_cache=False).run(specs)
        res = {s.id: v for s, v in zip(specs, values)}
        rows = [fig09_row(res, name)
                for name in ("streamcluster", "ocean", "cg", "is", "sp")]
        recovered = 0
        for r in rows:
            # VB always improves on vanilla oversubscription...
            assert r.optimized_ratio < r.vanilla_ratio + 0.05, r.name
            # ...and lands close to (or better than) the 8T baseline.
            if r.optimized_ratio <= 1.10:
                recovered += 1
        assert recovered >= len(rows) - 2

    def test_table1_utilization_and_migrations(self, run_section):
        """Claim (Table 1): 32T vanilla loses utilization and migrates
        orders of magnitude more; Opt restores both."""
        for r in fig09_rows(run_section, ["streamcluster", "cg"]):
            assert r.util_32t < r.util_8t
            assert r.util_opt >= r.util_8t - 30
            base_migr = max(1, r.migr_in_8t + r.migr_cross_8t)
            over_migr = r.migr_in_32t + r.migr_cross_32t
            opt_migr = r.migr_in_opt + r.migr_cross_opt
            assert over_migr > 3 * base_migr
            assert opt_migr <= base_migr + 10

    def test_memcached_tail_latency(self, run_section):
        """Claim (Figure 12): oversubscription blows up p95/p99 under
        vanilla; VB reduces tails dramatically and keeps throughput."""
        # Tails need a long enough window for slice-scale stall events to
        # accumulate (they are the p99, not the median).
        res = run_section("fig12", 1.0, lambda i: i.startswith("fig12/4c/"),
                          duration_ms=300)
        van4 = res["fig12/4c/4T(vanilla)"]
        van16 = res["fig12/4c/16T(vanilla)"]
        opt16 = res["fig12/4c/16T(optimized)"]
        assert van16["latency"]["p99"] > 1.5 * van4["latency"]["p99"]
        assert opt16["latency"]["p99"] < 0.5 * van16["latency"]["p99"]
        assert opt16["throughput_ops"] > 0.9 * van4["throughput_ops"]


class TestBusyWaitingDetection:
    def test_bwd_recovers_all_ten_spinlocks(self, run_section):
        """Claim (Figure 13): BWD-32T comparable to vanilla-8T for every
        algorithm; vanilla-32T collapses."""
        algs = ["mcs", "ticket", "ttas", "pthread", "cna"]
        res = run_section(
            "fig13", 1.0,
            lambda i: i.split("/")[1] == "container" and i.split("/")[2] in algs,
            total_stages=480,
        )
        for alg in algs:
            d = {s: res[f"fig13/container/{alg}/{s}"]["duration_ns"]
                 for s in ("8T(vanilla)", "32T(vanilla)", "32T(optimized)")}
            assert d["32T(vanilla)"] > 1.5 * d["8T(vanilla)"], alg
            assert d["32T(optimized)"] < d["32T(vanilla)"], alg
            assert d["32T(optimized)"] < 2.5 * d["8T(vanilla)"], alg

    def test_ple_ineffective(self, run_section):
        """Claim: PLE performs like vanilla for thread oversubscription."""
        res = run_section("fig13", 1.0,
                          lambda i: i.startswith("fig13/kvm/pthread/"),
                          total_stages=240)
        d = {sid.split("/")[3]: r["duration_ns"] for sid, r in res.items()}
        assert d["32T(PLE)"] == pytest.approx(d["32T(vanilla)"], rel=0.15)
        assert d["32T(optimized)"] < d["32T(PLE)"] / 1.5

    def test_bwd_works_for_pauseless_custom_spins(self, run_section):
        """Claim (Figure 14): BWD handles ad-hoc spins PLE cannot see."""
        res = run_section("fig14", 0.25,
                          lambda i: i.startswith("fig14/lu/vm/32T/"))
        d = {sid.split("/")[4]: r["duration_ns"] for sid, r in res.items()}
        assert d["PLE"] == pytest.approx(d["vanilla"], rel=0.05)
        assert d["optimized"] < d["vanilla"] / 4

    def test_table2_sensitivity_near_100(self, run_section):
        res = run_section("table2", 1.0,
                          lambda i: i.split("/")[1] in ("mcs", "ttas", "clh"),
                          duration_ms=250)
        for sid, r in res.items():
            assert r["true_positives"] / r["tries"] > 0.95, sid

    def test_table3_specificity_and_overhead(self, run_section):
        res = run_section("table3", 0.3,
                          lambda i: i.split("/")[1] in ("is", "ft"))
        for r in res.values():
            assert 1.0 - r["false_positives"] / r["tries"] > 0.99
            assert r["overhead_pct"] < 3.0
            assert r["timer_overhead_pct"] < 3.0


class TestLockLibraryComparison:
    def test_fig15_optimized_beats_lock_libraries(self, run_section):
        """Claim (Figure 15 / Section 4.4): spin-then-park and SHFLLOCK
        still collapse under oversubscription; VB+BWD is up to ~5x
        better."""
        res = run_section("fig15", 0.3,
                          lambda i: i.split("/")[1] in ("streamcluster", "ocean"))
        best_factor = 0.0
        for app in ("streamcluster", "ocean"):
            opt = res[f"fig15/{app}/optimized"]["duration_ns"]
            for lock in ("pthread", "mutexee", "mcstp", "shfllock"):
                d = res[f"fig15/{app}/{lock}"]["duration_ns"]
                assert opt < d, (app, lock)
                best_factor = max(best_factor, d / opt)
        assert best_factor > 3.0


class TestElasticity:
    def test_more_threads_exploit_more_cores(self, run_section):
        """Claim (Figure 11): with 32 cores, 32 threads beat 8 threads —
        the point of provisioning concurrency for elasticity."""
        t8_id, t32_id = "fig11/ep/32c/8T(vanilla)", "fig11/ep/32c/32T(vanilla)"
        res = run_section("fig11", SCALE, {t8_id, t32_id}.__contains__, seed=3)
        t8, t32 = res[t8_id]["duration_ns"], res[t32_id]["duration_ns"]
        assert t32 < 0.45 * t8

    def test_optimized_oversubscription_never_much_worse(self, run_section):
        """Claim: with VB, running 32 threads was never worse than 8
        threads (streamcluster/ocean/cg), across core counts."""
        ids = {f"fig11/ocean/{c}c/{s}" for c in (4, 8)
               for s in ("8T(vanilla)", "32T(optimized)")}
        res = run_section("fig11", 0.25, ids.__contains__, seed=3)
        for cores in (4, 8):
            t8 = res[f"fig11/ocean/{cores}c/8T(vanilla)"]["duration_ns"]
            t32 = res[f"fig11/ocean/{cores}c/32T(optimized)"]["duration_ns"]
            assert t32 < 1.15 * t8
