"""The fidelity-spec registry: every paper claim as an executable check.

A :class:`FidelitySpec` encodes one published claim of the paper — a
figure's headline number, a direction ("VB beats vanilla beyond 2x
oversubscription"), or a crossover — as

* an *extractor* over a ``results.json`` artifact (the machine-readable
  output of ``benchmarks/run_all.py`` / ``repro all``), and
* an inclusive acceptance **band** ``(lo, hi)`` (``None`` = unbounded on
  that side).  Bands may be asymmetric: the reproduction target is the
  paper's *shape*, not its testbed wall-clock, so e.g. "collapse factor
  25.66" accepts a generous interval while "PLE is identical to vanilla"
  accepts almost none.

Specs whose expectation is *known* not to hold carry a ``deviation`` key
into :data:`DEVIATIONS`; they classify as DEVIATION instead of VIOLATION
so the catalog of honest mismatches is itself machine-checked — a
deviation that silently *starts passing* (or a match that starts
deviating) shows up as drift.

Extractors must be scale-robust (ratios, normalized overheads) because
the CI fidelity job runs at the quick scale (0.3); the few claims that
only hold at full fidelity set ``quick=False`` and are skipped there.
``docs/validation.md`` explains the philosophy and how to add a spec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ReproError
from ..runners.full_report import FIG15_APPS, SPINLOCK_ORDER, TABLE3_APPS
from ..workloads.profiles import SUITE, Group

__all__ = [
    "DEVIATIONS",
    "SECTION_DOCS",
    "SPECS",
    "FidelitySpec",
    "MissingResult",
    "Results",
    "SectionDoc",
]


class MissingResult(ReproError):
    """A spec's extractor needed a result the artifact does not carry
    (failed spec, wrong section subset, or ``duration_ns: null``)."""


# =====================================================================
# Results: an indexed, extractor-friendly view over results.json
# =====================================================================
class Results:
    """Wraps a ``results.json`` artifact for spec extractors."""

    def __init__(self, artifact: dict):
        self.artifact = artifact
        self.by_id: dict[str, dict | None] = {
            entry["id"]: entry.get("result")
            for entry in artifact.get("results", [])
        }

    @classmethod
    def load(cls, path: str) -> "Results":
        with open(path, encoding="utf-8") as f:
            return cls(json.load(f))

    @property
    def scale(self) -> float:
        return float(self.artifact.get("scale", 1.0))

    @property
    def seed(self) -> int:
        return int(self.artifact.get("seed", 2021))

    @property
    def version(self) -> str:
        return str(self.artifact.get("version", "unknown"))

    def result(self, spec_id: str) -> dict:
        value = self.by_id.get(spec_id)
        if value is None:
            raise MissingResult(f"no result for spec {spec_id!r}")
        return value

    def duration(self, spec_id: str) -> float:
        ns = self.result(spec_id).get("duration_ns")
        if ns is None:
            raise MissingResult(f"{spec_id!r} recorded no duration (crash)")
        return float(ns)

    def ratio(self, numerator_id: str, denominator_id: str) -> float:
        return self.duration(numerator_id) / self.duration(denominator_id)

    def stats(self, spec_id: str) -> dict:
        stats = self.result(spec_id).get("stats")
        if stats is None:
            raise MissingResult(f"{spec_id!r} recorded no stats")
        return stats

    def telemetry(self, spec_id: str) -> dict:
        """The per-spec telemetry summary (``--metrics-dir`` runs only)."""
        summary = (self.artifact.get("telemetry") or {}).get(spec_id)
        if summary is None:
            raise MissingResult(
                f"no telemetry for {spec_id!r} — produce it by re-running "
                f"with --metrics-dir")
        return summary


# =====================================================================
# Spec and section-doc dataclasses
# =====================================================================
@dataclass(frozen=True)
class FidelitySpec:
    """One machine-checked paper claim."""

    id: str                       #: "fig01/lu-collapse"
    section: str                  #: owning figure/table key, e.g. "fig01"
    title: str                    #: one-line statement of the claim
    paper: str                    #: the published value/claim, as text
    extract: Callable[[Results], float]
    band: tuple[float | None, float | None]
    unit: str = ""                #: display unit of the extracted value
    fmt: str = "{:.2f}"           #: display format for measured/band
    quick: bool = True            #: holds at the CI quick scale (0.3)
    deviation: str | None = None  #: key into DEVIATIONS when out of band
    note: str = ""                #: extra context shown in EXPERIMENTS.md

    def in_band(self, value: float) -> bool:
        lo, hi = self.band
        if math.isnan(value):
            return False
        return (lo is None or value >= lo) and (hi is None or value <= hi)

    def band_text(self) -> str:
        lo, hi = self.band
        f = self.fmt.format
        if lo is None and hi is None:
            return "any finite value"
        if lo is None:
            return f"<= {f(hi)}"
        if hi is None:
            return f">= {f(lo)}"
        return f"{f(lo)} .. {f(hi)}"


@dataclass(frozen=True)
class SectionDoc:
    """Per-figure/table metadata for the generated EXPERIMENTS.md."""

    key: str          #: "fig01"
    title: str        #: "Figure 1 — suite overview ..."
    claim: str        #: what the paper reports (prose paragraph)
    note: str = ""    #: reproduction commentary (prose, after the table)


#: Catalog of known deviations from the paper.  A spec that fails its
#: band but names one of these classifies as DEVIATION, not VIOLATION;
#: the generated EXPERIMENTS.md lists every entry.
DEVIATIONS: dict[str, str] = {
    "fig10b-undersubscribed": (
        "**Figure 10(b) at >= 32 cores** — our VB speedup collapses to "
        "~1.1x once the waiters<cores rule reverts to placed wakes; the "
        "paper's speedup keeps rising to 3–5x. Their gain there must come "
        "from parts of the wake path VB removes even when undersubscribed "
        "(bucket-lock / wake_q serialization) that our placed-wake model "
        "still skips only partially."
    ),
    "fig12-average-latency": (
        "**Figure 12 average latency** — our vanilla oversubscribed "
        "average inflates along with the tails (vs the paper's ~6%); the "
        "tail *ratios* and VB's recovery match. Our convoy model is "
        "tail-and-mean, theirs tail-only."
    ),
    "fig13-fifo-residual": (
        "**Figure 13 FIFO residual** — BWD-32T keeps ~2x over the 8T "
        "baseline for strict-FIFO spinlocks (the designated successor "
        "still waits for CPU after spinners are descheduled); the paper "
        "reports near-parity. Competitive locks reproduce parity exactly."
    ),
    "fig0109-magnitude-overshoot": (
        "**Magnitude overshoot for a few Figure 1/9 apps** (ua, "
        "streamcluster, sp ~0.3–0.8 above paper) and a fluidanimate "
        "residual of ~1.3 vs the paper's ~1.17 — our migration-storm "
        "model is somewhat harsher than their hardware at full scale."
    ),
    "fig04-beyond-l2-reach": (
        "**Figure 4 rnd-r beyond 2x the L2-TLB reach** is ~0/slightly "
        "positive instead of negative (the paper's text does not "
        "quantify this region)."
    ),
    "run-lengths": (
        "**Run lengths** — simulations cover 50–500 ms of virtual time "
        "per run vs the paper's 10–500 s, so absolute counters "
        "(migrations, tries) are proportionally smaller; all comparisons "
        "are ratio-based."
    ),
}


# =====================================================================
# Extractor helpers
# =====================================================================
_FIG09_APPS = [
    "fluidanimate", "freqmine", "streamcluster", "lu_cb", "ocean",
    "radix", "is", "cg", "mg", "ft", "sp", "bt", "ua",
]
_FIG09_BEATERS = ["freqmine", "ocean", "cg", "mg"]
_NEUTRAL_APPS = sorted(
    name for name, prof in SUITE.items() if prof.group is Group.NEUTRAL
)
_FIG13_COMPETITIVE = ["pthread", "ttas"]
_FIG13_FIFO = ["alock-ls", "clh", "mcs", "partitioned", "ticket"]
_FIG15_LOCKS = ["pthread", "mutexee", "mcstp", "shfllock"]


def _fig01_ratio(name: str) -> Callable[[Results], float]:
    return lambda r: r.ratio(f"fig01/{name}/32T", f"fig01/{name}/8T")


def _fig01_worst_margin(r: Results) -> float:
    """lu's collapse minus the worst collapse among all other apps."""
    lu = _fig01_ratio("lu")(r)
    rest = max(_fig01_ratio(n)(r) for n in SUITE if n != "lu")
    return lu - rest


def _fig01_neutral_excursion(r: Results) -> float:
    """Largest |32T/8T - 1| across the 11 neutral apps."""
    return max(abs(_fig01_ratio(n)(r) - 1.0) for n in _NEUTRAL_APPS)


def _fig02_flatness(r: Results) -> float:
    base = r.duration("fig02/1T/pure")
    return max(r.duration(f"fig02/{n}T/pure") / base for n in range(1, 9)) - 1.0


def _fig02_atomic_delta(r: Results) -> float:
    return max(
        abs(r.duration(f"fig02/{n}T/atomic") / r.duration(f"fig02/{n}T/pure")
            - 1.0)
        for n in range(1, 9)
    )


def _fig03_interval_us(name: str) -> Callable[[Results], float]:
    """Mean compute interval between blocking syncs.  Only mildly
    scale-dependent (compute shrinks but so does the sync count), so one
    generous band covers the quick and full scales."""
    def extract(r: Results) -> float:
        stats = r.stats(f"fig03/{name}")
        blocks = max(1, stats["blocks"])
        return stats["total_cpu_ns"] / blocks / 1e3
    return extract


def _fig04_series(r: Results, pattern: str) -> dict[int, float]:
    return {int(s): float(c)
            for s, c in r.result(f"fig04/{pattern}")["series"]}


KB = 1024
MB = 1024 * KB


def _fig04_value(pattern: str, size: int) -> Callable[[Results], float]:
    return lambda r: _fig04_series(r, pattern)[size] / 1e3  # -> us


def _fig04_rnd_mid_min(r: Results) -> float:
    series = _fig04_series(r, "rnd-r")
    return min(series[s] for s in (1 * MB, 2 * MB, 4 * MB)) / 1e3


def _fig09_ratio(name: str, setting: str) -> Callable[[Results], float]:
    return lambda r: r.ratio(f"fig09/{name}/{setting}", f"fig09/{name}/8T")


def _fig09_recovery_worst(r: Results) -> float:
    """Worst optimized 32T/8T ratio across the 12 apps VB fully recovers
    (fluidanimate, whose residual is structural, has its own spec)."""
    return max(_fig09_ratio(n, "opt")(r)
               for n in _FIG09_APPS if n != "fluidanimate")


def _fig09_beats_baseline(r: Results) -> float:
    """Worst optimized ratio among the apps the paper says *beat* 8T."""
    return max(_fig09_ratio(n, "opt")(r) for n in _FIG09_BEATERS)


def _fig09_vanilla_worst(r: Results) -> float:
    return max(_fig09_ratio(n, "32T")(r) for n in _FIG09_APPS)


def _fig09_vb_always_helps(r: Results) -> float:
    """Min (vanilla - optimized) ratio gap: > 0 means VB beats vanilla
    oversubscription on every blocking app."""
    return min(_fig09_ratio(n, "32T")(r) - _fig09_ratio(n, "opt")(r)
               for n in _FIG09_APPS)


def _table1_util(setting: str) -> Callable[[Results], float]:
    return lambda r: r.stats(f"fig09/streamcluster/{setting}")[
        "cpu_utilization_pct"]


def _table1_util_restored(r: Results) -> float:
    return _table1_util("opt")(r) - _table1_util("8T")(r)


def _table1_util_collapses(r: Results) -> float:
    return _table1_util("8T")(r) - _table1_util("32T")(r)


def _migrations(stats: dict) -> int:
    return stats["migrations_in_node"] + stats["migrations_cross_node"]


def _table1_migration_storm(r: Results) -> float:
    """Total migrations under 32T vanilla, summed over the 13 apps."""
    return float(sum(_migrations(r.stats(f"fig09/{n}/32T"))
                     for n in _FIG09_APPS))


def _table1_opt_migrations_vs_8t(r: Results) -> float:
    """Worst (opt - 8T) migration count: <= 0 reproduces 'Opt migrates
    no more than the 1:1 baseline' on every app."""
    return float(max(
        _migrations(r.stats(f"fig09/{n}/opt"))
        - _migrations(r.stats(f"fig09/{n}/8T"))
        for n in _FIG09_APPS
    ))


def _fig10a_speedup(prim: str, n: int = 32) -> Callable[[Results], float]:
    return lambda r: r.ratio(f"fig10a/{prim}/{n}T/van",
                             f"fig10a/{prim}/{n}T/opt")


def _fig10b_speedup(prim: str, cores: int) -> Callable[[Results], float]:
    return lambda r: r.ratio(f"fig10b/{prim}/{cores}c/van",
                             f"fig10b/{prim}/{cores}c/opt")


def _fig10b_rises(r: Results) -> float:
    """Condvar speedup growth from 1 to 16 cores (paper: rises to ~5x)."""
    return _fig10b_speedup("cond", 16)(r) / _fig10b_speedup("cond", 1)(r)


def _fig11_exploits_elasticity(r: Results) -> float:
    return r.ratio("fig11/streamcluster/32c/32T(optimized)",
                   "fig11/streamcluster/32c/8T(vanilla)")


def _fig11_never_worse(r: Results) -> float:
    """Worst optimized-32T / vanilla-8T ratio across core counts."""
    return max(
        r.ratio(f"fig11/streamcluster/{c}c/32T(optimized)",
                f"fig11/streamcluster/{c}c/8T(vanilla)")
        for c in (2, 4, 8, 16, 32)
    )


def _fig12_lat(setting: str, cores: int, key: str) -> Callable[[Results], float]:
    return lambda r: r.result(f"fig12/{cores}c/{setting}")["latency"][key]


def _fig12_tail_inflation(r: Results) -> float:
    return (_fig12_lat("16T(vanilla)", 4, "p99")(r)
            / _fig12_lat("4T(vanilla)", 4, "p99")(r))


def _fig12_vb_cuts_tails(r: Results) -> float:
    return 1.0 - (_fig12_lat("16T(optimized)", 4, "p99")(r)
                  / _fig12_lat("16T(vanilla)", 4, "p99")(r))


def _fig12_throughput_kept(r: Results) -> float:
    a = r.result("fig12/4c/16T(optimized)")["throughput_ops"]
    b = r.result("fig12/4c/4T(vanilla)")["throughput_ops"]
    return a / b


def _fig12_mean_inflation(r: Results) -> float:
    return (_fig12_lat("16T(vanilla)", 4, "mean")(r)
            / _fig12_lat("4T(vanilla)", 4, "mean")(r))


def _fig13_ratio(env: str, alg: str, setting: str) -> Callable[[Results], float]:
    return lambda r: r.ratio(f"fig13/{env}/{alg}/{setting}",
                             f"fig13/{env}/{alg}/8T(vanilla)")


def _fig13_all_collapse(r: Results) -> float:
    return min(_fig13_ratio("container", alg, "32T(vanilla)")(r)
               for alg in SPINLOCK_ORDER)


def _fig13_ple_useless(r: Results) -> float:
    return max(
        abs(r.ratio(f"fig13/kvm/{alg}/32T(PLE)",
                    f"fig13/kvm/{alg}/32T(vanilla)") - 1.0)
        for alg in SPINLOCK_ORDER
    )


def _fig13_bwd_worst(algs: list[str]) -> Callable[[Results], float]:
    return lambda r: max(
        _fig13_ratio("container", alg, "32T(optimized)")(r) for alg in algs
    )


def _fig14_ratio(app: str, n: int, setting: str,
                 env: str = "container") -> Callable[[Results], float]:
    return lambda r: r.ratio(f"fig14/{app}/{env}/{n}T/{setting}",
                             f"fig14/{app}/{env}/8T/vanilla")


def _fig14_ple_blind(r: Results) -> float:
    return max(
        abs(r.ratio(f"fig14/{app}/vm/32T/PLE",
                    f"fig14/{app}/vm/32T/vanilla") - 1.0)
        for app in ("lu", "volrend")
    )


def _fig15_cells(r: Results):
    for app in FIG15_APPS:
        for lock in _FIG15_LOCKS:
            yield r.ratio(f"fig15/{app}/{lock}", f"fig15/{app}/optimized")


def _fig15_wins_everywhere(r: Results) -> float:
    return min(_fig15_cells(r))


def _fig15_headline(r: Results) -> float:
    return max(_fig15_cells(r))


def _table2_sensitivity_worst(r: Results) -> float:
    def sens(alg: str) -> float:
        res = r.result(f"table2/{alg}")
        return res["true_positives"] / res["tries"] if res["tries"] else 0.0
    return min(sens(alg) for alg in SPINLOCK_ORDER) * 100.0


def _table3_specificity_worst(r: Results) -> float:
    def spec(name: str) -> float:
        res = r.result(f"table3/{name}")
        if not res["tries"]:
            return 1.0
        return 1.0 - res["false_positives"] / res["tries"]
    return min(spec(name) for name in TABLE3_APPS) * 100.0


def _table3_fp_overhead_worst(r: Results) -> float:
    return max(r.result(f"table3/{n}")["overhead_pct"] for n in TABLE3_APPS)


def _table3_timer_overhead_worst(r: Results) -> float:
    return max(r.result(f"table3/{n}")["timer_overhead_pct"]
               for n in TABLE3_APPS)


# ----- Heavy-traffic serving (beyond the paper) ----------------------
def _serve_latency(r: Results, spec_id: str) -> dict:
    res = r.result(spec_id)
    res = res.get("serve", res)  # colocation nests the serving tenant
    lat = res.get("latency")
    if not lat:
        raise MissingResult(f"{spec_id!r} recorded no latency summary")
    return lat


def _serve_p99(spec_id: str) -> Callable[[Results], float]:
    return lambda r: float(_serve_latency(r, spec_id)["p99"])


def _serve_p99_ratio(num_id: str, den_id: str) -> Callable[[Results], float]:
    def ratio(r: Results) -> float:
        return (float(_serve_latency(r, num_id)["p99"])
                / float(_serve_latency(r, den_id)["p99"]))
    return ratio


def _serve_slo(r: Results, spec_id: str) -> dict:
    res = r.result(spec_id)
    return res.get("serve", res)["slo"]


def _serve_goodput_drop(r: Results) -> float:
    res = r.result("serve/open/1.2x")
    return res["offered_ops"] / res["goodput_ops"]


def _serve_batch_parity(r: Results) -> float:
    opt = r.result("serve/colo/native/optimized")["batch"]
    van = r.result("serve/colo/native/vanilla")["batch"]
    return opt["progress_actions"] / van["progress_actions"]


# ----- Overload resilience (beyond the paper) ------------------------
_SERVE_SATURATION = 300_000.0  # matches repro.workloads.serving


def _serve_resil(r: Results, spec_id: str) -> dict:
    res = r.result(spec_id)
    res = res.get("serve", res)
    resil = res.get("resilience")
    if not resil:
        raise MissingResult(f"{spec_id!r} recorded no resilience block")
    return resil


def _resil_amplification(spec_id: str) -> Callable[[Results], float]:
    return lambda r: float(
        _serve_resil(r, spec_id)["client"]["amplification"])


def _resil_shed_goodput_pct(r: Results) -> float:
    return (r.result("serve/resil/shed")["goodput_ops"]
            / _SERVE_SATURATION * 100.0)


def _resil_crash_ttr_ms(r: Results) -> float:
    rec = _serve_resil(r, "serve/resil/crash").get("recovery") or {}
    ttr = rec.get("time_to_recovery_ms")
    # None = the run never saw a clean SLO window after the fault
    # cleared; inf lands outside any finite band.
    return float("inf") if ttr is None else float(ttr)


def _resil_colo_parity(r: Results) -> float:
    guarded = r.result("serve/resil/colo")["batch"]
    plain = r.result("serve/colo/native/vanilla")["batch"]
    return guarded["progress_actions"] / plain["progress_actions"]


def _resil_identity_pct(r: Results) -> float:
    return float(r.result("serve/resil/identity")["identical_pct"])


# ----- Scheduler telemetry (beyond the paper) ------------------------
def _psi_some_avg(spec_id: str) -> Callable[[Results], float]:
    """Whole-run PSI 'cpu some' fraction of one spec's primary kernel."""
    return lambda r: float(
        r.telemetry(spec_id)["pressure"]["some_avg"])


def _psi_grows_with_ratio(r: Results) -> float:
    """cpu-some at 4x oversubscription minus the 1:1 baseline's."""
    return (_psi_some_avg("fig09/streamcluster/32T")(r)
            - _psi_some_avg("fig09/streamcluster/8T")(r))


# =====================================================================
# The registry
# =====================================================================
def _spec(**kw) -> FidelitySpec:
    return FidelitySpec(**kw)


SPECS: list[FidelitySpec] = [
    # ----- Figure 1 --------------------------------------------------
    _spec(
        id="fig01/lu-collapse", section="fig01",
        title="lu (ad-hoc spin) collapses under 4x oversubscription",
        paper="25.66x", unit="x", extract=_fig01_ratio("lu"),
        band=(12.0, 40.0),
        note="The worst case of the whole suite in both the paper and "
             "the reproduction.",
    ),
    _spec(
        id="fig01/volrend-collapse", section="fig01",
        title="volrend (spin barriers) collapses",
        paper="9.95x", unit="x", extract=_fig01_ratio("volrend"),
        band=(5.0, 16.0),
    ),
    _spec(
        id="fig01/worst-case-is-lu", section="fig01",
        title="lu is the single worst app of the suite (margin over the "
              "runner-up)",
        paper="lu worst", unit="x", extract=_fig01_worst_margin,
        band=(0.0, None),
    ),
    _spec(
        id="fig01/neutral-group-unaffected", section="fig01",
        title="the 11 neutral apps are unaffected (largest |32T/8T - 1|)",
        paper="~1.00x each", unit="", extract=_fig01_neutral_excursion,
        band=(None, 0.15),
    ),
    # ----- Figure 2 --------------------------------------------------
    _spec(
        id="fig02/per-switch-cost", section="fig02",
        title="direct cost of one context switch",
        paper="~1500 ns", unit="ns", extract=lambda r: r.result(
            "fig02/per_switch")["per_switch_ns"],
        fmt="{:.0f}", band=(1000.0, 2000.0),
    ),
    _spec(
        id="fig02/overhead-flat", section="fig02",
        title="total switching overhead, flat in thread count (worst "
              "normalized slowdown)",
        paper="~0.2%", unit="", extract=_fig02_flatness,
        fmt="{:.4f}", band=(-0.005, 0.01),
    ),
    _spec(
        id="fig02/atomic-free", section="fig02",
        title="a shared atomic adds nothing on one core (worst "
              "|atomic/pure - 1|)",
        paper="no effect", unit="", extract=_fig02_atomic_delta,
        fmt="{:.4f}", band=(None, 0.01),
    ),
    # ----- Figure 3 --------------------------------------------------
    _spec(
        id="fig03/facesim-interval", section="fig03",
        title="facesim synchronizes most often, near the paper's minimum "
              "interval",
        paper="160 us", unit="us", extract=_fig03_interval_us("facesim"),
        fmt="{:.0f}", band=(60.0, 260.0),
    ),
    # ----- Figure 4 --------------------------------------------------
    _spec(
        id="fig04/seq-128mb", section="fig04",
        title="seq-r indirect cost climbs to ~1 ms per switch at 128 MB",
        paper="~1000 us", unit="us",
        extract=_fig04_value("seq-r", 128 * MB),
        fmt="{:.0f}", band=(600.0, 1400.0),
    ),
    _spec(
        id="fig04/rnd-negative-at-l1-reach", section="fig04",
        title="rnd-r is clearly negative at 256 KB (inside L1-TLB reach)",
        paper="negative", unit="us",
        extract=_fig04_value("rnd-r", 256 * KB),
        fmt="{:.0f}", band=(None, -10.0),
    ),
    _spec(
        id="fig04/rnd-positive-midrange", section="fig04",
        title="rnd-r turns positive in the 1–4 MB region (min over sizes)",
        paper="positive", unit="us", extract=_fig04_rnd_mid_min,
        fmt="{:.1f}", band=(0.0, None),
    ),
    _spec(
        id="fig04/rnd-rmw-favorable", section="fig04",
        title="rnd-rmw never makes switching look expensive (cost at the "
              "L2-reach knee, 8 MB)",
        paper="always favorable", unit="us",
        extract=_fig04_value("rnd-rmw", 8 * MB),
        fmt="{:.0f}", band=(None, 0.0),
    ),
    # ----- Figure 9 / Table 1 ---------------------------------------
    _spec(
        id="fig09/vanilla-costs", section="fig09",
        title="vanilla oversubscription hurts the worst blocking app by "
              "a large factor",
        paper="up to 2.78x (cholesky excl.), 1.05–1.57x typical",
        unit="x", extract=_fig09_vanilla_worst, band=(1.5, 3.5),
        note="the band is generous on the high side: a few apps (ua, "
             "streamcluster, sp) overshoot the paper's magnitudes — see "
             "the fig0109-magnitude-overshoot catalog entry.",
    ),
    _spec(
        id="fig09/vb-recovers", section="fig09",
        title="VB lands every recoverable app near the 8T baseline "
              "(worst optimized 32T/8T, fluidanimate excluded)",
        paper="~1.0x", unit="x", extract=_fig09_recovery_worst,
        band=(None, 1.1),
    ),
    _spec(
        id="fig09/vb-beats-vanilla-everywhere", section="fig09",
        title="VB beats vanilla at 4x oversubscription on all 13 "
              "blocking apps (min ratio gap)",
        paper="always", unit="", extract=_fig09_vb_always_helps,
        band=(0.0, None),
    ),
    _spec(
        id="fig09/vb-beats-baseline", section="fig09",
        title="VB *beats* the 8T baseline for freqmine, ocean, cg, mg "
              "(worst of the four)",
        paper="< 1.0x", unit="x", extract=_fig09_beats_baseline,
        band=(None, 1.0),
    ),
    _spec(
        id="fig09/fluidanimate-residual", section="fig09",
        title="fluidanimate keeps a residual VB cannot remove (its lock "
              "count scales with threads)",
        paper="~1.17x", unit="x",
        extract=_fig09_ratio("fluidanimate", "opt"),
        band=(1.02, 1.6),
        note="the band reaches past the paper's ~1.17 because our "
             "residual runs ~1.3 — see fig0109-magnitude-overshoot in "
             "the deviation catalog.",
    ),
    _spec(
        id="table1/utilization-collapses", section="table1",
        title="32T vanilla loses CPU utilization vs 8T (streamcluster, "
              "percentage points lost)",
        paper="725 -> 542 of 800", unit="pp",
        extract=_table1_util_collapses, fmt="{:.0f}", band=(50.0, None),
    ),
    _spec(
        id="table1/utilization-restored", section="table1",
        title="Opt restores utilization to at least the 8T baseline "
              "(streamcluster, Opt - 8T)",
        paper=">= 8T", unit="pp", extract=_table1_util_restored,
        fmt="{:.0f}", band=(-10.0, None),
    ),
    _spec(
        id="table1/migration-storm", section="table1",
        title="32T vanilla migrates heavily (total over the 13 apps)",
        paper="orders of magnitude over 8T", unit="migrations",
        extract=_table1_migration_storm, fmt="{:.0f}", band=(100.0, None),
        note="Absolute counts are ~1000x below the paper's because runs "
             "are that much shorter; see the run-lengths deviation.",
    ),
    _spec(
        id="table1/opt-migrates-no-more-than-8t", section="table1",
        title="Opt migrates no more than the 1:1 baseline on every app "
              "(worst Opt - 8T)",
        paper="near-eliminated", unit="migrations",
        extract=_table1_opt_migrations_vs_8t, fmt="{:.0f}",
        band=(None, 0.0),
    ),
    # ----- Figure 10 -------------------------------------------------
    _spec(
        id="fig10a/barrier", section="fig10",
        title="VB speeds up the barrier at 32 threads on one core",
        paper="1.52x", unit="x", extract=_fig10a_speedup("barrier"),
        band=(1.1, 2.2),
    ),
    _spec(
        id="fig10a/condvar", section="fig10",
        title="VB speeds up the condvar broadcast most",
        paper="2.34x", unit="x", extract=_fig10a_speedup("cond"),
        band=(1.5, 4.5),
    ),
    _spec(
        id="fig10a/mutex", section="fig10",
        title="1:1 mutex handoffs gain little",
        paper="~1x", unit="x", extract=_fig10a_speedup("mutex"),
        band=(0.85, 1.45),
    ),
    _spec(
        id="fig10b/speedup-rises-with-cores", section="fig10",
        title="the condvar speedup rises with core count (16c over 1c)",
        paper="rises to ~5x", unit="x", extract=_fig10b_rises,
        band=(1.2, None),
    ),
    _spec(
        id="fig10b/undersubscribed", section="fig10",
        title="the speedup persists at 32 cores (no oversubscription)",
        paper="~3–5x", unit="x", extract=_fig10b_speedup("cond", 32),
        band=(2.0, None), deviation="fig10b-undersubscribed",
    ),
    # ----- Figure 11 -------------------------------------------------
    _spec(
        id="fig11/exploits-elasticity", section="fig11",
        title="32 threads exploit added cores where 8 threads cannot "
              "(streamcluster, 32T-opt / 8T at 32 cores)",
        paper="large gain", unit="x", extract=_fig11_exploits_elasticity,
        band=(None, 0.75),
    ),
    _spec(
        id="fig11/never-worse", section="fig11",
        title="with VB, 32T is never worse than 8T at any core count "
              "(worst ratio)",
        paper="<= 1.0x", unit="x", extract=_fig11_never_worse,
        band=(None, 1.05),
    ),
    # ----- Figure 12 -------------------------------------------------
    _spec(
        id="fig12/tails-inflate", section="fig12",
        title="vanilla oversubscription inflates memcached p99 at 4x "
              "oversubscription",
        paper="~8x", unit="x", extract=_fig12_tail_inflation,
        band=(4.0, 40.0),
    ),
    _spec(
        id="fig12/vb-cuts-tails", section="fig12",
        title="VB cuts the inflated p99 tail",
        paper="-60% (p99)", unit="", extract=_fig12_vb_cuts_tails,
        band=(0.5, 1.0),
    ),
    _spec(
        id="fig12/throughput-kept", section="fig12",
        title="VB tracks the best configuration's throughput",
        paper="~-5.6% worst", unit="x", extract=_fig12_throughput_kept,
        band=(0.9, None),
    ),
    _spec(
        id="fig12/average-inflates-too", section="fig12",
        title="vanilla average latency stays near the baseline",
        paper="~6% increase", unit="x", extract=_fig12_mean_inflation,
        band=(None, 1.3), deviation="fig12-average-latency",
    ),
    # ----- Figure 13 -------------------------------------------------
    _spec(
        id="fig13/all-collapse", section="fig13",
        title="every spinlock collapses under 32T vanilla (best-behaved "
              "lock's 32T/8T)",
        paper=">= 2x each", unit="x", extract=_fig13_all_collapse,
        band=(1.7, None),
    ),
    _spec(
        id="fig13/ple-useless", section="fig13",
        title="PLE does not help any of the ten locks (worst "
              "|PLE/vanilla - 1|)",
        paper="identical", unit="", extract=_fig13_ple_useless,
        fmt="{:.3f}", band=(None, 0.02),
    ),
    _spec(
        id="fig13/bwd-rescues-competitive", section="fig13",
        title="BWD restores competitive locks (pthread, ttas) to the 8T "
              "baseline",
        paper="~1x", unit="x",
        extract=_fig13_bwd_worst(_FIG13_COMPETITIVE), band=(None, 1.3),
    ),
    _spec(
        id="fig13/bwd-fifo-parity", section="fig13",
        title="BWD restores the strict-FIFO locks to the 8T baseline",
        paper="~1x", unit="x", extract=_fig13_bwd_worst(_FIG13_FIFO),
        band=(None, 1.3), deviation="fig13-fifo-residual",
    ),
    # ----- Figure 14 -------------------------------------------------
    _spec(
        id="fig14/vanilla-degrades-with-ratio", section="fig14",
        title="lu's ad-hoc spin degrades sharply with the "
              "oversubscription ratio (vanilla 32T/8T)",
        paper="sharp", unit="x", extract=_fig14_ratio("lu", 32, "vanilla"),
        band=(5.0, None),
    ),
    _spec(
        id="fig14/bwd-contains", section="fig14",
        title="BWD contains the damage with overhead growing with the "
              "ratio (optimized 32T over the 8T baseline)",
        paper="~2x at 4x ratio", unit="x",
        extract=_fig14_ratio("lu", 32, "optimized"), band=(1.0, 3.2),
    ),
    _spec(
        id="fig14/ple-blind", section="fig14",
        title="PLE cannot see plain-variable spin loops (worst "
              "|PLE/vanilla - 1| for lu, volrend)",
        paper="identical", unit="", extract=_fig14_ple_blind,
        fmt="{:.3f}", band=(None, 0.02),
    ),
    # ----- Figure 15 -------------------------------------------------
    _spec(
        id="fig15/wins-every-cell", section="fig15",
        title="VB+BWD beats every lock library on every app (min "
              "normalized time)",
        paper="always wins", unit="x", extract=_fig15_wins_everywhere,
        band=(1.0, None),
    ),
    _spec(
        id="fig15/headline-factor", section="fig15",
        title="best-case advantage over a lock library",
        paper="up to 5.4x", unit="x", extract=_fig15_headline,
        band=(3.0, 8.0),
    ),
    # ----- Table 2 ---------------------------------------------------
    _spec(
        id="table2/sensitivity", section="table2",
        title="BWD detects busy-waiting for all ten algorithms (worst "
              "sensitivity)",
        paper="99.76–99.90%", unit="%",
        extract=_table2_sensitivity_worst, band=(99.0, 100.0),
    ),
    # ----- Table 3 ---------------------------------------------------
    _spec(
        id="table3/specificity", section="table3",
        title="BWD rarely fires on real progress (worst specificity)",
        paper="99.38–99.99%", unit="%",
        extract=_table3_specificity_worst, band=(99.0, 100.0),
    ),
    _spec(
        id="table3/fp-overhead", section="table3",
        title="false positives cost almost nothing (worst FP overhead)",
        paper="<= 0.99%", unit="%", extract=_table3_fp_overhead_worst,
        band=(None, 1.2),
    ),
    _spec(
        id="table3/timer-overhead", section="table3",
        title="the 100 us monitoring timer itself is cheap (worst "
              "timer overhead)",
        paper="< 3%", unit="%", extract=_table3_timer_overhead_worst,
        band=(None, 3.0),
    ),
    # ----- Heavy-traffic serving (beyond the paper) ------------------
    # Queueing-theory shape checks, not paper numbers: the paper stops
    # at closed-loop memcached; these pin the open-loop/SLO behavior
    # the serving scenarios add on top.
    _spec(
        id="serve/open-loop-collapse", section="serve",
        title="open-loop p99 collapses past saturation (1.2x vs 0.5x)",
        paper="unbounded growth", unit="x",
        extract=_serve_p99_ratio("serve/open/1.2x", "serve/open/0.5x"),
        fmt="{:.0f}", band=(25.0, None),
        note="Open-loop overload queues without back-pressure, so the "
             "tail grows with the horizon (~760x at the quick scale, "
             "~4200x at 300 ms).",
    ),
    _spec(
        id="serve/open-loop-goodput-drop", section="serve",
        title="past saturation the served rate stops tracking the "
              "offered rate (offered/goodput at 1.2x)",
        paper="> 1", unit="x", extract=_serve_goodput_drop,
        band=(1.1, None),
    ),
    _spec(
        id="serve/slo-clean-under-capacity", section="serve",
        title="no SLO violation windows at half saturation",
        paper="0", unit="windows", fmt="{:.0f}",
        extract=lambda r: float(
            _serve_slo(r, "serve/open/0.5x")["violations"]),
        band=(0.0, 0.0),
    ),
    _spec(
        id="serve/slo-overload-violations", section="serve",
        title="overload is visible in the SLO windows (compliance at "
              "1.2x)",
        paper="collapses", unit="%", fmt="{:.0f}",
        extract=lambda r: float(
            _serve_slo(r, "serve/open/1.2x")["compliance_pct"]),
        band=(None, 60.0),
    ),
    _spec(
        id="serve/burst-tail-amplification", section="serve",
        title="3x bursts at a safe mean rate still wreck the tail "
              "(burst p99 vs steady 0.5x p99)",
        paper="order(s) of magnitude", unit="x",
        extract=_serve_p99_ratio("serve/open/burst", "serve/open/0.5x"),
        fmt="{:.0f}", band=(8.0, None),
        note="The burst schedule has the same 0.5x *mean* rate as the "
             "steady point; only the burstiness differs.",
    ),
    _spec(
        id="serve/closed-loop-graceful", section="serve",
        title="closed-loop overload degrades gracefully (96-connection "
              "p99 stays bounded)",
        paper="bounded by population", unit="us", fmt="{:.0f}",
        extract=_serve_p99("serve/closed/high"),
        band=(None, 5000.0),
        note="The finite client population is the back-pressure the "
             "open loop lacks — same offered load, ~15x smaller tail.",
    ),
    _spec(
        id="serve/ratio-inflates-tail", section="serve",
        title="raising the oversubscription ratio at fixed load "
              "inflates the tail (4x vs 1x workers at 0.9x load)",
        paper="grows with ratio", unit="x",
        extract=_serve_p99_ratio("serve/ratio/4x", "serve/ratio/1x"),
        fmt="{:.0f}", band=(2.0, None),
    ),
    _spec(
        id="serve/colo-vb-cuts-tail", section="serve",
        title="VB+BWD cut the colocated serving tail vs vanilla "
              "(native, vanilla/optimized p99)",
        paper="VB recovers tails (fig12)", unit="x",
        extract=_serve_p99_ratio("serve/colo/native/vanilla",
                                 "serve/colo/native/optimized"),
        band=(1.5, None),
    ),
    _spec(
        id="serve/colo-ple-blind", section="serve",
        title="PLE does not help the colocated tail (vm PLE vs vm "
              "vanilla p99)",
        paper="PLE useless off spinloops", unit="x",
        extract=_serve_p99_ratio("serve/colo/vm/ple",
                                 "serve/colo/vm/vanilla"),
        band=(0.8, 1.25),
    ),
    _spec(
        id="serve/colo-batch-parity", section="serve",
        title="the serving tail win does not starve the batch tenant "
              "(optimized/vanilla batch progress)",
        paper="no batch sacrifice", unit="x",
        extract=_serve_batch_parity, band=(0.9, None),
    ),
    # ----- Overload resilience (beyond the paper) --------------------
    # The serve/resil/* points (docs/resilience.md): retry-storm
    # amplification with and without the Finagle retry budget, admission
    # control restoring goodput under overload, circuit-breaker tail
    # bounds, worker-crash recovery, and the layer's default-off
    # byte-identity guarantee.
    _spec(
        id="serve/resil-storm-amplifies", section="serve",
        title="naive timeouts+retries amplify offered load under "
              "overload (retry-storm attempts/original at 1.2x)",
        paper="retry storms amplify", unit="x",
        extract=_resil_amplification("serve/resil/storm"),
        band=(2.0, None),
        note="Every timed-out request is retried up to 3x with no "
             "budget; past saturation the queue keeps every attempt "
             "past its timeout, so the client multiplies the overload.",
    ),
    _spec(
        id="serve/resil-budget-bounds-storm", section="serve",
        title="a 10% retry budget bounds the same storm "
              "(retry-budget attempts/original at 1.2x)",
        paper="budgets cap amplification", unit="x",
        extract=_resil_amplification("serve/resil/budget"),
        band=(None, 1.2),
    ),
    _spec(
        id="serve/resil-shedding-restores-goodput", section="serve",
        title="bounded-queue admission control restores goodput under "
              "1.2x overload (shed goodput vs saturation)",
        paper="fail fast beats queueing", unit="%", fmt="{:.0f}",
        extract=_resil_shed_goodput_pct, band=(90.0, None),
        note="Without shedding the same point serves ~95% of "
             "saturation with a collapsed tail; rejecting the excess "
             "up front keeps the served requests fast.",
    ),
    _spec(
        id="serve/resil-breaker-bounds-tail", section="serve",
        title="the circuit breaker keeps the overload tail bounded "
              "(breaker preset p999 at 1.2x)",
        paper="fail fast, recover probing", unit="us", fmt="{:.0f}",
        extract=lambda r: float(
            _serve_latency(r, "serve/resil/breaker")["p999"]),
        band=(None, 3000.0),
        note="The unprotected 1.2x point's p999 is ~17000 us at the "
             "quick scale and grows with the horizon.",
    ),
    _spec(
        id="serve/resil-crash-recovery", section="serve",
        title="a crashed worker recovers within a finite window "
              "(time-to-recovery after worker-0 crash, 15 ms dead)",
        paper="finite MTTR", unit="ms", fmt="{:.1f}",
        extract=_resil_crash_ttr_ms, band=(0.0, 60.0),
        note="Time from the fault clearing (restart) to the end of the "
             "first clean SLO window; the retry layer reroutes around "
             "the dead worker meanwhile.",
    ),
    _spec(
        id="serve/resil-colo-batch-unharmed", section="serve",
        title="the full resilience stack does not starve the batch "
              "tenant (guarded/plain colocation batch progress)",
        paper="no batch sacrifice", unit="x",
        extract=_resil_colo_parity, band=(0.8, None),
    ),
    _spec(
        id="serve/resil-default-off-identity", section="serve",
        title="an inactive resilience policy is byte-identical to the "
              "plain serving path",
        paper="zero-cost when off", unit="%", fmt="{:.0f}",
        extract=_resil_identity_pct, band=(100.0, 100.0),
    ),
    # ----- Scheduler policies (beyond the paper) ---------------------
    # The pluggable-policy layer (docs/scheduling.md).  The CFS identity
    # specs pin the tentpole guarantee: routing CFS through the
    # SchedPolicy interface reuses the very cache entries fig02/fig09
    # wrote, so the ratio is exactly 1.0 — any refactor that perturbs
    # CFS scheduling breaks these before it breaks a golden digest.
    _spec(
        id="sched/cfs-identity-1x", section="sched",
        title="CFS through the policy interface is byte-identical at 1x "
              "(sched/cfs/1x vs fig09/streamcluster/8T)",
        paper="n/a (refactor identity)", unit="x", fmt="{:.4f}",
        extract=lambda r: r.ratio("sched/cfs/1x", "fig09/streamcluster/8T"),
        band=(1.0, 1.0),
    ),
    _spec(
        id="sched/cfs-identity-4x", section="sched",
        title="CFS through the policy interface is byte-identical at 4x "
              "(sched/cfs/4x vs fig09/streamcluster/32T)",
        paper="n/a (refactor identity)", unit="x", fmt="{:.4f}",
        extract=lambda r: r.ratio("sched/cfs/4x", "fig09/streamcluster/32T"),
        band=(1.0, 1.0),
    ),
    _spec(
        id="sched/cfs-identity-switch", section="sched",
        title="per-switch direct cost is unchanged under the policy "
              "interface (sched/cfs/switch vs fig02/per_switch)",
        paper="n/a (refactor identity)", unit="x", fmt="{:.4f}",
        extract=lambda r: (
            r.result("sched/cfs/switch")["per_switch_ns"]
            / r.result("fig02/per_switch")["per_switch_ns"]
        ),
        band=(1.0, 1.0),
    ),
    _spec(
        id="sched/eevdf-parity-1x", section="sched",
        title="EEVDF tracks CFS at 1x (no queueing, nothing to reorder)",
        paper="n/a (policy shape)", unit="x",
        extract=lambda r: r.ratio("sched/eevdf/1x", "sched/cfs/1x"),
        band=(0.8, 1.25),
    ),
    _spec(
        id="sched/eevdf-bounded-4x", section="sched",
        title="EEVDF stays within 2x of CFS at 4x oversubscription",
        paper="n/a (policy shape)", unit="x",
        extract=lambda r: r.ratio("sched/eevdf/4x", "sched/cfs/4x"),
        band=(0.5, 2.0),
        note="Deadline ordering reshuffles wakeups but conserves work; "
             "~0.97x at the quick scale.",
    ),
    _spec(
        id="sched/fifo-parity-1x", section="sched",
        title="FIFO-RR tracks CFS at 1x (no queueing, nothing to reorder)",
        paper="n/a (policy shape)", unit="x",
        extract=lambda r: r.ratio("sched/fifo_rr/1x", "sched/cfs/1x"),
        band=(0.8, 1.25),
    ),
    _spec(
        id="sched/fifo-bounded-4x", section="sched",
        title="FIFO-RR stays within 2x of CFS at 4x oversubscription "
              "(equal-nice threads round-robin like CFS)",
        paper="n/a (policy shape)", unit="x",
        extract=lambda r: r.ratio("sched/fifo_rr/4x", "sched/cfs/4x"),
        band=(0.5, 2.0),
        note="With every thread at nice 0 there is one priority class, "
             "so RR approximates CFS's slice rotation; ~0.99x at the "
             "quick scale.",
    ),
    # ----- Scheduler telemetry (beyond the paper) --------------------
    # PSI-style pressure shape checks over the --metrics-dir telemetry
    # (docs/telemetry.md); MISSING (not VIOLATION) for artifacts
    # produced without --metrics-dir.
    _spec(
        id="telemetry/psi-some-oversubscribed", section="telemetry",
        title="4x oversubscription shows sustained CPU pressure "
              "(streamcluster 32T on 8 cores, whole-run 'cpu some')",
        paper="n/a (PSI shape)", unit="", fmt="{:.3f}",
        extract=_psi_some_avg("fig09/streamcluster/32T"),
        band=(0.1, 0.95),
        note="A fraction of wall time with at least one runnable task "
             "waiting for a CPU — ~0.48 at the quick scale.",
    ),
    _spec(
        id="telemetry/psi-grows-with-ratio", section="telemetry",
        title="pressure grows with the oversubscription ratio "
              "(streamcluster 'cpu some', 32T minus 8T)",
        paper="n/a (PSI shape)", unit="", fmt="{:.3f}",
        extract=_psi_grows_with_ratio, band=(0.1, None),
        note="At 1:1 every runnable thread dispatches immediately, so "
             "the baseline pressure is ~0 and the gap is the 32T value.",
    ),
]

_seen: set[str] = set()
for _s in SPECS:
    if _s.id in _seen:  # pragma: no cover - registry sanity
        raise ValueError(f"duplicate FidelitySpec id {_s.id!r}")
    _seen.add(_s.id)
    if _s.deviation is not None and _s.deviation not in DEVIATIONS:
        raise ValueError(  # pragma: no cover - registry sanity
            f"{_s.id}: unknown deviation {_s.deviation!r}")
del _seen


#: Figure/table prose for the generated EXPERIMENTS.md, in paper order.
SECTION_DOCS: list[SectionDoc] = [
    SectionDoc(
        key="fig01",
        title="Figure 1 — suite overview (32T vs 8T on 8 cores, vanilla)",
        claim="Three groups — unaffected, benefiting, suffering; "
              "annotated worst cases 2.78 (cholesky), 9.95 (volrend), "
              "25.66 (lu).",
        note="All three groups reproduce; `lu` is the worst case in "
             "both. Some blocking apps overshoot the paper (see the "
             "deviation catalog).",
    ),
    SectionDoc(
        key="fig02",
        title="Figure 2 — direct cost of context switching",
        claim="Per-switch cost stable at ~1.5 us; total overhead ~0.2%, "
              "flat in thread count; the shared atomic adds nothing on "
              "one core.",
    ),
    SectionDoc(
        key="fig03",
        title="Figure 3 — interval between synchronizations",
        claim="Most apps synchronize no more often than every 1000 us; "
              "minimum 160 us (facesim); CS overhead < 1%.",
        note="The interval shrinks mildly with the workload scale "
             "(compute shrinks but so does the sync count); one band "
             "covers the quick and full scales.",
    ),
    SectionDoc(
        key="fig04",
        title="Figure 4 — indirect cost per context switch "
              "(2 threads, 1 core)",
        claim="seq cost climbs from 512 KB to ~1 ms at 128 MB (<6% "
              "overhead); rnd-r clearly negative at 256–512 KB (L1-TLB "
              "reach), positive 1–4 MB, negative again beyond 4 MB "
              "(L2-TLB reach); rnd-rmw always favorable.",
        note="Every knee lands where the paper's TLB-reach arithmetic "
             "(64 x 4 KB = 256 KB, 1536 x 4 KB ~ 6 MB) puts it.",
    ),
    SectionDoc(
        key="fig09",
        title="Figure 9 — virtual blocking on the 13 blocking apps",
        claim="Vanilla oversubscription costs 5.5–56.7%; VB lands near "
              "the 8T baseline (gain up to 77%); VB *beats* the baseline "
              "for freqmine, ocean, cg, mg; fluidanimate keeps ~17% "
              "residual (its lock count scales with threads).",
    ),
    SectionDoc(
        key="table1",
        title="Table 1 — runtime statistics",
        claim="32T vanilla loses utilization (e.g. streamcluster "
              "725 -> 542 of 800) and migrates orders of magnitude more; "
              "Opt restores utilization (>= 8T) and near-eliminates "
              "migrations.",
        note="Measured from the same runs as Figure 9 (the sections "
             "share their specs).",
    ),
    SectionDoc(
        key="fig10",
        title="Figure 10 — VB on pthreads primitives",
        claim="(a) 32 threads on 1 core: barrier 1.52x, condvar 2.34x, "
              "mutex ~1x. (b) 32 threads on 1–32 cores: rises to ~3x "
              "(barrier) / ~5x (condvar).",
        note="Same ordering, same 'group wakeups benefit, 1:1 does not' "
             "conclusion.",
    ),
    SectionDoc(
        key="fig11",
        title="Figure 11 — exploiting CPU elasticity",
        claim="32 threads exploit added cores where 8 threads cannot; "
              "with VB, 32T is never worse than 8T; pinning cannot adapt "
              "and crashes when cores shrink.",
        note="Shrinking CPUs under a pinned run raises the paper's "
             "'programs crashed' behavior (`examples/elastic_scaling.py`).",
    ),
    SectionDoc(
        key="fig12",
        title="Figure 12 — memcached",
        claim="Oversubscription (16 workers) costs only ~6% average "
              "latency and ~5.6% throughput, but 8x p95/p99 tails; VB "
              "cuts tails by 92%/60% and tracks the best config as cores "
              "scale.",
    ),
    SectionDoc(
        key="fig13",
        title="Figure 13 — ten spinlocks (pipeline micro-benchmark)",
        claim="Every algorithm collapses under 32T vanilla; PLE (KVM) "
              "does not help; BWD-32T ~ vanilla-8T.",
    ),
    SectionDoc(
        key="fig14",
        title="Figure 14 — user-customized spinning (lu, volrend)",
        claim="Vanilla degrades sharply with the oversubscription ratio; "
              "PLE can't see the plain-variable loops; BWD contains the "
              "damage with an overhead that grows with the ratio.",
    ),
    SectionDoc(
        key="fig15",
        title="Figure 15 — vs SHFLLOCK / Mutexee / MCS-TP (32T on 8 cores)",
        claim="The lock libraries still collapse (their parking is "
              "vanilla futex); SHFLLOCK can be worst (NUMA-clustered "
              "wakeups, no bulk-wake optimization); VB+BWD up to 5.4x "
              "more efficient.",
    ),
    SectionDoc(
        key="table2",
        title="Table 2 — BWD sensitivity",
        claim="99.76–99.90% over ~56 k tries per lock.",
        note="All ten algorithms — including the PAUSE-less ones PLE "
             "cannot see — detected.",
    ),
    SectionDoc(
        key="table3",
        title="Table 3 — BWD specificity and overhead",
        claim="Specificity 99.38–99.99%; FP overhead <= 0.99%; timer "
              "overhead < 3%.",
    ),
    SectionDoc(
        key="serve",
        title="Heavy-traffic serving — open-loop bursts, SLOs, "
              "colocation (beyond the paper)",
        claim="Not in the paper: open-loop arrivals past saturation "
              "collapse the tail and the goodput while a closed loop "
              "only degrades gracefully; 3x bursts at a safe mean rate "
              "still violate the SLO; under colocation with a batch "
              "tenant, VB+BWD recover the serving tail without "
              "sacrificing batch progress, and PLE is blind to it. "
              "The serve/resil/* points add the overload-control story: "
              "unbudgeted retries amplify overload, retry budgets and "
              "admission control contain it, the circuit breaker bounds "
              "the tail, and a crashed worker recovers in finite time — "
              "all opt-in, byte-identical to the plain path when off.",
        note="These extend Figure 12's closed-loop memcached story to "
             "the open-loop/SLO regime real serving fleets run in "
             "(`docs/serving.md`, `docs/resilience.md`). Bands encode "
             "queueing-theory shape, not paper numbers.",
    ),
    SectionDoc(
        key="sched",
        title="Scheduler policies — CFS vs EEVDF vs FIFO-RR "
              "(beyond the paper)",
        claim="Not in the paper: the scheduler's decision points are a "
              "pluggable SchedPolicy interface (docs/scheduling.md). "
              "CFS through the interface is bit-identical to the "
              "pre-refactor scheduler (it reuses fig02/fig09's cache "
              "entries, ratio exactly 1.0); EEVDF and FIFO-RR run the "
              "same workload invariant-clean within a bounded band of "
              "CFS, and at 1x — where no runqueue ever holds a waiter — "
              "every policy converges on the same schedule.",
        note="Mechanism (VB sentinel keys, BWD vruntime pushes, "
             "migration, hot-plug) is shared by every policy; only "
             "ordering, placement, preemption, and slicing are "
             "delegated. The `--policy` flag selects the process-wide "
             "default; these specs pin each policy explicitly.",
    ),
    SectionDoc(
        key="telemetry",
        title="Scheduler telemetry — PSI pressure under oversubscription "
              "(beyond the paper)",
        claim="Not in the paper: the kernel's always-on schedstats feed "
              "a PSI-style 'cpu some/full' pressure signal; "
              "oversubscribed runs show sustained pressure that grows "
              "with the thread:core ratio, and the 1:1 baseline shows "
              "~none.",
        note="Evaluated from the `telemetry` block a `--metrics-dir` "
             "run attaches to the results artifact (`docs/telemetry.md`); "
             "without it these classify as MISSING, never VIOLATION.",
    ),
]

_doc_keys = [d.key for d in SECTION_DOCS]
for _s in SPECS:
    if _s.section not in _doc_keys:  # pragma: no cover - registry sanity
        raise ValueError(f"{_s.id}: unknown section {_s.section!r}")
del _doc_keys
