"""Every figure and table of the paper, on top of the parallel runner.

Decomposes every figure/table of the paper into independent
:class:`~repro.runners.parallel.ExperimentSpec`s, fans them out through a
:class:`~repro.runners.parallel.ParallelRunner`, and renders each section's
table — byte-identical for a fixed seed regardless of ``--jobs`` or cache
state, because results are merged in spec order and every simulation is
deterministic.  This is the only code path that computes a paper figure.

``benchmarks/run_all.py``, ``python -m repro all`` and the per-section
commands (``repro fig01`` … ``repro table3``, ``repro sched``,
``repro serve``) are thin wrappers over :func:`run_full_report`;
:func:`add_report_flags` keeps their flag sets identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, TextIO

from .. import __version__
from ..exitcodes import EXIT_FIDELITY_VIOLATION, EXIT_PARTIAL
from ..hw.memmodel import AccessPattern
from ..metrics.stats import LatencySummary
from ..workloads.profiles import SUITE, SyncKind, fig9_profiles
from ..workloads.serving import SATURATION_RATE
from .parallel import (
    DEFAULT_CACHE_DIR,
    DEFAULT_TIMEOUT_S,
    ExperimentSpec,
    ParallelRunner,
    optimized_desc,
    ple_desc,
    suite_opt_desc,
    vanilla_desc,
)
from .report import format_table

KB = 1024
MB = 1024 * KB

QUICK_SCALE = 0.3

SPINLOCK_ORDER = [
    "alock-ls", "clh", "malth", "mcs", "partitioned",
    "pthread", "ticket", "ttas", "cna", "aqs",
]

FIG11_APPS = ["ep", "facesim", "streamcluster", "ocean", "cg"]
FIG15_APPS = ["freqmine", "streamcluster", "lu_cb", "ocean", "radix"]
TABLE3_APPS = ["is", "ep", "cg", "mg", "ft", "sp", "bt", "ua"]

FIG04_SIZES = [
    64 * KB, 128 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB,
    8 * MB, 16 * MB, 32 * MB, 64 * MB, 128 * MB,
]


def resolve_scale(scale: float | None, quick: bool,
                  warn: TextIO | None = None) -> float:
    """``--quick`` is only a *default* for the workload scale.

    An explicit ``--scale`` always wins; passing both is flagged as a
    conflict (previously ``--quick`` silently discarded the user's
    ``--scale``).
    """
    if scale is not None:
        if quick and scale != QUICK_SCALE and warn is not None:
            print(
                f"warning: --scale {scale} overrides the --quick default "
                f"({QUICK_SCALE})",
                file=warn,
            )
        return scale
    return QUICK_SCALE if quick else 1.0


@dataclass(frozen=True)
class ReportParams:
    scale: float
    quick: bool
    seed: int = 2021


# =====================================================================
# Sections: spec builder + renderer per figure/table
# =====================================================================
def _specs_fig01(p: ReportParams) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            id=f"fig01/{name}/{n}T",
            runner="suite_point",
            params={"name": name, "nthreads": n,
                    "config": vanilla_desc(8, p.seed),
                    "work_scale": p.scale},
            seed=p.seed,
        )
        for name in SUITE
        for n in (8, 32)
    ]


@dataclass(frozen=True)
class Fig1Row:
    name: str
    group: str
    t8_ns: int
    t32_ns: int
    paper_ratio: float

    @property
    def ratio(self) -> float:
        return self.t32_ns / self.t8_ns


def _render_fig01(p: ReportParams, res: dict, out: TextIO) -> None:
    rows = [
        Fig1Row(
            name=name,
            group=SUITE[name].group.value,
            t8_ns=res[f"fig01/{name}/8T"]["duration_ns"],
            t32_ns=res[f"fig01/{name}/32T"]["duration_ns"],
            paper_ratio=SUITE[name].fig1_expected,
        )
        for name in SUITE
    ]
    print(format_table(
        ["benchmark", "group", "32T/8T (sim)", "32T/8T (paper)"],
        [[r.name, r.group, r.ratio, r.paper_ratio] for r in rows],
    ), file=out)


def _specs_fig02(p: ReportParams) -> list[ExperimentSpec]:
    cfg = vanilla_desc(1, p.seed)
    specs = [
        ExperimentSpec(
            id=f"fig02/{n}T/{'atomic' if atomic else 'pure'}",
            runner="direct_cost",
            params={"nthreads": n, "config": cfg,
                    "total_work_ms": 30.0, "atomic": atomic},
            seed=p.seed,
        )
        for n in range(1, 9)
        for atomic in (False, True)
    ]
    specs.append(ExperimentSpec(
        id="fig02/per_switch",
        runner="per_switch",
        params={"nthreads": 8, "config": cfg},
        seed=p.seed,
    ))
    return specs


def _render_fig02(p: ReportParams, res: dict, out: TextIO) -> None:
    def norm(n: int, kind: str) -> float:
        return (res[f"fig02/{n}T/{kind}"]["duration_ns"]
                / res[f"fig02/1T/{kind}"]["duration_ns"])

    print(format_table(
        ["threads", "pure (norm)", "atomic (norm)"],
        [[n, norm(n, "pure"), norm(n, "atomic")] for n in range(1, 9)],
        float_fmt="{:.4f}",
    ), file=out)
    per_switch = res["fig02/per_switch"]["per_switch_ns"]
    print(f"per-switch cost: {per_switch:.0f} ns (paper: ~1500 ns)", file=out)


def _fig03_names() -> list[str]:
    return [name for name, prof in SUITE.items()
            if prof.kind is not SyncKind.SPIN_WAVEFRONT]


def _specs_fig03(p: ReportParams) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            id=f"fig03/{name}",
            runner="suite_point",
            params={"name": name, "nthreads": SUITE[name].optimal_threads,
                    "config": vanilla_desc(32, p.seed),
                    "work_scale": min(p.scale, 0.5)},
            seed=p.seed,
        )
        for name in _fig03_names()
    ]


def fig03_histogram(
    intervals_us: list[float], bin_us: float = 100.0, max_us: float = 1000.0
) -> list[tuple[str, int]]:
    """The paper's histogram: number of programs per interval bucket."""
    nbins = int(max_us / bin_us)
    counts = [0] * (nbins + 1)
    for interval in intervals_us:
        counts[min(nbins, int(interval / bin_us))] += 1
    labels = [f"{int(i * bin_us)}-{int((i + 1) * bin_us)}" for i in range(nbins)]
    labels.append(f">={int(max_us)}")
    return list(zip(labels, counts))


def fig03_intervals_us(res: dict) -> list[float]:
    """Per program: CPU time divided by blocking syncs, in microseconds."""
    intervals = []
    for name in _fig03_names():
        stats = res[f"fig03/{name}"]["stats"]
        intervals.append(stats["total_cpu_ns"] / max(1, stats["blocks"]) / 1e3)
    return intervals


def _render_fig03(p: ReportParams, res: dict, out: TextIO) -> None:
    print(format_table(
        ["bucket (us)", "# programs"], fig03_histogram(fig03_intervals_us(res)),
    ), file=out)


def _specs_fig04(p: ReportParams) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            id=f"fig04/{pattern.value}",
            runner="indirect_cost",
            params={"pattern": pattern.value, "sizes_bytes": FIG04_SIZES,
                    "nthreads": 2},
            seed=p.seed,
        )
        for pattern in AccessPattern
    ]


def _render_fig04(p: ReportParams, res: dict, out: TextIO) -> None:
    f4 = {
        pattern.value: [tuple(pair) for pair in
                        res[f"fig04/{pattern.value}"]["series"]]
        for pattern in AccessPattern
    }
    sizes = [s for s, _ in f4["seq-r"]]
    print(format_table(
        ["size"] + list(f4),
        [
            [f"{s // KB}KB" if s < MB else f"{s // MB}MB"]
            + [dict(f4[pat])[s] / 1000 for pat in f4]
            for s in sizes
        ],
        float_fmt="{:.1f}",
    ), file=out)


_FIG09_SETTINGS = ("8T", "32T", "opt")


def _specs_fig09(p: ReportParams) -> list[ExperimentSpec]:
    specs = []
    for prof in fig9_profiles():
        van = vanilla_desc(8, p.seed)
        opt = suite_opt_desc(prof.name, 8, p.seed)
        for label, nthreads, cfg in (
            ("8T", 8, van), ("32T", 32, van), ("opt", 32, opt),
        ):
            specs.append(ExperimentSpec(
                id=f"fig09/{prof.name}/{label}",
                runner="suite_point",
                params={"name": prof.name, "nthreads": nthreads,
                        "config": cfg, "work_scale": p.scale},
                seed=p.seed,
            ))
    return specs


@dataclass(frozen=True)
class Fig9Row:
    name: str
    t8_vanilla_ns: int
    t32_vanilla_ns: int
    t32_optimized_ns: int
    util_8t: float
    util_32t: float
    util_opt: float
    migr_in_8t: int
    migr_in_32t: int
    migr_in_opt: int
    migr_cross_8t: int
    migr_cross_32t: int
    migr_cross_opt: int

    @property
    def vanilla_ratio(self) -> float:
        return self.t32_vanilla_ns / self.t8_vanilla_ns

    @property
    def optimized_ratio(self) -> float:
        return self.t32_optimized_ns / self.t8_vanilla_ns


def fig09_row(res: dict, name: str) -> Fig9Row:
    """One Figure 9 / Table 1 row from an app's 8T, 32T and opt results."""
    r = {label: res[f"fig09/{name}/{label}"] for label in _FIG09_SETTINGS}
    s8, s32, sop = (r[k]["stats"] for k in _FIG09_SETTINGS)
    return Fig9Row(
        name=name,
        t8_vanilla_ns=r["8T"]["duration_ns"],
        t32_vanilla_ns=r["32T"]["duration_ns"],
        t32_optimized_ns=r["opt"]["duration_ns"],
        util_8t=s8["cpu_utilization_pct"],
        util_32t=s32["cpu_utilization_pct"],
        util_opt=sop["cpu_utilization_pct"],
        migr_in_8t=s8["migrations_in_node"],
        migr_in_32t=s32["migrations_in_node"],
        migr_in_opt=sop["migrations_in_node"],
        migr_cross_8t=s8["migrations_cross_node"],
        migr_cross_32t=s32["migrations_cross_node"],
        migr_cross_opt=sop["migrations_cross_node"],
    )


def _render_fig09(p: ReportParams, res: dict, out: TextIO) -> None:
    rows = [fig09_row(res, prof.name) for prof in fig9_profiles()]

    def wake_p99_us(stats: dict) -> str:
        hist = (stats.get("extra") or {}).get("hist:wakeup_latency_ns")
        return f"{hist['p99'] / 1e3:.0f}" if hist else "-"

    wake_cols = [
        "/".join(wake_p99_us(res[f"fig09/{r.name}/{k}"]["stats"])
                 for k in _FIG09_SETTINGS)
        for r in rows
    ]
    print(format_table(
        ["app", "32T/8T vanilla", "32T/8T optimized", "util 8T/32T/Opt",
         "in-migr 8T/32T/Opt", "x-migr 8T/32T/Opt",
         "wake p99 8T/32T/Opt (us)"],
        [
            [
                r.name, r.vanilla_ratio, r.optimized_ratio,
                f"{r.util_8t:.0f}/{r.util_32t:.0f}/{r.util_opt:.0f}",
                f"{r.migr_in_8t}/{r.migr_in_32t}/{r.migr_in_opt}",
                f"{r.migr_cross_8t}/{r.migr_cross_32t}/{r.migr_cross_opt}",
                wake,
            ]
            for r, wake in zip(rows, wake_cols)
        ],
    ), file=out)


_FIG10_PRIMS = ("mutex", "cond", "barrier")
_FIG10_COUNTS = (1, 2, 4, 8, 16, 32)
_FIG10_ITERS = 1_000


def _specs_fig10(p: ReportParams) -> list[ExperimentSpec]:
    specs = []
    for prim in _FIG10_PRIMS:
        for n in _FIG10_COUNTS:  # part (a): varying threads on one core
            for variant, cfg in (
                ("van", vanilla_desc(1, p.seed)),
                ("opt", optimized_desc(1, p.seed, bwd=False)),
            ):
                specs.append(ExperimentSpec(
                    id=f"fig10a/{prim}/{n}T/{variant}",
                    runner="primitive",
                    params={"primitive": prim, "nthreads": n, "config": cfg,
                            "iterations": _FIG10_ITERS},
                    seed=p.seed,
                ))
        for c in _FIG10_COUNTS:  # part (b): 32 threads on varying cores
            for variant, cfg in (
                ("van", vanilla_desc(c, p.seed)),
                ("opt", optimized_desc(c, p.seed, bwd=False)),
            ):
                specs.append(ExperimentSpec(
                    id=f"fig10b/{prim}/{c}c/{variant}",
                    runner="primitive",
                    params={"primitive": prim, "nthreads": 32, "config": cfg,
                            "iterations": _FIG10_ITERS},
                    seed=p.seed,
                ))
    return specs


@dataclass(frozen=True)
class Fig10Row:
    primitive: str
    nthreads: int
    cores: int
    vanilla_ns: int
    optimized_ns: int

    @property
    def speedup(self) -> float:
        return self.vanilla_ns / self.optimized_ns


def _render_fig10(p: ReportParams, res: dict, out: TextIO) -> None:
    part_a = [
        Fig10Row(prim, n, 1,
                 res[f"fig10a/{prim}/{n}T/van"]["duration_ns"],
                 res[f"fig10a/{prim}/{n}T/opt"]["duration_ns"])
        for prim in _FIG10_PRIMS for n in _FIG10_COUNTS
    ]
    part_b = [
        Fig10Row(prim, 32, c,
                 res[f"fig10b/{prim}/{c}c/van"]["duration_ns"],
                 res[f"fig10b/{prim}/{c}c/opt"]["duration_ns"])
        for prim in _FIG10_PRIMS for c in _FIG10_COUNTS
    ]
    print(format_table(
        ["primitive", "threads", "speedup (1 core)"],
        [[r.primitive, r.nthreads, r.speedup] for r in part_a],
    ), file=out)
    print(format_table(
        ["primitive", "cores", "speedup (32 threads)"],
        [[r.primitive, r.cores, r.speedup] for r in part_b],
    ), file=out)


_FIG11_CORES = (2, 4, 8, 16, 32)
_FIG11_SETTINGS = ("#core-T(vanilla)", "8T(vanilla)", "32T(vanilla)",
                   "32T(pinned)", "32T(optimized)")


def _fig11_point(p: ReportParams, app: str, cores: int,
                 setting: str) -> ExperimentSpec:
    if setting == "#core-T(vanilla)":
        nthreads, cfg, pinned = cores, vanilla_desc(cores, p.seed), False
    elif setting == "8T(vanilla)":
        nthreads, cfg, pinned = 8, vanilla_desc(cores, p.seed), False
    elif setting == "32T(vanilla)":
        nthreads, cfg, pinned = 32, vanilla_desc(cores, p.seed), False
    elif setting == "32T(pinned)":
        nthreads, cfg, pinned = 32, vanilla_desc(cores, p.seed), True
    else:  # 32T(optimized)
        nthreads, cfg, pinned = 32, suite_opt_desc(app, cores, p.seed), False
    return ExperimentSpec(
        id=f"fig11/{app}/{cores}c/{setting}",
        runner="suite_point",
        params={"name": app, "nthreads": nthreads, "config": cfg,
                "work_scale": min(p.scale, 0.5), "pinned": pinned,
                "crash_ok": True},
        seed=p.seed,
    )


def _specs_fig11(p: ReportParams) -> list[ExperimentSpec]:
    return [
        _fig11_point(p, app, c, s)
        for app in FIG11_APPS
        for c in _FIG11_CORES
        for s in _FIG11_SETTINGS
    ]


def _render_fig11(p: ReportParams, res: dict, out: TextIO) -> None:
    def cell(app: str, cores: int, setting: str) -> str:
        ns = res[f"fig11/{app}/{cores}c/{setting}"]["duration_ns"]
        return "crash" if ns is None else f"{ns / 1e6:.1f}"

    for app in FIG11_APPS:
        print(format_table(
            ["cores", "#core-T", "8T", "32T", "32T pin", "32T opt"],
            [[c] + [cell(app, c, s) for s in _FIG11_SETTINGS]
             for c in _FIG11_CORES],
            title=app,
        ), file=out)


_FIG12_CORES = (4, 8, 16)
_FIG12_DURATION_MS = 400.0


def _fig12_settings(p: ReportParams, cores: int):
    return [
        ("4T(vanilla)", vanilla_desc(cores, p.seed), 4),
        ("16T(vanilla)", vanilla_desc(cores, p.seed), 16),
        ("16T(optimized)", optimized_desc(cores, p.seed, bwd=False), 16),
    ]


def _specs_fig12(p: ReportParams) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            id=f"fig12/{c}c/{label}",
            runner="memcached",
            params={"config": cfg, "workers": workers,
                    "duration_ms": _FIG12_DURATION_MS},
            seed=p.seed,
        )
        for c in _FIG12_CORES
        for label, cfg, workers in _fig12_settings(p, c)
    ]


def _render_fig12(p: ReportParams, res: dict, out: TextIO) -> None:
    rows = []
    for c in _FIG12_CORES:
        for label, _, _ in _fig12_settings(p, c):
            r = res[f"fig12/{c}c/{label}"]
            lat = LatencySummary(**r["latency"])
            rows.append((c, label, r["throughput_ops"], lat))
    print(format_table(
        ["cores", "setting", "kops/s", "avg us", "p95 us", "p99 us"],
        [
            [c, label, ops / 1e3, lat.mean, lat.p95, lat.p99]
            for c, label, ops, lat in rows
        ],
        float_fmt="{:.1f}",
    ), file=out)


_FIG13_STAGES = 960


def _fig13_settings(p: ReportParams, env: str):
    mode = "vm" if env == "kvm" else "container"
    settings = [
        ("8T(vanilla)", vanilla_desc(8, p.seed, mode=mode), 8),
        ("32T(vanilla)", vanilla_desc(8, p.seed, mode=mode), 32),
    ]
    if env == "kvm":
        settings.append(("32T(PLE)", ple_desc(8, p.seed), 32))
    settings.append(
        ("32T(optimized)", optimized_desc(8, p.seed, mode=mode, vb=False), 32)
    )
    return settings


def _specs_fig13(p: ReportParams) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            id=f"fig13/{env}/{alg}/{label}",
            runner="spin_pipeline",
            params={"algorithm": alg, "nthreads": nthreads, "config": cfg,
                    "total_stages": _FIG13_STAGES},
            seed=p.seed,
        )
        for env in ("container", "kvm")
        for alg in SPINLOCK_ORDER
        for label, cfg, nthreads in _fig13_settings(p, env)
    ]


def _render_fig13(p: ReportParams, res: dict, out: TextIO) -> None:
    for env in ("container", "kvm"):
        settings = ["8T(vanilla)", "32T(vanilla)"]
        if env == "kvm":
            settings.append("32T(PLE)")
        settings.append("32T(optimized)")
        print(format_table(
            ["lock"] + settings,
            [
                [alg] + [
                    res[f"fig13/{env}/{alg}/{s}"]["duration_ns"] / 1e6
                    for s in settings
                ]
                for alg in SPINLOCK_ORDER
            ],
            title=env,
            float_fmt="{:.1f}",
        ), file=out)


_FIG14_APPS = ("lu", "volrend")
_FIG14_THREADS = (8, 16, 32)


def _fig14_settings(p: ReportParams, env: str):
    mode = "vm" if env == "vm" else "container"
    settings = [("vanilla", vanilla_desc(8, p.seed, mode=mode))]
    if env == "vm":
        settings.append(("PLE", ple_desc(8, p.seed)))
    settings.append(
        ("optimized", optimized_desc(8, p.seed, mode=mode, vb=False))
    )
    return settings


def _specs_fig14(p: ReportParams) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            id=f"fig14/{app}/{env}/{n}T/{label}",
            runner="suite_point",
            params={"name": app, "nthreads": n, "config": cfg,
                    "work_scale": min(p.scale, 0.5)},
            seed=p.seed,
        )
        for app in _FIG14_APPS
        for env in ("container", "vm")
        for n in _FIG14_THREADS
        for label, cfg in _fig14_settings(p, env)
    ]


def _render_fig14(p: ReportParams, res: dict, out: TextIO) -> None:
    for app in _FIG14_APPS:
        for env in ("container", "vm"):
            have = {label for label, _ in _fig14_settings(p, env)}
            print(format_table(
                ["threads", "vanilla", "PLE", "optimized"],
                [
                    [n] + [
                        "n/a" if s not in have else
                        f"{res[f'fig14/{app}/{env}/{n}T/{s}']['duration_ns'] / 1e6:.1f}"
                        for s in ("vanilla", "PLE", "optimized")
                    ]
                    for n in _FIG14_THREADS
                ],
                title=f"{app} ({env})",
            ), file=out)


_FIG15_LOCKS = ("pthread", "mutexee", "mcstp", "shfllock", "optimized")


def _specs_fig15(p: ReportParams) -> list[ExperimentSpec]:
    specs = []
    for app in FIG15_APPS:
        for lock in _FIG15_LOCKS:
            cfg = (optimized_desc(8, p.seed) if lock == "optimized"
                   else vanilla_desc(8, p.seed))
            specs.append(ExperimentSpec(
                id=f"fig15/{app}/{lock}",
                runner="suite_point",
                params={
                    "name": app, "nthreads": 32, "config": cfg,
                    "work_scale": min(p.scale, 0.5),
                    "lock": lock if lock in ("mutexee", "mcstp", "shfllock")
                    else None,
                    # The lock-library study interposes on the apps' pthread
                    # mutexes while the rest of their synchronization
                    # structure stays: model as barrier phases with
                    # per-phase lock sections (MIXED kind).
                    "profile_override": {"kind": "mixed", "cs_us": 3.0},
                },
                seed=p.seed,
            ))
    return specs


def _render_fig15(p: ReportParams, res: dict, out: TextIO) -> None:
    print(format_table(
        ["app", "pthread", "mutexee", "mcstp", "shfllock", "optimized"],
        [
            [app] + [
                res[f"fig15/{app}/{lock}"]["duration_ns"]
                / res[f"fig15/{app}/optimized"]["duration_ns"]
                for lock in _FIG15_LOCKS
            ]
            for app in FIG15_APPS
        ],
    ), file=out)


def _table2_duration_ms(p: ReportParams) -> float:
    return 1_000.0 if p.quick else 4_000.0


def _specs_table2(p: ReportParams) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            id=f"table2/{alg}",
            runner="table2_tp",
            params={
                "algorithm": alg,
                # Decorrelate the detection-noise draws between algorithms.
                "config": optimized_desc(1, p.seed + 97 * i,
                                         vb=False, bwd=True),
                "duration_ms": _table2_duration_ms(p),
            },
            seed=p.seed,
        )
        for i, alg in enumerate(SPINLOCK_ORDER)
    ]


def _render_table2(p: ReportParams, res: dict, out: TextIO) -> None:
    rows = []
    for alg in SPINLOCK_ORDER:
        r = res[f"table2/{alg}"]
        sens = r["true_positives"] / r["tries"] if r["tries"] else 0.0
        rows.append([alg, r["tries"], r["true_positives"], sens * 100])
    print(format_table(
        ["spinlock", "# tries", "# TPs", "sensitivity %"], rows,
    ), file=out)


def _specs_table3(p: ReportParams) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            id=f"table3/{name}",
            runner="table3_fp",
            params={"name": name,
                    "seeds": [p.seed, p.seed + 5, p.seed + 11],
                    "work_scale": p.scale},
            seed=p.seed,
        )
        for name in TABLE3_APPS
    ]


def _render_table3(p: ReportParams, res: dict, out: TextIO) -> None:
    rows = []
    for name in TABLE3_APPS:
        r = res[f"table3/{name}"]
        spec = (1.0 - r["false_positives"] / r["tries"]) if r["tries"] else 1.0
        rows.append([name, r["tries"], r["false_positives"], spec * 100,
                     r["overhead_pct"], r["timer_overhead_pct"]])
    print(format_table(
        ["app", "# tries", "# FPs", "specificity %", "FP overhead %",
         "timer overhead %"], rows,
    ), file=out)


# ----- Heavy-traffic serving (ROADMAP item 3; beyond the paper) --------
_SERVE_CORES = 4
_SERVE_WORKERS = 8  # 2x oversubscription on the serving tenant alone
_SERVE_SAT = SATURATION_RATE
_SERVE_SLO = {"p99_target_us": 400.0, "p999_target_us": 2000.0,
              "window_ms": 10.0}
_SERVE_OPEN_LOADS = (("0.5x", 0.5), ("0.9x", 0.9), ("1.2x", 1.2))
_SERVE_RATIOS = (("1x", 4), ("4x", 16))
_SERVE_CLOSED = (("low", 16), ("high", 96))
_SERVE_COLO_RATE = SATURATION_RATE * 0.25
_SERVE_COLO_MODES = (
    ("native", ("vanilla", "optimized")),
    ("container", ("vanilla", "optimized")),
    ("vm", ("vanilla", "ple", "optimized")),
)


def _serve_durations(p: ReportParams) -> tuple[float, float]:
    """(duration_ms, warmup_ms): quick runs shrink the horizon only —
    rates, SLOs, and the sweep shape stay identical."""
    return (80.0, 10.0) if p.quick else (300.0, 30.0)


def _serve_colo_config(p: ReportParams, mode: str, setting: str) -> dict:
    if setting == "ple":
        return ple_desc(_SERVE_CORES, p.seed)
    if setting == "optimized":
        return optimized_desc(_SERVE_CORES, p.seed, mode=mode)
    return vanilla_desc(_SERVE_CORES, p.seed, mode=mode)


def _specs_serve(p: ReportParams) -> list[ExperimentSpec]:
    dur, warm = _serve_durations(p)
    van = vanilla_desc(_SERVE_CORES, p.seed)
    common = {"duration_ms": dur, "warmup_ms": warm, "slo": _SERVE_SLO}
    specs = [
        ExperimentSpec(
            id=f"serve/open/{label}",
            runner="serving_open",
            params={"config": van, "workers": _SERVE_WORKERS,
                    "rate": _SERVE_SAT * frac, **common},
            seed=p.seed,
        )
        for label, frac in _SERVE_OPEN_LOADS
    ]
    # A bursty population of 1.5 M simulated users: 150 k/s base
    # (1.5 M x 0.1 rps = 0.5x saturation), 3x bursts (1.5x saturation)
    # for 20% of each 10 ms period.
    specs.append(ExperimentSpec(
        id="serve/open/burst",
        runner="serving_open",
        params={"config": van, "workers": _SERVE_WORKERS,
                "rate": {"kind": "users", "users": 1_500_000,
                         "requests_per_user_per_sec": 0.1,
                         "burst_multiplier": 3.0, "period_ms": 10.0,
                         "duty": 0.2},
                **common},
        seed=p.seed,
    ))
    specs += [
        ExperimentSpec(
            id=f"serve/ratio/{label}",
            runner="serving_open",
            params={"config": van, "workers": workers,
                    "rate": _SERVE_SAT * 0.9, **common},
            seed=p.seed,
        )
        for label, workers in _SERVE_RATIOS
    ]
    specs += [
        ExperimentSpec(
            id=f"serve/closed/{label}",
            runner="serving_closed",
            params={"config": van, "workers": _SERVE_WORKERS,
                    "connections": conns, "think_us": 100.0, **common},
            seed=p.seed,
        )
        for label, conns in _SERVE_CLOSED
    ]
    specs += [
        ExperimentSpec(
            id=f"serve/colo/{mode}/{setting}",
            runner="serving_colo",
            params={"config": _serve_colo_config(p, mode, setting),
                    "workers": _SERVE_WORKERS, "rate": _SERVE_COLO_RATE,
                    "batch_kernel": "cg", "batch_threads": 16, **common},
            seed=p.seed,
        )
        for mode, settings in _SERVE_COLO_MODES
        for setting in settings
    ]
    specs += _specs_resil(p, van, common)
    return specs


def _resil_crash_plan(p: ReportParams, warm: float) -> dict:
    """Worker-0 crash 20 ms after warmup ends, dead for 15 ms."""
    return {
        "seed": p.seed,
        "events": [{"at_ns": int((warm + 20.0) * 1e6),
                    "kind": "worker-crash",
                    "params": {"worker": 0, "dead_ns": 15_000_000}}],
    }


def _specs_resil(p: ReportParams, van: dict, common: dict) -> list[ExperimentSpec]:
    """Overload-resilience points (ROADMAP robustness; beyond the paper).

    The storm/budget pair is the retry-amplification experiment: same
    overloaded point (1.2x saturation), timeouts + retries with the
    per-tenant retry budget off vs on.  ``shed`` and ``breaker`` put
    admission control and the circuit breaker against the same overload;
    ``crash`` kills worker 0 mid-run under a retry-budget client and
    reports time-to-recovery; ``colo`` runs the ``full`` preset beside
    the batch tenant; ``identity`` pins the default-off guarantee.
    """
    warm = common["warmup_ms"]
    overload = _SERVE_SAT * 1.2
    specs = [
        ExperimentSpec(
            id=f"serve/resil/{label}",
            runner="serving_open",
            params={"config": van, "workers": _SERVE_WORKERS,
                    "rate": overload, "resilience": preset, **common},
            seed=p.seed,
        )
        for label, preset in (("storm", "retry-storm"),
                              ("budget", "retry-budget"),
                              ("shed", "shed-fail-fast"),
                              ("breaker", "breaker"))
    ]
    specs.append(ExperimentSpec(
        id="serve/resil/crash",
        runner="serving_open",
        params={"config": van, "workers": _SERVE_WORKERS,
                "rate": _SERVE_SAT * 0.5, "resilience": "retry-budget",
                "faults": _resil_crash_plan(p, warm), **common},
        seed=p.seed,
    ))
    specs.append(ExperimentSpec(
        id="serve/resil/colo",
        runner="serving_colo",
        params={"config": van, "workers": _SERVE_WORKERS,
                "rate": _SERVE_COLO_RATE, "batch_kernel": "cg",
                "batch_threads": 16, "resilience": "full", **common},
        seed=p.seed,
    ))
    specs.append(ExperimentSpec(
        id="serve/resil/identity",
        runner="resilience_identity",
        params={"config": van, "workers": _SERVE_WORKERS,
                "rate": _SERVE_SAT * 0.9,
                "duration_ms": 30.0, "warmup_ms": 5.0},
        seed=p.seed,
    ))
    return specs


def _serve_row(label: str, r: dict) -> list:
    lat = r["latency"] or {}
    slo = r["slo"]
    return [
        label,
        r["offered_ops"] / 1e3,
        r["goodput_ops"] / 1e3,
        lat.get("p50", float("nan")),
        lat.get("p99", float("nan")),
        lat.get("p999", float("nan")),
        f"{slo['violations']}/{slo['windows']}",
        slo["compliance_pct"],
    ]


_SERVE_COLUMNS = ["point", "offered k/s", "goodput k/s", "p50 us",
                  "p99 us", "p999 us", "SLO viol", "compl %"]


def _render_serve(p: ReportParams, res: dict, out: TextIO) -> None:
    open_rows = [
        _serve_row(label, res[f"serve/open/{label}"])
        for label, _ in _SERVE_OPEN_LOADS
    ] + [_serve_row("burst", res["serve/open/burst"])] + [
        _serve_row(f"ratio {label}", res[f"serve/ratio/{label}"])
        for label, _ in _SERVE_RATIOS
    ]
    print(format_table(
        _SERVE_COLUMNS, open_rows,
        title=("open loop (rates relative to "
               f"{SATURATION_RATE / 1e3:.0f} k/s saturation)"),
        float_fmt="{:.1f}",
    ), file=out)
    print(format_table(
        _SERVE_COLUMNS,
        [_serve_row(f"{label} ({conns} conns)",
                    res[f"serve/closed/{label}"])
         for label, conns in _SERVE_CLOSED],
        title="closed loop", float_fmt="{:.1f}",
    ), file=out)
    colo_rows = []
    for mode, settings in _SERVE_COLO_MODES:
        for setting in settings:
            r = res[f"serve/colo/{mode}/{setting}"]
            colo_rows.append(
                _serve_row(f"{mode}/{setting}", r["serve"])
                + [r["batch"]["progress_actions"]]
            )
    rc = res["serve/resil/colo"]
    colo_rows.append(
        _serve_row("native/vanilla+resil", rc["serve"])
        + [rc["batch"]["progress_actions"]]
    )
    print(format_table(
        _SERVE_COLUMNS + ["batch actions"], colo_rows,
        title="colocation (serve tenant + NPB cg x16)", float_fmt="{:.1f}",
    ), file=out)
    resil_rows = []
    for label in ("storm", "budget", "shed", "breaker", "crash"):
        r = res[f"serve/resil/{label}"]
        resil = r["resilience"]
        stats = resil["stats"]
        client = resil.get("client") or {}
        rec = resil.get("recovery") or {}
        ttr = rec.get("time_to_recovery_ms")
        lat = r["latency"] or {}
        resil_rows.append([
            label,
            r["goodput_ops"] / 1e3,
            lat.get("p99", float("nan")),
            lat.get("p999", float("nan")),
            client.get("amplification", 1.0),
            stats["timeouts"],
            stats["retries"],
            (stats["shed_queue"] + stats["shed_codel"]
             + stats["shed_priority"]),
            "-" if ttr is None else f"{ttr:.1f}",
        ])
    print(format_table(
        ["policy", "goodput k/s", "p99 us", "p999 us", "amplif",
         "timeouts", "retries", "shed", "TTR ms"],
        resil_rows,
        title="overload resilience (1.2x overload; crash point at 0.5x)",
        float_fmt="{:.2f}",
    ), file=out)
    ident = res["serve/resil/identity"]
    print(f"resilience-off identity: "
          f"{'byte-identical' if ident['identical'] else 'DIVERGED'} "
          f"(plain {ident['digest_plain'][:12]} vs "
          f"policy-off {ident['digest_policy_off'][:12]})\n", file=out)


_SCHED_LOADS = (("1x", 8), ("4x", 32))


def _specs_sched(p: ReportParams) -> list[ExperimentSpec]:
    from ..kernel.policy import available

    specs = []
    for pol in available():
        # For CFS the descriptors carry no "policy" key, so these specs
        # share cache keys (and results, byte for byte) with
        # fig09/streamcluster/{8T,32T} and fig02/per_switch.
        cfg = vanilla_desc(8, p.seed, policy=pol)
        for label, nthreads in _SCHED_LOADS:
            specs.append(ExperimentSpec(
                id=f"sched/{pol}/{label}",
                runner="suite_point",
                params={"name": "streamcluster", "nthreads": nthreads,
                        "config": cfg, "work_scale": p.scale},
                seed=p.seed,
            ))
        specs.append(ExperimentSpec(
            id=f"sched/{pol}/switch",
            runner="per_switch",
            params={"nthreads": 8,
                    "config": vanilla_desc(1, p.seed, policy=pol)},
            seed=p.seed,
        ))
    return specs


def _render_sched(p: ReportParams, res: dict, out: TextIO) -> None:
    from ..kernel.policy import POLICIES, available

    base4 = res["sched/cfs/4x"]["duration_ns"]
    rows = []
    for pol in available():
        d1 = res[f"sched/{pol}/1x"]["duration_ns"]
        d4 = res[f"sched/{pol}/4x"]["duration_ns"]
        cs4 = res[f"sched/{pol}/4x"]["stats"]["context_switches"]
        sw = res[f"sched/{pol}/switch"]["per_switch_ns"]
        rows.append([
            pol, POLICIES[pol].sched_class, d1 / 1e6, d4 / 1e6,
            d4 / d1, d4 / base4, cs4, f"{sw:.0f}",
        ])
    print(format_table(
        ["policy", "sched class", "1x ms", "4x ms", "4x/1x",
         "4x vs cfs", "cs @4x", "switch ns"],
        rows, float_fmt="{:.2f}",
        title="streamcluster on 8 cores: 8T (1x) vs 32T (4x) per policy",
    ), file=out)
    print("cfs rows reuse the fig02/fig09 cache entries byte-for-byte; "
          "eevdf and fifo_rr are policy-layer additions beyond the paper\n",
          file=out)


@dataclass(frozen=True)
class Section:
    key: str
    title: str
    build: Callable[[ReportParams], list[ExperimentSpec]]
    render: Callable[[ReportParams, dict, TextIO], None]


SECTIONS: list[Section] = [
    Section("fig01", "Figure 1 — suite overview (32T vs 8T on 8 cores, "
            "vanilla)", _specs_fig01, _render_fig01),
    Section("fig02", "Figure 2 — direct context-switch cost",
            _specs_fig02, _render_fig02),
    Section("fig03", "Figure 3 — interval between synchronizations",
            _specs_fig03, _render_fig03),
    Section("fig04", "Figure 4 — indirect cost per context switch (us)",
            _specs_fig04, _render_fig04),
    Section("fig09", "Figure 9 / Table 1 — virtual blocking on blocking "
            "benchmarks", _specs_fig09, _render_fig09),
    Section("fig10", "Figure 10 — VB on pthreads primitives",
            _specs_fig10, _render_fig10),
    Section("fig11", "Figure 11 — CPU elasticity (execution time, ms)",
            _specs_fig11, _render_fig11),
    Section("fig12", "Figure 12 — memcached", _specs_fig12, _render_fig12),
    Section("fig13", "Figure 13 — ten spinlocks (execution time, ms)",
            _specs_fig13, _render_fig13),
    Section("fig14", "Figure 14 — user-customized spinning (ms)",
            _specs_fig14, _render_fig14),
    Section("fig15", "Figure 15 — vs SHFLLOCK / Mutexee / MCS-TP "
            "(normalized)", _specs_fig15, _render_fig15),
    Section("table2", "Table 2 — BWD sensitivity",
            _specs_table2, _render_table2),
    Section("table3", "Table 3 — BWD specificity and overhead",
            _specs_table3, _render_table3),
    Section("serve", "Heavy-traffic serving — open-loop bursts, SLOs, "
            "colocation (beyond the paper)", _specs_serve, _render_serve),
    Section("sched", "Scheduler policies — CFS vs EEVDF vs FIFO-RR at 1x "
            "and 4x oversubscription (beyond the paper)",
            _specs_sched, _render_sched),
]


#: Fidelity-spec sections whose results another report section produces:
#: Table 1 reads the Figure 9 runs, and the PSI telemetry checks read the
#: telemetry of those same runs.
_DATA_SECTION = {"table1": "fig09", "telemetry": "fig09"}


def build_all_specs(p: ReportParams) -> list[tuple[Section, list[ExperimentSpec]]]:
    return [(section, section.build(p)) for section in SECTIONS]


# =====================================================================
# Driver
# =====================================================================
def banner(title: str, out: TextIO) -> None:
    print(file=out)
    print("=" * 72, file=out)
    print(title, file=out)
    print("=" * 72, file=out)


def add_report_flags(ap: argparse.ArgumentParser) -> None:
    """The shared flag set of ``benchmarks/run_all.py``,
    ``python -m repro all`` and every per-section command."""
    ap.add_argument("--scale", type=float, default=None,
                    help="workload scale (default 1.0, or 0.3 with --quick; "
                         "an explicit value always wins)")
    ap.add_argument("--quick", action="store_true",
                    help="shrink workloads for a fast smoke pass")
    ap.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: os.cpu_count())")
    ap.add_argument("--no-cache", action="store_true",
                    help="ignore and do not write the result cache")
    ap.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                    help=f"result cache directory (default {DEFAULT_CACHE_DIR})")
    ap.add_argument("--results", default="results.json", metavar="FILE",
                    help="machine-readable results artifact (default "
                         "results.json, or results-<section>.json for a "
                         "section command; 'none' disables)")
    ap.add_argument("--seed", type=int, default=2021)
    ap.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                    metavar="SECONDS", help="per-experiment timeout")
    ap.add_argument("--max-retries", type=int, default=1, metavar="N",
                    help="retries per failing spec before giving up on it "
                         "(deterministic exponential backoff; default 1)")
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero if any spec failed after retries "
                         "(default: keep going and report partial results)")
    ap.add_argument("--trace-dir", default=None, metavar="DIR",
                    help="ship one JSONL scheduling trace per spec into DIR "
                         "(disables cache reads so every trace is fresh)")
    ap.add_argument("--sample-interval-us", type=float, default=None,
                    metavar="US", help="also run the interval sampler at "
                                       "this period (requires --trace-dir)")
    ap.add_argument("--metrics-dir", default=None, metavar="DIR",
                    help="write per-spec telemetry into DIR (schedstats "
                         "JSON, OpenMetrics text, PSI series JSONL; "
                         "docs/telemetry.md) and attach a summary to the "
                         "results artifact (disables cache reads so every "
                         "spec is freshly instrumented)")
    ap.add_argument("--validate", action="store_true",
                    help="after the report, check the results against the "
                         "paper fidelity specs (repro validate); exit 4 "
                         "on a violation")


def run_full_report(
    scale: float | None = None,
    quick: bool = False,
    seed: int = 2021,
    jobs: int | None = None,
    use_cache: bool = True,
    cache_dir: str = DEFAULT_CACHE_DIR,
    results_path: str | None = "results.json",
    timeout_s: float | None = DEFAULT_TIMEOUT_S,
    retries: int = 1,
    strict: bool = False,
    out: TextIO | None = None,
    progress_out: TextIO | None = None,
    trace_dir: str | None = None,
    sample_interval_us: float | None = None,
    metrics_dir: str | None = None,
    validate: bool = False,
    sections: list[str] | None = None,
) -> int:
    """Regenerate every table and figure via the parallel runner.

    Failing specs (after ``retries`` attempts each, with deterministic
    exponential backoff) do not abort the report: their sections render a
    failure note, everything else renders normally, and the run summary
    classifies each failure (timeout/crash/exception).  ``strict=True``
    turns any such partial result into a nonzero exit (2) — for CI — after
    still rendering everything that succeeded.  ``validate=True``
    additionally evaluates the paper fidelity specs
    (:mod:`repro.validate`) against the produced results and turns any
    VIOLATION into exit 4.  ``sections`` restricts the run to the named
    section keys (default: all of :data:`SECTIONS`); validation then
    evaluates only the fidelity specs whose results those sections
    produce (``_DATA_SECTION``)."""
    out = out if out is not None else sys.stdout
    progress_out = progress_out if progress_out is not None else sys.stderr
    t0 = time.time()

    params = ReportParams(
        scale=resolve_scale(scale, quick, warn=progress_out),
        quick=quick,
        seed=seed,
    )
    built = [
        (section, sec_specs)
        for section, sec_specs in build_all_specs(params)
        if sections is None or section.key in sections
    ]
    specs = [spec for _, sec_specs in built for spec in sec_specs]

    # On a tty, redraw one line with \r; otherwise (logs, CI) emit a plain
    # line at most every few seconds so the log stays readable.
    is_tty = getattr(progress_out, "isatty", lambda: False)()
    min_interval = 0.25 if is_tty else 5.0
    last_tick = [float("-inf")]

    def progress(st) -> None:
        if st.completed != st.total and st.elapsed_s - last_tick[0] < min_interval:
            return
        last_tick[0] = st.elapsed_s
        phase = f"{st.phase} " if st.phase else ""
        line = (
            f"[{phase}{st.completed}/{st.total}] {st.elapsed_s:.1f}s "
            f"elapsed, {st.rate:.1f} spec/s, "
            f"{st.cache_hits} cache hits, {st.executed} simulated"
        )
        if is_tty:
            print("\r" + line.ljust(78), end="", file=progress_out, flush=True)
        else:
            print(line, file=progress_out, flush=True)

    # The runner itself always keeps going (strict=False): even under
    # --strict we want every surviving section rendered before the
    # nonzero exit, not an abort at the first exhausted spec.
    runner = ParallelRunner(
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
        timeout_s=timeout_s, retries=retries, strict=False,
        progress=progress,
        trace_dir=trace_dir, sample_interval_us=sample_interval_us,
        metrics_dir=metrics_dir,
    )
    values = runner.run(specs)
    if is_tty:
        print(file=progress_out, flush=True)  # finish the progress line
    res = {spec.id: value for spec, value in zip(specs, values)}
    st = runner.stats

    for section, sec_specs in built:
        banner(section.title, out)
        missing = [s.id for s in sec_specs if res.get(s.id) is None]
        if missing:
            # Renderers index into complete result sets; with holes the
            # honest output is the failure note, not a half-table.
            print(f"[section skipped: {len(missing)} of {len(sec_specs)} "
                  f"spec(s) failed — {', '.join(missing[:4])}"
                  f"{', ...' if len(missing) > 4 else ''}]", file=out)
            continue
        section.render(params, res, out)

    print(f"\nspecs: {st.total} total, {st.executed} simulated, "
          f"{st.cache_hits} cache hits, {st.retried} retried, "
          f"{st.failed} failed, {st.quarantined} cache entries quarantined",
          file=out)
    if st.failures:
        print(format_table(
            ["spec", "failure", "error"],
            [[sid, f["kind"], f["error"][:60]]
             for sid, f in sorted(st.failures.items())],
            title="failed specs",
        ), file=out)
    print(f"total wall time: {time.time() - t0:.1f}s", file=out)

    artifact = {
        "version": __version__,
        "seed": seed,
        "scale": params.scale,
        "quick": quick,
        "jobs": runner.jobs,
        "elapsed_s": time.time() - t0,
        "cache": {"hits": st.cache_hits, "simulated": st.executed,
                  "retried": st.retried, "failed": st.failed,
                  "quarantined": st.quarantined},
        "failures": st.failures,
        "results": [
            {**spec.payload(), "result": value,
             **({"error": st.failures[spec.id]}
                if spec.id in st.failures else {})}
            for spec, value in zip(specs, values)
        ],
    }
    if metrics_dir is not None:
        # Sibling of "results": telemetry summaries never enter the
        # digested results array, so digests are identical with or
        # without --metrics-dir (tests/test_golden_digests.py).
        from ..telemetry import load_spec_summary

        telemetry = {}
        for spec in specs:
            summary = load_spec_summary(metrics_dir, spec.id)
            if summary is not None:
                telemetry[spec.id] = summary
        artifact["telemetry"] = telemetry
        print(f"telemetry for {len(telemetry)}/{len(specs)} specs "
              f"written to {metrics_dir}", file=progress_out)
    if results_path and results_path != "none":
        # Atomic replace: a crash (or a reader racing the writer) must
        # never leave a truncated results.json behind.
        tmp = f"{results_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(artifact, f, indent=1, sort_keys=True)
        os.replace(tmp, results_path)
        print(f"results written to {results_path}", file=progress_out)

    fidelity_failed = False
    if validate:
        from ..validate import Results, evaluate
        from ..validate.specs import SPECS

        subset = None if sections is None else [
            s for s in SPECS
            if _DATA_SECTION.get(s.section, s.section) in sections
        ]
        report = evaluate(Results(artifact), specs=subset)
        counts = report.counts()
        banner("Fidelity validation (paper specs)", out)
        print(f"{len(report.outcomes)} specs: {counts['MATCH']} match, "
              f"{counts['DEVIATION']} known deviations, "
              f"{counts['VIOLATION']} violations, "
              f"{counts['MISSING']} missing, {counts['SKIPPED']} skipped",
              file=out)
        from ..validate.compare import Status

        for o in report.violations + report.by_status(Status.MISSING):
            print(f"  {o.status.value} {o.spec.id}: {o.message}", file=out)
        fidelity_failed = report.failed(strict=strict)

    if st.failed:
        print(f"warning: {st.failed} spec(s) failed; results are partial",
              file=progress_out)
        if strict:
            return EXIT_PARTIAL
    if fidelity_failed:
        return EXIT_FIDELITY_VIOLATION
    return 0


def main_from_args(args: argparse.Namespace) -> int:
    return run_full_report(
        scale=args.scale,
        quick=args.quick,
        seed=args.seed,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        results_path=args.results,
        timeout_s=args.timeout,
        retries=getattr(args, "max_retries", 1),
        strict=getattr(args, "strict", False),
        trace_dir=getattr(args, "trace_dir", None),
        sample_interval_us=getattr(args, "sample_interval_us", None),
        metrics_dir=getattr(args, "metrics_dir", None),
        validate=getattr(args, "validate", False),
        sections=getattr(args, "sections", None),
    )
