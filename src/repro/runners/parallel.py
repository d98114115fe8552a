"""Parallel, cached experiment runner.

Every data point of the paper's figures and tables is an independent,
deterministic simulation (one app x thread-count x kernel-mode x core-count
run), so the full report is embarrassingly parallel.  This module provides:

* :class:`ExperimentSpec` — a picklable description of one simulation run:
  a registered runner-function name plus JSON-serializable parameters.
* a registry of runner functions, each of which executes one simulation in
  a worker process and returns a JSON-serializable result.
* :class:`ParallelRunner` — fans specs out across a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs`` workers,
  default ``os.cpu_count()``) with a per-spec timeout enforced inside the
  worker and one retry on worker crash, merges results deterministically in
  spec order, and caches each experiment's result as JSON under
  ``.repro-cache/`` keyed on a SHA-256 of (canonical params, seed, repro
  ``__version__``).
  Specs that name the same experiment (runner, canonical params, seed —
  the content the cache key hashes; the spec id is only a label) are
  simulated once per run, and every other spec of the group gets a copy
  of that result.  Dispatch is longest-first (LPT): each cache entry
  records the experiment's measured wall time, and later runs submit the
  slowest experiments first so the one long simulation (memcached) doesn't
  start last and stretch the tail; cold specs are ordered by a per-runner
  size heuristic.

Because every simulation is bit-reproducible for a fixed seed, a result is
the same whether it was computed serially, in a worker process, or loaded
from cache — so report output is byte-identical across ``--jobs`` values
and across warm-cache re-runs.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import __version__
from ..config import (
    SimConfig,
    optimized_config,
    ple_config,
    vanilla_config,
)
from ..errors import ReproError
from ..hw.memmodel import AccessPattern, MemoryModel
from ..kernel.policy import current_policy
from ..config import HardwareConfig
from ..sync import McsTp, Mutexee, ShflLock
from ..workloads.memcached import MemcachedConfig, memcached_run
from ..workloads.microbench import (
    direct_cost_per_switch_ns,
    direct_cost_run,
    primitive_stress_run,
)
from ..workloads.pipeline import spin_pipeline_run
from ..workloads.profiles import SUITE, Group, SyncKind
from ..workloads.serving import (
    DEFAULT_SLO,
    ServingConfig,
    SloPolicy,
    closed_loop_serve,
    colocation_run,
    open_loop_serve,
)
from ..workloads.loadgen import RateSchedule
from ..workloads.spindetect import false_positive_probe, true_positive_probe
from ..workloads.synthetic import run_suite_benchmark

DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_TIMEOUT_S = 900.0

#: Cache entry layout version.  Bump when the entry dict changes shape;
#: mismatched entries are quarantined, not crashed on.  v2 added the
#: ``schema`` and ``sha256`` integrity fields.
CACHE_SCHEMA = 2

#: Quarantine subdirectory (under the cache dir) for corrupt entries.
QUARANTINE_DIR = "quarantine"


class ExperimentError(ReproError):
    """A spec failed (after retries) or timed out."""


# =====================================================================
# Config descriptors — JSON-serializable stand-ins for SimConfig
# =====================================================================
def _with_policy(d: dict, policy: str | None) -> dict:
    """Record the scheduling policy in a config descriptor.

    The ``"policy"`` key is only present for non-CFS policies, so every
    descriptor (and therefore every cache key and fixture entry) written
    before the policy layer existed stays byte-identical.
    """
    pol = policy if policy is not None else current_policy()
    if pol != "cfs":
        d["policy"] = pol
    return d


# The vanilla and optimized descriptors carry no execution environment:
# PLE is the model's only VM mechanism (see PleConfig), so a native,
# container or VM run of one of these kernels is one experiment, and the
# runner simulates it once.
def vanilla_desc(cores: int, seed: int, *, smt: bool = False,
                 policy: str | None = None) -> dict:
    return _with_policy(
        {"kind": "vanilla", "cores": cores, "seed": seed, "smt": smt},
        policy)


def optimized_desc(cores: int, seed: int, *, smt: bool = False,
                   vb: bool = True, bwd: bool = True,
                   policy: str | None = None) -> dict:
    return _with_policy(
        {"kind": "optimized", "cores": cores, "seed": seed, "smt": smt,
         "vb": vb, "bwd": bwd}, policy)


def ple_desc(cores: int, seed: int, *, policy: str | None = None) -> dict:
    return _with_policy({"kind": "ple", "cores": cores, "seed": seed}, policy)


def suite_opt_desc(name: str, cores: int, seed: int, *,
                   smt: bool = False, policy: str | None = None) -> dict:
    """The paper's per-section 'optimized' kernel: VB for blocking
    workloads (Section 4.2), BWD for spinning ones (Section 4.3)."""
    spinning = SUITE[name].group is Group.SUFFER_SPINNING
    return optimized_desc(cores, seed, smt=smt, vb=not spinning,
                          bwd=spinning, policy=policy)


def make_config(desc: dict) -> SimConfig:
    kind = desc["kind"]
    # A descriptor with no "policy" key *is* a CFS descriptor (the key is
    # omitted for byte-compatibility with pre-policy descriptors), so pin
    # CFS rather than deferring to the process default: a worker running
    # under ``--policy eevdf`` must still execute CFS-keyed specs as CFS.
    policy = desc.get("policy", "cfs")
    if kind == "vanilla":
        return vanilla_config(
            cores=desc["cores"], smt=desc.get("smt", False),
            seed=desc["seed"], policy=policy,
        )
    if kind == "optimized":
        return optimized_config(
            cores=desc["cores"], smt=desc.get("smt", False),
            seed=desc["seed"], vb=desc.get("vb", True),
            bwd=desc.get("bwd", True), policy=policy,
        )
    if kind == "ple":
        return ple_config(cores=desc["cores"], seed=desc["seed"],
                          policy=policy)
    raise ExperimentError(f"unknown config kind {kind!r}")


# =====================================================================
# Runner functions — each executes ONE simulation in a worker process
# =====================================================================
_LOCK_FACTORIES: dict[str, Callable] = {
    "mutexee": lambda n: Mutexee(n),
    "mcstp": lambda n: McsTp(n),
    "shfllock": lambda n: ShflLock(n),
}


def _stats_dict(stats) -> dict:
    return {
        "cpu_utilization_pct": stats.cpu_utilization_pct,
        "migrations_in_node": stats.migrations_in_node,
        "migrations_cross_node": stats.migrations_cross_node,
        "context_switches": stats.context_switches,
        "blocks": stats.blocks,
        "total_cpu_ns": stats.total_cpu_ns,
        "total_spin_ns": stats.total_spin_ns,
        # Latency-histogram summaries ("hist:wakeup_latency_ns", ...).
        "extra": stats.extra_dict,
    }


def run_suite_point(
    name: str,
    nthreads: int,
    config: dict,
    work_scale: float = 1.0,
    pinned: bool = False,
    crash_ok: bool = False,
    lock: str | None = None,
    profile_override: dict | None = None,
) -> dict:
    """One ``run_suite_benchmark`` call: one app x config data point."""
    prof = SUITE[name]
    if profile_override:
        repl: dict[str, Any] = dict(profile_override)
        if "kind" in repl:
            repl["kind"] = SyncKind(repl["kind"])
        prof = dataclasses.replace(prof, **repl)
    factory = _LOCK_FACTORIES[lock] if lock else None
    try:
        run = run_suite_benchmark(
            prof, nthreads, make_config(config),
            work_scale=work_scale, pinned=pinned, mutex_factory=factory,
        )
    except Exception:
        if crash_ok:
            # Figure 11: "programs crashed when CPU count decreased" under
            # pinning; record the failure as a data point.
            return {"duration_ns": None, "stats": None}
        raise
    return {"duration_ns": run.duration_ns, "stats": _stats_dict(run.stats)}


def run_direct_cost(nthreads: int, config: dict,
                    total_work_ms: float = 30.0,
                    atomic: bool = False) -> dict:
    r = direct_cost_run(make_config(config), nthreads, total_work_ms,
                        atomic=atomic)
    return {"duration_ns": r.duration_ns, "stats": _stats_dict(r.stats)}


def run_per_switch(nthreads: int, config: dict) -> dict:
    return {"per_switch_ns": direct_cost_per_switch_ns(
        make_config(config), nthreads=nthreads)}


def run_indirect_cost(pattern: str, sizes_bytes: list[int],
                      nthreads: int = 2) -> dict:
    model = MemoryModel(HardwareConfig())
    pat = AccessPattern(pattern)
    series = [
        [size, model.indirect_cs_cost(pat, size, nthreads=nthreads)["cost_per_cs_ns"]]
        for size in sizes_bytes
    ]
    return {"series": series}


def run_primitive(primitive: str, nthreads: int, config: dict,
                  iterations: int = 1_000) -> dict:
    r = primitive_stress_run(make_config(config), primitive, nthreads,
                             iterations)
    return {"duration_ns": r.duration_ns}


def run_memcached(config: dict, workers: int, duration_ms: float) -> dict:
    r = memcached_run(make_config(config), MemcachedConfig(workers=workers),
                      duration_ms=duration_ms)
    return {
        "throughput_ops": r.throughput_ops,
        "latency": r.latency_summary().as_dict(),
    }


def schedule_from_desc(desc: dict) -> RateSchedule:
    """Decode a JSON rate descriptor into a :class:`RateSchedule`.

    ``kind`` selects the constructor: ``constant`` (default), ``burst``,
    ``ramp``, ``diurnal``, or ``users`` (a user population whose
    aggregate rate is ``users * requests_per_user_per_sec``, optionally
    bursty).  Durations are in milliseconds for JSON friendliness.
    """
    kind = desc.get("kind", "constant")
    if kind == "constant":
        return RateSchedule.constant(desc["rate_per_sec"])
    if kind == "burst":
        return RateSchedule.burst(
            desc["rate_per_sec"], desc["burst_multiplier"],
            int(desc["period_ms"] * 1e6), duty=desc.get("duty", 0.2),
        )
    if kind == "ramp":
        return RateSchedule.ramp(
            desc["rate_per_sec"], desc["end_multiplier"],
            int(desc["ramp_ms"] * 1e6),
        )
    if kind == "diurnal":
        return RateSchedule.diurnal(
            desc["rate_per_sec"], desc["peak_multiplier"],
            int(desc["period_ms"] * 1e6), steps=desc.get("steps", 12),
        )
    if kind == "users":
        kw = {}
        if "burst_multiplier" in desc:
            kw = {"burst_multiplier": desc["burst_multiplier"],
                  "period_ns": int(desc["period_ms"] * 1e6),
                  "duty": desc.get("duty", 0.2)}
        return RateSchedule.for_users(
            desc["users"], desc["requests_per_user_per_sec"], **kw,
        )
    raise ExperimentError(f"unknown rate-schedule kind {kind!r}")


def _serving_args(rate, workers: int, slo: dict | None):
    sched = (schedule_from_desc(rate) if isinstance(rate, dict)
             else float(rate))
    sc = ServingConfig(workers=workers)
    policy = SloPolicy.from_dict(slo) if slo else DEFAULT_SLO
    return sched, sc, policy


def run_serving_open(config: dict, workers: int, rate,
                     duration_ms: float = 100.0,
                     warmup_ms: float = 10.0,
                     slo: dict | None = None,
                     resilience=None, faults=None) -> dict:
    sched, sc, policy = _serving_args(rate, workers, slo)
    return open_loop_serve(make_config(config), sc, rate=sched,
                           duration_ms=duration_ms, warmup_ms=warmup_ms,
                           slo=policy, resilience=resilience, faults=faults)


def run_serving_closed(config: dict, workers: int, connections: int,
                       think_us: float = 100.0,
                       duration_ms: float = 100.0,
                       warmup_ms: float = 10.0,
                       slo: dict | None = None,
                       resilience=None, faults=None) -> dict:
    _, sc, policy = _serving_args(1.0, workers, slo)
    return closed_loop_serve(make_config(config), sc,
                             connections=connections, think_us=think_us,
                             duration_ms=duration_ms, warmup_ms=warmup_ms,
                             slo=policy, resilience=resilience, faults=faults)


def run_serving_colo(config: dict, workers: int, rate,
                     batch_kernel: str = "cg", batch_threads: int = 16,
                     duration_ms: float = 100.0,
                     warmup_ms: float = 10.0,
                     slo: dict | None = None,
                     resilience=None, faults=None) -> dict:
    sched, sc, policy = _serving_args(rate, workers, slo)
    return colocation_run(make_config(config), sc, rate=sched,
                          batch_kernel=batch_kernel,
                          batch_threads=batch_threads,
                          duration_ms=duration_ms, warmup_ms=warmup_ms,
                          slo=policy, resilience=resilience, faults=faults)


def run_spin_pipeline(algorithm: str, nthreads: int, config: dict,
                      total_stages: int = 960) -> dict:
    r = spin_pipeline_run(make_config(config), algorithm, nthreads,
                          total_stages=total_stages)
    return {"duration_ns": r.duration_ns}


def run_table2_tp(algorithm: str, config: dict,
                  duration_ms: float) -> dict:
    r = true_positive_probe(make_config(config), algorithm,
                            duration_ms=duration_ms)
    return {"tries": r.tries, "true_positives": r.true_positives}


def run_table3_fp(name: str, seeds: list[int],
                  work_scale: float = 1.0) -> dict:
    r = false_positive_probe(SUITE[name], seeds=tuple(seeds),
                             work_scale=work_scale)
    return {
        "tries": r.tries,
        "false_positives": r.false_positives,
        "overhead_pct": r.overhead_pct,
        "timer_overhead_pct": r.timer_overhead_pct,
    }


def debug_sleep(seconds: float) -> dict:  # for timeout tests
    time.sleep(seconds)
    return {"slept": seconds}


def debug_crash_once(marker_path: str) -> dict:  # for crash-retry tests
    if os.path.exists(marker_path):
        return {"ok": True}
    with open(marker_path, "w", encoding="utf-8") as f:
        f.write("crashed\n")
        f.flush()
        os.fsync(f.fileno())
    os._exit(17)


def debug_spin_sim() -> dict:  # for timeout tests
    """An engine whose every event schedules the next: it never drains,
    so the only way out is the spec's ``SIGALRM`` timeout."""
    from ..sim.engine import Engine

    eng = Engine()

    def tick() -> None:
        eng.schedule(1_000, tick)

    eng.schedule(1_000, tick)
    eng.run()
    return {"events": eng.events_run}


RUNNERS: dict[str, Callable[..., dict]] = {
    "suite_point": run_suite_point,
    "direct_cost": run_direct_cost,
    "per_switch": run_per_switch,
    "indirect_cost": run_indirect_cost,
    "primitive": run_primitive,
    "memcached": run_memcached,
    "serving_open": run_serving_open,
    "serving_closed": run_serving_closed,
    "serving_colo": run_serving_colo,
    "spin_pipeline": run_spin_pipeline,
    "table2_tp": run_table2_tp,
    "table3_fp": run_table3_fp,
    "debug_sleep": debug_sleep,
    "debug_crash_once": debug_crash_once,
    "debug_spin_sim": debug_spin_sim,
}


# =====================================================================
# Specs, cache keys, worker entry point
# =====================================================================
@dataclass(frozen=True)
class ExperimentSpec:
    """One independent simulation: a runner name + JSON-able params.

    ``id`` is a stable human-readable label ("fig01/lu/32T") used for
    progress, error messages, and the results.json artifact.  ``seed`` is
    carried explicitly (even when it also appears inside a config
    descriptor) because it is part of the cache key.
    """

    id: str
    runner: str
    params: dict = field(default_factory=dict)
    seed: int = 2021

    def payload(self) -> dict:
        return {"id": self.id, "runner": self.runner,
                "params": self.params, "seed": self.seed}


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used for hashing."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _entry_checksum(entry: dict) -> str:
    """SHA-256 over a cache entry minus its own ``sha256`` field.

    Unlike :func:`canonical_json` this tolerates NaN/Infinity — results may
    legitimately contain them, and the encoding (``NaN`` tokens) survives a
    JSON round-trip, so store-time and load-time checksums agree."""
    body = {k: v for k, v in entry.items() if k != "sha256"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_key(spec: ExperimentSpec, version: str | None = None) -> str:
    """SHA-256 over (canonical params, runner, seed, repro version)."""
    blob = canonical_json({
        "runner": spec.runner,
        "params": spec.params,
        "seed": spec.seed,
        "version": version if version is not None else __version__,
    })
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _alarm_handler(_signum, _frame):  # pragma: no cover - fires in workers
    raise TimeoutError("spec exceeded its timeout")


def classify_failure(exc: BaseException) -> str:
    """Coarse failure taxonomy for run summaries: ``timeout`` (the spec's
    SIGALRM fired), ``crash`` (the worker process died), or ``exception``
    (the runner raised)."""
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, BrokenProcessPool):
        return "crash"
    return "exception"


def _rate_of(rate) -> float:
    """Mean arrivals/second of a serving spec's rate param (for hints)."""
    try:
        if isinstance(rate, dict):
            return float(schedule_from_desc(rate).mean_rate_per_sec())
        return float(rate)
    except (ExperimentError, KeyError, TypeError, ValueError):
        return 1e5


# Per-runner cost hints: coarse, unitless proxies for a spec's wall time,
# used only to order dispatch (longest first) on cold caches.  Wrong hints
# cost a little tail latency, never correctness — results are merged in
# spec order regardless.
_COST_HINTS: dict[str, Callable[[dict], float]] = {
    "suite_point": lambda p: (
        p.get("nthreads", 8) * (p.get("work_scale") or 1.0)
    ),
    "direct_cost": lambda p: (
        p.get("nthreads", 8) * p.get("total_work_ms", 30.0) / 30.0
    ),
    "per_switch": lambda p: float(p.get("nthreads", 8)),
    "indirect_cost": lambda p: float(len(p.get("sizes_bytes", [1]))),
    "primitive": lambda p: (
        p.get("nthreads", 8) * p.get("iterations", 1_000) / 1_000.0
    ),
    # The memcached server sim dominates full-report wall time: weight it
    # so it dispatches ahead of the short suite points.
    "memcached": lambda p: (
        p.get("workers", 8) * p.get("duration_ms", 50.0)
    ),
    "spin_pipeline": lambda p: (
        p.get("nthreads", 8) * p.get("total_stages", 960) / 100.0
    ),
    # Serving specs scale with offered load x horizon; colocation adds
    # the batch tenant on top.
    "serving_open": lambda p: (
        _rate_of(p.get("rate")) / 1e4 * p.get("duration_ms", 100.0) / 100.0
    ),
    "serving_closed": lambda p: (
        p.get("connections", 32) * p.get("duration_ms", 100.0) / 100.0
    ),
    "serving_colo": lambda p: (
        (_rate_of(p.get("rate")) / 1e4 + p.get("batch_threads", 16))
        * p.get("duration_ms", 100.0) / 100.0
    ),
    "table2_tp": lambda p: float(p.get("duration_ms", 50.0)),
    "table3_fp": lambda p: (
        10.0 * len(p.get("seeds", [0])) * (p.get("work_scale") or 1.0)
    ),
    "debug_sleep": lambda p: float(p.get("seconds", 0.0)),
}


def estimated_cost(spec: ExperimentSpec) -> float:
    """Unitless dispatch-priority estimate for a spec (bigger = longer)."""
    hint = _COST_HINTS.get(spec.runner)
    if hint is None:
        return 1.0
    try:
        return float(hint(spec.params))
    except (TypeError, ValueError):  # malformed params: run it last-ish
        return 1.0


def trace_artifact_name(spec_id: str) -> str:
    """Filesystem-safe per-spec trace file name."""
    return spec_id.replace("/", "__") + ".jsonl"


def execute_spec_timed(payload: dict, timeout_s: float | None,
                       obs: dict | None = None) -> tuple[dict, float]:
    """``execute_spec`` plus the spec's wall time, measured in the worker
    (so pool queueing skew is excluded).  The runner stores the duration
    alongside the cached result and uses it on later runs to dispatch
    longest specs first."""
    t0 = time.monotonic()
    result = execute_spec(payload, timeout_s, obs)
    return result, time.monotonic() - t0


def execute_spec(payload: dict, timeout_s: float | None,
                 obs: dict | None = None) -> dict:
    """Worker entry point: run one spec with an in-process timeout.

    The timeout is a ``SIGALRM`` armed in the process that runs the spec,
    so a pool stays alive instead of needing to be torn down.  Its handler
    raises ``TimeoutError`` at the next bytecode boundary, so it stops any
    hung code: an engine that never drains, a program generator that loops
    without yielding, a sleep.  On a platform without ``SIGALRM`` the spec
    runs untimed.

    ``obs`` (keys ``trace_dir``, ``metrics_dir``) wraps the run in an
    ``observe()`` session, ships the trace as
    ``<trace_dir>/<id with '/' -> '__'>.jsonl``, and writes the per-spec
    telemetry files (schedstats JSON, OpenMetrics text, PSI series JSONL)
    into ``metrics_dir`` (docs/telemetry.md).
    """
    fn = RUNNERS.get(payload["runner"])
    if fn is None:
        raise ExperimentError(f"unknown runner {payload['runner']!r}")
    use_alarm = (
        timeout_s is not None
        and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and hasattr(signal, "setitimer")
    )
    if use_alarm:
        old = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        if not obs:
            return fn(**payload["params"])
        from ..obs.session import observe

        with observe() as session:
            result = fn(**payload["params"])
        trace_dir = obs.get("trace_dir")
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            path = os.path.join(trace_dir,
                                trace_artifact_name(payload["id"]))
            session.recorder.to_jsonl(
                path, meta={"spec": payload["id"], "seed": payload["seed"]}
            )
        metrics_dir = obs.get("metrics_dir")
        if metrics_dir:
            from ..telemetry import session_telemetry, write_spec_telemetry

            telemetry = session_telemetry(session)
            if telemetry is not None:
                os.makedirs(metrics_dir, exist_ok=True)
                write_spec_telemetry(
                    metrics_dir, payload["id"], telemetry,
                    meta={"seed": payload["seed"]},
                )
        return result
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)


# =====================================================================
# The runner
# =====================================================================
@dataclass
class RunnerStats:
    total: int = 0
    completed: int = 0
    cache_hits: int = 0
    executed: int = 0
    shared: int = 0  # specs given a copy of an identical spec's result
    # shared spec id -> the id of the spec whose simulation it copied
    shared_from: dict = field(default_factory=dict)
    retried: int = 0
    failed: int = 0  # specs abandoned after retries (keep-going mode)
    quarantined: int = 0  # corrupt cache entries moved aside
    started_at: float = 0.0
    phase: str = ""  # spec-id prefix of the last completed spec ("fig09")
    # spec id -> {"kind": timeout|crash|exception, "error": repr(exc)}
    failures: dict = field(default_factory=dict)

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self.started_at

    @property
    def rate(self) -> float:
        """Completed specs per second of wall clock."""
        elapsed = self.elapsed_s
        return self.completed / elapsed if elapsed > 0 else 0.0


class ParallelRunner:
    """Run experiment specs across a process pool, with a JSON cache.

    Results come back as a list in spec order regardless of completion
    order, worker placement, or cache state, so downstream rendering is
    deterministic.  ``jobs=1`` executes inline in this process (same code
    path as the workers, minus the pool), which is the reference the
    parallel output must match byte-for-byte.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache_dir: str | os.PathLike | None = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        timeout_s: float | None = DEFAULT_TIMEOUT_S,
        retries: int = 1,
        strict: bool = True,
        backoff_base_s: float = 0.25,
        progress: Callable[[RunnerStats], None] | None = None,
        version: str | None = None,
        trace_dir: str | os.PathLike | None = None,
        metrics_dir: str | os.PathLike | None = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.use_cache = use_cache and self.cache_dir is not None
        self.timeout_s = timeout_s
        self.retries = retries
        # strict=True: any spec still failing after retries raises
        # ExperimentError.  strict=False: the failure is recorded in
        # ``stats.failures`` (classified timeout/crash/exception), its
        # result slot stays None, and the run keeps going — partial
        # results beat none on a 45-minute report run.
        self.strict = strict
        self.backoff_base_s = backoff_base_s
        self.progress = progress
        self.version = version if version is not None else __version__
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.metrics_dir = (
            str(metrics_dir) if metrics_dir is not None else None
        )
        self.stats = RunnerStats()

    def _obs(self) -> dict | None:
        if not self._per_id_artifacts:
            return None
        return {"trace_dir": self.trace_dir, "metrics_dir": self.metrics_dir}

    @property
    def _per_id_artifacts(self) -> bool:
        """Whether every spec id ships its own trace or telemetry files.
        Then no spec may take its result from another one (a cache entry
        or an identical spec): each re-simulates, and the results are
        bit-identical anyway."""
        return self.trace_dir is not None or self.metrics_dir is not None

    # -- cache ---------------------------------------------------------
    def _cache_path(self, spec: ExperimentSpec) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, cache_key(spec, self.version) + ".json")

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a bad cache entry to ``<cache_dir>/quarantine/`` — kept as
        evidence, never deleted — and treat the load as a plain miss (the
        spec recomputes).  A corrupt cache must cost a re-run, not a crash
        and never a silently-wrong figure."""
        self.stats.quarantined += 1
        qdir = os.path.join(os.path.dirname(path) or ".", QUARANTINE_DIR)
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            pass  # racing runner already moved it; either way it is gone

    def cache_load(self, spec: ExperimentSpec) -> Any | None:
        if not self.use_cache or self._per_id_artifacts:
            return None
        path = self._cache_path(spec)
        try:
            with open(path, "r", encoding="utf-8") as f:
                entry = json.load(f)
        except OSError:
            return None  # plain miss: no file (or unreadable)
        except ValueError:
            self._quarantine(path, "unparseable JSON")
            return None
        # Validate before trusting: entries are read across versions and
        # may be truncated, hand-edited, or from a different layout.
        if not isinstance(entry, dict):
            self._quarantine(path, "not a JSON object")
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            self._quarantine(
                path, f"schema {entry.get('schema')!r} != {CACHE_SCHEMA}"
            )
            return None
        # The entry's params are encoded without allow_nan=False, so a
        # hand-edited NaN is a mismatch rather than a crash.
        params = json.dumps(entry.get("params"), sort_keys=True,
                            separators=(",", ":"))
        if (entry.get("runner") != spec.runner
                or entry.get("seed") != spec.seed
                or entry.get("version") != self.version
                or params != canonical_json(spec.params)):
            # Another experiment's entry: a hash collision or a file
            # copied to the wrong key.  One entry serves every spec of a
            # shared experiment, so it must match exactly.
            self._quarantine(path, "entry does not match its spec")
            return None
        if "result" not in entry:
            self._quarantine(path, "missing result")
            return None
        if entry.get("sha256") != _entry_checksum(entry):
            self._quarantine(path, "checksum mismatch")
            return None
        return entry["result"]

    def cache_store(self, spec: ExperimentSpec, result: Any,
                    wall_s: float | None = None) -> None:
        if not self.use_cache:
            return
        assert self.cache_dir is not None
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._cache_path(spec)
        entry = {
            "schema": CACHE_SCHEMA,
            "id": spec.id,
            "runner": spec.runner,
            "params": spec.params,
            "seed": spec.seed,
            "version": self.version,
            "result": result,
        }
        if wall_s is not None:
            # Not part of the result: feeds longest-first dispatch only.
            entry["wall_s"] = round(wall_s, 6)
        entry["sha256"] = _entry_checksum(entry)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(entry, f, sort_keys=True)
        os.replace(tmp, path)  # atomic: concurrent runners never see partials

    # -- execution -----------------------------------------------------
    def _tick(self) -> None:
        if self.progress is not None:
            self.progress(self.stats)

    def _backoff_s(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based): exponential from
        ``backoff_base_s``, capped at 8 s.  Deliberately jitterless —
        workers are local processes, not a shared service, and a
        deterministic schedule keeps run logs comparable."""
        return min(self.backoff_base_s * (2.0 ** (attempt - 1)), 8.0)

    def _complete(self, spec: ExperimentSpec) -> None:
        self.stats.completed += 1
        self.stats.phase = spec.id.split("/", 1)[0]
        self._tick()

    def _note_failure(self, specs: list[ExperimentSpec], group: list[int],
                      exc: BaseException) -> None:
        """Record an experiment abandoned after retries (keep-going mode):
        every spec of its group fails with the same kind and error."""
        failure = {"kind": classify_failure(exc), "error": repr(exc)}
        for i in group:
            self.stats.failed += 1
            self.stats.failures[specs[i].id] = dict(failure)
            self.stats.phase = specs[i].id.split("/", 1)[0]
            self._tick()

    def run(self, specs: list[ExperimentSpec]) -> list[Any]:
        """Execute all specs; returns their results in spec order."""
        self.stats = RunnerStats(total=len(specs), started_at=time.monotonic())
        results: list[Any] = [None] * len(specs)
        pending = []
        for i, spec in enumerate(specs):
            cached = self.cache_load(spec)
            if cached is None:
                pending.append(i)
                continue
            results[i] = cached
            self.stats.cache_hits += 1
            self._complete(spec)

        groups = self._group(specs, pending)
        if groups:
            order = self._dispatch_order(specs, list(groups))
            if self.jobs == 1:
                self._run_inline(specs, results, order, groups)
            else:
                self._run_pool(specs, results, order, groups)
        self._tick()
        return results

    def _group(self, specs: list[ExperimentSpec],
               pending: list[int]) -> dict[int, list[int]]:
        """Group pending specs by experiment identity: the runner, the
        canonical params and the seed, which is what the cache key hashes
        (the id is a label).  Returns representative index -> the group's
        indices in spec order, the representative (the first) leading.
        With per-id artifacts every spec is a group of its own."""
        if self._per_id_artifacts:
            return {i: [i] for i in pending}
        by_key: dict[str, list[int]] = {}
        for i in pending:
            by_key.setdefault(cache_key(specs[i], self.version), []).append(i)
        return {group[0]: group for group in by_key.values()}

    def _recorded_wall_s(self, spec: ExperimentSpec) -> float | None:
        """Wall time of a previous execution, if a cache entry recorded
        one.  Read even when result reuse is off (--no-cache): the timing
        only orders dispatch, it never feeds results."""
        if self.cache_dir is None:
            return None
        try:
            with open(self._cache_path(spec), "r", encoding="utf-8") as f:
                entry = json.load(f)
        except (OSError, ValueError):
            return None
        wall = entry.get("wall_s") if isinstance(entry, dict) else None
        return float(wall) if isinstance(wall, (int, float)) else None

    def _dispatch_order(self, specs: list[ExperimentSpec],
                        pending: list[int]) -> list[int]:
        """Order the distinct experiments' representatives longest-first
        so a long simulation never starts last and stretches the tail
        (classic LPT scheduling).  Prior recorded durations win; cold
        specs fall back to the per-runner size heuristic.  Ties break on
        spec index, so the order — and with it the cache/results state —
        is deterministic."""
        keyed = []
        for i in pending:
            wall = self._recorded_wall_s(specs[i])
            cost = wall if wall is not None else estimated_cost(specs[i])
            keyed.append((-cost, i))
        keyed.sort()
        return [i for _, i in keyed]

    def _record(self, specs: list[ExperimentSpec], results: list,
                group: list[int], value: Any,
                wall_s: float | None = None) -> None:
        """Store a simulated result for its whole group.  The cache entry
        is keyed by the experiment, so the representative's serves every
        member; each member gets its own copy of the result, so mutating
        one slot cannot change another."""
        rep, *members = group
        results[rep] = value
        self.cache_store(specs[rep], value, wall_s)
        self.stats.executed += 1
        self._complete(specs[rep])
        for i in members:
            results[i] = copy.deepcopy(value)
            self.stats.shared += 1
            self.stats.shared_from[specs[i].id] = specs[rep].id
            self._complete(specs[i])

    def _run_inline(self, specs, results, order, groups) -> None:
        for i in order:
            last_exc: BaseException | None = None
            for attempt in range(self.retries + 1):
                if attempt:
                    self.stats.retried += 1
                    time.sleep(self._backoff_s(attempt))
                try:
                    value, wall_s = execute_spec_timed(
                        specs[i].payload(), self.timeout_s, self._obs()
                    )
                except Exception as exc:
                    last_exc = exc
                    continue
                self._record(specs, results, groups[i], value, wall_s)
                last_exc = None
                break
            if last_exc is not None:
                if self.strict:
                    raise ExperimentError(
                        f"spec {specs[i].id} failed after "
                        f"{self.retries + 1} attempts: {last_exc!r}"
                    ) from last_exc
                self._note_failure(specs, groups[i], last_exc)

    def _run_pool(self, specs, results, order, groups) -> None:
        todo = list(order)
        failures: dict[int, BaseException] = {}
        for attempt in range(self.retries + 1):
            if not todo:
                break
            if attempt:
                self.stats.retried += len(todo)
                time.sleep(self._backoff_s(attempt))
            failed: list[int] = []
            # A fresh pool per round: a worker crash (e.g. a segfaulting
            # simulation) breaks the whole executor, so survivors of the
            # round are retried in a clean one.
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                # dict preserves insertion order: workers pick specs up
                # longest-first as submitted.
                futures = {
                    pool.submit(execute_spec_timed, specs[i].payload(),
                                self.timeout_s, self._obs()): i
                    for i in todo
                }
                for fut in as_completed(futures):
                    i = futures[fut]
                    try:
                        value, wall_s = fut.result()
                    except Exception as exc:
                        failed.append(i)
                        failures[i] = exc
                        continue
                    failures.pop(i, None)
                    self._record(specs, results, groups[i], value, wall_s)
            todo = sorted(failed)
        if todo:
            if self.strict:
                detail = "; ".join(
                    f"{specs[i].id}: {failures[i]!r}" for i in todo[:5]
                )
                raise ExperimentError(
                    f"{len(todo)} spec(s) failed after {self.retries + 1} "
                    f"attempts: {detail}"
                )
            for i in todo:
                self._note_failure(specs, groups[i], failures[i])
