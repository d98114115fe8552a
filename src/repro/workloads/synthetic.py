"""Build runnable thread programs from benchmark profiles.

Strong scaling throughout (the paper's assumption): a profile fixes the
total work and the phase structure; varying the thread count divides the
same work into more, smaller pieces — so synchronization frequency rises
with thread count exactly as Section 2.3 describes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Generator

import numpy as np

from ..config import SimConfig
from ..kernel.kernel import Kernel
from ..kernel.task import ExecProfile
from ..metrics.collector import RunStats, collect
from ..prog.actions import (
    BarrierWait,
    Compute,
    FlagSet,
    MutexAcquire,
    MutexRelease,
    SemPost,
    SemWait,
    SpinFlag,
    SpinUntilFlag,
)
from ..sync import Barrier, Mutex, Semaphore
from .profiles import BenchmarkProfile, SyncKind

US = 1_000


def _phase_count(prof: BenchmarkProfile, work_scale: float) -> int:
    total_ns = prof.total_work_ms * 1e6 * work_scale
    per_phase = prof.optimal_threads * prof.sync_interval_us * US
    return max(4, int(round(total_ns / per_phase)))


def _weights(
    rng: np.random.Generator, n: int, cv: float, phases: int
) -> np.ndarray:
    """Per-phase, per-thread work weights with mean 1 and the given CV."""
    if cv <= 0:
        return np.ones((phases, n))
    sigma = math.sqrt(math.log(1.0 + cv * cv))
    w = rng.lognormal(mean=0.0, sigma=sigma, size=(phases, n))
    return w * (n / w.sum(axis=1, keepdims=True))


@dataclass
class BuiltWorkload:
    """Programs ready to spawn, plus their micro-architectural profile."""

    programs: list[tuple[str, Generator]]
    exec_profile: ExecProfile
    shared: dict[str, Any]  # primitives, for tests/introspection


def build_programs(
    prof: BenchmarkProfile,
    nthreads: int,
    seed: int = 2021,
    work_scale: float = 1.0,
    topology=None,
    mutex_factory: Callable[[str], Any] | None = None,
) -> BuiltWorkload:
    """Instantiate ``nthreads`` generators for the benchmark.

    ``mutex_factory`` substitutes the lock implementation for mutex-based
    kinds (Figure 15 swaps pthread mutexes for Mutexee/MCS-TP/SHFLLOCK).
    """
    if nthreads < 1:
        raise ValueError("need at least one thread")
    # crc32, not hash(): str hashing is randomized per interpreter
    # invocation (PYTHONHASHSEED), which would make the "same" seeded
    # simulation differ across processes and defeat result caching.
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=seed, spawn_key=(zlib.crc32(prof.name.encode("utf-8")) & 0xFFFF,)
        )
    )
    phases = _phase_count(prof, work_scale)
    total_ns = prof.total_work_ms * 1e6 * work_scale
    phase_ns = total_ns / phases
    weights = _weights(rng, nthreads, prof.imbalance_cv, phases)
    make_mutex = mutex_factory or (lambda name: Mutex(name))

    exec_profile = ExecProfile(
        tight_loop_prob=prof.tight_loop_prob,
        spin_uses_pause=prof.spin_uses_pause,
        migration_weight=prof.memory_weight,
    )
    shared: dict[str, Any] = {}
    programs: list[tuple[str, Generator]] = []

    if prof.kind is SyncKind.EMBARRASSING:
        done = Barrier(nthreads, f"{prof.name}.done")
        shared["barrier"] = done
        chunk = int(prof.sync_interval_us * US)

        def worker(i: int):
            share = int(total_ns / nthreads * float(weights[:, i].mean()))
            for start in range(0, share, chunk):
                yield Compute(min(chunk, share - start))
            yield BarrierWait(done)

        programs = [(f"{prof.name}.{i}", worker(i)) for i in range(nthreads)]

    elif prof.kind is SyncKind.BARRIER_PHASES:
        bar = Barrier(nthreads, f"{prof.name}.bar")
        shared["barrier"] = bar
        # Actions are immutable descriptors, so the constant ones are
        # shared instances rather than a dataclass call per step.
        act_bar = BarrierWait(bar)

        def worker(i: int):
            for k in range(phases):
                yield Compute(max(1, int(phase_ns / nthreads * weights[k, i])))
                yield act_bar

        programs = [(f"{prof.name}.{i}", worker(i)) for i in range(nthreads)]

    elif prof.kind is SyncKind.MUTEX_LOOP:
        nlocks = max(1, prof.nlocks)
        locks = [make_mutex(f"{prof.name}.m{j}") for j in range(nlocks)]
        done = Barrier(nthreads, f"{prof.name}.done")
        shared["locks"] = locks
        shared["barrier"] = done
        iters_per_thread = max(
            2, int(total_ns / nthreads / (prof.sync_interval_us * US))
        )
        act_cs = Compute(int(prof.cs_us * US))
        act_acquire = [MutexAcquire(m) for m in locks]
        act_release = [MutexRelease(m) for m in locks]
        lock_seq = rng.integers(0, nlocks, size=(nthreads, iters_per_thread))

        def worker(i: int):
            w = float(weights[:, i].mean())
            act_work = Compute(max(1, int(prof.sync_interval_us * US * w)))
            for it in range(iters_per_thread):
                yield act_work
                idx = int(lock_seq[i, it])
                yield act_acquire[idx]
                yield act_cs
                yield act_release[idx]
            yield BarrierWait(done)

        programs = [(f"{prof.name}.{i}", worker(i)) for i in range(nthreads)]

    elif prof.kind is SyncKind.MIXED:
        # Barrier phases with a per-phase locking section whose op count is
        # *per-thread constant* when locks_scale_with_threads (fluidanimate:
        # the lock work grows with the thread count).
        bar = Barrier(nthreads, f"{prof.name}.bar")
        nlocks = nthreads if prof.locks_scale_with_threads else 8
        locks = [make_mutex(f"{prof.name}.m{j}") for j in range(nlocks)]
        shared["barrier"] = bar
        shared["locks"] = locks
        ops_per_phase = 60
        act_cs = Compute(int(prof.cs_us * US))
        act_acquire = [MutexAcquire(m) for m in locks]
        act_release = [MutexRelease(m) for m in locks]
        act_bar = BarrierWait(bar)
        # Each thread mostly works its own grid cells but hits boundary
        # cells of the whole grid uniformly.
        lock_seq = rng.integers(0, max(nlocks, 1), size=(nthreads, phases, ops_per_phase))

        def worker(i: int):
            for k in range(phases):
                yield Compute(max(1, int(phase_ns / nthreads * weights[k, i])))
                for j in range(ops_per_phase):
                    idx = int(lock_seq[i, k, j]) % nlocks
                    yield act_acquire[idx]
                    yield act_cs
                    yield act_release[idx]
                yield act_bar

        programs = [(f"{prof.name}.{i}", worker(i)) for i in range(nthreads)]

    elif prof.kind is SyncKind.CONDVAR_MW:
        # Master/worker rounds: the master fans work out and collects
        # completions — group wakeups on every round (the VB-friendly
        # pattern), with imbalanced worker shares (why facesim benefits
        # from finer threads).
        nworkers = max(1, nthreads - 1)
        work_sem = Semaphore(0, f"{prof.name}.work")
        done_sem = Semaphore(0, f"{prof.name}.done")
        shared["work_sem"] = work_sem
        shared["done_sem"] = done_sem
        master_ns = int(prof.sync_interval_us * US * 0.3)

        def master():
            for _ in range(phases):
                yield Compute(master_ns)
                for _ in range(nworkers):
                    yield SemPost(work_sem)
                for _ in range(nworkers):
                    yield SemWait(done_sem)

        def worker(i: int):
            for k in range(phases):
                yield SemWait(work_sem)
                share = phase_ns / nworkers * weights[k, i % nworkers]
                yield Compute(max(1, int(share)))
                yield SemPost(done_sem)

        programs = [(f"{prof.name}.master", master())]
        programs += [
            (f"{prof.name}.{i}", worker(i)) for i in range(nworkers)
        ]

    elif prof.kind is SyncKind.SPIN_WAVEFRONT:
        # Tightly-coupled iterations synchronized by ad-hoc busy-waiting on
        # plain shared counters (NPB lu's flag polling / volrend): each
        # thread publishes its arrival and spins until every peer arrives —
        # a spin barrier.  On dedicated cores the spin window is tiny; with
        # oversubscribed threads, spinners burn whole time slices while the
        # stragglers they wait for queue behind them (the 9.9x-25.7x
        # collapses of Figures 1 and 14).
        flags = [
            SpinFlag(f"{prof.name}.k{k}", uses_pause=prof.spin_uses_pause)
            for k in range(phases)
        ]
        shared["flags"] = flags
        stage_ns = phase_ns / nthreads

        def worker(i: int):
            for k in range(phases):
                yield Compute(max(1, int(stage_ns * weights[k, i])))
                yield FlagSet(flags[k], 1, add=True)
                yield SpinUntilFlag(flags[k], nthreads)

        programs = [(f"{prof.name}.{i}", worker(i)) for i in range(nthreads)]

    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unhandled sync kind {prof.kind}")

    return BuiltWorkload(programs, exec_profile, shared)


@dataclass(frozen=True)
class SuiteRun:
    """Outcome of one benchmark execution."""

    name: str
    nthreads: int
    cores: int
    duration_ns: int
    stats: RunStats


def run_suite_benchmark(
    prof: BenchmarkProfile,
    nthreads: int,
    config: SimConfig,
    work_scale: float = 1.0,
    pinned: bool = False,
    mutex_factory: Callable[[str], Any] | None = None,
    max_ns: int = 600_000_000_000,
    trace=None,
) -> SuiteRun:
    """Run one benchmark to completion under the given kernel config.

    ``trace`` — an optional :class:`repro.sim.trace.TraceRecorder` to
    capture scheduling events (dispatches, parks, wakes, migrations).
    """
    kernel = Kernel(config, trace=trace)
    built = build_programs(
        prof,
        nthreads,
        seed=config.seed,
        work_scale=work_scale,
        topology=kernel.topology,
        mutex_factory=mutex_factory,
    )
    online = kernel.online_cpus()
    for idx, (name, gen) in enumerate(built.programs):
        pin = online[idx % len(online)] if pinned else None
        kernel.spawn(gen, name=name, profile=built.exec_profile, pinned_cpu=pin)
    kernel.run_to_completion(max_ns=max_ns)
    return SuiteRun(
        name=prof.name,
        nthreads=nthreads,
        cores=len(online),
        duration_ns=kernel.now - kernel.start_time,
        stats=collect(kernel),
    )
