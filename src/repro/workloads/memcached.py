"""Memcached server model (Section 4.2, Figure 12).

Worker threads block in ``epoll_wait`` (libevent) for client requests;
request handling parses the command, takes the hash-table mutex for the
lookup/update, and copies the value.  Connections are pinned to workers
round-robin, as memcached does.

Virtual blocking applies to both blocking mechanisms the real server uses:
epoll (event waits) and futex (the hash-table mutex).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SimConfig
from ..kernel.epoll import EpollInstance
from ..kernel.kernel import Kernel
from ..kernel.task import ExecProfile
from ..metrics.stats import LatencySummary, summarize_latencies
from ..prog.actions import Compute, EpollWait, MutexAcquire, MutexRelease
from ..sync import Mutex

US = 1_000
MS = 1_000_000


@dataclass(slots=True)
class Request:
    # Treated as immutable; not ``frozen`` because the frozen __init__
    # (object.__setattr__ per field) is measurable at ~100k requests/run.
    conn: int
    kind: str  # "get" | "set"
    arrival_ns: int
    bucket: int = 0


@dataclass(frozen=True)
class MemcachedConfig:
    """Service-time model for one request (2048-byte values, 128-byte keys,
    10:1 GET:SET as in the paper's mutilate setup)."""

    workers: int = 4
    get_ratio: float = 10.0 / 11.0
    parse_ns: int = 1_500
    lookup_cs_ns: int = 800  # hash-table critical section (GET)
    update_cs_ns: int = 2_500  # hash-table critical section (SET)
    respond_ns: int = 2_200  # build + copy a 2 KB value
    # Closed-loop client think time per connection (exponential, so the
    # offered load is bursty like mutilate's).
    think_ns: int = 150_000
    connections: int = 48
    # memcached stripes its hash table with item locks; contention on one
    # global lock would convoy.
    lock_stripes: int = 16


@dataclass
class MemcachedResult:
    cores: int
    workers: int
    completed: int
    duration_ns: int
    latencies_us: list = field(default_factory=list)

    @property
    def throughput_ops(self) -> float:
        return self.completed / (self.duration_ns / 1e9)

    def latency_summary(self) -> LatencySummary:
        return summarize_latencies(self.latencies_us)


def memcached_run(
    sim_config: SimConfig,
    mc: MemcachedConfig,
    duration_ms: float = 300.0,
    warmup_ms: float = 40.0,
) -> MemcachedResult:
    """Drive a memcached server with closed-loop mutilate clients."""
    kernel = Kernel(sim_config)
    # Scalar draws replayed from raw words (repro.sim.rng.ScalarDraws).
    rng = kernel.rng_streams.draws("mutilate")
    epolls = [EpollInstance(f"worker{i}.ep") for i in range(mc.workers)]
    table_locks = [Mutex(f"memcached.hash{j}") for j in range(mc.lock_stripes)]
    horizon = int(duration_ms * MS)
    warmup = int(warmup_ms * MS)
    latencies_us: list[float] = []
    completed = [0]

    engine = kernel.engine

    get_ratio = mc.get_ratio
    lock_stripes = mc.lock_stripes
    workers = mc.workers

    def fire(conn: int) -> None:
        req = Request(
            conn,
            "get" if rng.random() < get_ratio else "set",
            engine.now,
            rng.integers(0, lock_stripes),
        )
        kernel.epoll_post(epolls[conn % workers], req)

    def next_request(conn: int, delay_ns: int) -> None:
        # One shared closure; the connection rides along as an event arg
        # (a per-request closure allocation is measurable at this rate).
        engine.schedule(max(0, delay_ns), fire, conn)

    # Actions are immutable descriptors the kernel never mutates (per-run
    # progress lives on the task), so each worker can yield shared
    # instances — hundreds of thousands of per-request allocations saved.
    act_parse = Compute(mc.parse_ns)
    act_lookup = Compute(mc.lookup_cs_ns)
    act_update = Compute(mc.update_cs_ns)
    act_respond = Compute(mc.respond_ns)
    act_acquire = [MutexAcquire(lk) for lk in table_locks]
    act_release = [MutexRelease(lk) for lk in table_locks]
    start_time = kernel.start_time

    def worker(i: int):
        ep = epolls[i]
        wait = EpollWait(ep)
        while True:
            batch = yield wait
            for req in batch:
                yield act_parse
                bucket = req.bucket
                yield act_acquire[bucket]
                yield act_lookup if req.kind == "get" else act_update
                yield act_release[bucket]
                yield act_respond
                now = engine.now
                if now - start_time > warmup:
                    latencies_us.append((now - req.arrival_ns) / 1e3)
                    completed[0] += 1
                # Closed loop: the client thinks, then sends again.
                next_request(req.conn, int(rng.exponential(mc.think_ns)))

    # Memcached's hash table and connection state are cache-heavy: a
    # migrated worker refills far more than a toy loop would.
    worker_profile = ExecProfile(migration_weight=4.0)
    for i in range(mc.workers):
        kernel.spawn(worker(i), name=f"mcd.worker{i}", profile=worker_profile)
    # Stagger the initial burst a little, as real connections would.
    for conn in range(mc.connections):
        next_request(conn, rng.integers(0, mc.think_ns))

    kernel.run_for(horizon)
    kernel.shutdown()
    return MemcachedResult(
        cores=len(kernel.online_cpus()),
        workers=mc.workers,
        completed=completed[0],
        duration_ns=horizon - warmup,
        latencies_us=latencies_us,
    )
