"""``/proc/schedstat``-style snapshots of a kernel's scheduler counters.

Everything here *reads* accounting the kernel always maintains
incrementally (``kernel/kernel.py``); the only mutations are final
accounting flushes (PSI integration and runqueue depth integrals up to
``now``), which are deterministic and happen after the run has produced
its results — digests and RNG streams are untouched either way.

Per-task rows are keyed by spawn order (a stable per-kernel ordinal),
not by ``tid``: tids increment across every kernel built in a process,
so they would differ between ``--jobs 1`` and ``--jobs 4`` runs of the
same spec.  Snapshots must be byte-identical across worker layouts
(tests/test_telemetry.py holds this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .pressure import pressure_dict

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.task import Task


def task_row(ordinal: int, task: "Task") -> dict[str, Any]:
    s = task.stats
    return {
        "task": ordinal,
        "name": task.name,
        "run_ns": s.cpu_ns,
        "spin_ns": s.spin_ns,
        "wait_ns": s.wait_ns,
        "block_ns": s.sleep_ns,
        "nr_switches": s.nr_switches,
        "nr_voluntary": s.nr_voluntary,
        "nr_involuntary": s.nr_involuntary,
        "nr_migrations": s.total_migrations,
        "nr_wakeups": s.nr_wakeups,
        "nr_blocks": s.nr_blocks,
        "nr_futex_waits": s.nr_futex_waits,
        "nr_slice_expiries": s.nr_slice_expiries,
        "bwd_deschedules": s.bwd_deschedules,
        "wakeup_latency_ns": s.wakeup_latency_ns,
    }


def snapshot(kernel: "Kernel") -> dict[str, Any]:
    """One kernel's full schedstats: per-task, per-CPU, machine totals,
    and the PSI pressure block.  JSON-pure and deterministically ordered
    (tasks by spawn order, CPUs by id, keys literal)."""
    now = kernel.now
    elapsed = max(1, now - kernel.start_time)
    kernel._depth_delta(now, 0)  # close the depth integral at ``now``

    tasks = []
    for i, t in enumerate(kernel.tasks):
        t.account_state(now)
        tasks.append(task_row(i, t))

    cpus = []
    for cpu in kernel.cpus:
        busy, sched = cpu.busy_ns, cpu.sched_ns
        irq, stall, poll = cpu.irq_ns, cpu.stall_ns, cpu.poll_ns
        used = busy + sched + irq + stall + poll
        idle = max(0, elapsed - used) if cpu.online else 0
        cpus.append({
            "cpu": cpu.id,
            "online": cpu.online,
            "busy_ns": busy,
            "sched_ns": sched,
            "irq_ns": irq,
            "stall_ns": stall,  # migration cache-refill ("steal") time
            "poll_ns": poll,
            "idle_ns": idle,
            "nr_switches": cpu.nr_switches,
            "switches_per_s": cpu.nr_switches * 1e9 / elapsed,
        })

    machine = {
        "elapsed_ns": now - kernel.start_time,
        "nr_tasks": len(kernel.tasks),
        "nr_cpus_online": len(kernel.online_cpus()),
        "nr_switches": sum(c["nr_switches"] for c in cpus),
        # Machine-wide by construction: total nr_running only changes on
        # spawn/exit/park/wake, so the kernel integrates the sum directly
        # (per-CPU splits would put accounting back on the switch path).
        "rq_depth_integral_ns": kernel.rq_depth_integral_ns,
        "rq_depth_avg": kernel.rq_depth_integral_ns / elapsed,
        "migrations_in_node": kernel.migrations_in_node,
        "migrations_cross_node": kernel.migrations_cross_node,
        "wake_migrations": kernel.wake_migrations,
        "balance_migrations": kernel.balance_migrations,
        "nr_wakeups": sum(t["nr_wakeups"] for t in tasks),
        "nr_futex_waits": sum(t["nr_futex_waits"] for t in tasks),
        "nr_slice_expiries": sum(t["nr_slice_expiries"] for t in tasks),
        "bwd_deschedules": sum(t["bwd_deschedules"] for t in tasks),
        "run_ns": sum(t["run_ns"] for t in tasks),
        "spin_ns": sum(t["spin_ns"] for t in tasks),
        "wait_ns": sum(t["wait_ns"] for t in tasks),
        "block_ns": sum(t["block_ns"] for t in tasks),
    }

    snap = {
        "machine": machine,
        "pressure": pressure_dict(kernel),
        "cpus": cpus,
        "tasks": tasks,
        "hists": {
            name: h.to_dict() for name, h in sorted(kernel.hists.items())
        },
    }
    # Serving runs under a resilience policy or fault plan attach their
    # overload-control counters to the kernel; None otherwise, so
    # default snapshots are unchanged.
    resil = kernel.resilience_stats
    if resil is not None:
        snap["resilience"] = resil.as_dict()
    return snap
