"""Pluggable scheduler policies: registry contract, runqueue keying,
per-policy invariants/properties (work conservation, no lost tasks, RR
rotation, EEVDF eligibility), and descriptor/cache-key stability."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.config import SchedulerConfig, vanilla_config
from repro.errors import ConfigError
from repro.kernel import Kernel
from repro.kernel.policy import (
    POLICIES,
    SchedPolicy,
    available,
    current_policy,
    get_policy,
    register,
    render_policy_table,
    set_default_policy,
    update_policy_table,
    validate_policy_name,
)
from repro.kernel.policies import CfsPolicy, EevdfPolicy, FifoRrPolicy
from repro.kernel.task import TaskState
from repro.prog.actions import Compute
from repro.runners.parallel import RUNNERS, vanilla_desc

MS = 1_000_000


def compute_kernel(policy: str, *, cores=2, ntasks=6, chunks=9,
                   chunk_ns=MS, nices=None):
    """A dense always-runnable Compute workload; returns the finished
    kernel and a serialized (task-name, finish-time) resume log."""
    cfg = vanilla_config(cores=cores, policy=policy)
    k = Kernel(cfg)
    log: list[tuple[str, int]] = []

    def body(label):
        for _ in range(chunks):
            yield Compute(chunk_ns)
            log.append((label, k.now))

    for i in range(ntasks):
        nice = nices[i] if nices else 0
        k.spawn(body(f"t{i}"), name=f"t{i}", nice=nice)
    k.run_to_completion()
    return k, log


# ---------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------

def test_registry_lists_the_shipped_policies():
    assert available() == ("cfs", "eevdf", "fifo_rr")
    assert POLICIES["cfs"] is CfsPolicy
    assert POLICIES["eevdf"] is EevdfPolicy
    assert POLICIES["fifo_rr"] is FifoRrPolicy


def test_get_policy_returns_fresh_instances():
    a, b = get_policy("eevdf"), get_policy("eevdf")
    assert type(a) is EevdfPolicy and a is not b


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        @register
        class Impostor(SchedPolicy):  # noqa: F811
            name = "cfs"


def test_unknown_policy_name_is_a_config_error():
    with pytest.raises(ConfigError):
        validate_policy_name("bogus")
    with pytest.raises(ConfigError):
        vanilla_config(cores=2, policy="bogus")
    with pytest.raises(ConfigError):
        set_default_policy("bogus")


def test_policy_table_renders_every_policy_and_roundtrips():
    table = render_policy_table()
    for name in available():
        assert f"`{name}`" in table
    doc = ("intro\n<!-- BEGIN GENERATED: policy-table -->\nstale\n"
           "<!-- END GENERATED: policy-table -->\noutro\n")
    updated = update_policy_table(doc)
    assert table in updated and "stale" not in updated
    assert update_policy_table(updated) == updated


# ---------------------------------------------------------------------
# descriptor / cache-key stability
# ---------------------------------------------------------------------

def test_cfs_descriptors_are_byte_identical_to_pre_policy_ones():
    assert vanilla_desc(8, 7) == vanilla_desc(8, 7, policy="cfs")
    assert "policy" not in vanilla_desc(8, 7, policy="cfs")
    assert vanilla_desc(8, 7, policy="eevdf")["policy"] == "eevdf"


def test_descriptor_pins_policy_against_process_default():
    """A desc without a "policy" key *is* CFS — a worker must not let a
    non-CFS process default leak into a CFS-keyed result."""
    desc = vanilla_desc(4, 7)          # created before any --policy flag
    assert "policy" not in desc

    def run(d):
        return RUNNERS["suite_point"](name="fluidanimate", nthreads=12,
                                      config=d, work_scale=0.05)

    baseline = run(desc)
    prev = current_policy()
    set_default_policy("eevdf")
    try:
        assert run(desc) == baseline   # pinned to CFS, default ignored
        assert run(vanilla_desc(4, 7, policy="eevdf")) != baseline
    finally:
        set_default_policy(prev)


def test_config_policy_beats_process_default():
    prev = current_policy()
    set_default_policy("fifo_rr")
    try:
        assert Kernel(vanilla_config(cores=2)).policy.name == "fifo_rr"
        assert Kernel(vanilla_config(cores=2,
                                     policy="cfs")).policy.name == "cfs"
    finally:
        set_default_policy(prev)


# ---------------------------------------------------------------------
# every policy: invariants + conservation properties
# ---------------------------------------------------------------------

@pytest.mark.parametrize("policy", available())
def test_policy_is_invariant_clean_under_chaos(policy):
    from repro.chaos import random_plan, run_chaos_spec
    spec = {
        "runner": "suite_point",
        "params": {"name": "fluidanimate", "nthreads": 12,
                   "config": vanilla_desc(4, 7, policy=policy),
                   "work_scale": 0.05},
        "seed": 7,
    }
    out = run_chaos_spec(spec, random_plan(3, duration_ns=5 * MS))
    assert out.ok and out.violation is None
    assert out.invariant_checks > 0


@pytest.mark.parametrize("policy", available())
def test_no_lost_tasks_and_work_conservation(policy):
    """All tasks exit; 2 CPUs never idle while 6 tasks are runnable, so
    total run time is exactly total work / cores (pure Compute)."""
    k, log = compute_kernel(policy, cores=2, ntasks=6, chunks=9)
    assert all(t.state is TaskState.EXITED for t in k.tasks)
    assert len(log) == 6 * 9
    busy = 6 * 9 * MS // 2
    assert busy <= k.now <= busy * 105 // 100  # only switch overhead on top


@pytest.mark.parametrize("policy", available())
def test_policies_are_deterministic(policy):
    a = compute_kernel(policy, cores=2, ntasks=6)[1]
    b = compute_kernel(policy, cores=2, ntasks=6)[1]
    assert a == b


def test_policies_actually_differ():
    runs = {p: compute_kernel(p, cores=1, ntasks=4,
                              nices=[0, 0, 5, 5])[1] for p in available()}
    assert runs["cfs"] != runs["fifo_rr"]


# ---------------------------------------------------------------------
# FIFO-RR semantics
# ---------------------------------------------------------------------

def test_fifo_rr_round_robin_rotation_order():
    """Equal-nice tasks on one CPU rotate in spawn order: each quantum
    (3 ms = 3 x 1 ms chunks) belongs to one task, cycling t0,t1,t2."""
    _, log = compute_kernel("fifo_rr", cores=1, ntasks=3, chunks=9)
    groups = [name for i, (name, _) in enumerate(log)
              if i == 0 or log[i - 1][0] != name]
    assert groups == ["t0", "t1", "t2"] * 3


def test_fifo_rr_priority_preempts_within_run():
    """A lower-nice (higher-priority) task monopolizes the CPU: it
    finishes all its chunks before any nice-5 task resumes."""
    _, log = compute_kernel("fifo_rr", cores=1, ntasks=3, chunks=6,
                            nices=[5, 5, -5])
    t2_done = max(i for i, (n, _) in enumerate(log) if n == "t2")
    assert t2_done == 5  # slots 0..5 are all t2's


# ---------------------------------------------------------------------
# EEVDF semantics
# ---------------------------------------------------------------------

def _sched() -> SchedulerConfig:
    return vanilla_config(cores=1).scheduler


def test_eevdf_deadline_is_vruntime_plus_weighted_slice():
    pol = EevdfPolicy()
    pol.configure(_sched())
    t = SimpleNamespace(vruntime=5 * MS, weight=1024, deadline=None)
    key = pol.queue_key(t)
    assert key == t.deadline == 5 * MS + pol.sched.regular_slice_ns
    assert pol.expected_key(t) == key
    heavy = SimpleNamespace(vruntime=5 * MS, weight=2048, deadline=None)
    assert pol.queue_key(heavy) == 5 * MS + pol.sched.regular_slice_ns // 2


def test_eevdf_deadline_renews_only_on_expiry():
    pol = EevdfPolicy()
    pol.configure(_sched())
    t = SimpleNamespace(vruntime=0, weight=1024, deadline=None)
    first = pol.queue_key(t)
    t.vruntime = first - 1          # not yet expired: keep the deadline
    assert pol.queue_key(t) == first
    t.vruntime = first              # expired: renew from current vruntime
    assert pol.queue_key(t) == first + pol.sched.regular_slice_ns


def test_eevdf_wakeup_clears_deadline_for_replacement():
    pol = EevdfPolicy()
    pol.configure(_sched())
    cfg = vanilla_config(cores=1, policy="eevdf")
    k = Kernel(cfg)
    rq = k.cpus[0].rq
    t = SimpleNamespace(vruntime=0, weight=1024, deadline=123,
                        thread_state=0)
    pol.place_wakeup(rq, t)
    assert t.deadline is None       # re-derived on the enqueue that follows


def test_eevdf_picks_eligible_earliest_deadline():
    """Among queued runnables, the earliest deadline with vruntime at or
    below the queue average wins — a far-ahead task is not eligible."""
    from repro.kernel.runqueue import CfsRunqueue
    from repro.kernel.task import Task

    pol = EevdfPolicy()
    pol.configure(_sched())
    rq = CfsRunqueue(0)
    rq.key_fn = pol.queue_key

    def task(name, vr, dl):
        t = Task(name, iter(()))
        t.vruntime, t.deadline = vr, dl
        t.state = TaskState.RUNNABLE
        rq.enqueue(t)
        return t

    ahead = task("ahead", 12 * MS, 12 * MS + 1)  # earliest deadline, ineligible
    behind = task("behind", 1 * MS, 20 * MS)     # eligible (below avg ~6.5ms)
    assert pol.pick_next(rq) is behind
    behind.vruntime = 30 * MS                    # now ahead is eligible
    rq.enqueue(behind)
    assert pol.pick_next(rq) is ahead


# ---------------------------------------------------------------------
# runqueue keying
# ---------------------------------------------------------------------

class _PlainPolicy(SchedPolicy):
    """Overrides no hook: CFS under another name."""
    name = "plain"


@pytest.mark.parametrize("policy,keyed", [
    ("cfs", False), ("plain", False), ("eevdf", True), ("fifo_rr", True),
])
def test_key_fn_installed_only_when_queue_key_is_overridden(
        policy, keyed, monkeypatch):
    """Vruntime keying is the runqueue's own (``key_fn`` None, which keeps
    the O(1) ``min_vruntime``); a policy that re-keys the queue gets its
    ``queue_key`` hook installed on every CPU."""
    monkeypatch.setitem(POLICIES, "plain", _PlainPolicy)
    k = Kernel(vanilla_config(cores=2, policy=policy))
    for cpu in k.cpus:
        if keyed:
            assert cpu.rq.key_fn == k.policy.queue_key
        else:
            assert cpu.rq.key_fn is None


# ---------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------

def test_cli_rejects_unknown_policy():
    from repro.cli import build_parser
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args(["fig02", "--policy", "bogus"])
    assert e.value.code == 2


def test_cli_list_surfaces_policies(capsys):
    from repro.cli import main
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in available():
        assert name in out
    assert "--policy" in out and "docs/scheduling.md" in out
