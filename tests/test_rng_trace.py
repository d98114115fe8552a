"""Deterministic RNG streams and trace recorder."""

from __future__ import annotations

import random

import pytest

from repro.sim.rng import RngStreams, ScalarDraws
from repro.sim.trace import TraceRecorder


def test_same_seed_same_stream():
    a = RngStreams(42).stream("x")
    b = RngStreams(42).stream("x")
    assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))


def test_different_names_independent():
    s = RngStreams(42)
    a = list(s.stream("a").integers(0, 10**9, 8))
    b = list(s.stream("b").integers(0, 10**9, 8))
    assert a != b


def test_stream_cached_not_restarted():
    s = RngStreams(1)
    first = list(s.stream("x").integers(0, 10**9, 4))
    second = list(s.stream("x").integers(0, 10**9, 4))
    assert first != second  # continued, not re-created


def test_adding_consumer_does_not_perturb_existing():
    s1 = RngStreams(9)
    a1 = list(s1.stream("alpha").integers(0, 10**9, 5))
    s2 = RngStreams(9)
    _ = s2.stream("zeta")  # new consumer created first
    a2 = list(s2.stream("alpha").integers(0, 10**9, 5))
    assert a1 == a2


def test_fork_differs():
    s = RngStreams(5)
    f = s.fork(1)
    assert list(s.stream("x").integers(0, 10**9, 4)) != list(
        f.stream("x").integers(0, 10**9, 4)
    )


# Upper bounds of ``integers(low, low + n)``: powers of two and not,
# 1 (no draw), the 32-bit edges, and ranges that take whole words.
_RANGES = (1, 2, 3, 7, 10, 16, 33, 1000, 150_000, 2**31 + 5, 2**32 - 1,
           2**32, 2**32 + 1, 3 * 10**9, 2**40 + 3)


@pytest.mark.parametrize("seed", [0, 1, 2021, 77])
def test_scalar_draws_replay_numpy_exactly(seed):
    """``ScalarDraws`` gives numpy's exact sequence over interleaved
    ``random``/``integers``/``exponential``/``poisson`` calls on one
    generator, with the spare 32-bit half carried across the other kinds
    of draw."""
    ref = RngStreams(seed).stream("kernel.sched")
    draws = RngStreams(seed).draws("kernel.sched")
    pick = random.Random(seed)
    for _ in range(5_000):
        kind = pick.randrange(5)
        if kind == 0:
            assert draws.random() == ref.random()
        elif kind == 1:
            low = pick.choice((0, 0, 5, -7))
            high = low + pick.choice(_RANGES)
            got = draws.integers(low, high)
            assert type(got) is int
            assert got == int(ref.integers(low, high))
        elif kind == 2:
            assert draws.exponential(150_000.0) == ref.exponential(150_000.0)
        elif kind == 3:
            # Small and large means: numpy's two Poisson algorithms.
            lam = pick.choice((0.5, 6.0, 337.0, 6667.0))
            assert draws.poisson(lam) == ref.poisson(lam)
        else:
            # Runs of 32-bit draws: both halves of a word in turn.
            for _ in range(pick.randrange(1, 4)):
                assert draws.integers(0, 16) == int(ref.integers(0, 16))
    # Same PCG64 state, and the helper's spare half is numpy's buffer.
    ours = draws.generator.bit_generator.state
    theirs = ref.bit_generator.state
    assert ours["state"] == theirs["state"]
    assert draws.spare == (theirs["uinteger"] if theirs["has_uint32"]
                           else None)


def test_scalar_draws_one_helper_per_stream():
    streams = RngStreams(3)
    draws = streams.draws("mutilate")
    assert isinstance(draws, ScalarDraws)
    assert streams.draws("mutilate") is draws
    assert draws.generator is streams.stream("mutilate")
    with pytest.raises(ValueError):
        draws.integers(5, 5)


def test_trace_disabled_records_nothing():
    tr = TraceRecorder(enabled=False)
    tr.emit(1, "dispatch", 0, "t")
    assert list(tr.events) == []


def test_trace_kind_filter_and_count():
    tr = TraceRecorder(enabled=True, kinds={"wake"})
    tr.emit(1, "wake", 0, "a", how="vb")
    tr.emit(2, "park", 0, "a")
    tr.emit(3, "wake", 1, "b", how="vanilla")
    assert tr.count("wake") == 2
    assert tr.count("park") == 0
    assert [e.cpu for e in tr.of_kind("wake")] == [0, 1]
    tr.clear()
    assert list(tr.events) == []
