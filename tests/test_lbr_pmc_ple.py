"""LBR ring, PMC synthesis, and the PLE model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PleConfig, ProfilingConfig
from repro.hw.lbr import BranchRecord, LastBranchRecord, synthesize_lbr
from repro.hw.pmc import synthesize_pmc
from repro.hw.ple import PauseLoopExiting
from repro.sim.rng import ScalarDraws


def test_branch_direction():
    assert BranchRecord(100, 50).backward
    assert not BranchRecord(50, 100).backward


def test_lbr_ring_capacity():
    lbr = LastBranchRecord(4)
    for i in range(10):
        lbr.record(i + 100, i)
    entries = lbr.entries()
    assert len(entries) == 4
    assert {e.from_addr for e in entries} == {106, 107, 108, 109}


def test_lbr_spin_signature_requires_full_identical_backward():
    lbr = LastBranchRecord(3)
    lbr.record(100, 50)
    assert not lbr.is_spin_signature()  # not full
    lbr.record(100, 50)
    lbr.record(100, 50)
    assert lbr.is_spin_signature()
    lbr.record(100, 200)  # forward branch enters the ring
    assert not lbr.is_spin_signature()


def test_lbr_clear():
    lbr = LastBranchRecord(2)
    lbr.record(10, 5)
    lbr.clear()
    assert not lbr.full
    assert lbr.entries() == []


def test_lbr_capacity_positive():
    with pytest.raises(ValueError):
        LastBranchRecord(0)


def test_synthesize_pure_spin_matches_signature():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lbr = synthesize_lbr(16, 1.0, spin_signature=7, rng=rng)
        assert lbr.is_spin_signature()


def test_synthesize_polluted_spin_sometimes_misses():
    rng = np.random.default_rng(0)
    missed = sum(
        not synthesize_lbr(16, 1.0, 7, rng, pollution_probability=0.5)
        .is_spin_signature()
        for _ in range(200)
    )
    assert 50 < missed < 150


def test_synthesize_nonspin_rarely_matches():
    rng = np.random.default_rng(0)
    matches = sum(
        synthesize_lbr(16, 0.0, 7, rng).is_spin_signature() for _ in range(300)
    )
    assert matches == 0


def test_pmc_spin_window_miss_free():
    rng = np.random.default_rng(0)
    w = synthesize_pmc(100_000, 1.0, ProfilingConfig(), rng)
    assert w.miss_free
    assert w.instructions == 300_000  # 3000 inst/us * 100 us


def test_pmc_compute_window_has_paper_rates():
    """~6667 L1 misses and ~337 TLB misses per 100 us (Section 3.2)."""
    rng = np.random.default_rng(0)
    l1 = []
    tlb = []
    for _ in range(50):
        w = synthesize_pmc(100_000, 0.0, ProfilingConfig(), rng)
        assert not w.miss_free
        l1.append(w.l1d_misses)
        tlb.append(w.tlb_misses)
    assert np.mean(l1) == pytest.approx(6667, rel=0.1)
    assert np.mean(tlb) == pytest.approx(337, rel=0.15)


def test_pmc_partial_spin_scales_misses():
    rng = np.random.default_rng(0)
    full = np.mean(
        [synthesize_pmc(100_000, 0.0, ProfilingConfig(), rng).l1d_misses
         for _ in range(30)]
    )
    half = np.mean(
        [synthesize_pmc(100_000, 0.5, ProfilingConfig(), rng).l1d_misses
         for _ in range(30)]
    )
    assert half == pytest.approx(full / 2, rel=0.2)


def test_pmc_tight_loop_probability():
    rng = np.random.default_rng(0)
    free = sum(
        synthesize_pmc(
            100_000, 0.0, ProfilingConfig(), rng, tight_loop_probability=0.3
        ).miss_free
        for _ in range(500)
    )
    assert 100 < free < 200


def test_ple_detects_only_pause_spins():
    ple = PauseLoopExiting(PleConfig(enabled=True, window_ns=100), num_cpus=2)
    assert not ple.observe(0, 0, True)  # arms
    assert ple.observe(0, 150, True)  # past the window -> exit
    assert ple.exits == 1
    # Non-PAUSE spinning never triggers and resets the clock.
    assert not ple.observe(1, 0, False)
    assert not ple.observe(1, 1_000_000, False)
    assert ple.exits == 1


def test_ple_spin_clock_resets_on_break():
    ple = PauseLoopExiting(PleConfig(enabled=True, window_ns=100), num_cpus=1)
    ple.observe(0, 0, True)
    ple.observe(0, 50, False)  # break
    assert not ple.observe(0, 60, True)  # re-armed at 60
    assert not ple.observe(0, 140, True)  # only 80 elapsed
    assert ple.observe(0, 170, True)


def test_ple_disabled_never_fires():
    ple = PauseLoopExiting(PleConfig(enabled=False), num_cpus=1)
    assert not ple.observe(0, 0, True)
    assert not ple.observe(0, 10**9, True)


# ---------------------------------------------------------------------------
# Boolean fast paths: must match the object-building originals AND consume
# the RNG stream identically (BWD's bit-reproducibility depends on both).
# The reference draws on a numpy generator; the fast path on a ScalarDraws
# over an identical one, which keeps PCG64's spare 32-bit half itself.


def _rng_pair(seed):
    """A numpy generator and a :class:`ScalarDraws` over an identical one.
    Odd seeds start with a buffered 32-bit half (one ``integers(0, 16)``
    pre-draw on each), which only the 32-bit draws behind ``integers``
    ever read."""
    ref = np.random.default_rng(seed)
    draws = ScalarDraws(np.random.default_rng(seed))
    if seed % 2:
        ref.integers(0, 16)
        draws.integers(0, 16)
    return ref, draws


def _assert_same_stream(ref, draws, case):
    # The same PCG64 words consumed, the helper's spare half is numpy's
    # has_uint32/uinteger buffer...
    state = ref.bit_generator.state
    assert draws.generator.bit_generator.state["state"] == state["state"], case
    assert draws.spare == (state["uinteger"] if state["has_uint32"]
                           else None), case
    # ...and a draw that reads that half agrees.
    assert draws.integers(4, 4096) == ref.integers(4, 4096), case


def test_lbr_signature_fast_path_equivalence():
    from repro.hw.lbr import synthesize_lbr_signature

    cases = [
        (16, 1.0, 7, 0.0),
        (16, 1.0, 7, 0.1),
        (16, 1.0, 7, 0.9),
        (16, 0.0, 7, 0.0),
        (16, 0.4, 3, 0.0),
        (8, 0.0, 1, 0.0),
        (2, 0.0, 1, 0.0),
        (1, 0.0, 1, 0.0),
        (1, 0.5, 1, 0.0),
        (1, 1.0, 1, 0.5),
    ]
    for capacity, frac, sig, pollution in cases:
        for seed in range(50):
            ref, draws = _rng_pair(seed)
            for window in range(3):  # the spare carries across windows
                case = (capacity, frac, seed, window)
                slow = synthesize_lbr(capacity, frac, sig, ref, pollution)
                fast = synthesize_lbr_signature(capacity, frac, sig, draws,
                                                pollution)
                assert fast == slow.is_spin_signature(), case
                # Draws one integers(4, 4096) on each side: still aligned.
                _assert_same_stream(ref, draws, case)


def test_lbr_signature_rejects_a_generator_it_cannot_replay():
    """The replay's draws come from a ScalarDraws, which takes only PCG64."""
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(TypeError):
        ScalarDraws(rng)


# PCG64(2021) words whose 32-bit halves are multiples of 2**30: the only
# draws integers(4, 4096) rejects (u * 4092 % 2**32 < 2**32 % 4092 == 4).
_HIGH_HALF_REJECT_AT = 4_138_534_420  # 0x800000004863eb5d
_LOW_HALF_REJECT_AT = 227_231_919  # 0xcbc1eafec0000000


def _positioned_pair(skip_words, pre_draw):
    """A numpy generator and a ScalarDraws, each ``skip_words`` words into
    ``PCG64(2021)``."""
    def positioned():
        bitgen = np.random.PCG64(2021)
        bitgen.advance(skip_words)
        return np.random.Generator(bitgen)

    ref, draws = positioned(), ScalarDraws(positioned())
    if pre_draw:
        ref.integers(0, 16)
        draws.integers(0, 16)
    return ref, draws


def test_lbr_signature_replays_lemire_rejection_with_fresh_word():
    """No spare half: entry 0's distance draw is the high half of the
    rejecting word, so the redraw takes a fresh word — the scalar path
    consumes one word more than the no-rejection minimum."""
    from repro.hw.lbr import synthesize_lbr_signature

    start = _HIGH_HALF_REJECT_AT - 1  # the ring-length random() comes first
    ref, draws = _positioned_pair(start, pre_draw=False)
    slow = synthesize_lbr(16, 0.0, 1, ref, 0.0)
    assert len(slow.entries()) == 16
    assert synthesize_lbr_signature(16, 0.0, 1, draws, 0.0) == (
        slow.is_spin_signature()
    )
    minimum = 1 + 2 * 16  # ring-length draw + two words per entry
    expect = np.random.PCG64(2021)
    expect.advance(start + minimum + 1)
    assert ref.bit_generator.state["state"] == expect.state["state"]
    _assert_same_stream(ref, draws, "fresh-word rejection")


def test_lbr_signature_replays_lemire_rejection_from_buffer():
    """A spare half: the rejecting draw is a low half, and the redraw
    takes the spare high half instead of a fresh word, which leaves no
    spare where a rejection-free window would leave one."""
    from repro.hw.lbr import synthesize_lbr_signature

    start = _LOW_HALF_REJECT_AT - 7  # the pre-draw takes one word
    ref, draws = _positioned_pair(start, pre_draw=True)
    slow = synthesize_lbr(16, 0.0, 1, ref, 0.0)
    assert synthesize_lbr_signature(16, 0.0, 1, draws, 0.0) == (
        slow.is_spin_signature()
    )
    assert ref.bit_generator.state["has_uint32"] == 0
    assert draws.spare is None
    _assert_same_stream(ref, draws, "buffered rejection")


def _crafted_words(ring, with_spare):
    """A spare half (or None) and the words that make
    ``synthesize_lbr(16, 0.0, ...)`` build ``ring``, a list of
    ``(from, to)`` branches, on a stream that starts with that spare."""
    def unit_word(x):  # random() == x, to 53 bits
        return int(x * 2**53) << 11

    def half(value, span):  # the least u with (u * span) >> 32 == value
        return -((-value << 32) // span)

    addr = [half(frm - 0x400000, 0x100000) for frm, _ in ring]
    dist = [half(abs(to - frm) - 4, 4092) for frm, to in ring]
    dirs = [unit_word(0.2 if to < frm else 0.7) for frm, to in ring]
    words = [unit_word(0.5)]  # the ring-length draw: < 0.95, a full ring
    if not with_spare:
        # Per entry: address in the low half, distance in the high half
        # of one word, then the direction word.
        for a, d, r in zip(addr, dist, dirs):
            words += [a | d << 32, r]
        return None, words
    # The spare is entry 0's address; per entry: the direction word, then
    # a word with the distance in its low half and the next address in
    # its high half (after the last entry, the spare left over).
    for r, d, a in zip(dirs, dist, addr[1:] + [0x5EED]):
        words += [r, d | a << 32]
    return addr[0], words


def _fed(words, spare):
    """A ScalarDraws holding ``spare`` whose raw read serves ``words``;
    returns it and the list of words read so far."""
    draws = ScalarDraws(np.random.default_rng(0))
    draws.spare = spare
    served = []

    def raw(size=None):
        if size is None:
            served.append(words[len(served)])
            return served[-1]
        block = words[len(served):len(served) + size]
        served.extend(block)
        return np.array(block, dtype=np.uint64)

    draws.raw = raw
    return draws, served


def test_lbr_signature_exact_walk_on_a_repeated_first_branch():
    """A ring whose first two entries are one backward branch falls back
    to the exact walk: all 16 the same is a spin signature, and a
    different last entry is not.  Both read the same 33 words, with or
    without a spare half to start from, and leave the reference's
    spare."""
    from repro.hw.lbr import synthesize_lbr_signature

    spin = [(0x412340, 0x412300)] * 16
    changed = spin[:15] + [(0x412340, 0x412380)]
    for with_spare in (False, True):
        for ring, expect in ((spin, True), (changed, False)):
            case = (with_spare, expect)
            spare, words = _crafted_words(ring, with_spare)
            ref, _ = _fed(words, spare)
            built = synthesize_lbr(16, 0.0, 1, ref)
            assert [(e.from_addr, e.to_addr)
                    for e in built.entries()] == ring, case
            draws, served = _fed(words, spare)
            assert synthesize_lbr_signature(16, 0.0, 1, draws) is expect, case
            assert served == words and len(words) == 33, case
            assert draws.spare == ref.spare, case


def test_pmc_miss_free_fast_path_equivalence():
    from repro.hw.pmc import synthesize_pmc_miss_free

    profile = ProfilingConfig()
    cases = [
        (100_000, 1.0, 0.0, 1.0),
        (100_000, 0.0, 0.0, 1.0),
        (100_000, 0.0, 0.3, 1.0),
        (100_000, 0.6, 0.0, 0.5),
        (100_000, 0.3, 0.8, 2.0),
        (100_000, 0.9999, 0.0, 1e-6),
        (50_000, 0.5, 0.5, 0.01),
    ]
    for window, frac, tight, scale in cases:
        for seed in range(50):
            ref, draws = _rng_pair(seed)
            slow = synthesize_pmc(
                window, frac, profile, ref,
                tight_loop_probability=tight, miss_rate_scale=scale,
            )
            fast = synthesize_pmc_miss_free(
                window, frac, profile, draws,
                tight_loop_probability=tight, miss_rate_scale=scale,
            )
            assert fast == slow.miss_free, (window, frac, tight, scale, seed)
            _assert_same_stream(ref, draws, (window, frac, seed))
