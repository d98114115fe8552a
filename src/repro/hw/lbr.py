"""Last Branch Record (LBR) model.

BWD's first heuristic (Section 3.2): during a 100 us window, a spin loop
fills all 16 LBR entries with *identical, backward* conditional branches
(call/return branches are filtered out, so nested-function spins like
pthread's still look identical at the loop branch).

Three faces:

* :class:`LastBranchRecord` — a real ring buffer with ``record()`` plus the
  spin-signature predicate, used by unit tests and by the micro-architectural
  probes.
* :func:`synthesize_lbr` — builds the LBR contents a monitoring window would
  have observed, from the summary of what executed during the window (the
  DES does not simulate individual branches; per the profiling numbers a
  100 us window retires ~300k instructions, far below event granularity).
* :func:`synthesize_lbr_signature` — BWD's per-window path: that ring's
  spin-signature predicate, replayed from the same random words without
  building the ring; :func:`synthesize_lbr` is its reference.  It draws
  through the stream's :class:`~repro.sim.rng.ScalarDraws`, which owns
  PCG64's spare 32-bit half, so it never reads or writes the bit
  generator's state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.rng import ScalarDraws

_M32 = 0xFFFFFFFF
_UNIT = 2.0**-53  # numpy's random(): the top 53 bits of a word
# A distance draw integers(4, 4096) rejects exactly a 32-bit value that is
# a multiple of 2**30: one whose low 30 bits, here in a word's high or low
# half, are all zero.
_REJECT_HIGH = 0x3FFFFFFF << 32
_REJECT_LOW = 0x3FFFFFFF


@dataclass(frozen=True)
class BranchRecord:
    from_addr: int
    to_addr: int

    @property
    def backward(self) -> bool:
        return self.to_addr < self.from_addr


class LastBranchRecord:
    """Fixed-capacity ring of the most recent completed branches."""

    def __init__(self, capacity: int = 16):
        if capacity <= 0:
            raise ValueError("LBR capacity must be positive")
        self.capacity = capacity
        self._ring: list[BranchRecord] = []
        self._next = 0

    def record(self, from_addr: int, to_addr: int) -> None:
        rec = BranchRecord(from_addr, to_addr)
        if len(self._ring) < self.capacity:
            self._ring.append(rec)
        else:
            self._ring[self._next] = rec
        self._next = (self._next + 1) % self.capacity

    def clear(self) -> None:
        """Cleared at the start of each BWD monitoring period."""
        self._ring.clear()
        self._next = 0

    def entries(self) -> list[BranchRecord]:
        return list(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) == self.capacity

    def is_spin_signature(self) -> bool:
        """All entries present, identical, and backward."""
        if not self.full:
            return False
        first = self._ring[0]
        if not first.backward:
            return False
        return all(r == first for r in self._ring)


def synthesize_lbr(
    capacity: int,
    spin_fraction: float,
    spin_signature: int,
    rng: np.random.Generator,
    pollution_probability: float = 0.0,
) -> LastBranchRecord:
    """LBR contents at the end of a monitoring window.

    ``spin_fraction`` is the fraction of the window the task spent in a spin
    loop *at the end of the window* — the LBR only retains the most recent
    branches, so a window that ended with >= ``capacity`` spin iterations
    shows a pure spin signature unless polluted (interrupt, timer) with
    ``pollution_probability``.
    """
    lbr = LastBranchRecord(capacity)
    base = 0x400000 + (spin_signature % 0xFFFF) * 0x40
    if spin_fraction >= 1.0 and rng.random() >= pollution_probability:
        for _ in range(capacity):
            lbr.record(base + 0x10, base)  # identical backward branch
        return lbr
    n = capacity if spin_fraction > 0 or rng.random() < 0.95 else capacity - 1
    _record_mixed(lbr, n, rng)
    return lbr


def _record_mixed(
    lbr: LastBranchRecord, n: int, rng: np.random.Generator | ScalarDraws
) -> None:
    """Record a mixed window's ``n`` entries: varied branch targets,
    mostly forward."""
    for _ in range(n):
        frm = int(rng.integers(0x400000, 0x500000))
        direction = -1 if rng.random() < 0.4 else 1
        lbr.record(frm, frm + direction * int(rng.integers(4, 4096)))


def synthesize_lbr_signature(
    capacity: int,
    spin_fraction: float,
    spin_signature: int,
    draws: ScalarDraws,
    pollution_probability: float = 0.0,
) -> bool:
    """``synthesize_lbr(...).is_spin_signature()`` without building the ring.

    Leaves ``draws`` where :func:`synthesize_lbr` on the same stream
    leaves it, words and spare half alike, so a simulation using this
    fast path is bit-identical to one materializing the record objects.
    BWD calls it once per monitored window, where the ring itself is
    never inspected beyond this one predicate
    (``tests/test_lbr_pmc_ple.py`` checks the equivalence).

    A mixed window would take up to 49 scalar draws.  Instead, it reads
    the ring-length word, then the ``2 * n`` words an ``n``-entry ring
    takes, and replays numpy's PCG64 ``Generator`` on them:

    * ``random()`` is ``(word >> 11) * 2**-53``, a whole word;
    * ``integers(lo, hi)`` is Lemire's multiply-shift on a 32-bit draw
      ``u``: ``m = u * (hi - lo)`` is redrawn while its low 32 bits are
      below ``2**32 % (hi - lo)``, and the value is ``lo + (m >> 32)``;
    * a 32-bit draw takes the helper's spare half if it holds one, else
      the low half of a fresh word, whose high half becomes the spare.

    So without a rejection an entry takes two words whatever the spare
    holds, and leaves the spare as it found it, present or not.  The
    address span (2**20) never rejects.  The distance span (4092)
    rejects exactly the 32-bit values that are multiples of 2**30,
    since ``u * 4092 % 2**32 == 4 * (u * 1023 % 2**30)``.  A ring with
    no such distance half is settled from its first two entries: a
    ring whose first entry is forward, or whose first two entries
    differ, cannot match.  The rest, a rejection (which redraws from the
    spare half or from one more word) and a ring whose first two entries
    are the same branch, builds :func:`synthesize_lbr`'s ring on the
    same words.
    """
    if spin_fraction >= 1.0 and draws.random() >= pollution_probability:
        # Pure spin ring: full, identical, backward by construction.
        return capacity > 0
    n = capacity
    if not spin_fraction > 0 and (draws.raw() >> 11) * _UNIT >= 0.95:
        n -= 1  # the ring-length random() shortened the ring
    if n <= 0:
        return False
    spare = draws.spare
    words = draws.raw(2 * n).tolist()
    # Where entry i's draws sit when nothing rejects:
    #   no spare: address = the low half of word 2i, distance = its high
    #             half, direction = word 2i + 1; no spare is left;
    #   a spare:  address = the spare (i = 0) or the high half of word
    #             2i - 1, direction = word 2i, distance = the low half of
    #             word 2i + 1; the last word's high half is the new spare.
    if spare is None:
        for w in words[0::2]:
            if not w & _REJECT_HIGH:
                return _exact_walk(n, capacity, spare, words, draws)
        frm_u, dist_u = words[0] & _M32, words[0] >> 32
        dir_word = words[1]
    else:
        for w in words[1::2]:
            if not w & _REJECT_LOW:
                return _exact_walk(n, capacity, spare, words, draws)
        draws.spare = words[-1] >> 32
        frm_u, dir_word, dist_u = spare, words[0], words[1] & _M32
    if n < capacity or (dir_word >> 11) * _UNIT >= 0.4:
        return False  # an under-filled ring, or a forward first entry
    if n == 1:
        return True
    frm = (frm_u * 0x100000) >> 32
    to = frm - ((dist_u * 4092) >> 32)
    if spare is None:
        frm_u, dist_u = words[2] & _M32, words[2] >> 32
        dir_word = words[3]
    else:
        frm_u, dir_word, dist_u = words[1] >> 32, words[2], words[3] & _M32
    if (dir_word >> 11) * _UNIT >= 0.4:
        return False
    frm_1 = (frm_u * 0x100000) >> 32
    if frm_1 != frm or frm_1 - ((dist_u * 4092) >> 32) != to:
        return False
    # The first two entries are one backward branch (odds about 2**-35
    # per window): only the whole ring can tell.
    return _exact_walk(n, capacity, spare, words, draws)


def _exact_walk(
    n: int,
    capacity: int,
    spare: int | None,
    words: list[int],
    draws: ScalarDraws,
) -> bool:
    """The ring of :func:`synthesize_lbr`, built draw by draw from
    ``spare`` and the ring's ``2 * n`` words, then the stream's next
    words: a ring never takes fewer words, and each rejection the spare
    half cannot serve takes one more.  Gives the final spare half back
    to ``draws``."""
    budget = iter(words)

    def raw() -> int:
        w = next(budget, None)
        return draws.raw() if w is None else w

    replay = ScalarDraws(draws.generator)
    replay.raw, replay.spare = raw, spare
    lbr = LastBranchRecord(capacity)
    _record_mixed(lbr, n, replay)
    draws.spare = replay.spare
    return lbr.is_spin_signature()
