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
  building the ring; :func:`synthesize_lbr` is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_M32 = 0xFFFFFFFF
_UNIT = 2.0**-53  # numpy's random(): the top 53 bits of a word


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
    # Mixed window: varied branch targets, mostly forward.
    n = capacity if spin_fraction > 0 or rng.random() < 0.95 else capacity - 1
    for i in range(n):
        frm = int(rng.integers(0x400000, 0x500000))
        direction = -1 if rng.random() < 0.4 else 1
        lbr.record(frm, frm + direction * int(rng.integers(4, 4096)))
    return lbr


def synthesize_lbr_signature(
    capacity: int,
    spin_fraction: float,
    spin_signature: int,
    rng: np.random.Generator,
    pollution_probability: float = 0.0,
) -> bool:
    """``synthesize_lbr(...).is_spin_signature()`` without building the ring.

    Leaves ``rng`` in exactly the state :func:`synthesize_lbr` leaves it
    in, so a simulation using this fast path is bit-identical to one
    materializing the record objects — BWD calls it once per monitored
    window, where the ring itself is never inspected beyond this one
    predicate (``tests/test_lbr_pmc_ple.py`` checks the equivalence).

    A mixed window would take up to 49 scalar numpy calls. Instead, the
    words those calls consume are read with one ``random_raw`` call and
    numpy's PCG64 ``Generator`` is replayed on them:

    * ``random()`` is ``(word >> 11) * 2**-53``;
    * ``integers(lo, hi)`` is Lemire's multiply-shift: with a 32-bit draw
      ``u`` and ``span = hi - lo``, ``m = u * span`` is redrawn while its
      low 32 bits are below ``2**32 % span``, and the value is
      ``lo + (m >> 32)``;
    * a 32-bit draw returns the high half of the last word if it is
      waiting in the one-slot ``has_uint32``/``uinteger`` buffer, else the
      low half of a fresh word, whose high half it buffers.

    ``random_raw`` does not touch that buffer, so the replay reads it from
    ``bit_generator.state`` and writes its final value back. Without a
    rejection every entry takes two words whatever the buffer holds; a
    ring shortened to ``capacity - 1`` entries gives its two unread words
    back by restarting from the window's state with ``advance``.
    """
    if spin_fraction >= 1.0 and rng.random() >= pollution_probability:
        # Pure spin ring: full, identical, backward by construction.
        return capacity > 0
    bitgen = rng.bit_generator
    start = bitgen.state
    if start["bit_generator"] != "PCG64":
        raise TypeError(f"replay needs a PCG64 generator, got {bitgen!r}")
    has32, buf32 = start["has_uint32"], start["uinteger"]
    lead = 0 if spin_fraction > 0 else 1  # the ring-length draw
    words = bitgen.random_raw(lead + 2 * capacity).tolist()
    n = capacity
    if lead and (words[0] >> 11) * _UNIT >= 0.95:
        n -= 1
    pos = lead
    first_frm = first_to = 0
    identical = True
    for i in range(n):
        # integers(0x400000, 0x500000): a 2**20 span never rejects.
        if has32:
            has32 = 0
            frm_u = buf32
        else:
            w = words[pos]
            pos += 1
            has32, buf32, frm_u = 1, w >> 32, w & _M32
        dir_word = words[pos]  # random() < 0.4 makes a backward branch
        pos += 1
        # integers(4, 4096): a 4092 span rejects 2**32 % 4092 == 4 values.
        if has32:
            has32 = 0
            u = buf32
        else:
            w = words[pos]
            pos += 1
            has32, buf32, u = 1, w >> 32, w & _M32
        m = u * 4092
        while m & _M32 < 4:
            if has32:
                has32 = 0
                u = buf32
            else:
                # The redraw takes a word no entry was budgeted for.
                words += bitgen.random_raw(1).tolist()
                w = words[pos]
                pos += 1
                has32, buf32, u = 1, w >> 32, w & _M32
            m = u * 4092
        if identical:  # else only the words the entry consumes matter
            frm = 0x400000 + ((frm_u * 0x100000) >> 32)
            dist = 4 + (m >> 32)
            backward = (dir_word >> 11) * _UNIT < 0.4
            to = frm - dist if backward else frm + dist
            if i == 0:
                first_frm, first_to = frm, to
            elif frm != first_frm or to != first_to:
                identical = False
    if pos < len(words):
        bitgen.state = start
        bitgen.advance(pos)
    end = bitgen.state
    end["has_uint32"], end["uinteger"] = has32, buf32
    bitgen.state = end
    # An under-filled ring can never match.
    return n == capacity and n > 0 and identical and first_to < first_frm
