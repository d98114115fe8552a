"""Deterministic named random streams.

Every stochastic component of the simulator (wake-target tie-breaking, BWD
detection noise, workload arrival processes, ...) draws from its own named
substream so that adding a new consumer never perturbs existing ones, and a
single top-level seed makes whole experiments reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

_LOW32 = 0xFFFFFFFF
_TWO_M53 = 2.0 ** -53


def _stable_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class ScalarDraws:
    """numpy's scalar draws on one PCG64 generator, replayed exactly from
    its raw 64-bit words, and the one owner of the generator's spare
    32-bit half.

    A scalar ``Generator.integers`` call spends microseconds on argument
    handling, several times the draw itself.  Here:

    * ``random()`` is ``(word >> 11) * 2**-53``, numpy's double;
    * ``integers(low, high)`` with ``high - low`` up to 2**32 is numpy's
      Lemire multiply-shift with rejection on a 32-bit half.  numpy takes
      the low half of a fresh word and keeps the high half for the next
      32-bit draw; this helper keeps that spare half itself, in
      :attr:`spare`.  Wider ranges use whole words, so they go to numpy
      unchanged.
    * ``exponential`` and ``poisson`` are the generator's own methods.

    ``random``, ``exponential`` and ``poisson`` consume whole words and
    never touch the spare half, so all of them interleave in numpy's
    exact sequence.  Every 32-bit draw on the stream must come through
    here: numpy's own would read its own buffered half, not this one.  So
    each stream has one helper, :meth:`RngStreams.draws`.  A replay of
    other draws (``repro.hw.lbr``) reads words with :attr:`raw` and takes
    and gives back :attr:`spare`; nothing else reads the bit generator.

    Only PCG64 is accepted: the replay relies on its 64-bit words and its
    one-slot 32-bit buffer.
    """

    __slots__ = ("generator", "exponential", "poisson", "raw", "spare")

    def __init__(self, generator: np.random.Generator):
        bitgen = generator.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"ScalarDraws needs a PCG64 generator, got "
                            f"{type(bitgen).__name__}")
        self.generator = generator
        self.exponential = generator.exponential
        self.poisson = generator.poisson
        #: ``raw()`` is the next 64-bit word as an int, ``raw(k)`` the next
        #: ``k`` words as a uint64 array.
        self.raw = bitgen.random_raw
        #: The high half of the last word a 32-bit draw split, else None.
        self.spare: int | None = None

    def random(self) -> float:
        return (self.raw() >> 11) * _TWO_M53

    def _next32(self) -> int:
        spare = self.spare
        if spare is not None:
            self.spare = None
            return spare
        word = self.raw()
        self.spare = word >> 32
        return word & _LOW32

    def integers(self, low: int, high: int) -> int:
        """A uniform int in ``[low, high)``, as ``Generator.integers``."""
        rng = high - low - 1  # numpy's closed range
        if rng <= 0:
            if rng == 0:
                return low  # numpy draws nothing
            raise ValueError("high <= low")
        if rng >= _LOW32:
            if rng == _LOW32:
                return low + self._next32()
            return low + int(self.generator.integers(0, rng + 1))
        excl = rng + 1
        spare = self.spare
        if spare is not None:
            self.spare = None
            m = spare * excl
        else:
            word = self.raw()
            self.spare = word >> 32
            m = (word & _LOW32) * excl
        leftover = m & _LOW32
        if leftover < excl:
            threshold = (_LOW32 - rng) % excl
            while leftover < threshold:
                m = self._next32() * excl
                leftover = m & _LOW32
        return low + (m >> 32)


class RngStreams:
    """Factory of independent, deterministic ``numpy`` generators."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}
        self._draws: dict[str, ScalarDraws] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use)."""
        gen = self._cache.get(name)
        if gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(_stable_key(name),))
            gen = np.random.default_rng(ss)
            self._cache[name] = gen
        return gen

    def draws(self, name: str) -> ScalarDraws:
        """The :class:`ScalarDraws` of stream ``name``: one per stream, so
        every consumer of its scalar draws shares the spare half."""
        d = self._draws.get(name)
        if d is None:
            d = self._draws[name] = ScalarDraws(self.stream(name))
        return d

    def fork(self, offset: int) -> "RngStreams":
        """A new independent family, for repeated runs of the same config."""
        return RngStreams(self.seed + 0x9E3779B9 * (offset + 1) % (2**63))
