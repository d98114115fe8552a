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
    """numpy's scalar ``random()`` and ``integers(low, high)`` on one
    generator, replayed exactly from its raw 64-bit words.

    A scalar ``Generator.integers`` call spends microseconds on argument
    handling, several times the draw itself.  Here:

    * ``random()`` is ``(word >> 11) * 2**-53``, numpy's double;
    * ``integers(low, high)`` with ``high - low`` up to 2**32 is numpy's
      Lemire multiply-shift with rejection on a 32-bit half.  numpy takes
      the low half of a fresh word and keeps the high half for the next
      32-bit draw; this helper keeps that spare half itself.  Wider ranges
      use whole words, so they go to numpy unchanged.
    * ``exponential`` is the generator's own method.

    ``random`` and ``exponential`` consume whole words and never touch the
    spare half, so all three interleave in numpy's exact sequence.  Every
    ``integers`` call on the stream must come through here: numpy's own
    would read its own buffered half, not this one.  So each stream has
    one helper, :meth:`RngStreams.draws`.
    """

    __slots__ = ("generator", "exponential", "_raw", "_spare")

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        self.exponential = generator.exponential
        self._raw = generator.bit_generator.random_raw
        self._spare: int | None = None

    def random(self) -> float:
        return (self._raw() >> 11) * _TWO_M53

    def _next32(self) -> int:
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        word = self._raw()
        self._spare = word >> 32
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
        spare = self._spare
        if spare is not None:
            self._spare = None
            m = spare * excl
        else:
            word = self._raw()
            self._spare = word >> 32
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
