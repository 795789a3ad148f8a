"""Deterministic, stream-split randomness for reproducible experiments."""

from __future__ import annotations

import hashlib
import random

from .bits import BitString

_MASK64 = (1 << 64) - 1


class Rng:
    """Seeded random source; (seed, stream) fully determines the output.

    Distinct stream ids yield independent-looking sequences from one seed,
    so every trial of an experiment owns a private stream and trials can be
    run in any order (or in parallel) without changing their outcomes.
    Instances are single-owner: never share one across concurrent workers.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        material = hashlib.sha256(
            b"rfidlab.rng:"
            + self.seed.to_bytes(8, "big")
            + self.stream.to_bytes(8, "big")
        ).digest()
        self._state = random.Random(int.from_bytes(material, "big"))

    def bytes(self, n: int) -> bytes:
        return self._state.randbytes(n)

    def bits(self, width: int) -> BitString:
        if width == 0:
            return BitString(0, 0)
        return BitString(width, self._state.getrandbits(width))

    def uint(self, width: int) -> int:
        """The value of ``bits(width)``, drawn from the stream in the same way."""
        return self._state.getrandbits(width)

    def nonzero_bits(self, width: int) -> BitString:
        """A uniform nonzero value; used for attack masks."""
        if width == 0:
            raise ValueError("no nonzero value of width 0 exists")
        while True:
            out = self.bits(width)
            if not out.is_zero:
                return out

    def bit(self) -> int:
        return self._state.getrandbits(1)

    def random(self) -> float:
        return self._state.random()

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"
