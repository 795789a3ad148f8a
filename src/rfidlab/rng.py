"""Deterministic, stream-split randomness for reproducible experiments."""

from __future__ import annotations

from _random import Random

from .bits import BitString
from .crypto import _sha256

_MASK64 = (1 << 64) - 1


class _FirstDraw:
    """Rng._gen before the first draw: seeds the stream's generator.

    It stores the generator in the instance, whose attribute a later read
    finds first, so only the first draw comes here. This is a plain
    non-data descriptor rather than a ``__getattr__`` hook, which would slow
    down every attribute read on an Rng.
    """

    def __get__(self, rng, owner=None):
        if rng is None:
            return self
        # seed and stream are masked to 64 bits: 8 bytes each, seed first
        material = _sha256(
            b"rfidlab.rng:" + (rng.seed << 64 | rng.stream).to_bytes(16, "big")
        ).digest()
        gen = rng._gen = Random(int.from_bytes(material, "big"))
        return gen


class Rng:
    """Seeded random source; (seed, stream) fully determines the output.

    Distinct stream ids yield independent-looking sequences from one seed,
    so every trial of an experiment owns a private stream and trials can be
    run in any order (or in parallel) without changing their outcomes.
    Instances are single-owner: never share one across concurrent workers.

    The Mersenne Twister behind a stream is seeded on its first draw, so an
    Rng that is never drawn from costs no seeding. It is the C type that
    ``random.Random`` extends, seeded with the same int, so every draw
    equals ``random.Random``'s.
    """

    _gen = _FirstDraw()

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64

    def bytes(self, n: int) -> bytes:
        # what random.Random.randbytes does
        return self._gen.getrandbits(8 * n).to_bytes(n, "little")

    def bits(self, width: int) -> BitString:
        return BitString(width, self._gen.getrandbits(width))

    def uint(self, width: int) -> int:
        """The value of ``bits(width)``, drawn from the stream in the same way."""
        return self._gen.getrandbits(width)

    def nonzero_bits(self, width: int) -> BitString:
        """A uniform nonzero value; used for attack masks."""
        if width == 0:
            raise ValueError("no nonzero value of width 0 exists")
        while True:
            out = self.bits(width)
            if not out.is_zero:
                return out

    def bit(self) -> int:
        return self._gen.getrandbits(1)

    def random(self) -> float:
        return self._gen.random()

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"
