import hashlib
import random

import pytest

from rfidlab import attacks  # noqa: F401  (registers the strategies)
from rfidlab.bits import BitString
from rfidlab.fwcfp import FwcfpParams
from rfidlab.game import PROTOCOLS, STRATEGY_FACTORIES, run_upriv_game
from rfidlab.rng import Rng


def test_same_seed_and_stream_reproduces_bytes():
    assert Rng(7, 3).bytes(64) == Rng(7, 3).bytes(64)
    assert Rng(7, 3).bits(96) == Rng(7, 3).bits(96)


def test_consecutive_draws_differ():
    rng = Rng(7)
    assert rng.bits(96) != rng.bits(96)


def test_distinct_streams_diverge():
    assert Rng(7, 0).bytes(32) != Rng(7, 1).bytes(32)
    assert Rng(7, 0).bytes(32) != Rng(8, 0).bytes(32)


def test_bits_width_contract():
    rng = Rng(1)
    for width in (1, 7, 8, 96, 129):
        assert rng.bits(width).width == width
    assert rng.bits(0).width == 0


def test_uint_draws_what_bits_draws():
    a, b = Rng(9, 2), Rng(9, 2)
    for width in (1, 7, 32, 96, 129, 0, 5):
        assert a.uint(width) == b.bits(width).value
    assert a.bytes(16) == b.bytes(16)  # both streams are at the same point


def test_nonzero_bits():
    rng = Rng(1)
    for _ in range(50):
        assert not rng.nonzero_bits(4).is_zero


def test_bit_is_binary():
    rng = Rng(5)
    values = {rng.bit() for _ in range(100)}
    assert values == {0, 1}


def test_byte_streams_pass_chi_squared_uniformity():
    # 256 bins over 10_000 bytes; dof 255, mean 255, sd ~22.6. The bound is
    # a generous upper quantile; a biased generator lands in the thousands.
    for stream in range(8):
        counts = [0] * 256
        for byte in Rng(2024, stream).bytes(10_000):
            counts[byte] += 1
        expected = 10_000 / 256
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < 340, f"stream {stream} chi-squared {stat:.1f}"


def reference(seed, stream):
    """The documented derivation of a stream, built on random.Random."""
    material = hashlib.sha256(
        b"rfidlab.rng:" + seed.to_bytes(8, "big") + stream.to_bytes(8, "big")
    ).digest()
    return random.Random(int.from_bytes(material, "big"))


@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (2024, 5), (2**64 - 1, 2**64 - 1)])
def test_every_draw_kind_follows_the_documented_derivation(seed, stream):
    rng, ref = Rng(seed, stream), reference(seed, stream)
    for width in (0, 1, 7, 96, 129):
        assert rng.bits(width) == BitString(width, ref.getrandbits(width))
    for width in (0, 1, 7, 96, 129):
        assert rng.uint(width) == ref.getrandbits(width)
    for n in (0, 1, 16, 33):
        assert rng.bytes(n) == ref.randbytes(n)
    assert rng.random() == ref.random()
    assert [rng.bit() for _ in range(20)] == [ref.getrandbits(1) for _ in range(20)]
    for _ in range(20):  # width 2: a zero draw, and so a redraw, is likely
        value = ref.getrandbits(2)
        while not value:
            value = ref.getrandbits(2)
        assert rng.nonzero_bits(2) == BitString(2, value)
    assert rng.bytes(8) == ref.randbytes(8)  # still in step


@pytest.mark.parametrize("strategy_name", ["fwcfp-trace", "fwcfp-backtrace"])
def test_fwcfp_strategies_never_seed_their_adversary_stream(strategy_name):
    world, adversary = Rng(77, 0), Rng(77, 1)
    strategy = STRATEGY_FACTORIES[strategy_name](adversary, FwcfpParams(hash_bits=8))
    outcome = run_upriv_game(PROTOCOLS["fwcfp"], FwcfpParams(hash_bits=8), strategy, world)
    assert outcome[0] == "ok"
    assert vars(adversary) == {"seed": 77, "stream": 1}  # no generator built
    assert set(vars(world)) > {"seed", "stream"}  # the world stream was drawn


def test_a_late_first_draw_equals_a_fresh_stream():
    late = Rng(31, 4)
    others = [Rng(31, s) for s in range(4)] + [Rng(32, 4)]
    for other in others:
        other.bytes(40)
        other.bits(96)
    drawn = [late.bits(96), late.uint(33), late.bytes(5), late.random(), late.bit()]
    fresh = Rng(31, 4)
    assert drawn == [fresh.bits(96), fresh.uint(33), fresh.bytes(5), fresh.random(), fresh.bit()]
