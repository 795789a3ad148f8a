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
