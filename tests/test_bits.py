import pytest
from hypothesis import given, strategies as st

from rfidlab.bits import BitString, WidthError

from bit_helpers import concat, from_bytes, to_bytes


def xor_by_truth_table(a: BitString, b: BitString) -> BitString:
    """Independent oracle: evaluate XOR bit position by bit position."""
    assert a.width == b.width
    value = 0
    for i in range(a.width):
        bit_a = (a.value >> i) & 1
        bit_b = (b.value >> i) & 1
        value |= ((bit_a + bit_b) % 2) << i
    return BitString(a.width, value)


def bits_strategy(max_width=256):
    return st.integers(min_value=0, max_value=max_width).flatmap(
        lambda w: st.builds(
            BitString, st.just(w), st.integers(min_value=0, max_value=(1 << w) - 1)
        )
    )


def paired_bits(max_width=256):
    return st.integers(min_value=0, max_value=max_width).flatmap(
        lambda w: st.tuples(
            st.builds(BitString, st.just(w), st.integers(0, (1 << w) - 1)),
            st.builds(BitString, st.just(w), st.integers(0, (1 << w) - 1)),
        )
    )


class TestXor:
    def test_zero_identity(self):
        a = BitString.parse("16:ff00")
        assert a ^ BitString(16, 0) == a

    def test_self_inverse(self):
        a = BitString.parse("16:ff00")
        assert (a ^ a).is_zero

    def test_truth_table_case(self):
        a = BitString(4, 0b1010)
        b = BitString(4, 0b0110)
        assert a ^ b == BitString(4, 0b1100)
        assert a ^ b == xor_by_truth_table(a, b)

    def test_width_mismatch_rejected(self):
        with pytest.raises(WidthError):
            BitString(8, 1) ^ BitString(4, 1)

    @given(paired_bits())
    def test_matches_truth_table(self, pair):
        a, b = pair
        assert a ^ b == xor_by_truth_table(a, b)

    @given(paired_bits())
    def test_commutative_and_self_inverse(self, pair):
        a, b = pair
        assert a ^ b == b ^ a
        assert ((a ^ b) ^ b) == a

    @given(
        st.integers(min_value=0, max_value=128).flatmap(
            lambda w: st.tuples(
                *(
                    st.builds(BitString, st.just(w), st.integers(0, (1 << w) - 1))
                    for _ in range(3)
                )
            )
        )
    )
    def test_associative(self, triple):
        a, b, c = triple
        assert (a ^ b) ^ c == a ^ (b ^ c)


class TestConcat:
    def test_empty_is_identity(self):
        x = BitString.parse("12:abc")
        assert concat(BitString(0, 0), x) == x
        assert concat(x, BitString(0, 0)) == x

    def test_definition(self):
        assert concat(BitString(8, 0xAB), BitString(8, 0xCD)) == BitString(16, 0xABCD)

    @given(bits_strategy(128), bits_strategy(128))
    def test_halves_read_back_with_shifts(self, a, b):
        joined = concat(a, b)
        assert joined.width == a.width + b.width
        assert joined.value >> b.width == a.value
        assert joined.value & ((1 << b.width) - 1) == b.value


class TestEncoding:
    def test_canonical_examples(self):
        assert BitString(16, 0xFF00).render() == "16:ff00"
        assert BitString(4, 0xF).render() == "4:f"
        assert BitString(6, 63).render() == "6:3f"
        assert BitString(0, 0).render() == "0:"

    @given(bits_strategy())
    def test_parse_render_round_trip(self, x):
        assert BitString.parse(x.render()) == x

    @pytest.mark.parametrize(
        "bad",
        ["16ff00", "4:1f", "6:ff", ":ff", "x:ff", "4:", "-4:f", "8:zz"],
    )
    def test_bad_literals_rejected(self, bad):
        with pytest.raises(ValueError):
            BitString.parse(bad)

    @pytest.mark.parametrize(
        "literal",
        ["16:FF00", "16:f_ff", "16: fff", "16:+fff", "+16:ff00", " 16:ff00",
         "016:ff00", "16:ff00\n", "8:0x"],
    )
    def test_non_canonical_literals_rejected(self, literal):
        with pytest.raises(ValueError):
            BitString.parse(literal)

    @pytest.mark.parametrize("value", [5, None, b"8:ff", ["8:ff"]])
    def test_non_string_rejected_with_value_error(self, value):
        with pytest.raises(ValueError):
            BitString.parse(value)

    @given(bits_strategy())
    def test_bytes_round_trip_at_byte_widths(self, x):
        if x.width % 8 == 0:
            assert from_bytes(to_bytes(x)) == x

    def test_to_bytes_pads_partial_widths(self):
        assert to_bytes(BitString(4, 0xA)) == b"\x0a"
        assert to_bytes(BitString(0, 0)) == b""


class TestConstruction:
    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitString(4, 16)
        with pytest.raises(ValueError):
            BitString(0, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BitString(4, -1)
        with pytest.raises(WidthError):
            BitString(-1, 0)

    def test_hashable(self):
        d = {BitString(8, 1): "a"}
        assert d[BitString(8, 1)] == "a"
        assert BitString(8, 1) != BitString(9, 1)
