import hashlib
import importlib.util
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rfidlab
from rfidlab import crypto
from rfidlab.bits import BitString, WidthError
from rfidlab.crypto import (
    FEISTEL_ROUNDS,
    FEISTEL_TAG_BASE,
    G_TAG,
    H_TAG,
    HashParams,
    PermKey,
    expand_mask,
    g_params,
    h_params,
    invert,
    permute,
    truncated_hash,
)
from rfidlab.rng import Rng

from bit_helpers import concat, from_bytes, to_bytes


def reference_hash(params: HashParams, message: BitString) -> BitString:
    """Independent oracle: the construction, written out against hashlib."""
    assert params.output_bits <= 256
    material = (
        bytes((params.domain_tag,))
        + to_bytes(message)
        + message.width.to_bytes(8, "big")
    )
    digest = hashlib.sha256(material).digest()
    value = int.from_bytes(digest, "big") >> (256 - params.output_bits)
    return BitString(params.output_bits, value)


def reference_expand(params: HashParams, message: BitString, target_width: int) -> BitString:
    """Independent mask oracle: the counter stream, always built block by block.

    The stream is a bytearray, which grows in place, so that a test can
    ask for millions of bits in linear time.
    """
    prefix = (
        bytes((params.domain_tag,))
        + to_bytes(message)
        + message.width.to_bytes(8, "big")
    )
    stream = bytearray(hashlib.sha256(prefix).digest())
    counter = 1
    need = (target_width + 7) // 8
    while len(stream) < need:
        stream += hashlib.sha256(prefix + counter.to_bytes(4, "big")).digest()
        counter += 1
    value = int.from_bytes(stream[:need], "big") >> (8 * need - target_width)
    return BitString(target_width, value)


def reference_permute(key: PermKey, block: BitString, *, inverse: bool = False) -> BitString:
    """Independent Feistel network: each round hashes from_bytes(key) || right half."""
    half = key.width // 2

    def round_value(rnd, right):
        params = HashParams(half, FEISTEL_TAG_BASE + rnd)
        message = concat(from_bytes(key.key), BitString(half, right))
        return reference_expand(params, message, half).value

    left, right = block.value >> half, block.value & ((1 << half) - 1)
    if inverse:
        for rnd in reversed(range(4)):
            left, right = right ^ round_value(rnd, left), left
    else:
        for rnd in range(4):
            left, right = right, left ^ round_value(rnd, right)
    return BitString(key.width, (left << half) | right)


@st.composite
def messages(draw, max_width=300):
    """Bit strings of every width 0..max_width, byte-aligned or not."""
    width = draw(st.integers(min_value=0, max_value=max_width))
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return BitString(width, value)


class TestHash:
    def test_deterministic(self):
        p = h_params(64)
        assert truncated_hash(p, 16, 0xFF00) == truncated_hash(p, 16, 0xFF00)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 64, 96, 255, 256])
    def test_width_contract(self, n):
        out = truncated_hash(h_params(n), 8, 0xAB)
        assert 0 <= out < 1 << n
        assert out == reference_hash(h_params(n), BitString(8, 0xAB)).value

    def test_wider_than_one_digest(self):
        out = truncated_hash(h_params(600), 8, 0xAB)
        assert 0 <= out < 1 << 600
        assert out == reference_expand(h_params(600), BitString(8, 0xAB), 600).value

    @given(
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=60)
    def test_matches_reference_construction(self, n, value):
        m = BitString(64, value)
        assert truncated_hash(h_params(n), 64, value) == reference_hash(h_params(n), m).value
        assert truncated_hash(g_params(n), 64, value) == reference_hash(g_params(n), m).value

    @given(st.integers(min_value=1, max_value=256), messages())
    @settings(max_examples=200)
    def test_matches_reference_for_every_message_width(self, n, m):
        for p in (h_params(n), g_params(n)):
            assert truncated_hash(p, m.width, m.value) == reference_hash(p, m).value

    def test_oracle_params_are_memoised(self):
        assert h_params(96) is h_params(96)
        assert g_params(96) is g_params(96)
        assert h_params(96) is not g_params(96)

    def test_cached_tag_byte_is_not_a_field(self):
        p = h_params(8)
        assert p == HashParams(8, H_TAG)
        assert hash(p) == hash(HashParams(8, H_TAG))
        assert repr(p) == f"HashParams(output_bits=8, domain_tag={H_TAG})"
        assert p.tag_byte == bytes((H_TAG,))

    def test_h_and_g_never_collide_in_sample(self):
        rng = Rng(11)
        hp, gp = h_params(64), g_params(64)
        for _ in range(1000):
            m = rng.bits(64).value
            assert truncated_hash(hp, 64, m) != truncated_hash(gp, 64, m)

    def test_domain_tags_distinct(self):
        assert H_TAG != G_TAG
        round_tags = {FEISTEL_TAG_BASE + r for r in range(4)}
        assert len(round_tags) == 4
        assert not round_tags & {H_TAG, G_TAG}

    def test_width_is_part_of_the_message_domain(self):
        # same value, different declared width: different hash input
        a = truncated_hash(h_params(32), 8, 1)
        b = truncated_hash(h_params(32), 16, 1)
        assert a != b

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            HashParams(0, H_TAG)
        with pytest.raises(ValueError):
            HashParams(8, 300)


class TestExpandMask:
    def test_expansion_of_length_n_is_the_hash(self):
        p = h_params(40)
        assert expand_mask(p, 24, 0xABCDEF, 40) == truncated_hash(p, 24, 0xABCDEF)

    def test_width_contract(self):
        out = expand_mask(h_params(64), 8, 1, 128)
        assert 0 <= out < 1 << 128
        assert out == reference_expand(h_params(64), BitString(8, 1), 128).value

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_prefix_property(self, value):
        p = h_params(64)
        long = expand_mask(p, 32, value, 128)
        short = expand_mask(p, 32, value, 64)
        assert long >> 64 == short

    def test_prefix_property_across_digest_boundary(self):
        p = h_params(64)
        long = expand_mask(p, 8, 7, 700)
        assert long >> (700 - 256) == expand_mask(p, 8, 7, 256)

    @given(
        st.sampled_from([H_TAG, G_TAG]),
        st.integers(min_value=1, max_value=256),
        messages(),
        st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=300)
    def test_matches_the_counter_stream_reference(self, tag, n, m, target):
        p = HashParams(n, tag)
        assert expand_mask(p, m.width, m.value, target) == reference_expand(p, m, target).value

    @given(
        messages(),
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=200)
    def test_prefix_consistent_across_every_pair_of_widths(self, m, a, b):
        short, long = sorted((a, b))
        p = h_params(64)
        assert expand_mask(p, m.width, m.value, long) >> (long - short) == expand_mask(
            p, m.width, m.value, short
        )

    @pytest.mark.parametrize("target", [255, 256, 257, 263, 512, 513])
    def test_digest_boundary_widths_match_the_reference(self, target):
        p = h_params(64)
        for width in (0, 1, 7, 8, 9, 300):
            m = BitString(width, (1 << width) - 1)
            assert expand_mask(p, width, m.value, target) == reference_expand(p, m, target).value

    def test_a_mask_of_four_million_bits_matches_the_reference(self):
        # 2^22 bits is 16384 counter blocks: a stream grown block by block
        # as bytes took quadratic time here
        p = h_params(64)
        target = 1 << 22
        m = BitString(8, 7)
        assert expand_mask(p, m.width, m.value, target) == reference_expand(p, m, target).value

    def test_target_width_positive(self):
        with pytest.raises(ValueError):
            expand_mask(h_params(8), 8, 1, 0)


class TestOracleTable:
    """The table of recent queries under ``expand_mask`` changes no answer and no error."""

    def test_repeated_and_interleaved_queries_match_the_reference(self):
        m = BitString(96, 0x0123456789ABCDEF01234567)
        feistel = HashParams(48, FEISTEL_TAG_BASE + 2)
        queries = [
            (h_params(96), 96),
            (g_params(96), 96),
            (feistel, 48),
            (h_params(96), 64),
            (h_params(96), 257),
            (g_params(96), 512),
        ]
        crypto._oracle.cache_clear()
        for _ in range(3):
            for p, target in queries + queries[::-1]:
                out = expand_mask(p, m.width, m.value, target)
                assert out == reference_expand(p, m, target).value
        assert crypto._oracle.cache_info().hits > 0

    @pytest.mark.parametrize(
        "answered, bad, error",
        [
            ((96, 5, 96), (96.0, 5, 96), TypeError),  # 96.0 == 96
            ((96, 5, 96), (96, 5, 96.0), TypeError),
            ((96, 5, 96), (96, -5, 96), OverflowError),
            ((8, 5, 8), (8, 0x105, 8), OverflowError),  # 5 in its low 8 bits
            ((96, 5, 96), (96, 5, 0), ValueError),
            ((96, 5, 96), (-8, 5, 96), ValueError),  # a negative byte length
        ],
    )
    def test_a_bad_query_still_raises_after_a_near_one_was_answered(self, answered, bad, error):
        p = h_params(96)
        expand_mask(p, *answered)
        for _ in range(2):
            with pytest.raises(error):
                expand_mask(p, *bad)

    def test_the_table_stays_bounded(self):
        p = h_params(64)
        for value in range(10_000):
            expand_mask(p, 32, value, 64)
        assert crypto._oracle.cache_info().currsize <= 32


class TestPermutation:
    def test_exhaustive_bijection_and_round_trip_at_w8(self):
        for key_index in range(3):
            key = PermKey.generate(Rng(100 + key_index), 8)
            images = set()
            for x in range(256):
                y = permute(key, x)
                images.add(y)
                assert invert(key, y) == x
            assert len(images) == 256

    @pytest.mark.parametrize("width", [8, 32, 128])
    def test_random_round_trips(self, width):
        rng = Rng(2000 + width)
        for _ in range(10_000):
            key = PermKey(rng.bytes(16), width)
            x = rng.uint(width)
            assert invert(key, permute(key, x)) == x

    def test_distinct_keys_give_distinct_outputs(self):
        rng = Rng(77)
        same = 0
        for _ in range(1000):
            k1 = PermKey(rng.bytes(16), 32)
            k2 = PermKey(rng.bytes(16), 32)
            while k2.key == k1.key:
                k2 = PermKey(rng.bytes(16), 32)
            x = rng.uint(32)
            same += int(permute(k1, x) == permute(k2, x))
        assert same <= 10  # >= 99% distinct; chance equality is ~2^-32

    @given(
        st.integers(min_value=1, max_value=130).map(lambda h: 2 * h),
        st.binary(min_size=1, max_size=32),
        st.data(),
    )
    @settings(max_examples=150)
    def test_matches_the_reference_network(self, width, key_bytes, data):
        key = PermKey(key_bytes, width)
        x = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        y = permute(key, x)
        assert y == reference_permute(key, BitString(width, x)).value
        assert invert(key, x) == reference_permute(key, BitString(width, x), inverse=True).value
        assert invert(key, y) == x

    def test_cached_round_state_is_not_a_field(self):
        assert PermKey(b"k", 8) == PermKey(b"k", 8)
        assert repr(PermKey(b"k", 8)) == "PermKey(key=b'k', width=8)"

    def test_odd_width_rejected(self):
        with pytest.raises(WidthError):
            PermKey(b"k", 7)

    def test_mismatched_block_rejected(self):
        key = PermKey(b"0123456789abcdef", 32)
        for value in (1 << 32, -1):
            with pytest.raises(WidthError):
                permute(key, value)
            with pytest.raises(WidthError):
                invert(key, value)
        top = (1 << 32) - 1
        assert invert(key, permute(key, top)) == top

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            PermKey(b"", 8)


# (class, fields, error, message): a width or tag that is not an int fails
# at construction, naming the field, not at the first oracle call or shift;
# a PermKey width fails with the WidthError an odd width gets
NOT_INTS = [
    (HashParams, (8.0, H_TAG), ValueError, r"^output_bits must be an integer, got 8\.0$"),
    (HashParams, (True, H_TAG), ValueError, "^output_bits must be an integer, got True$"),
    (HashParams, (8, 1.0), ValueError, r"^domain_tag must be an integer, got 1\.0$"),
    (PermKey, (bytes(16), 8.0), WidthError, r"^width must be an integer, got 8\.0$"),
]


@pytest.mark.parametrize(
    "cls, fields, error, message",
    NOT_INTS,
    ids=["hash-float-bits", "hash-bool-bits", "hash-float-tag", "perm-float-width"],
)
def test_a_field_that_is_not_an_int_is_named_at_construction(cls, fields, error, message):
    with pytest.raises(error, match=message):
        cls(*fields)


class TestFeistelOracleCalls:
    """Each Feistel round is one counted hash call, made through the module names.

    The benchmark counts oracle calls by wrapping ``truncated_hash`` and
    ``expand_mask`` from outside; these tests pin the calls it sees.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        hash_fn, expand_fn = crypto.truncated_hash, crypto.expand_mask

        def counted_hash(params, width, value):
            log.append(("hash", params.domain_tag, width))
            return hash_fn(params, width, value)

        def counted_expand(params, width, value, target_width):
            log.append(("mask", params.domain_tag, width))
            return expand_fn(params, width, value, target_width)

        monkeypatch.setattr(crypto, "truncated_hash", counted_hash)
        monkeypatch.setattr(crypto, "expand_mask", counted_expand)
        return log

    @staticmethod
    def expected(key, rounds):
        width = 8 * len(key.key) + key.width // 2
        return [
            (kind, FEISTEL_TAG_BASE + rnd, width) for rnd in rounds for kind in ("hash", "mask")
        ]

    @pytest.mark.parametrize("width, key_bytes", [(8, 16), (34, 3), (128, 16)])
    def test_permute_and_invert_hash_once_per_round(self, calls, width, key_bytes):
        rng = Rng(width)
        key = PermKey(rng.bytes(key_bytes), width)
        x = rng.uint(width)
        y = permute(key, x)
        assert calls == self.expected(key, range(FEISTEL_ROUNDS))
        assert y == reference_permute(key, BitString(width, x)).value
        calls.clear()
        assert invert(key, y) == x
        assert calls == self.expected(key, reversed(range(FEISTEL_ROUNDS)))


def birthday_bounds(samples: int, n: int) -> tuple[float, float]:
    """Exact mean and sd of the colliding-pair count for uniform n-bit bins.

    Pair indicators for distinct (even overlapping) pairs are uncorrelated
    under a uniform random function, so the binomial variance is exact.
    """
    pairs = math.comb(samples, 2)
    p = 2.0**-n
    return pairs * p, math.sqrt(pairs * p * (1 - p))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_truncation_collision_rate_matches_birthday_expectation(n):
    samples = 2 ** (n + 4)
    rng = Rng(31337 + n)
    inputs = set()
    while len(inputs) < samples:
        inputs.add(rng.bits(64))
    counts: dict[int, int] = {}
    p = h_params(n)
    for m in inputs:
        v = truncated_hash(p, 64, m.value)
        counts[v] = counts.get(v, 0) + 1
    collisions = sum(c * (c - 1) // 2 for c in counts.values())
    mean, sd = birthday_bounds(samples, n)
    assert abs(collisions - mean) <= 3 * sd, (
        f"n={n}: {collisions} colliding pairs, expected {mean:.1f} +- {sd:.1f}"
    )


@pytest.mark.parametrize(
    "unloaded",
    [
        pytest.param(
            "_hashlib",
            marks=pytest.mark.skipif(
                not (importlib.util.find_spec("_sha256") or importlib.util.find_spec("_sha2")),
                reason="the interpreter has no builtin SHA-256 module",
            ),
        ),
        # the record base stands in for dataclasses, whose import pulls in
        # inspect, ast, dis and tokenize
        "dataclasses",
        "inspect",
    ],
)
def test_importing_every_module_leaves_openssl_unloaded(unloaded):
    # hashlib loads OpenSSL's _hashlib; a fresh interpreter shows whether any
    # rfidlab module, the benchmark's set-up probe's included, pulls it in,
    # or any of the other costly imports named above
    src = Path(rfidlab.__file__).resolve().parent.parent
    modules = [f"rfidlab.{m.name}" for m in pkgutil.iter_modules(rfidlab.__path__)]
    assert len(modules) >= 11
    probe = (
        "import importlib, sys\n"
        "for name in sys.argv[2:]:\n"
        "    importlib.import_module(name)\n"
        "print(sys.argv[1] in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, unloaded, *modules],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
