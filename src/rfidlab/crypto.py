"""Hash oracles, mask expansion and the keyed small-block permutation.

Everything here is derived from SHA-256 (``HASH_NAME``) with a one-byte
domain tag, so the two protocol hash oracles H and G look independent and
the permutation's round functions are separated from both. The hash of a
message is the first n bits of SHA-256 over

    domain_tag || canonical bytes of the message || 8-byte width

and ``expand_mask`` extends that same stream with a 4-byte counter, so an
expansion is always prefix-consistent with the plain hash. Counter blocks
are hashed only as far as the mask needs, so a mask of up to 256 bits costs
one SHA-256, the same as the plain hash.

The permutation is a 4-round balanced Feistel network whose round function
is the truncated hash under per-round domain tags. It is a bijection on
{0,1}^W for every key and cheap to invert; no cryptographic strength is
claimed for it beyond what the experiments here need. A PermKey caches its
round parameters and its key shifted above the half block, so a round
builds one message BitString and no HashParams.

The call boundaries are kept on purpose, so that wrapping the module-level
names counts every oracle call: each Feistel round goes through
``truncated_hash``, and ``truncated_hash`` goes through ``expand_mask``.
The HashParams that ``h_params``, ``g_params`` and the Feistel rounds use
are memoised per width; HashParams are immutable, so sharing them is safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from .bits import BitString, WidthError

HASH_NAME = "sha256"
_sha256 = hashlib.sha256

# one-byte domain separation tags
H_TAG = 0x01
G_TAG = 0x02
FEISTEL_TAG_BASE = 0x10
FEISTEL_ROUNDS = 4


@dataclass(frozen=True)
class HashParams:
    """Output width and domain tag of one hash oracle."""

    output_bits: int
    domain_tag: int

    def __post_init__(self):
        if self.output_bits < 1:
            raise ValueError(f"hash output must be >= 1 bit, got {self.output_bits}")
        if not 0 <= self.domain_tag <= 0xFF:
            raise ValueError(f"domain tag must be one byte, got {self.domain_tag}")
        # not a field: equality, hashing and repr stay on (output_bits, domain_tag)
        object.__setattr__(self, "tag_byte", bytes((self.domain_tag,)))


@lru_cache
def h_params(output_bits: int) -> HashParams:
    return HashParams(output_bits, H_TAG)


@lru_cache
def g_params(output_bits: int) -> HashParams:
    return HashParams(output_bits, G_TAG)


def expand_mask(params: HashParams, message: BitString, target_width: int) -> BitString:
    """First target_width bits of the tagged, counter-extended hash stream.

    Expanding to W and truncating to n gives the same bits as expanding to
    n directly; in particular the first ``params.output_bits`` bits are
    exactly ``truncated_hash(params, message)``.
    """
    if target_width < 1:
        raise ValueError(f"mask width must be >= 1, got {target_width}")
    width = message.width
    prefix = (
        params.tag_byte
        + message.value.to_bytes((width + 7) // 8, "big")
        + width.to_bytes(8, "big")
    )
    stream = _sha256(prefix).digest()
    counter = 1
    while 8 * len(stream) < target_width:
        stream += _sha256(prefix + counter.to_bytes(4, "big")).digest()
        counter += 1
    value = int.from_bytes(stream, "big") >> (8 * len(stream) - target_width)
    return BitString(target_width, value)


def truncated_hash(params: HashParams, message: BitString) -> BitString:
    """The n-bit hash oracle: first n bits of the domain-tagged SHA-256."""
    return expand_mask(params, message, params.output_bits)


@lru_cache
def _round_params(half: int) -> tuple[HashParams, ...]:
    return tuple(HashParams(half, FEISTEL_TAG_BASE + rnd) for rnd in range(FEISTEL_ROUNDS))


@dataclass(frozen=True)
class PermKey:
    """Key material and block width of the invertible permutation."""

    key: bytes
    width: int

    def __post_init__(self):
        if not self.key:
            raise ValueError("permutation key must be non-empty")
        if self.width < 2 or self.width % 2:
            raise WidthError(f"block width must be even and >= 2, got {self.width}")
        # not fields: a round hashes key || right half, built from these
        half = self.width // 2
        object.__setattr__(self, "round_params", _round_params(half))
        object.__setattr__(self, "shifted_key", int.from_bytes(self.key, "big") << half)
        object.__setattr__(self, "message_width", 8 * len(self.key) + half)

    @classmethod
    def generate(cls, rng, width: int, key_bytes: int = 16) -> PermKey:
        return cls(rng.bytes(key_bytes), width)


def _round_value(key: PermKey, rnd: int, right: int) -> int:
    """Round function: truncated hash of key bytes || right half, as one message."""
    message = BitString(key.message_width, key.shifted_key | right)
    return truncated_hash(key.round_params[rnd], message).value


def permute(key: PermKey, block: BitString) -> BitString:
    """Forward evaluation of the keyed permutation on a W-bit block."""
    if block.width != key.width:
        raise WidthError(f"block width {block.width} != key width {key.width}")
    half = key.width // 2
    mask = (1 << half) - 1
    left, right = block.value >> half, block.value & mask
    for rnd in range(FEISTEL_ROUNDS):
        left, right = right, left ^ _round_value(key, rnd, right)
    return BitString(key.width, (left << half) | right)


def invert(key: PermKey, block: BitString) -> BitString:
    """Inverse evaluation: invert(key, permute(key, x)) == x."""
    if block.width != key.width:
        raise WidthError(f"block width {block.width} != key width {key.width}")
    half = key.width // 2
    mask = (1 << half) - 1
    left, right = block.value >> half, block.value & mask
    for rnd in reversed(range(FEISTEL_ROUNDS)):
        left, right = right ^ _round_value(key, rnd, left), left
    return BitString(key.width, (left << half) | right)
