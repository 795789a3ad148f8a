"""Hash oracles, mask expansion and the keyed small-block permutation.

Everything here is derived from SHA-256 (``HASH_NAME``) with a one-byte
domain tag, so the two protocol hash oracles H and G look independent and
the permutation's round functions are separated from both. The hash of a
message is the first n bits of SHA-256 over

    domain_tag || canonical bytes of the message || 8-byte width

and ``expand_mask`` extends that same stream with a 4-byte counter, so an
expansion is always prefix-consistent with the plain hash. Counter blocks
are hashed only as far as the mask needs, so a mask of up to 256 bits costs
one SHA-256, the same as the plain hash, and a query the table below still
holds costs none.

``expand_mask`` answers from a table of the last 32 distinct queries (the
lazily sampled random-oracle table of Bellare and Rogaway, kept only for
recent queries). Tag and reader check each other by asking the same
question, and both run in one process, so an honest FWCFP session
computes 8 of its 16 digests and an LWJX new-branch session 4 of 8; the
hit rate is the same for tables of 16 to 256 entries. The table is keyed
by the domain tag byte, not the HashParams, whose generated ``__hash__``
is a Python call, and by the message width and value and the target
width with their types (``typed=True``), so 96 and 96.0 stay apart and a
call that raises without the table still raises. On CPython 3.11 a
96-bit hash of a query that never repeats takes about 1.7 µs instead of
1.3 (the lookup and the table's upkeep), and a repeat about 0.25 µs
instead of 1.2. The table sits below the traced names:
``truncated_hash`` and ``expand_mask`` are still called once per query,
so the counts the benchmark takes by wrapping them do not change.

The oracles work on ints: a message is given as its width and its value
(``truncated_hash(params, width, value)``,
``expand_mask(params, width, value, target_width)``) and the result is the
int value of the output bits, so a caller builds a message such as
K || r1 || r2 with shifts and compares or XORs the result without any
BitString. Callers wrap a result in a BitString only where they keep it.

The permutation is a 4-round balanced Feistel network whose round function
is the truncated hash under per-round domain tags. It is a bijection on
{0,1}^W for every key and cheap to invert; no cryptographic strength is
claimed for it beyond what the experiments here need. Like the oracles,
``permute(key, value)`` and ``invert(key, value)`` take and return ints:
the block is the int value of its W bits, and a value that does not fit
in W bits raises WidthError. A PermKey caches its round parameters, its
key shifted above the half block and the message width, so a round builds
no HashParams, and a caller builds a BitString only for a block it keeps.

The call boundaries are kept on purpose, so that wrapping the module-level
names counts every oracle call: the Feistel loop in ``permute`` and
``invert`` calls ``truncated_hash`` directly, once per round, and
``truncated_hash`` goes through ``expand_mask``. Folding the hash into
``expand_mask`` would save a frame per call but change the counts the
benchmark traces, so it waits for a benchmark change that reads the
counts another way.
The HashParams that ``h_params``, ``g_params`` and the Feistel rounds use
are memoised per width; HashParams are immutable, so sharing them is safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from .bits import WidthError

HASH_NAME = "sha256"
_sha256 = hashlib.sha256

# one-byte domain separation tags
H_TAG = 0x01
G_TAG = 0x02
FEISTEL_TAG_BASE = 0x10
FEISTEL_ROUNDS = 4
PERM_KEY_BYTES = 16  # key length of a generated permutation key


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


def expand_mask(params: HashParams, width: int, value: int, target_width: int) -> int:
    """First target_width bits of the tagged, counter-extended hash stream.

    The message is the ``width``-bit string with int value ``value``; the
    mask is returned as an int of ``target_width`` bits. Expanding to W and
    truncating to n gives the same bits as expanding to n directly; in
    particular the first ``params.output_bits`` bits are exactly
    ``truncated_hash(params, width, value)``.
    """
    if target_width < 1:
        raise ValueError(f"mask width must be >= 1, got {target_width}")
    return _oracle(params.tag_byte, width, value, target_width)


@lru_cache(maxsize=32, typed=True)
def _oracle(tag_byte: bytes, width: int, value: int, target_width: int) -> int:
    prefix = (
        tag_byte
        + value.to_bytes((width + 7) // 8, "big")
        + width.to_bytes(8, "big")
    )
    stream = _sha256(prefix).digest()
    if target_width > 256:
        # counter blocks 1, 2, ... joined once: growing the bytes block by
        # block copies the stream each time, quadratic in target_width
        blocks = [stream]
        for counter in range(1, (target_width + 255) // 256):
            blocks.append(_sha256(prefix + counter.to_bytes(4, "big")).digest())
        stream = b"".join(blocks)
    return int.from_bytes(stream, "big") >> (8 * len(stream) - target_width)


def truncated_hash(params: HashParams, width: int, value: int) -> int:
    """The n-bit hash oracle: first n bits of the domain-tagged SHA-256, as an int."""
    return expand_mask(params, width, value, params.output_bits)


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
    def generate(cls, rng, width: int) -> PermKey:
        return cls(rng.bytes(PERM_KEY_BYTES), width)


def permute(key: PermKey, value: int) -> int:
    """Forward evaluation of the keyed permutation on a ``key.width``-bit value.

    Round r maps (L, R) to (R, L ^ F_r(R)), where F_r is the truncated hash
    under round tag r of key bytes || R, hashed as one message. A value
    that does not fit the block width raises WidthError.
    """
    if value >> key.width:  # also true of every negative value
        raise WidthError(f"value {value:#x} does not fit the {key.width}-bit block")
    half = key.width // 2
    left, right = value >> half, value & ((1 << half) - 1)
    shifted_key, message_width = key.shifted_key, key.message_width
    for params in key.round_params:
        left, right = right, left ^ truncated_hash(params, message_width, shifted_key | right)
    return (left << half) | right


def invert(key: PermKey, value: int) -> int:
    """Inverse evaluation: invert(key, permute(key, x)) == x."""
    if value >> key.width:  # also true of every negative value
        raise WidthError(f"value {value:#x} does not fit the {key.width}-bit block")
    half = key.width // 2
    left, right = value >> half, value & ((1 << half) - 1)
    shifted_key, message_width = key.shifted_key, key.message_width
    for params in reversed(key.round_params):
        left, right = right ^ truncated_hash(params, message_width, shifted_key | left), left
    return (left << half) | right
