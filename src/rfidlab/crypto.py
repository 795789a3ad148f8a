"""Hash oracles, mask expansion and the keyed small-block permutation.

Everything here is derived from SHA-256 (``HASH_NAME``) with a one-byte
domain tag, so the two protocol hash oracles H and G look independent and
the permutation's round functions are separated from both. The digests
come from the interpreter's builtin SHA-256, as ``random.py`` takes its
SHA-512: OpenSSL, which ``hashlib`` loads, costs about 2 ms to import and
more per call than a 33-byte message (300 against 230 ns). The hash of a
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
hit rate is the same for tables of 16 to 256 entries. The LWJX count
holds however long ago the tag last changed its identifier: the tag
keeps its H(ID) and sets it when it chains ID to G(ID), right after the
reader has asked the same H(ID'), so a new-branch session's repeats
all fall within the session. The table is keyed
by the domain tag byte, not the HashParams, whose ``__hash__`` (the
record base's) is a Python call, and by the message width and value and
the target width with their types (``typed=True``), so 96 and 96.0 stay
apart and a call that raises without the table still raises. On CPython 3.11.7 (2
vCPUs) a 96-bit hash of a query that never repeats takes about 0.84 µs
instead of 0.65 (the lookup and the table's upkeep), and a repeat about
0.18 µs instead of 0.65. The table sits below the traced names:
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

from functools import lru_cache

from .bits import WidthError
from .records import FrozenRecord, setfield

try:
    from _sha256 import sha256 as _sha256  # CPython up to 3.11
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256 as _sha256

HASH_NAME = "sha256"

# one-byte domain separation tags
H_TAG = 0x01
G_TAG = 0x02
FEISTEL_TAG_BASE = 0x10
FEISTEL_ROUNDS = 4
PERM_KEY_BYTES = 16  # key length of a generated permutation key


class HashParams(FrozenRecord):
    """Output width and domain tag of one hash oracle."""

    output_bits: int
    domain_tag: int

    def __post_init__(self):
        for name, value in (("output_bits", self.output_bits), ("domain_tag", self.domain_tag)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.output_bits < 1:
            raise ValueError(f"hash output must be >= 1 bit, got {self.output_bits}")
        if not 0 <= self.domain_tag <= 0xFF:
            raise ValueError(f"domain tag must be one byte, got {self.domain_tag}")
        # not a field: equality, hashing and repr stay on (output_bits, domain_tag)
        setfield(self, "tag_byte", bytes((self.domain_tag,)))


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
    # value || width in one to_bytes, which raises OverflowError for a
    # negative or too wide value or a negative width, and ValueError (a
    # negative length) for a width below -7, as one call for each would
    nbytes = (width + 7) // 8
    prefix = tag_byte + (value << 64 | width).to_bytes(
        nbytes + 8 if nbytes >= 0 else nbytes, "big"
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


class PermKey(FrozenRecord):
    """Key material and block width of the invertible permutation."""

    key: bytes
    width: int

    def __post_init__(self):
        key, width = self.key, self.width
        if not key:
            raise ValueError("permutation key must be non-empty")
        if type(width) is not int:
            raise WidthError(f"width must be an integer, got {width!r}")
        if width < 2 or width % 2:
            raise WidthError(f"block width must be even and >= 2, got {width}")
        # not fields: a round hashes key || right half, built from these
        half = width // 2
        setfield(self, "round_params", _round_params(half))
        setfield(self, "shifted_key", int.from_bytes(key, "big") << half)
        setfield(self, "message_width", 8 * len(key) + half)

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
