"""Fixed-width bit strings.

The universal value type for identifiers, keys, nonces, masks and
ciphertexts. A BitString carries its width; all binary operations demand
equal widths, except concatenation. The canonical text encoding is
"<width>:<hex>" with the hex zero-padded to ceil(width/4) digits, e.g.
"16:ff00"; it is what transcripts, snapshots and reports use on disk.

Instances are treated as immutable (they are used as dict keys).
"""

from __future__ import annotations

_HEX_DIGITS = "0123456789abcdef"

# canonical width text -> (width, hex digits): a memo, filled as widths are
# first parsed, that changes no result. Widths above the bound are worked out
# on every parse, so hostile input cannot grow it.
_WIDTHS: dict[str, tuple[int, int]] = {}
_WIDTHS_BOUND = 1024


class WidthError(ValueError):
    """Operand widths do not line up."""


class BitString:
    """A bit vector of fixed width, most-significant bit first."""

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int):
        if width < 0:
            raise WidthError(f"width must be >= 0, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        self.width = width
        self.value = value

    @classmethod
    def from_bytes(cls, data: bytes) -> BitString:
        return cls(8 * len(data), int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        """Canonical big-endian bytes, value right-aligned in ceil(width/8) bytes."""
        return self.value.to_bytes((self.width + 7) // 8, "big")

    @classmethod
    def parse(cls, text: str) -> BitString:
        """Parse the canonical "<width>:<hex>" encoding; anything else is a ValueError.

        Only decimal digits before the colon and lowercase hex digits after
        it are accepted, so every literal that parses renders back unchanged.
        """
        bits = literal_bits(text) if isinstance(text, str) else None
        if bits is None:
            raise ValueError(f"not a canonical bit string literal: {text!r}")
        return bits

    def render(self) -> str:
        """Inverse of parse(): zero-padded lowercase hex, width first."""
        if self.width == 0:
            return "0:"
        return "%d:%0*x" % (self.width, (self.width + 3) // 4, self.value)

    def concat(self, other: BitString) -> BitString:
        """Concatenation; self occupies the high-order bits."""
        return BitString(
            self.width + other.width, (self.value << other.width) | other.value
        )

    def __xor__(self, other: BitString) -> BitString:
        if self.width != other.width:
            raise WidthError(f"xor widths differ: {self.width} vs {other.width}")
        return BitString(self.width, self.value ^ other.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and self.width == other.width
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.width, self.value))

    def __repr__(self) -> str:
        return f"<BitString {self.render()}>"


def literal_bits(text: str) -> BitString | None:
    """The BitString that a canonical literal spells, or None for other text.

    Text has a literal's shape when it is decimal digits, a colon and
    lowercase hex digits, and perhaps one final newline. Text of that shape
    that is not canonical is a ValueError: a width with a leading zero or a
    non-ASCII digit, a final newline, other than ceil(width/4) hex digits,
    or a value that does not fit the width.
    """
    width_text, colon, hex_text = text.partition(":")
    if not colon:
        return None
    if hex_text.lstrip(_HEX_DIGITS):
        # not all lowercase hex: of a literal's shape only with a final newline
        if hex_text[-1] != "\n" or hex_text[:-1].lstrip(_HEX_DIGITS) or not width_text.isdecimal():
            return None
        raise ValueError(f"not a canonical bit string literal: {text!r}")
    known = _WIDTHS.get(width_text)
    if known is None:
        # isdecimal() takes any Unicode decimal digit; a canonical width is
        # ASCII digits without a leading zero
        if not width_text.isdecimal():
            return None
        if not width_text.isascii() or (width_text[0] == "0" and width_text != "0"):
            raise ValueError(f"not a canonical bit string literal: {text!r}")
        width = int(width_text)
        known = (width, (width + 3) // 4)
        if width <= _WIDTHS_BOUND:
            _WIDTHS[width_text] = known
    width, digits = known
    if len(hex_text) != digits:
        raise ValueError(f"expected {digits} hex digits for width {width}, got {len(hex_text)}")
    return BitString(width, int(hex_text, 16) if hex_text else 0)
