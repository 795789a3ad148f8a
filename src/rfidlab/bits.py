"""Fixed-width bit strings.

The universal value type for identifiers, keys, nonces, masks and
ciphertexts. A BitString carries its width; all binary operations demand
equal widths, except concatenation. The canonical text encoding is
"<width>:<hex>" with the hex zero-padded to ceil(width/4) digits, e.g.
"16:ff00"; it is what transcripts, snapshots and reports use on disk.

Instances are treated as immutable (they are used as dict keys).
"""

from __future__ import annotations

import re

# A literal's shape: decimal digits, a colon, lowercase hex digits. The
# first branch is the canonical syntax (ASCII digits without a leading zero,
# nothing after the hex) and captures the width and the hex; strings of the
# shape that are not canonical ("08:ff", a Unicode digit, a final newline,
# which ``$`` lets through) match the second branch and capture nothing.
LITERAL_SHAPE = re.compile(r"(0|[1-9][0-9]*):([0-9a-f]*)\Z|\d+:[0-9a-f]*$")


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
        match = LITERAL_SHAPE.match(text) if isinstance(text, str) else None
        if match is None:
            raise ValueError(f"not a canonical bit string literal: {text!r}")
        return from_literal(match)

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


def from_literal(match: re.Match) -> BitString:
    """The BitString a LITERAL_SHAPE match spells; ValueError unless canonical.

    Canonical also means exactly ceil(width/4) hex digits, whose value fits
    the width.
    """
    width_part, hex_part = match.groups()
    if width_part is None:
        raise ValueError(f"not a canonical bit string literal: {match.string!r}")
    width = int(width_part)
    digits = (width + 3) // 4
    if len(hex_part) != digits:
        raise ValueError(
            f"expected {digits} hex digits for width {width}, got {len(hex_part)}"
        )
    return BitString(width, int(hex_part, 16) if hex_part else 0)
