"""BitString operations that only the tests use: concatenation and bytes.

The reference oracles in ``test_crypto.py`` and the reference readers and
expected values elsewhere build their messages with these, so they stay
independent of how ``rfidlab`` lays a hash input out.
"""

from rfidlab.bits import BitString


def concat(*parts: BitString) -> BitString:
    """Concatenation; the first part occupies the high-order bits."""
    width = value = 0
    for part in parts:
        width += part.width
        value = (value << part.width) | part.value
    return BitString(width, value)


def to_bytes(x: BitString) -> bytes:
    """Canonical big-endian bytes, value right-aligned in ceil(width/8) bytes."""
    return x.value.to_bytes((x.width + 7) // 8, "big")


def from_bytes(data: bytes) -> BitString:
    return BitString(8 * len(data), int.from_bytes(data, "big"))
