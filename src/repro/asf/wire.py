"""Low-level serialization primitives shared by all ASF objects.

Everything on the wire is little-endian. Strings are u16-length-prefixed
UTF-8; blobs are u32-length-prefixed. Objects are ``tag(4s) + u32 length +
payload`` — :func:`write_object` / :class:`Reader.read_object`.
"""

from __future__ import annotations

import struct
from typing import Tuple

from .constants import ASFError


def pack_u8(value: int) -> bytes:
    return struct.pack("<B", value)


def pack_u16(value: int) -> bytes:
    return struct.pack("<H", value)


def pack_u32(value: int) -> bytes:
    return struct.pack("<I", value)


def pack_u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ASFError("string too long for wire format")
    return pack_u16(len(raw)) + raw


def write_object(tag: bytes, payload: bytes) -> bytes:
    if len(tag) != 4:
        raise ASFError(f"object tag must be 4 bytes, got {tag!r}")
    return tag + pack_u32(len(payload)) + payload


class Reader:
    """Cursor over a byte buffer with checked reads."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def _take(self, n: int) -> bytes:
        if self.remaining() < n:
            raise ASFError(
                f"truncated data: need {n} bytes at offset {self.pos}, "
                f"have {self.remaining()}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def string(self) -> str:
        length = self.u16()
        return self._take(length).decode("utf-8")

    def read_object(self) -> Tuple[bytes, bytes]:
        """Read one ``tag + length + payload`` object."""
        tag = self._take(4)
        length = self.u32()
        return tag, self._take(length)

    def expect_object(self, tag: bytes) -> bytes:
        got, payload = self.read_object()
        if got != tag:
            raise ASFError(f"expected object {tag!r}, found {got!r}")
        return payload
