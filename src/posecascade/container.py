"""Length-checked binary container of the model file.

Layout: a magic string, a little-endian u64 header length, a UTF-8 JSON
object (the header), then raw arrays. Every read is bounds-checked, so a
truncated, extended or garbled file raises InvalidArgumentError instead of a
stray struct.error, UnicodeDecodeError or ValueError.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import InvalidArgumentError


def pack_header(magic: bytes, header: dict) -> bytes:
    """magic + u64 length + sorted-key JSON header; deterministic bytes."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return magic + struct.pack("<Q", len(blob)) + blob


class Reader:
    """Sequential reader over one container; `what` names it in errors."""

    def __init__(self, data: bytes, magic: bytes, what: str):
        if data[: len(magic)] != magic:
            raise InvalidArgumentError(f"not a {what} (bad magic)")
        self.data = data
        self.off = len(magic)
        self.what = what

    def take(self, n: int) -> bytes:
        left = len(self.data) - self.off
        if n < 0 or n > left:
            raise InvalidArgumentError(
                f"truncated {self.what}: needs {n} bytes at offset {self.off}, {left} left"
            )
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def header(self) -> dict:
        (n,) = struct.unpack("<Q", self.take(8))
        try:
            header = json.loads(self.take(n).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise InvalidArgumentError(f"{self.what}: unreadable header ({e})") from None
        if not isinstance(header, dict):
            raise InvalidArgumentError(f"{self.what}: header is not a JSON object")
        return header

    def float32(self, shape: tuple[int, ...]) -> np.ndarray:
        """A native-order copy of prod(shape) little-endian float32 values;
        the byte count is an exact integer, so no shape from a header wraps it."""
        stored = np.frombuffer(self.take(4 * math.prod(shape)), dtype="<f4")
        return stored.reshape(shape).astype(np.float32)

    def finish(self) -> None:
        extra = len(self.data) - self.off
        if extra:
            raise InvalidArgumentError(f"{self.what}: {extra} trailing bytes")
