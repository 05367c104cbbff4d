"""Canonical byte encodings shared by the ledger, wire messages and hashing.

Every structure that is hashed or signed round-trips through these helpers so
that independently operating peers produce bit-identical bytes: fixed field
order, little-endian fixed-width integers, length-prefixed variable data and
IEEE-754 little-endian doubles.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


U32, U64 = (1 << 32) - 1, (1 << 64) - 1


def require(name: str, value, holds: bool, rule: str) -> None:
    """Refuse ``value`` for ``name`` unless ``holds``, naming the rule it breaks."""
    if not holds:
        raise ValueError(f"{name} must {rule}, got {value}")


def require_int(name: str, value, least: int = 0, most: int = U32) -> None:
    """Refuse, naming ``name``, all but an ``int`` (not a bool) in least..most."""
    require(name, repr(value), type(value) is int, "be an integer")  # repr: a string shows quoted
    require(name, value, value >= least, f"be at least {least}")
    require(name, value, value <= most, f"be at most {most}")


def seed_words(seed: int) -> np.ndarray:
    """``seed``'s uint32 words, least significant first, with no zero high
    words: the words NumPy's ``SeedSequence`` makes of an int, so a generator
    seeded with them starts in the state one seeded with ``seed`` does,
    without NumPy's slower conversion.  A negative seed is refused, as
    NumPy refuses it."""
    if seed < 0:
        raise ValueError(f"a seed must be non-negative, got {seed}")
    n = max(1, (seed.bit_length() + 31) // 32)  # 0 is one zero word
    return np.frombuffer(seed.to_bytes(4 * n, "little"), "<u4")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def u64(value: int) -> bytes:
    return struct.pack("<Q", value)


class ByteWriter:
    """Accumulates a canonical byte string."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def raw(self, data: bytes) -> "ByteWriter":
        self._parts.append(data)
        return self

    def u32(self, value: int) -> "ByteWriter":
        return self.raw(u32(value))

    def u64(self, value: int) -> "ByteWriter":
        return self.raw(u64(value))

    def f64(self, value: float) -> "ByteWriter":
        return self.raw(struct.pack("<d", value))

    def bytes_lp(self, data: bytes) -> "ByteWriter":
        """Length-prefixed byte string."""
        return self.u32(len(data)).raw(data)

    def f64_vector(self, values) -> "ByteWriter":
        """The count as u32, then each value as a little-endian double."""
        return self.raw(struct.pack(f"<I{len(values)}d", len(values), *map(float, values)))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Reads back what ByteWriter wrote; raises ValueError with the byte
    offset on truncation, and from ``done`` on trailing bytes."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ValueError(
                f"truncated input: wanted {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.raw(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.raw(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def bytes_lp(self) -> bytes:
        return self.raw(self.u32())

    def f64_vector(self) -> list[float]:
        n = self.u32()
        return [self.f64() for _ in range(n)]

    def at_end(self) -> bool:
        return self._pos == len(self._data)

    def done(self) -> None:
        """Raise ValueError unless every byte has been read."""
        if not self.at_end():
            raise ValueError(
                f"trailing input: {len(self._data) - self._pos} bytes after offset {self._pos}"
            )

