"""Named parameter collections and their binary checkpoint format.

Checkpoint layout (all integers little-endian): magic ``LGC1``, u32
entry count, then per entry a u16 name length, the UTF-8 name, a u8
rank, one u32 per dimension, and the raw little-endian float32 payload.
Round-trips are bit-exact. Writes go through a temp file plus rename so
a crash never leaves a half-written checkpoint behind.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .tensor import Tensor

CHECKPOINT_MAGIC = b"LGC1"


class FormatError(ValueError):
    """A serialized file is corrupt, or does not fit where it is loaded;
    ``offset`` is the failing byte, None when no one byte is at fault."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None
                         else f"{message} (at byte {offset})")
        self.offset = offset


class UnsupportedVersionError(FormatError):
    """A serialized file carries a version this build does not read."""


class ParameterSet:
    """Ordered map from name to Tensor; iteration is lexicographic.

    Two sets are equal iff they hold the same names with the same
    shapes and bitwise-identical data.
    """

    def __init__(self):
        self._items: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._items:
            raise ValueError(f"duplicate parameter name: {name!r}")
        self._items[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._items[name]

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> list[str]:
        return sorted(self._items)

    def items(self):
        for name in sorted(self._items):
            yield name, self._items[name]

    def zero_grads(self) -> None:
        for t in self._items.values():
            t.grad = None

    def copy(self) -> "ParameterSet":
        out = ParameterSet()
        for name, t in self._items.items():
            out._items[name] = t.copy()
        return out

    def equal(self, other: "ParameterSet") -> bool:
        if self.names() != other.names():
            return False
        for name, t in self.items():
            o = other[name]
            if t.shape != o.shape or t.data.tobytes() != o.data.tobytes():
                return False
        return True

    def subset(self, prefix: str) -> "ParameterSet":
        """New set of the entries under ``prefix``, named without it."""
        out = ParameterSet()
        for name, t in self.items():
            if name.startswith(prefix):
                out.add(name[len(prefix):], t)
        return out

    def merged(self, prefix: str, other: "ParameterSet") -> "ParameterSet":
        """Add every entry of ``other`` under ``prefix`` (same tensors)."""
        for name, t in other.items():
            self.add(prefix + name, t)
        return self


def check_layout(params: ParameterSet, loaded: ParameterSet,
                 prefix: str) -> None:
    """Raise ``FormatError`` unless ``loaded`` holds exactly the names of
    ``params``, each at its shape and finite. The error names the first
    missing or unexpected entry, else the first misshapen or non-finite
    one, ``prefix`` first: a resume and an eval refuse the same entries."""
    odd = sorted(set(params.names()) ^ set(loaded.names()))
    if odd:
        which = "missing" if odd[0] in params else "unexpected"
        raise FormatError(f"{which} checkpoint entry {prefix + odd[0]!r}")
    for name, t in params.items():
        if loaded[name].shape != t.shape:
            raise FormatError(f"checkpoint shape mismatch for {prefix}{name}: "
                              f"{loaded[name].shape}, not {t.shape}")
        if not np.isfinite(loaded[name].data).all():
            raise FormatError(f"checkpoint entry {prefix}{name} is not finite")


def is_count(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds one whole number >= 0, as the step counts a
    checkpoint stores do; NaN and infinities are not."""
    return arr.shape == (1,) and 0 <= arr[0] < np.inf and arr[0] % 1 == 0


def save_checkpoint(params: ParameterSet, path: str) -> None:
    """Write ``params`` atomically in the LGC1 format."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(params))]
    for name, t in params.items():
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name!r}")
        if t.ndim > 0xFF:
            raise ValueError(f"parameter rank too large: {name!r}")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", t.ndim))
        chunks.append(struct.pack(f"<{t.ndim}I", *t.shape))
        chunks.append(np.ascontiguousarray(t.data, "<f4"))
    write_atomic(path, chunks)


def write_atomic(path: str, chunks) -> None:
    """Write ``chunks`` (bytes, or contiguous arrays written as their raw
    buffers), one after another, to ``path`` through a temp file plus
    rename, so readers see the old file or the whole new one. Nothing is
    copied to join them."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise FormatError(
                f"truncated file: need {n} bytes, have {len(self.blob) - self.off}",
                self.off,
            )
        piece = self.blob[self.off:self.off + n]
        self.off += n
        return piece

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path: str) -> ParameterSet:
    """Read an LGC1 checkpoint; entries come back gradient-enabled."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    magic = r.take(4)
    if magic != CHECKPOINT_MAGIC:
        if magic[:3] == CHECKPOINT_MAGIC[:3]:
            raise UnsupportedVersionError(
                f"unsupported checkpoint version {magic!r}", 0)
        raise FormatError(f"bad magic {magic!r}", 0)
    (count,) = r.unpack("<I")
    out = ParameterSet()
    for _ in range(count):
        start = r.off
        try:
            name = r.take(*r.unpack("<H")).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("entry name is not UTF-8", start) from None
        if name in out:
            raise FormatError(f"repeated entry {name!r}", start)
        (rank,) = r.unpack("<B")
        shape = r.unpack(f"<{rank}I")
        data = np.frombuffer(r.take(4 * math.prod(shape)), "<f4")
        out.add(name, Tensor(data.reshape(shape).copy(), True))
    if r.off != len(blob):
        raise FormatError(f"{len(blob) - r.off} trailing bytes", r.off)
    return out
