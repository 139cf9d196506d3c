"""Binary container framing shared by feature, target, and checkpoint files.

Layout of every file:

    bytes 0..7    magic  b"OOALFT01"
    bytes 8..     one or more little-endian uint32 header words
    payload       raw little-endian float64 values

Feature/target files put a fixed 7-word header after the magic
(see :mod:`affseg.features`); checkpoints put a uint32 length followed by a
UTF-8 JSON manifest (see :mod:`affseg.training`). All writers go through the
helpers here so the framing stays bit-deterministic.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"OOALFT01"


class FormatError(Exception):
    """File does not carry the expected magic / framing."""


class CorruptionError(Exception):
    """Framing is recognized but the content is inconsistent with its header."""


def write_magic(fh) -> None:
    fh.write(MAGIC)


def read_magic(fh) -> None:
    head = fh.read(len(MAGIC))
    if head != MAGIC:
        raise FormatError(f"bad magic {head!r}, expected {MAGIC!r}")


def write_u32(fh, *values: int) -> None:
    for v in values:
        if not 0 <= v < 2**32:
            raise ValueError(f"header word {v} out of uint32 range")
        fh.write(struct.pack("<I", v))


def read_u32(fh, count: int) -> tuple[int, ...]:
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise CorruptionError("truncated header")
    return struct.unpack(f"<{count}I", raw)


def write_f64(fh, arr: np.ndarray) -> None:
    a = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(a.tobytes())


def read_f64(fh, count: int) -> np.ndarray:
    """The next *count* float64 values of the file *fh*. A header claiming
    more than the file holds fails before anything is read or allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    out = np.empty(count, dtype="<f8") if 8 * count <= left else None
    if out is None or fh.readinto(out) != 8 * count:
        raise CorruptionError(f"payload shorter than expected ({left} bytes left, wanted {8 * count})")
    return out.astype(np.float64, copy=False)


def check_array_size(count: int, what: str) -> None:
    """ValueError naming *what* when numpy cannot hold *count* float64 values
    in one array: more than it can index, or more memory than it can get. The
    array is asked for, never written, and freed at once."""
    try:
        np.empty(count)
    except (ValueError, MemoryError):
        raise ValueError(f"{what}: {count} values are more than one numpy array can hold") \
            from None


def expect_eof(fh) -> None:
    if fh.read(1):
        raise CorruptionError("trailing bytes after payload")
