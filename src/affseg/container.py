"""Binary container framing shared by feature, target, and checkpoint files.

Layout of every file:

    bytes 0..7    magic  b"OOALFT01"
    bytes 8..     one or more little-endian uint32 header words
    payload       raw little-endian float64 values

Grid files (features and targets, written and read only by :func:`write_grid`
and :func:`read_grid`) put a 7-word header after the magic; checkpoints put a
uint32 length followed by a UTF-8 JSON manifest (see :mod:`affseg.training`).
All writers go through the helpers here so the framing stays bit-deterministic.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"OOALFT01"
# a grid file's 7 header words, and the magic and those words together
_GRID_WORDS = struct.Struct("<7I")
GRID_HEAD = len(MAGIC) + _GRID_WORDS.size


class FormatError(Exception):
    """File does not carry the expected magic / framing."""


class CorruptionError(Exception):
    """Framing is recognized but the content is inconsistent with its header."""


def read_magic(fh) -> None:
    head = fh.read(len(MAGIC))
    if head != MAGIC:
        raise FormatError(f"bad magic {head!r}, expected {MAGIC!r}")


def pack_u32(*values: int) -> bytes:
    for v in values:
        if not 0 <= v < 2**32:
            raise ValueError(f"header word {v} out of uint32 range")
    return struct.pack(f"<{len(values)}I", *values)


def read_u32(fh, count: int) -> tuple[int, ...]:
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise CorruptionError("truncated header")
    return struct.unpack(f"<{count}I", raw)


def write_f64(fh, arr: np.ndarray) -> None:
    """Write *arr* as little-endian float64 from its own buffer, which is
    copied only when it is not already a C-contiguous ``<f8`` array."""
    fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def read_f64(fh, count: int, more: int = 0) -> np.ndarray:
    """The next *count* float64 values of the file *fh*, after which it holds
    *more* values and ends. One ``fstat`` checks that size before anything is
    read or allocated: a header claiming more than the file holds fails, and
    so do bytes after the payload."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    want = 8 * (count + more)
    if want > left:
        raise CorruptionError(f"payload shorter than expected ({left} bytes left, wanted {want})")
    if want < left:
        raise CorruptionError("trailing bytes after payload")
    out = np.empty(count, dtype="<f8")
    if _fill(fh, memoryview(out).cast("B")) != 8 * count:
        raise CorruptionError(f"payload shorter than expected ({left} bytes left, wanted {want})")
    return out.astype(np.float64, copy=False)


def _fill(fh, buf) -> int:
    """Read into *buf* until it is full or the file ends; the number of bytes
    read. An unbuffered file may return less than asked per read."""
    got = 0
    while got < len(buf) and (more := fh.readinto(buf[got:])):
        got += more
    return got


def check_array_size(count: int, what: str) -> None:
    """ValueError naming *what* when numpy cannot hold *count* float64 values
    in one array: more than it can index, or more memory than it can get. The
    array is asked for, never written, and freed at once."""
    try:
        np.empty(count)
    except (ValueError, MemoryError):
        raise ValueError(f"{what}: {count} values are more than one numpy array can hold") \
            from None


def write_grid(path, layers, summary, grid, image_size) -> None:
    """Write the L x C *layers* and the length-C *summary* as a grid file; a
    header word out of uint32 range fails before *path* is opened."""
    L, C = layers[0].shape
    header = MAGIC + pack_u32(len(layers), L, C, *grid, *image_size)
    with open(path, "wb") as fh:
        fh.write(header)
        for a in (*layers, summary):
            write_f64(fh, a)


def read_grid(path, check_header=None):
    """A grid file as (n_layers x L x C layers, length-C summary, grid, image
    size), both arrays views of one payload read. The file is read unbuffered:
    the magic and the header words in one read, then the payload in one
    :func:`read_f64` call, each continued on a short read. Before the payload
    is read, the header words go to *check_header*, and a header with no
    layer, row or column fails."""
    with open(path, "rb", buffering=0) as fh:
        head = bytearray(GRID_HEAD)
        got = _fill(fh, memoryview(head))
        magic = bytes(head[:min(got, len(MAGIC))])
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if got != GRID_HEAD:
            raise CorruptionError("truncated header")
        n, L, C, h_p, w_p, H, W = header = _GRID_WORDS.unpack_from(head, len(MAGIC))
        if check_header is not None:
            check_header(*header)
        if n < 1 or L < 1 or C < 1:
            raise CorruptionError(f"implausible header ({n} layers, {L}x{C})")
        payload = read_f64(fh, (n * L + 1) * C)
    return payload[:n * L * C].reshape(n, L, C), payload[n * L * C:], (h_p, w_p), (H, W)
