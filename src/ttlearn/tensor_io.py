"""TNS1 binary tensor files.

Layout: 4-byte magic ``TNS1``, then n1, n2, n3 as little-endian uint32, then
n1·n2·n3 little-endian float64 values with the first index fastest and the
third slowest (column-major within each frontal slice, slices consecutive).
Write-then-read round trips are bit-exact.
"""
from __future__ import annotations

import struct

import numpy as np

from .tensor_ops import as_tensor3

MAGIC = b"TNS1"
_HEADER = struct.Struct("<4sIII")
READ_CHUNK_BYTES = 1 << 20


class TensorFormatError(ValueError):
    """Malformed TNS1 file; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def write_tensor(path, x: np.ndarray) -> None:
    x = as_tensor3(x)
    n1, n2, n3 = x.shape
    payload = np.ascontiguousarray(x.ravel(order="F"), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n1, n2, n3))
        fh.write(payload.tobytes())


def _read_chunked(fh, size: int) -> bytes:
    """Up to ``size`` bytes of ``fh``, never buffering more than has arrived."""
    chunks, got = [], 0
    while got < size:
        chunk = fh.read(min(READ_CHUNK_BYTES, size - got))
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_tensor(path) -> np.ndarray:
    """The tensor stored at ``path``, in the file's column-major (Fortran) order.

    The layout is the payload's, so no reordering copy is made. Consumers
    that reshape it on a hot path, the losses, keep a C-ordered copy.
    Reads stay column-major because a reduction sums in memory order:
    returning C-ordered tensors moved ``ssim`` against a read truth by
    1.2e-16 relative.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TensorFormatError("truncated header", len(header))
        magic, n1, n2, n3 = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TensorFormatError(f"bad magic {magic!r}", 0)
        if min(n1, n2, n3) == 0:
            raise TensorFormatError("zero dimension in header", 4)
        expected = 8 * n1 * n2 * n3
        # a header may claim more than memory holds, and a pipe has no size
        # to check it against, so the payload is read in bounded chunks that
        # stop at the end of the data
        payload = _read_chunked(fh, expected)
        if len(payload) < expected:
            raise TensorFormatError("truncated payload", _HEADER.size + len(payload))
        if fh.read(1):
            raise TensorFormatError("trailing bytes after payload", _HEADER.size + expected)
    flat = np.frombuffer(payload, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise TensorFormatError("non-finite value", _HEADER.size + 8 * int(bad[0]))
    return flat.astype(float).reshape(n1, n2, n3, order="F")
