"""Weight storage: the one counted copy, transposes and the blob format.

Every weight and batchnorm statistic of a model is a C-contiguous float32
numpy array that the model owns. :func:`store` is the one way to make
such an array: it writes a new one and adds its element count to a
module-wide copy counter, which lets tests prove that slicing and
subnetwork switching move zero weight elements.

``transpose`` materialises the transposed store of the cache-optimized
layout, in which each neuron's weights are contiguous. Weight arrays
serialise to a little-endian binary blob format.
"""

from __future__ import annotations

import struct
import threading

import numpy as np

from .errors import IntegrityError, ShapeMismatchError


_copy_count = 0
_copy_lock = threading.Lock()


def copy_counter() -> int:
    """Total number of weight elements ``store`` has written so far."""
    return _copy_count


def store(data) -> np.ndarray:
    """A new C-contiguous float32 array holding ``data``; its elements
    count in ``copy_counter``."""
    global _copy_count
    out = np.array(data, dtype=np.float32, order="C")
    with _copy_lock:
        _copy_count += out.size
    return out


def transpose(a: np.ndarray) -> np.ndarray:
    """The transpose of a 2-d array, row-major.

    A vector's (one extent equal to 1) is a view of ``a``: its elements
    keep their order, only the shape flips, and nothing is copied. A
    matrix's is a new array from ``store``.
    """
    if a.ndim != 2:
        raise ShapeMismatchError(f"2-d array required, got shape {a.shape}")
    m, n = a.shape
    if m == 1 or n == 1:
        return a.reshape(n, m)
    return store(a.T)


# -- binary blob format ----------------------------------------------------
#
# Little-endian throughout: header (ndim: u32, order: u32), then ndim u32
# extents, then float32 data in row-major order. The order word is always
# 0 (row-major); a reader rejects any other value.


def write_blob(a: np.ndarray, fh) -> None:
    fh.write(struct.pack("<II", a.ndim, 0))
    fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
    fh.write(np.asarray(a, dtype="<f4").tobytes())


def read_blob(fh) -> np.ndarray:
    """The next blob as a new array from ``store``.

    ShapeMismatchError for a truncated blob or an extent of 0;
    IntegrityError for an order word other than 0.
    """
    head = fh.read(8)
    if len(head) < 8:
        raise ShapeMismatchError("truncated tensor blob header")
    ndim, order = struct.unpack("<II", head)
    ext = fh.read(4 * ndim)
    if len(ext) < 4 * ndim:
        raise ShapeMismatchError("truncated tensor blob extents")
    shape = struct.unpack(f"<{ndim}I", ext)
    size = int(np.prod(shape))
    raw = fh.read(4 * size)
    if len(raw) < 4 * size:
        raise ShapeMismatchError("truncated tensor blob data")
    if order != 0:
        raise IntegrityError(
            f"tensor blob has order {order}, not row-major (0)")
    if 0 in shape:
        raise ShapeMismatchError(f"zero extent in shape {shape}")
    return store(np.frombuffer(raw, dtype="<f4").reshape(shape))


def read_blobs(fh) -> list:
    """Read concatenated blobs until EOF."""
    out = []
    while True:
        pos = fh.tell()
        head = fh.read(8)
        if not head:
            return out
        fh.seek(pos)
        out.append(read_blob(fh))
