"""Dense row-major float32 tensors with no-copy views.

A :class:`Tensor` owns a single flat float32 buffer; ``array`` exposes it
as a row-major n-d view without copying. All APIs that materialize
element data bump a module-wide copy counter, which lets tests prove
that slicing and subnetwork switching move zero weight elements.

``transpose`` materialises the transposed store of the cache-optimized
layout, in which each neuron's weights are contiguous. Tensors
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
    """Total number of elements copied by tensor APIs so far."""
    return _copy_count


def _count_copies(n: int) -> None:
    global _copy_count
    with _copy_lock:
        _copy_count += int(n)


class Tensor:
    """Flat row-major float32 storage plus its shape."""

    __slots__ = ("shape", "_data")

    def __init__(self, shape, data=None):
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ShapeMismatchError(f"non-positive extent in shape {shape}")
        size = int(np.prod(shape))
        if data is None:
            buf = np.zeros(size, dtype=np.float32)
        else:
            buf = np.asarray(data, dtype=np.float32).reshape(-1)
            if buf.size != size:
                raise ShapeMismatchError(
                    f"data length {buf.size} != product of shape {shape}"
                )
            buf = np.array(buf, dtype=np.float32, copy=True)
        self.shape = shape
        self._data = buf

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_array(cls, arr):
        """Build from an n-d numpy array, flattened row-major."""
        arr = np.asarray(arr, dtype=np.float32)
        return cls(arr.shape, arr.ravel())

    # -- views ------------------------------------------------------------

    @property
    def flat(self) -> np.ndarray:
        """Read-only view of the flat buffer."""
        v = self._data.view()
        v.flags.writeable = False
        return v

    @property
    def array(self) -> np.ndarray:
        """Read-only n-d view (no copy)."""
        v = self._data.reshape(self.shape)
        v.flags.writeable = False
        return v

    def writable_array(self) -> np.ndarray:
        """Mutable n-d view; the caller takes exclusive write access."""
        return self._data.reshape(self.shape)

    @property
    def size(self) -> int:
        return self._data.size

    def _require_2d(self):
        if len(self.shape) != 2:
            raise ShapeMismatchError(f"2-d tensor required, got shape {self.shape}")

    def copy(self) -> "Tensor":
        """Deep copy; counted by the copy auditor."""
        _count_copies(self.size)
        return Tensor(self.shape, self._data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def transpose(t: Tensor) -> Tensor:
    """Materialize the transpose as a row-major tensor.

    For vectors (one extent equal to 1) the flat storage is unchanged and
    no elements are copied; only the shape metadata flips.
    """
    t._require_2d()
    m, n = t.shape
    if m == 1 or n == 1:
        return Tensor((n, m), t._data)
    _count_copies(t.size)
    return Tensor((n, m), np.ascontiguousarray(t.array.T).ravel())


# -- binary blob format ----------------------------------------------------
#
# Little-endian throughout: header (ndim: u32, order: u32), then ndim u32
# extents, then float32 data in row-major order. The order word is always
# 0 (row-major); a reader rejects any other value.


def write_blob(t: Tensor, fh) -> None:
    fh.write(struct.pack("<II", len(t.shape), 0))
    fh.write(struct.pack(f"<{len(t.shape)}I", *t.shape))
    fh.write(t._data.astype("<f4").tobytes())


def read_blob(fh) -> Tensor:
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
    return Tensor(shape, np.frombuffer(raw, dtype="<f4"))


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
