"""Dense float32 tensors with explicit storage order and no-copy views.

A :class:`Tensor` owns a single flat float32 buffer; ``array`` exposes it
as an n-d view in the declared storage order without copying. All APIs
that materialize element data bump a module-wide copy counter, which lets
tests prove that slicing and subnetwork switching move zero weight
elements.

``transpose`` materialises the transposed store of the cache-optimized
layout, in which each neuron's weights are contiguous. Tensors
serialise to a little-endian binary blob format.
"""

from __future__ import annotations

import struct
import threading
from enum import IntEnum

import numpy as np

from .errors import IntegrityError, ShapeMismatchError


class Order(IntEnum):
    ROW_MAJOR = 0
    COL_MAJOR = 1


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
    """Flat float32 storage plus shape and order metadata."""

    __slots__ = ("shape", "order", "_data")

    def __init__(self, shape, data=None, order=Order.ROW_MAJOR):
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
        self.order = Order(order)
        self._data = buf

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_array(cls, arr, order=Order.ROW_MAJOR):
        """Build from an n-d numpy array, flattening in the given order."""
        arr = np.asarray(arr, dtype=np.float32)
        flat = arr.ravel(order="C" if order == Order.ROW_MAJOR else "F")
        return cls(arr.shape, flat, order)

    # -- views ------------------------------------------------------------

    @property
    def flat(self) -> np.ndarray:
        """Read-only view of the flat buffer."""
        v = self._data.view()
        v.flags.writeable = False
        return v

    @property
    def array(self) -> np.ndarray:
        """Read-only n-d view in the declared storage order (no copy)."""
        v = self._data.reshape(
            self.shape, order="C" if self.order == Order.ROW_MAJOR else "F"
        )
        v = v.view()
        v.flags.writeable = False
        return v

    def writable_array(self) -> np.ndarray:
        """Mutable n-d view; the caller takes exclusive write access."""
        return self._data.reshape(
            self.shape, order="C" if self.order == Order.ROW_MAJOR else "F"
        )

    @property
    def size(self) -> int:
        return self._data.size

    def _require_2d(self):
        if len(self.shape) != 2:
            raise ShapeMismatchError(f"2-d tensor required, got shape {self.shape}")

    def copy(self) -> "Tensor":
        """Deep copy; counted by the copy auditor."""
        _count_copies(self.size)
        return Tensor(self.shape, self._data.copy(), self.order)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, order={self.order.name})"


def transpose(t: Tensor) -> Tensor:
    """Materialize the transpose as a row-major tensor.

    For vectors (one extent equal to 1) the flat storage is unchanged and
    no elements are copied; only the shape metadata flips.
    """
    t._require_2d()
    m, n = t.shape
    if m == 1 or n == 1:
        return Tensor((n, m), t._data, t.order)
    _count_copies(t.size)
    return Tensor((n, m), np.ascontiguousarray(t.array.T).ravel(), Order.ROW_MAJOR)


# -- binary blob format ----------------------------------------------------
#
# Little-endian throughout: header (ndim: u32, order: u32), then ndim u32
# extents, then float32 data in the tensor's flat order.


def write_blob(t: Tensor, fh) -> None:
    fh.write(struct.pack("<II", len(t.shape), int(t.order)))
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
    data = np.frombuffer(raw, dtype="<f4").astype(np.float32)
    try:
        order = Order(order)
    except ValueError:
        raise IntegrityError(f"tensor blob has unknown order {order}") from None
    return Tensor(shape, data, order)


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
