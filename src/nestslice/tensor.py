"""Dense float32 tensors with explicit storage order and no-copy views.

A :class:`Tensor` owns a single flat float32 buffer; ``array`` exposes it
as an n-d view in the declared storage order without copying. All APIs
that materialize element data bump a module-wide copy counter, which lets
tests prove that slicing and subnetwork switching move zero weight
elements.

Two matrix-multiply orderings are provided. ``matmul_basic`` computes
``x.T @ w`` with the weight matrix in row-major order, which walks the
weight buffer column-wise (large strides). ``matmul_optimized`` computes
the same product from the transposed weight store ``(w.T @ x).T``, which
walks each neuron's weights contiguously. The ``*_traced`` variants
additionally record the flat index of every weight read, in order; they
are slow reference implementations meant for tests and trace generation,
never for the production path.
"""

from __future__ import annotations

import struct
import threading
from enum import IntEnum

import numpy as np

from .errors import ShapeMismatchError


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

    @property
    def nrows(self) -> int:
        self._require_2d()
        return self.shape[0]

    @property
    def ncols(self) -> int:
        self._require_2d()
        return self.shape[1]

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


# -- matrix multiplication -------------------------------------------------


def _check_basic(x: Tensor, w: Tensor):
    x._require_2d()
    w._require_2d()
    if x.shape[0] != w.shape[0]:
        raise ShapeMismatchError(
            f"inner dimensions disagree: x {x.shape} vs w {w.shape}"
        )
    if w.order != Order.ROW_MAJOR:
        raise ShapeMismatchError("matmul_basic expects a row-major weight store")


def matmul_basic(x: Tensor, w: Tensor) -> Tensor:
    """out[i, j] = sum_k x[k, i] * w[k, j]  for x (m x b), w (m x n)."""
    _check_basic(x, w)
    xa = x.array.astype(np.float64)
    wa = w.array.astype(np.float64)
    return Tensor.from_array(xa.T @ wa)


def matmul_basic_traced(x: Tensor, w: Tensor):
    """Reference loop for matmul_basic recording flat weight-read indices."""
    _check_basic(x, w)
    m, b = x.shape
    n = w.shape[1]
    xa = x.array.astype(np.float64)
    wf = w.flat.astype(np.float64)
    out = np.zeros((b, n))
    reads = []
    for i in range(b):
        for j in range(n):
            acc = 0.0
            for k in range(m):
                reads.append(k * n + j)
                acc += xa[k, i] * wf[k * n + j]
            out[i, j] = acc
    return Tensor.from_array(out), np.asarray(reads, dtype=np.int64)


def _check_optimized(x: Tensor, wt: Tensor):
    x._require_2d()
    wt._require_2d()
    if wt.shape[1] != x.shape[0]:
        raise ShapeMismatchError(
            f"inner dimensions disagree: wT {wt.shape} vs x {x.shape}"
        )
    if wt.order != Order.ROW_MAJOR:
        raise ShapeMismatchError(
            "matmul_optimized expects the transposed weights with each "
            "logical column of w contiguous (row-major n x m store)"
        )


def matmul_optimized(x: Tensor, wt: Tensor) -> Tensor:
    """Same product as matmul_basic, computed as (wT @ x).T.

    ``wt`` is the transposed weight store (n x m); each of its rows holds
    one neuron's weights contiguously.
    """
    _check_optimized(x, wt)
    xa = x.array.astype(np.float64)
    wa = wt.array.astype(np.float64)
    return Tensor.from_array((wa @ xa).T)


def matmul_optimized_traced(x: Tensor, wt: Tensor):
    """Reference loop for matmul_optimized recording flat weight reads."""
    _check_optimized(x, wt)
    m, b = x.shape
    n = wt.shape[0]
    xa = x.array.astype(np.float64)
    wf = wt.flat.astype(np.float64)
    out = np.zeros((b, n))
    reads = []
    for j in range(n):
        for i in range(b):
            acc = 0.0
            for k in range(m):
                reads.append(j * m + k)
                acc += wf[j * m + k] * xa[k, i]
            out[i, j] = acc
    return Tensor.from_array(out), np.asarray(reads, dtype=np.int64)


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
    return Tensor(shape, data, Order(order))


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


def save_tensor(t: Tensor, path) -> None:
    with open(path, "wb") as fh:
        write_blob(t, fh)


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return read_blob(fh)
