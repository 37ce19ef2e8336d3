import io

import numpy as np
import pytest

import nestslice.tensor as tz
from nestslice.errors import ShapeMismatchError
from nestslice.tensor import Order, Tensor, copy_counter, transpose


def t2(arr):
    return Tensor.from_array(np.asarray(arr, dtype=np.float32))


def test_storage_orders():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    row = Tensor.from_array(a)
    col = Tensor.from_array(a, order=Order.COL_MAJOR)
    np.testing.assert_array_equal(row.array, a)
    np.testing.assert_array_equal(col.array, a)
    # flat index i*ncols + j (row-major), j*nrows + i (col-major)
    assert row.flat[1 * 3 + 2] == a[1, 2]
    assert col.flat[2 * 2 + 1] == a[1, 2]


def test_data_length_must_match_shape():
    with pytest.raises(ShapeMismatchError):
        Tensor((2, 3), np.zeros(5, dtype=np.float32))


def test_transpose_vector_is_storage_noop():
    v = t2(np.arange(5).reshape(5, 1))
    before = copy_counter()
    vt = transpose(v)
    assert vt.shape == (1, 5)
    np.testing.assert_array_equal(vt.flat, v.flat)
    assert copy_counter() == before


def test_transpose_matrix_copies():
    w = t2(np.arange(6).reshape(2, 3))
    before = copy_counter()
    wt = transpose(w)
    assert copy_counter() == before + 6
    np.testing.assert_array_equal(wt.array, w.array.T)


def test_array_view_is_readonly():
    w = t2(np.ones((2, 2)))
    with pytest.raises(ValueError):
        w.array[0, 0] = 5.0
    w.writable_array()[0, 0] = 5.0  # explicit mutation handle
    assert w.array[0, 0] == 5.0


def test_blob_round_trip(rng):
    for shape, order in [((3, 4), Order.ROW_MAJOR), ((2, 2), Order.COL_MAJOR),
                         ((5,), Order.ROW_MAJOR), ((2, 3, 2, 1), Order.ROW_MAJOR)]:
        t = Tensor(shape, rng.standard_normal(int(np.prod(shape))), order)
        buf = io.BytesIO()
        tz.write_blob(t, buf)
        buf.seek(0)
        back = tz.read_blob(buf)
        assert back.shape == t.shape and back.order == t.order
        np.testing.assert_array_equal(back.flat, t.flat)


def test_blob_truncation_detected():
    t = Tensor((2, 2), np.ones(4))
    buf = io.BytesIO()
    tz.write_blob(t, buf)
    raw = buf.getvalue()
    with pytest.raises(ShapeMismatchError):
        tz.read_blob(io.BytesIO(raw[:-3]))
