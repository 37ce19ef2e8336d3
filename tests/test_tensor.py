import io

import numpy as np
import pytest

import nestslice.tensor as tz
from nestslice.errors import ShapeMismatchError
from nestslice.tensor import Tensor, copy_counter, transpose


def t2(arr):
    return Tensor.from_array(np.asarray(arr, dtype=np.float32))


def test_row_major_storage():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    row = Tensor.from_array(a)
    np.testing.assert_array_equal(row.array, a)
    assert row.flat[1 * 3 + 2] == a[1, 2]  # flat index i*ncols + j


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
    for shape in [(3, 4), (5,), (2, 3, 2, 1)]:
        t = Tensor(shape, rng.standard_normal(int(np.prod(shape))))
        buf = io.BytesIO()
        tz.write_blob(t, buf)
        assert buf.getvalue()[4:8] == bytes(4)  # order word: row-major
        buf.seek(0)
        back = tz.read_blob(buf)
        assert back.shape == t.shape
        np.testing.assert_array_equal(back.flat, t.flat)


def test_blob_truncation_detected():
    t = Tensor((2, 2), np.ones(4))
    buf = io.BytesIO()
    tz.write_blob(t, buf)
    raw = buf.getvalue()
    with pytest.raises(ShapeMismatchError):
        tz.read_blob(io.BytesIO(raw[:-3]))
