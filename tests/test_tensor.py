import io
import struct

import numpy as np
import pytest

import nestslice.tensor as tz
from nestslice.errors import ShapeMismatchError
from nestslice.tensor import copy_counter, store, transpose


def t2(arr):
    return store(np.asarray(arr, dtype=np.float32))


def test_row_major_storage():
    a = np.arange(6, dtype=np.float64).reshape(2, 3)[:, ::-1]
    before = copy_counter()
    row = store(a)
    assert copy_counter() == before + 6
    assert row.dtype == np.float32 and row.flags.c_contiguous
    assert not np.shares_memory(row, a)
    np.testing.assert_array_equal(row, a)
    assert row.reshape(-1)[1 * 3 + 2] == a[1, 2]  # flat index i*ncols + j


def test_transpose_vector_is_storage_noop():
    for shape in [(5, 1), (1, 5)]:
        v = t2(np.arange(5).reshape(shape))
        before = copy_counter()
        vt = transpose(v)
        assert vt.shape == shape[::-1]
        np.testing.assert_array_equal(vt.reshape(-1), v.reshape(-1))
        assert np.shares_memory(vt, v)
        assert copy_counter() == before


def test_transpose_matrix_copies():
    w = t2(np.arange(6).reshape(2, 3))
    before = copy_counter()
    wt = transpose(w)
    assert copy_counter() == before + 6
    assert wt.flags.c_contiguous and not np.shares_memory(wt, w)
    np.testing.assert_array_equal(wt, w.T)


def test_blob_round_trip(rng):
    for shape in [(3, 4), (5,), (2, 3, 2, 1)]:
        t = store(rng.standard_normal(shape))
        buf = io.BytesIO()
        tz.write_blob(t, buf)
        assert buf.getvalue()[4:8] == bytes(4)  # order word: row-major
        buf.seek(0)
        before = copy_counter()
        back = tz.read_blob(buf)
        assert copy_counter() == before + t.size
        assert back.dtype == np.float32 and back.shape == t.shape
        np.testing.assert_array_equal(back, t)


def test_blob_truncation_detected():
    t = store(np.ones((2, 2)))
    buf = io.BytesIO()
    tz.write_blob(t, buf)
    raw = buf.getvalue()
    with pytest.raises(ShapeMismatchError):
        tz.read_blob(io.BytesIO(raw[:-3]))


def test_blob_zero_extent_rejected():
    raw = struct.pack("<II", 2, 0) + struct.pack("<2I", 3, 0)
    with pytest.raises(ShapeMismatchError, match="zero extent"):
        tz.read_blob(io.BytesIO(raw))


@pytest.mark.parametrize("head", [
    struct.pack("<II", 0xFFFFFFF0, 0),
    struct.pack("<4I", 2, 0, 0xFFFF0000, 0xFFFF0000)],
    ids=["ndim_past_end", "extents_past_end"])
def test_blob_impossible_header_rejected_before_reading(head):
    # the extents or the data would need more bytes than the blob has
    # left: rejected before that read is sized, with the position just
    # past what was read
    buf = io.BytesIO(head + bytes(64))
    with pytest.raises(ShapeMismatchError, match="truncated"):
        tz.read_blob(buf)
    assert buf.tell() == len(head)
