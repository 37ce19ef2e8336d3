import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestslice.tensor as tz
from conftest import matmul_triple_loop
from nestslice.errors import ShapeMismatchError
from nestslice.tensor import (Order, Tensor, copy_counter, matmul_basic,
                              matmul_basic_traced, matmul_optimized,
                              matmul_optimized_traced, transpose)


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


def test_matmul_identity_case():
    x = t2(np.eye(2))
    w = t2([[1, 2, 3], [4, 5, 6]])
    out = matmul_basic(x, w)
    np.testing.assert_allclose(out.array, [[1, 2, 3], [4, 5, 6]])


def test_basic_access_order_matches_worked_example():
    # 2x2 input times 2x3 weights: column scan of the row-major store
    x = t2(np.ones((2, 2)))
    w = t2(np.arange(6).reshape(2, 3))
    _, reads = matmul_basic_traced(x, w)
    assert list(reads[:8]) == [0, 3, 1, 4, 2, 5, 0, 3]
    assert list(reads) == [0, 3, 1, 4, 2, 5] * 2


def test_basic_against_triple_loop_oracle(rng):
    xa = rng.standard_normal((3, 2)).astype(np.float32)
    wa = rng.standard_normal((3, 4)).astype(np.float32)
    out = matmul_basic(t2(xa), t2(wa))
    expect = matmul_triple_loop(xa.astype(np.float64), wa.astype(np.float64))
    np.testing.assert_allclose(out.array, expect, atol=1e-6)


def test_optimized_access_order():
    # with two batch columns each weight row is swept twice
    x = t2(np.ones((2, 2)))
    wt = transpose(t2(np.arange(6).reshape(2, 3)))
    _, reads = matmul_optimized_traced(x, wt)
    assert list(reads) == [0, 1, 0, 1, 2, 3, 2, 3, 4, 5, 4, 5]
    # three batch columns reproduce the canonical printed order
    x3 = t2(np.ones((2, 3)))
    _, reads3 = matmul_optimized_traced(x3, wt)
    assert list(reads3[:8]) == [0, 1, 0, 1, 0, 1, 2, 3]


def test_optimized_identity_reproduces_rows(rng):
    wa = rng.standard_normal((4, 3)).astype(np.float32)
    out = matmul_optimized(t2(np.eye(4)), transpose(t2(wa)))
    np.testing.assert_allclose(out.array, wa, atol=1e-6)


def test_optimized_equals_basic_many_shapes(rng):
    for _ in range(50):
        m, n, b = rng.integers(1, 17, 3)
        xa = rng.standard_normal((m, b)).astype(np.float32)
        wa = rng.standard_normal((m, n)).astype(np.float32)
        a = matmul_basic(t2(xa), t2(wa)).array
        o = matmul_optimized(t2(xa), transpose(t2(wa))).array
        assert np.abs(a - o).max() < 1e-5


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 64), n=st.integers(1, 64), b=st.integers(1, 8),
       seed=st.integers(0, 2 ** 16))
def test_matmul_orderings_agree_property(m, n, b, seed):
    rng = np.random.default_rng(seed)
    xa = rng.standard_normal((m, b)).astype(np.float32)
    wa = rng.standard_normal((m, n)).astype(np.float32)
    a = matmul_basic(t2(xa), t2(wa)).array
    o = matmul_optimized(t2(xa), transpose(t2(wa))).array
    scale = np.abs(a).max() + 1e-9
    assert np.abs(a - o).max() / scale < 1e-5


def test_traced_variants_match_fast_path(rng):
    xa = rng.standard_normal((3, 2)).astype(np.float32)
    wa = rng.standard_normal((3, 4)).astype(np.float32)
    fast = matmul_basic(t2(xa), t2(wa)).array
    slow, _ = matmul_basic_traced(t2(xa), t2(wa))
    np.testing.assert_allclose(slow.array, fast, atol=1e-6)
    wt = transpose(t2(wa))
    fast = matmul_optimized(t2(xa), wt).array
    slow, _ = matmul_optimized_traced(t2(xa), wt)
    np.testing.assert_allclose(slow.array, fast, atol=1e-6)


def test_dimension_mismatch_raises():
    with pytest.raises(ShapeMismatchError):
        matmul_basic(t2(np.ones((3, 2))), t2(np.ones((2, 3))))
    with pytest.raises(ShapeMismatchError):
        matmul_optimized(t2(np.ones((3, 2))), t2(np.ones((4, 2))))


def test_basic_requires_row_major():
    w = Tensor.from_array(np.ones((2, 3), dtype=np.float32),
                          order=Order.COL_MAJOR)
    with pytest.raises(ShapeMismatchError):
        matmul_basic(t2(np.ones((2, 2))), w)


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
