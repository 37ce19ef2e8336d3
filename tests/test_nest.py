import json
import os

import numpy as np
import pytest

import nestslice.netgraph as ng
from conftest import (assert_rows_share_store, random_grad_store,
                      reference_forward)
from nestslice.errors import ExtentError, IntegrityError
from nestslice.finetune import evaluate_rows
from nestslice.importance import (apply_to_scores, permute_descending,
                                  score_units)
from nestslice.nest import (CACHE_OPTIMIZED, STANDARD, NestedModel,
                            load_bundle, save_bundle)
from nestslice.netgraph import build_reference, forward, full_macs, plan_macs
from nestslice.planner import plan_bottom_up
from nestslice.tensor import copy_counter, read_blobs, write_blob


def build_model(arch="dnn", ishape=16, layout="standard", seed=1,
                n_caps=4):
    g = build_reference(arch, "S", ishape, classes=5, seed=seed)
    store = random_grad_store(g, seed=seed)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    full = full_macs(g2)
    caps = [int(full * f) for f in (1.0, 0.75, 0.5, 0.25)][:n_caps]
    plan = plan_bottom_up(g2, scores2, caps)
    return NestedModel(g2, plan, layout=layout)


@pytest.fixture(scope="module")
def dnn_model():
    return build_model()


def test_activate_updates_one_integer_per_sliceable_layer(dnn_model):
    st = dnn_model.activate(1)
    assert st.integers_updated == 2  # two sliceable dense layers
    assert st.weights_copied == 0
    assert dnn_model.width_registers == dnn_model.plan.row_widths(1)


def test_activate_same_row_no_copies(dnn_model):
    dnn_model.activate(0)
    before = copy_counter()
    st = dnn_model.activate(0)
    assert st.weights_copied == 0
    assert copy_counter() == before


def test_activate_out_of_range(dnn_model):
    with pytest.raises(ExtentError):
        dnn_model.activate(dnn_model.plan.n_rows)


def test_switch_cost_independent_of_width():
    small = build_model("dnn", 16)
    wide = build_model("dnn", 256)
    for m in (small, wide):
        st = m.activate(1)
        assert st.integers_updated == 2
        assert st.weights_copied == 0


def test_activate_200_times_zero_copies(dnn_model):
    total_ints = 0
    before = copy_counter()
    for i in range(200):
        st = dnn_model.activate(i % dnn_model.plan.n_rows)
        total_ints += st.integers_updated
        assert st.weights_copied == 0
    assert copy_counter() == before
    assert total_ints == 200 * 2


def test_infer_full_row_equals_plain_forward(dnn_model, rng):
    dnn_model.activate(0)
    x = rng.standard_normal((6, 16))
    got = dnn_model.infer(x)
    want = forward(dnn_model.graph, x)
    np.testing.assert_array_equal(got, want)


def test_infer_macs_match_plan(dnn_model, rng):
    x = rng.standard_normal((1, 16))
    for k in range(dnn_model.plan.n_rows):
        dnn_model.activate(k)
        _, macs = dnn_model.infer(x, count_macs=True)
        assert macs == plan_macs(dnn_model.graph,
                                 dnn_model.plan.row_widths(k))
        assert macs <= dnn_model.plan.capacities[k]


def test_toy_two_of_four_slicing_hand_computed(rng):
    # dense chain with the first hidden layer sliced to 2 of 4 units
    from nestslice.netgraph import LayerSpec, ModelGraph
    from nestslice.planner import SlicingPlan
    from nestslice.tensor import Tensor
    w1 = rng.standard_normal((3, 4)).astype(np.float32)
    w2 = rng.standard_normal((4, 4)).astype(np.float32)
    w3 = rng.standard_normal((4, 2)).astype(np.float32)
    mk = lambda a: {"kernel": Tensor.from_array(a),
                    "bias": Tensor.from_array(
                        np.zeros(a.shape[1], np.float32))}
    g = ModelGraph(
        [LayerSpec("dense", 4, activation="none", sliceable=True),
         LayerSpec("dense", 4, activation="none", sliceable=True),
         LayerSpec("dense", 2, activation="none")],
        [mk(w1), mk(w2), mk(w3)], 3, encoder_end=1)
    full = full_macs(g)
    plan = SlicingPlan([full, plan_macs(g, [2, 4])], [[4, 4], [2, 4]])
    m = NestedModel(g, plan)
    m.activate(1)
    x = rng.standard_normal((3, 3))
    expect = ((x @ w1[:, :2]) @ w2[:2, :]) @ w3
    np.testing.assert_allclose(m.infer(x), expect, atol=1e-6)


@pytest.mark.parametrize("arch,ishape", [("dnn", 16), ("dscnn", (8, 8, 1))])
def test_masked_equals_sliced_equals_truncated(arch, ishape, rng):
    m = build_model(arch, ishape, seed=3)
    shape = (4, ishape) if np.isscalar(ishape) else (4,) + ishape
    x = rng.standard_normal(shape)
    full = full_macs(m.graph)
    for k in range(m.plan.n_rows):
        m.activate(k)
        sliced, macs_s = m.infer(x, count_macs=True)
        masked, macs_m = m.masked_infer(k, x, count_macs=True)
        assert np.abs(sliced - masked).max() < 1e-5
        assert macs_m == full  # constant overhead of masking
        assert macs_s <= m.plan.capacities[k]
        trunc = ng.truncate(m.graph, m.plan.row_widths(k))
        bn_idx = [i for i, l in enumerate(trunc.layers)
                  if l.kind == ng.BATCHNORM]
        stats = {i: m.bn_stats[k][i] for i in bn_idx}
        want = forward(trunc, x, bn_stats=stats)
        assert np.abs(sliced - want).max() < 1e-5


def test_masked_all_ones_row_bit_identical(rng):
    m = build_model("dnn", 16, seed=4)
    x = rng.standard_normal((5, 16))
    m.activate(0)
    np.testing.assert_array_equal(m.infer(x), m.masked_infer(0, x))


@pytest.mark.parametrize("layout", [STANDARD, CACHE_OPTIMIZED])
@pytest.mark.parametrize("arch,ishape", [("dnn", 24), ("cnn", (10, 10, 1)),
                                         ("dscnn", (8, 8, 1))])
def test_float32_programs_match_float64_oracle(arch, ishape, layout, rng):
    m = build_model(arch, ishape, layout=layout, seed=6)
    shape = (64, ishape) if np.isscalar(ishape) else (64,) + ishape
    x = rng.standard_normal(shape)
    for k in range(m.plan.n_rows):
        m.activate(k)
        got = m.infer(x)
        want, _, _ = reference_forward(m.graph, x,
                                       slicing=m.plan.row_widths(k),
                                       bn_stats=m.bn_stats[k])
        assert got.dtype == np.float32
        assert np.abs(got - want).max() < 1e-5
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))


def test_standard_and_cache_optimized_layouts_agree(rng):
    std = build_model("dnn", 16, seed=5)
    opt = build_model("dnn", 16, layout=CACHE_OPTIMIZED, seed=5)
    x = rng.standard_normal((4, 16))
    for k in range(std.plan.n_rows):
        std.activate(k)
        opt.activate(k)
        assert np.abs(std.infer(x) - opt.infer(x)).max() < 1e-5


def test_cache_optimized_flags_and_switch_cost():
    opt = build_model("dnn", 16, layout=CACHE_OPTIMIZED, seed=5)
    assert len(opt.graph.transposed_dense) == 3  # all dense layers flipped
    st = opt.activate(1)
    assert st.integers_updated == 2 + 3  # widths plus one flag per layer
    assert st.weights_copied == 0


def test_weight_sharing_audit(dnn_model):
    assert_rows_share_store(dnn_model)
    # the check catches a row program that holds a private weight copy
    prog = dnn_model._programs[1]
    step = prog.steps[0]
    prog.steps[0] = step._replace(args=tuple(
        np.array(a) if isinstance(a, np.ndarray) else a for a in step.args))
    try:
        with pytest.raises(AssertionError):
            assert_rows_share_store(dnn_model)
    finally:
        prog.steps[0] = step
    # rows view the same buffers: writing through one row's weights is
    # visible at every other row
    w = dnn_model.graph.weights[0]["kernel"]
    old = w.array[0, 0]
    bumped = np.float32(old + np.float32(1.0))
    w.writable_array()[0, 0] = bumped
    dnn_model.activate(dnn_model.plan.n_rows - 1)
    assert dnn_model.graph.weights[0]["kernel"].array[0, 0] == bumped
    w.writable_array()[0, 0] = old


def test_bundle_round_trip_byte_identical(tmp_path, rng):
    import hashlib
    m = build_model("dscnn", (8, 8, 1), seed=7)
    # distinct per-row statistics, written in place where the programs
    # view them
    for row in m.bn_stats:
        for mean, var in row.values():
            mean[...] = rng.standard_normal(mean.shape)
            var[...] = rng.uniform(0.5, 2.0, var.shape)
    d1 = save_bundle(m, os.path.join(tmp_path, "b1"))
    m2 = load_bundle(d1)
    d2 = save_bundle(m2, os.path.join(tmp_path, "b2"))

    def digest(d):
        out = {}
        for fn in sorted(os.listdir(d)):
            with open(os.path.join(d, fn), "rb") as fh:
                out[fn] = hashlib.sha256(fh.read()).hexdigest()
        return out

    assert digest(d1) == digest(d2)
    x = rng.standard_normal((3, 8, 8, 1))
    for k in range(m.plan.n_rows):
        m.activate(k)
        m2.activate(k)
        np.testing.assert_array_equal(m.infer(x), m2.infer(x))


def test_cache_optimized_bundle_round_trip(tmp_path, rng):
    m = build_model("dnn", 16, layout=CACHE_OPTIMIZED, seed=9)
    d = save_bundle(m, os.path.join(tmp_path, "co"))
    m2 = load_bundle(d)
    assert m2.layout == CACHE_OPTIMIZED
    assert m2.graph.transposed_dense == m.graph.transposed_dense
    x = rng.standard_normal((4, 16))
    for k in range(m.plan.n_rows):
        m.activate(k)
        m2.activate(k)
        np.testing.assert_array_equal(m.infer(x), m2.infer(x))


def test_ten_row_plan_switching(rng):
    g = build_reference("dnn", "S", 16, classes=5, seed=9)
    store = random_grad_store(g, seed=9)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    full = full_macs(g2)
    caps = [int(full * f / 100) for f in range(100, 0, -10)]
    plan = plan_bottom_up(g2, scores2, caps)
    assert plan.n_rows == 10
    m = NestedModel(g2, plan)
    before = copy_counter()
    for k in range(10):
        st = m.activate(k)
        assert st.integers_updated == 2 and st.weights_copied == 0
    assert copy_counter() == before
    x = rng.standard_normal((2, 16))
    accs = evaluate_rows(m, x, np.zeros(2, dtype=int))
    assert len(accs) == 10


@pytest.fixture
def bundle_dir(tmp_path):
    return save_bundle(build_model("dscnn", (8, 8, 1), seed=10),
                       os.path.join(tmp_path, "b"))


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _over_budget(doc):  # last row keeps its widths, capacity 1 MAC
    doc["capacities"][-1] = 1


def _one_layer_short(doc):
    doc["points"] = [row[:-1] for row in doc["points"]]


@pytest.mark.parametrize("edit,match", [
    (_over_budget, "MACs > capacity"),
    (_one_layer_short, "sliceable layers"),
])
def test_load_bundle_rejects_plan_failing_validation(bundle_dir, edit,
                                                     match):
    _edit_json(os.path.join(bundle_dir, "plan.json"), edit)
    with pytest.raises(IntegrityError, match=match):
        load_bundle(bundle_dir)


@pytest.mark.parametrize("layout", [STANDARD, CACHE_OPTIMIZED])
def test_load_bundle_rejects_layout_mismatch(tmp_path, layout):
    m = build_model("dnn", 16, layout=layout, seed=11)
    d = save_bundle(m, os.path.join(tmp_path, "b"))
    other = CACHE_OPTIMIZED if layout == STANDARD else STANDARD
    _edit_json(os.path.join(d, "bundle.json"),
               lambda doc: doc.update(layout=other))
    with pytest.raises(IntegrityError, match="layout"):
        load_bundle(d)


def test_load_bundle_rejects_foreign_bn_layers(bundle_dir):
    _edit_json(os.path.join(bundle_dir, "bundle.json"),
               lambda doc: doc.update(bn_layers=doc["bn_layers"][1:]))
    with pytest.raises(IntegrityError, match="batchnorm layers"):
        load_bundle(bundle_dir)


def test_load_bundle_rejects_bn_blob_count(bundle_dir):
    path = os.path.join(bundle_dir, "bn_stats.bin")
    with open(path, "rb") as fh:
        blobs = read_blobs(fh)
    with open(path, "wb") as fh:
        for t in blobs[:-1]:
            write_blob(t, fh)
    with pytest.raises(IntegrityError, match="blobs"):
        load_bundle(bundle_dir)
