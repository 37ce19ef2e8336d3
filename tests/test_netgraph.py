import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestslice.netgraph as ng
from conftest import (depthwise_input_grad_oracle, depthwise_oracle,
                      reference_forward)
from nestslice.errors import ConfigError, ExtentError, IntegrityError
from nestslice.importance import Permutation, apply_permutation
from nestslice.netgraph import (build_reference, forward, full_macs,
                                load_manifest, plan_macs, save_manifest,
                                truncate, unit_macs)
from nestslice.tensor import copy_counter, store, transpose


def widths_of(g):
    return [g.layers[i].units for i in g.sliceable_indices()]


def test_dnn_s_layout():
    g = build_reference("dnn", "S", 100, classes=12)
    kinds = [(l.kind, l.units) for l in g.layers]
    assert kinds == [("dense", 144), ("dense", 144), ("dense", 12)]
    assert not g.layers[-1].sliceable


def test_dscnn_s_block_structure():
    g = build_reference("dscnn", "S", (10, 10, 1))
    dw = [l for l in g.layers if l.kind == "depthwise"]
    pw = [l for l in g.layers if l.kind == "pointwise"]
    assert len(dw) == len(pw) == 4
    assert all(l.units == 64 for l in dw + pw)
    conv = [l for l in g.layers if l.kind == "conv2d"]
    assert len(conv) == 1 and conv[0].units == 64
    # every conv-family layer is followed by a batchnorm of equal width
    for i, l in enumerate(g.layers):
        if l.kind in ("conv2d", "depthwise", "pointwise"):
            assert g.layers[i + 1].kind == "batchnorm"
            assert g.layers[i + 1].units == l.units


def test_cnn_l_conv_widths():
    g = build_reference("cnn", "L", (10, 10, 1))
    conv = [l.units for l in g.layers if l.kind == "conv2d"]
    assert conv == [60, 76]
    dense = [l.units for l in g.layers if l.kind == "dense"]
    assert len(dense) == 3  # two hidden plus classifier


def test_dscnn_l_has_five_blocks():
    g = build_reference("dscnn", "L", (10, 10, 1))
    assert sum(1 for l in g.layers if l.kind == "depthwise") == 5
    assert ng.DSCNN_WIDTH["L"] == 276


def test_unsupported_combo():
    with pytest.raises(ConfigError):
        build_reference("rnn", "S")
    with pytest.raises(ConfigError):
        build_reference("dnn", "XL")
    with pytest.raises(ConfigError):
        build_reference("dnn", "S", classes=1)
    for arch, shape in [("cnn", (10, 10)), ("dscnn", (10, 10, 1, 1))]:
        with pytest.raises(ConfigError):
            build_reference(arch, "S", shape)


def test_unit_macs_dense_fan_in():
    g = build_reference("dnn", "S", 3, classes=2)
    per = [c for c in unit_macs(g) if c.layer == 0]
    assert all(c.macs == 3 for c in per)


def test_unit_macs_conv_example():
    # 3x3 kernel, cin=1, 8x8 output: 576 MACs per filter
    g = build_reference("cnn", "S", (8, 8, 1))
    per = [c for c in unit_macs(g) if c.layer == 0]
    assert all(c.macs == 3 * 3 * 1 * 8 * 8 == 576 for c in per)


def test_total_macs_match_instrumented_forward(rng):
    g = build_reference("dscnn", "S", (8, 8, 1), classes=5, seed=1)
    total = sum(c.macs for c in unit_macs(g))
    x = rng.standard_normal((2, 8, 8, 1))
    _, macs = forward(g, x, count_macs=True)
    assert macs == total == full_macs(g)


def test_mac_additivity_under_slicing(rng):
    g = build_reference("dscnn", "S", (8, 8, 1), classes=5, seed=1)
    for sl in ([32, 16, 8, 50, 64], [1, 1, 1, 1, 1], widths_of(g)):
        x = rng.standard_normal((1, 8, 8, 1))
        _, macs = forward(g, x, slicing=sl, count_macs=True)
        assert macs == plan_macs(g, sl)


def test_full_slicing_bit_identical(rng):
    for arch, ishape in [("dnn", 20), ("cnn", (8, 8, 1))]:
        g = build_reference(arch, "S", ishape, seed=2)
        shape = (3, ishape) if np.isscalar(ishape) else (3,) + ishape
        x = rng.standard_normal(shape)
        a = forward(g, x)
        b = forward(g, x, slicing=widths_of(g))
        np.testing.assert_array_equal(a, b)


def test_all_zero_weights_zero_logits(rng):
    g = build_reference("dnn", "S", 10, classes=4)
    for params in g.weights:
        if params:
            for t in params.values():
                t[...] = 0.0
    out = forward(g, rng.standard_normal((3, 10)))
    np.testing.assert_array_equal(out, np.zeros((3, 4)))


def test_toy_sliced_forward_matches_hand_computation(rng):
    # 3-4-4-2 dense toy: width-2 first layer uses W1[:, :2] and W2[:2, :]
    layers = [
        ng.LayerSpec("dense", 4, activation="none", sliceable=True),
        ng.LayerSpec("dense", 4, activation="none", sliceable=True),
        ng.LayerSpec("dense", 2, activation="none"),
    ]
    w1 = rng.standard_normal((3, 4)).astype(np.float32)
    w2 = rng.standard_normal((4, 4)).astype(np.float32)
    w3 = rng.standard_normal((4, 2)).astype(np.float32)
    weights = [
        {"kernel": store(w1),
         "bias": store(np.zeros(4, np.float32))},
        {"kernel": store(w2),
         "bias": store(np.zeros(4, np.float32))},
        {"kernel": store(w3),
         "bias": store(np.zeros(2, np.float32))},
    ]
    g = ng.ModelGraph(layers, weights, 3, encoder_end=1)
    x = rng.standard_normal((5, 3))
    got = forward(g, x, slicing=[2, 4])
    expect = ((x @ w1[:, :2]) @ w2[:2, :]) @ w3
    np.testing.assert_allclose(got, expect, atol=1e-6)


def test_sliced_forward_equals_truncated_copy(rng):
    for arch, ishape, sl in [
        ("dnn", 16, [40, 12]),
        ("cnn", (8, 8, 1), [9, 11, 20, 8]),
        ("dscnn", (8, 8, 1), [17, 33, 9, 41, 6]),
    ]:
        g = build_reference(arch, "S", ishape, classes=6, seed=3)
        shape = (4, ishape) if np.isscalar(ishape) else (4,) + ishape
        x = rng.standard_normal(shape)
        a = forward(g, x, slicing=sl)
        b = forward(truncate(g, sl), x)
        assert np.abs(a - b).max() < 1e-9


_ORACLE_GRAPHS = {
    arch: build_reference(arch, "S", ishape, classes=6, seed=12)
    for arch, ishape in [("dnn", 16), ("cnn", (8, 8, 1)),
                         ("dscnn", (8, 8, 1))]
}


@settings(max_examples=40, deadline=None)
@given(arch=st.sampled_from(sorted(_ORACLE_GRAPHS)),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 16))
def test_float32_program_matches_float64_at_random_widths(arch, fracs,
                                                          seed):
    g = _ORACLE_GRAPHS[arch]
    full = widths_of(g)
    sl = [1 + int(f * (w - 1)) for f, w in zip(fracs, full)]
    x = np.random.default_rng(seed).standard_normal(
        (3,) + ((g.input_shape,) if np.isscalar(g.input_shape)
                else g.input_shape))
    got, macs = forward(g, x, slicing=sl, count_macs=True)
    want, want_macs, _ = reference_forward(g, x, slicing=sl)
    assert got.dtype == np.float32
    assert np.abs(got - want).max() < 1e-5
    assert macs == want_macs == plan_macs(g, sl)


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("arch", sorted(_ORACLE_GRAPHS))
def test_float64_program_matches_reference_forward(arch, transposed, rng):
    # autograd's forward: the row program run in float64
    g = _ORACLE_GRAPHS[arch].copy()
    bn_layers = [i for i, l in enumerate(g.layers) if l.kind == ng.BATCHNORM]
    for i in bn_layers:
        u = g.layers[i].units
        for name, lo, hi in (("gamma", 0.5, 1.5), ("beta", -0.5, 0.5),
                             ("mean", -0.3, 0.3), ("var", 0.5, 2.0)):
            g.weights[i][name] = store(rng.uniform(lo, hi, u))
    if transposed:  # the cache-optimized dense store
        for i, spec in enumerate(g.layers):
            if spec.kind == ng.DENSE:
                g.weights[i]["kernel"] = transpose(g.weights[i]["kernel"])
                g.transposed_dense.add(i)
    x = rng.standard_normal(
        (8,) + ((g.input_shape,) if np.isscalar(g.input_shape)
                else g.input_shape))
    full = widths_of(g)
    cases = [(None, None)]
    for _ in range(3):
        sl = [int(rng.integers(1, w + 1)) for w in full]
        stats = {i: (rng.uniform(-0.3, 0.3, g.layers[i].units)
                     .astype(np.float32),
                     rng.uniform(0.5, 2.0, g.layers[i].units)
                     .astype(np.float32)) for i in bn_layers}
        cases.append((sl, stats))
    for sl, stats in cases:
        prog = ng._build_program(g, sl, stats)
        got = ng._run_steps(prog, ng._check_input(
            prog.input_shape, np.array(x, dtype=np.float64)))
        want, _, _ = reference_forward(g, x, slicing=sl, bn_stats=stats)
        assert got.dtype == np.float64
        assert np.abs(got - want).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(batch=st.sampled_from(["1", "step-1", "step", "step+1", "2step+3"]),
       width=st.sampled_from([1, 16, 64]),
       hw=st.sampled_from([(8, 8), (49, 10)]),
       stride=st.sampled_from([(1, 1), (2, 2)]),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_blocked_depthwise_matches_tap_loop_oracle(batch, width, hw, stride,
                                                   dtype, seed):
    # bit-exact: blocking and tap rows change where the loops run, not the
    # float operations any element sees
    kh = kw = 3
    sh, sw = stride
    ho, wo = ng._out_hw(*hw, kh, kw, sh, sw)
    step = ng._BLOCK_ACTIVATIONS // (ho * wo * width)
    n = {"1": 1, "step-1": step - 1, "step": step, "step+1": step + 1,
         "2step+3": 2 * step + 3}[batch]
    rng = np.random.default_rng(seed)
    wide = width + 5  # slice everything from a wider store: strided views
    x = rng.standard_normal((n, *hw, wide)).astype(dtype)[..., :width]
    kd = rng.standard_normal((wide, kh, kw)).astype(np.float32)[:width]
    b = rng.standard_normal(wide).astype(np.float32)[:width]
    out = ng._run_depthwise(x, kd, b, kh, kw, sh, sw)
    want = depthwise_oracle(x, kd, b, kh, kw, sh, sw)
    assert out.dtype == want.dtype == dtype
    assert np.array_equal(out, want)
    d = rng.standard_normal((n, ho, wo, wide)).astype(dtype)[..., :width]
    dx, _ = ng._depthwise_back(d, x, kd, b, kh, kw, sh, sw)
    want = depthwise_input_grad_oracle(d, x.shape, kd, kh, kw, sh, sw)
    assert dx.dtype == want.dtype == dtype
    assert np.array_equal(dx, want)


def test_depthwise_reads_in_place_weight_updates(rng):
    # the tap rows are rebuilt from the live kernel view on every call: an
    # update between two runs of one prebuilt program shows in its output
    g = build_reference("dscnn", "S", (8, 8, 1), classes=5, seed=2)
    prog = ng._build_program(g)
    x = rng.standard_normal((3, 8, 8, 1))
    before = ng.run_forward(g, x, program=prog)[0]
    i = next(i for i, l in enumerate(g.layers) if l.kind == ng.DEPTHWISE)
    g.weights[i]["kernel"][:, 1, 2] += 0.5
    after = ng.run_forward(g, x, program=prog)[0]
    assert not np.array_equal(before, after)
    assert np.array_equal(after, ng.run_forward(g, x)[0])


def test_width_out_of_range(rng):
    g = build_reference("dnn", "S", 10)
    with pytest.raises(ExtentError):
        forward(g, rng.standard_normal((1, 10)), slicing=[145, 144])
    with pytest.raises(ExtentError):
        forward(g, rng.standard_normal((1, 10)), slicing=[0, 144])


def test_slicing_local_scope(rng):
    # truncating layer l touches only l's kernel columns and l+1's rows
    g = build_reference("dnn", "S", 12, classes=3, seed=4)
    sl = [100, 144]
    t = truncate(g, sl)
    np.testing.assert_array_equal(
        t.weights[0]["kernel"], g.weights[0]["kernel"][:, :100])
    np.testing.assert_array_equal(
        t.weights[1]["kernel"], g.weights[1]["kernel"][:100, :])
    np.testing.assert_array_equal(
        t.weights[2]["kernel"], g.weights[2]["kernel"])


def test_manifest_round_trip(tmp_path, rng):
    g = build_reference("dscnn", "S", (8, 8, 1), classes=5, seed=6)
    path = save_manifest(g, tmp_path, name="model")
    back = load_manifest(path)
    assert [l.kind for l in back.layers] == [l.kind for l in g.layers]
    x = rng.standard_normal((2, 8, 8, 1))
    np.testing.assert_array_equal(forward(g, x), forward(back, x))
    import json
    with open(path) as fh:
        doc = json.load(fh)
    for entry in doc["layers"]:
        assert set(entry) >= {"kind", "units", "kernel", "stride",
                              "activation", "sliceable", "weights_file"}


def test_weight_copies_are_counted(tmp_path):
    # dnn S on 16 inputs, 5 classes: dense 16x144, 144x144, 144x5
    g = build_reference("dnn", "S", 16, classes=5, seed=2)
    n = sum(a.size for p in g.weights if p for a in p.values())
    before = copy_counter()
    c = g.copy()
    assert copy_counter() - before == n
    assert not any(np.shares_memory(c.weights[i][nm], a)
                   for i, p in enumerate(g.weights) for nm, a in p.items())
    path = save_manifest(g, tmp_path)
    before = copy_counter()
    load_manifest(path)
    assert copy_counter() - before == n
    # truncation and permutation make each parameter of the result once
    before = copy_counter()
    truncate(g, [40, 12])
    assert copy_counter() - before == 16 * 40 + 40 + 40 * 12 + 12 + 12 * 5 + 5
    perm = Permutation({0: np.arange(144)[::-1], 1: np.arange(144)[::-1]})
    before = copy_counter()
    apply_permutation(g, perm)
    assert copy_counter() - before == n


@pytest.mark.parametrize("bad", [
    lambda k: k.astype(np.float64),
    lambda k: np.repeat(k, 2, axis=1)[:, ::2],
], ids=["float64", "strided"])
def test_validate_rejects_kernel_not_float32_c_array(bad):
    g = build_reference("dnn", "S", 16, classes=5, seed=2)
    g.weights[0]["kernel"] = bad(g.weights[0]["kernel"])
    with pytest.raises(IntegrityError, match="C-contiguous float32"):
        ng.validate_graph(g)
