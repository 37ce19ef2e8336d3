import sys
import threading
import tracemalloc

import numpy as np
import pytest

import nestslice.autograd as ag
import nestslice.netgraph as ng
from conftest import (backward_oracle, copying_forward, fd_gradient_check,
                      random_grad_store)
from nestslice.autograd import (Adam, TrainConfig,
                                accumulate_importance_grads, backward,
                                sgd_step)
from nestslice.errors import (ConfigError, DataError, NumericError,
                              ShapeMismatchError)
from nestslice.netgraph import LayerSpec, ModelGraph, build_reference
from nestslice.tensor import store


def scalar_net(w0=3.0):
    layers = [LayerSpec("dense", 1, activation="none")]
    weights = [{
        "kernel": store(np.array([[w0]], dtype=np.float32)),
        "bias": store(np.zeros(1, dtype=np.float32)),
    }]
    return ModelGraph(layers, weights, 1, encoder_end=0)


def test_scalar_chain_rule():
    # half squared error of w*x at w=3, x=1, target 0: d/dw = 3
    g = scalar_net(3.0)
    loss, grads = backward(g, (np.array([[1.0]]), np.array([[0.0]])),
                           loss="half_sse")
    assert loss == pytest.approx(4.5)
    assert grads[(0, "kernel")][0, 0] == pytest.approx(3.0)
    # matches a finite difference
    h = 1e-3
    g.weights[0]["kernel"][0, 0] = 3.0 + h
    lp, _ = backward(g, (np.array([[1.0]]), np.array([[0.0]])),
                     loss="half_sse")
    g.weights[0]["kernel"][0, 0] = 3.0 - h
    lm, _ = backward(g, (np.array([[1.0]]), np.array([[0.0]])),
                     loss="half_sse")
    # float32 weight storage quantizes the +-h points
    assert (lp - lm) / (2 * h) == pytest.approx(3.0, rel=1e-3)


def one_block_net(rng, relu=True):
    """conv+bn, dw+bn, pw+bn, dense: every layer kind in one small graph."""
    act = "relu" if relu else "none"

    def t(shape):
        return store(rng.standard_normal(shape).astype(np.float32))

    def bn(u):
        return {"gamma": t(u), "beta": t(u),
                "mean": store(
                    (rng.standard_normal(u) * 0.1).astype(np.float32)),
                "var": store(
                    (np.abs(rng.standard_normal(u)) + 1).astype(np.float32))}

    layers = [
        LayerSpec("conv2d", 5, kernel=(3, 3), activation=act, sliceable=True),
        LayerSpec("batchnorm", 5),
        LayerSpec("depthwise", 5, kernel=(3, 3), activation=act),
        LayerSpec("batchnorm", 5),
        LayerSpec("pointwise", 6, kernel=(1, 1), activation=act,
                  sliceable=True),
        LayerSpec("batchnorm", 6),
        LayerSpec("flatten"),
        LayerSpec("dense", 4, activation="none"),
    ]
    weights = [
        {"kernel": t((5, 3, 3, 2)), "bias": t(5)}, bn(5),
        {"kernel": t((5, 3, 3)), "bias": t(5)}, bn(5),
        {"kernel": t((6, 1, 1, 5)), "bias": t(6)}, bn(6),
        None,
        {"kernel": t((6 * 6 * 6, 4)), "bias": t(4)},
    ]
    return ModelGraph(layers, weights, (6, 6, 2), encoder_end=5)


@pytest.mark.parametrize("case", ["dnn", "block", "block_relu", "dnn_sliced"])
def test_gradcheck_vs_finite_differences(case, rng):
    if case.startswith("dnn"):
        g = build_reference("dnn", "S", 16, classes=4, seed=5)
        g = ng.truncate(g, [24, 24])
        sl = [20, 12] if case == "dnn_sliced" else None
        x = rng.standard_normal((4, 16))
    else:
        g = one_block_net(rng, relu=(case == "block_relu"))
        sl = None
        x = rng.standard_normal((4, 6, 6, 2))
    y = rng.integers(0, 4, 4)
    worst = fd_gradient_check(g, x, y, slicing=sl)
    assert worst < 1e-4


def _relu_masks(g, x, dtype):
    """output > 0 of every relu layer, run in ``dtype``."""
    prog = ng._build_program(g)
    inputs, logits = copying_forward(g, prog, x, dtype)
    outputs = inputs[1:] + [logits]
    return [out > 0 for step, out in zip(prog.steps, outputs) if step.relu]


def stacked_bn_net(rng):
    """conv, three batchnorms in a row, dense: a batchnorm output feeds a
    batchnorm whose own input is not kept."""
    g = one_block_net(rng)
    layers = g.layers[:2] + [g.layers[1], g.layers[1]] + g.layers[6:]
    weights = g.weights[:2] + [g.weights[1], g.weights[1]] + g.weights[6:]
    weights[-1] = {"kernel": store(
        rng.standard_normal((6 * 6 * 5, 4)).astype(np.float32)),
        "bias": weights[-1]["bias"]}
    return ModelGraph(layers, weights, (6, 6, 2), encoder_end=3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("net", ["one_block", "stacked_bn", "dscnn_masked",
                                 "cnn_sliced"])
def test_cached_inputs_equal_those_of_a_copying_run(net, dtype, rng):
    # the cache keeps inputs by reference, so no later step may write
    # one; a batchnorm output is not kept, and replaying its step rebuilds
    # it exactly, except flatten's input, which is kept
    if net in ("one_block", "stacked_bn"):
        g = one_block_net(rng) if net == "one_block" else stacked_bn_net(rng)
        prog = ng._build_program(g)
        x = rng.standard_normal((4, 6, 6, 2))
    else:
        arch = net.split("_")[0]
        g = build_reference(arch, "S", (8, 8, 1), classes=5, seed=3)
        widths = [max(1, g.layers[i].units // 2)
                  for i in g.sliceable_indices()]
        prog = (ng._build_program(ng._masked_copy(g, widths))
                if net.endswith("masked")
                else ng._build_program(g, slicing=widths))
        x = rng.standard_normal((6, 8, 8, 1))
    got = []
    logits = ng._run_steps(prog, ng._check_input(
        g.input_shape, np.array(x, dtype=dtype)), got)
    want, want_logits = copying_forward(g, prog, x, dtype)
    assert np.array_equal(logits, want_logits)
    assert len(got) == len(want) == len(prog.steps)
    kinds = [step.kind for step in prog.steps]
    assert ng.FLATTEN in kinds
    for i, (a, b) in enumerate(zip(got, want)):
        replayable = (i > 0 and kinds[i - 1] == ng.BATCHNORM
                      and got[i - 1] is not None)
        assert (a is None) == (replayable and kinds[i] != ng.FLATTEN)
        if a is None:
            a = ng._apply_step(prog.steps[i - 1], got[i - 1].copy())
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _random_batchnorm(g, rng):
    """Non-trivial gamma, beta and running statistics in the store."""
    for i, spec in enumerate(g.layers):
        if spec.kind == ng.BATCHNORM:
            p = g.weights[i]
            u = spec.units
            p["gamma"][:] = rng.standard_normal(u) + 1
            p["beta"][:] = rng.standard_normal(u) * 0.3
            p["mean"][:] = rng.standard_normal(u) * 0.1
            p["var"][:] = rng.random(u) + 0.5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["standard", "cache_optimized"])
@pytest.mark.parametrize("stats", ["store_stats", "bn_stats"])
@pytest.mark.parametrize("row", ["full", "sliced"])
@pytest.mark.parametrize("arch,ishape", [("dnn", 24), ("cnn", (10, 10, 1)),
                                         ("dscnn", (8, 8, 1))])
def test_backward_equals_caching_oracle(arch, ishape, row, stats, layout,
                                        dtype):
    from nestslice.nest import _transpose_dense_store
    rng = np.random.default_rng(4)
    g = build_reference(arch, "S", ishape, classes=5, seed=4)
    _random_batchnorm(g, rng)
    if layout == "cache_optimized":
        g = _transpose_dense_store(g)
    sl = None
    if row == "sliced":
        sl = [max(1, g.layers[i].units * 2 // 3)
              for i in g.sliceable_indices()]
    bn = None
    if stats == "bn_stats":
        bn = {i: (rng.standard_normal(s.units) * 0.2,
                  rng.random(s.units) + 0.3)
              for i, s in enumerate(g.layers) if s.kind == ng.BATCHNORM}
    shape = (9, ishape) if np.isscalar(ishape) else (9,) + ishape
    batch = (rng.standard_normal(shape), rng.integers(0, 5, 9))
    _assert_backward_equals_oracle(g, batch, slicing=sl, bn_stats=bn,
                                   dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("net", ["one_block", "stacked_bn"])
def test_small_net_backward_equals_caching_oracle(net, n, dtype, rng):
    g = one_block_net(rng) if net == "one_block" else stacked_bn_net(rng)
    batch = (rng.standard_normal((n, 6, 6, 2)), rng.integers(0, 4, n))
    _assert_backward_equals_oracle(g, batch, dtype=dtype)


def _split_oracle(g, batch, **kw):
    """The oracle on each fixed half of the batch (the first ceil(n/2)
    samples, then the rest), each normalised by the whole batch, summed
    first half plus second half; a 1-sample batch runs unsplit."""
    x, y = batch
    n = len(x)
    if n == 1:
        return backward_oracle(g, batch, **kw)
    h = (n + 1) // 2
    loss1, grads1 = backward_oracle(g, (x[:h], y[:h]), n=n, **kw)
    loss2, grads2 = backward_oracle(g, (x[h:], y[h:]), n=n, **kw)
    return loss1 + loss2, {key: grads1[key] + grads2[key] for key in grads1}


def _assert_backward_equals_oracle(g, batch, **kw):
    want_loss, want = _split_oracle(g, batch, **kw)
    loss, grads = backward(g, batch, **kw)
    assert loss == want_loss
    assert grads.keys() == want.keys()
    for key, w in want.items():
        assert np.array_equal(grads[key], w), key


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch,ishape", [("dnn", 24), ("cnn", (10, 10, 1)),
                                         ("dscnn", (8, 8, 1))])
def test_backward_agrees_with_unsplit_oracle(arch, ishape, dtype):
    # the halves change only the order of the batch reductions, so the
    # whole batch's oracle agrees up to rounding, at tolerances fixed by
    # the dtype (float32 as in test_float32_gradients_agree_with_float64)
    tol = 1e-4 if dtype == np.float32 else 1e-12
    rng = np.random.default_rng(6)
    g = build_reference(arch, "S", ishape, classes=5, seed=6)
    _random_batchnorm(g, rng)
    shape = (33, ishape) if np.isscalar(ishape) else (33,) + ishape
    batch = (rng.standard_normal(shape), rng.integers(0, 5, 33))
    loss, grads = backward(g, batch, dtype=dtype)
    want_loss, want = backward_oracle(g, batch, dtype=dtype)
    assert abs(loss - want_loss) <= tol * abs(want_loss)
    assert grads.keys() == want.keys()
    for key, w in want.items():
        assert np.abs(grads[key] - w).max() <= tol * np.abs(w).max(), key


def test_concurrent_backward_calls_equal_serial_ones(rng):
    # four callers share one graph, each call with its own worker: a
    # half may read only the shared row views, never another call's state
    g = build_reference("dscnn", "S", (8, 8, 1), classes=5, seed=2)
    batches = [(rng.standard_normal((7, 8, 8, 1)), rng.integers(0, 5, 7))
               for _ in range(4)]
    rows = [None, [8, 20, 12, 30, 10], [40, 64, 33, 64, 64], [1, 1, 1, 1, 1]]

    def run(k):  # copied at once, so results that share memory differ
        loss, grads = backward(g, batches[k], slicing=rows[k])
        return loss, {key: a.copy() for key, a in grads.items()}

    want = [run(k) for k in range(4)]
    got = [[] for _ in range(4)]

    def call(k):
        for _ in range(5):
            got[k].append(run(k))

    threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for results, (want_loss, want_grads) in zip(got, want):
        assert len(results) == 5
        for loss, grads in results:
            assert loss == want_loss
            assert grads.keys() == want_grads.keys()
            for key, w in want_grads.items():
                assert np.array_equal(grads[key], w), key


def test_backward_holds_less_than_a_copying_run(rng):
    # DS-CNN S at the KWS input shape: the forward keeps no batchnorm
    # output that a replay can rebuild, and the backward drops each input
    # after its last reader, so its traced peak stays well under what a
    # run that keeps every layer input holds
    g = build_reference("dscnn", "S", (49, 10, 1), classes=12, seed=0)
    x = rng.standard_normal((32, 49, 10, 1))
    y = rng.integers(0, 12, 32)
    inputs, _ = copying_forward(g, ng._build_program(g), x, np.float32)
    held = sum(a.nbytes for a in inputs)
    del inputs
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        backward(g, (x, y))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * held, (peak, held)


def test_conv_backward_holds_no_patch_matrix(rng):
    # CNN S at the KWS input shape: the conv backward runs tap by tap, so
    # it never holds a kh*kw-fold patch matrix of its input or of the
    # input gradient, and its traced peak stays within a few copying
    # runs. The two halves' threads overlap differently from run to run,
    # so the highest of three peaks is held to the bound.
    g = build_reference("cnn", "S", (49, 10, 1), classes=12, seed=0)
    x = rng.standard_normal((32, 49, 10, 1))
    y = rng.integers(0, 12, 32)
    inputs, _ = copying_forward(g, ng._build_program(g), x, np.float32)
    held = sum(a.nbytes for a in inputs)
    del inputs
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            backward(g, (x, y))
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 4 * held, (peaks, held)


@pytest.mark.parametrize("layout", ["standard", "cache_optimized"])
@pytest.mark.parametrize("arch,ishape", [("dnn", 24), ("cnn", (10, 10, 1)),
                                         ("dscnn", (8, 8, 1))])
def test_float32_gradients_agree_with_float64(arch, ishape, layout):
    from nestslice.nest import _transpose_dense_store
    g = build_reference(arch, "S", ishape, classes=5, seed=0)
    if layout == "cache_optimized":
        g = _transpose_dense_store(g)
    rng = np.random.default_rng(0)
    shape = (100, ishape) if np.isscalar(ishape) else (100,) + ishape
    x = rng.standard_normal(shape)
    y = rng.integers(0, 5, 100)
    # a relu kink crossed in one precision only is a real difference of
    # the two functions, not float32 error: the seeds are pinned so that
    # no mask flips, and this keeps a changed seed from passing silently
    m32 = _relu_masks(g, x, np.float32)
    m64 = _relu_masks(g, x, np.float64)
    assert all(np.array_equal(a, b) for a, b in zip(m32, m64))
    loss32, grads32 = backward(g, (x, y))
    loss64, grads64 = backward(g, (x, y), dtype=np.float64)
    assert abs(loss32 - loss64) <= 1e-6 * abs(loss64)
    assert grads32.keys() == grads64.keys()
    for key, want in grads64.items():
        got = grads32[key]
        assert got.dtype == np.float64  # buffers stay float64
        assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max(), key


@pytest.mark.parametrize("arch,ishape", [("cnn", (10, 10, 1)),
                                         ("dscnn", (8, 8, 1)),
                                         ("dnn", (64,))])
def test_backward_rules_run_in_float32(arch, ishape, rng, monkeypatch):
    # an upcast anywhere in the chain would silently bring back float64
    # passes; every rule must see and return float32 arrays. Each step's
    # rule is wrapped in the program the backward builds, so the test also
    # sees that every step ran its own rule once per half of the batch
    seen = {}
    build = ng._build_program

    def checked(i, rule):
        def back(d, x, *args):
            dx, dviews = rule(d, x, *args)
            seen.setdefault(i, []).append(
                (d.dtype, x.dtype, dx.dtype,
                 *(dv.dtype for dv in dviews if dv is not None)))
            return dx, dviews
        return back

    def wrapped(*args, **kw):
        prog = build(*args, **kw)
        prog.steps = [step._replace(back=checked(i, step.back))
                      for i, step in enumerate(prog.steps)]
        return prog

    monkeypatch.setattr(ng, "_build_program", wrapped)
    g = build_reference(arch, "S", ishape, classes=5, seed=1)
    x = rng.standard_normal((8,) + ishape)
    backward(g, (x, rng.integers(0, 5, 8)))
    assert sorted(seen) == list(range(len(g.layers)))
    for i, calls in seen.items():
        assert len(calls) == 2, (i, len(calls))  # two halves of 4 samples
        for dtypes in calls:
            assert all(dt == np.float32 for dt in dtypes), (i, dtypes)


def test_loss_of_float32_logits_is_reduced_in_float64(rng):
    logits = (rng.standard_normal((100, 5)) * 4).astype(np.float32)
    y = rng.integers(0, 5, 100)
    value, dlogits = ag._loss_and_dlogits(logits, y, "ce", 100)
    want, dwant = ag._loss_and_dlogits(logits.astype(np.float64), y, "ce",
                                       100)
    assert value == want
    np.testing.assert_array_equal(dlogits, dwant)
    assert dlogits.dtype == np.float64


def test_sliced_backward_equals_truncated_backward(rng):
    g = build_reference("dscnn", "S", (6, 6, 1), classes=4, seed=7)
    sl = [10, 40, 12, 20, 9]
    x = rng.standard_normal((4, 6, 6, 1))
    y = rng.integers(0, 4, 4)
    loss_s, grads_s = backward(g, (x, y), slicing=sl)
    gt = ng.truncate(g, sl)
    loss_t, grads_t = backward(gt, (x, y))
    assert loss_s == pytest.approx(loss_t, abs=1e-12)
    act = ng.resolve_widths(g, sl)
    # compare the active region of a few layers
    for i in [0, 2, 4]:  # conv, dw, pw
        gs = grads_s[(i, "kernel")]
        gtv = grads_t[(i, "kernel")]
        sl_idx = tuple(slice(0, s) for s in gtv.shape)
        np.testing.assert_allclose(gs[sl_idx], gtv, atol=1e-10)


def test_gradcheck_transposed_dense_store(rng):
    # the cache-friendly layout stores dense kernels transposed; backward
    # must scatter into the stored orientation
    from nestslice.nest import _transpose_dense_store
    g = build_reference("dnn", "S", 12, classes=4, seed=6)
    g = ng.truncate(g, [20, 16])
    gt = _transpose_dense_store(g)
    assert gt.transposed_dense == {0, 1, 2}
    x = rng.standard_normal((4, 12))
    y = rng.integers(0, 4, 4)
    worst = fd_gradient_check(gt, x, y)
    assert worst < 1e-4
    # same gradients as the row-major store, transposed
    _, ga = backward(g, (x, y))
    _, gb = backward(gt, (x, y))
    for i in (0, 1, 2):
        np.testing.assert_allclose(gb[(i, "kernel")],
                                   ga[(i, "kernel")].T, atol=1e-12)


def test_sliced_classifier_gradients_channel_grouped(rng):
    # the classifier after a flatten sees channel-grouped rows; with the
    # last conv sliced, gradients land only on the active channel groups
    g = build_reference("dscnn", "S", (6, 6, 1), classes=4, seed=7)
    sl = [10, 40, 12, 20, 9]
    x = rng.standard_normal((4, 6, 6, 1))
    y = rng.integers(0, 4, 4)
    _, grads_s = backward(g, (x, y), slicing=sl)
    cls = g.classifier_index()
    gk = grads_s[(cls, "kernel")].reshape(6 * 6, 64, 4)
    assert np.all(gk[:, 9:, :] == 0.0)  # inactive channel groups untouched
    gt = ng.truncate(g, sl)
    _, grads_t = backward(gt, (x, y))
    np.testing.assert_allclose(
        gk[:, :9, :].reshape(-1, 4),
        grads_t[(cls, "kernel")], atol=1e-10)


def test_gradient_locality_under_slicing(rng):
    g = build_reference("dnn", "S", 10, classes=3, seed=8)
    sl = [50, 70]
    x = rng.standard_normal((6, 10))
    y = rng.integers(0, 3, 6)
    _, grads = backward(g, (x, y), slicing=sl)
    assert np.all(grads[(0, "kernel")][:, 50:] == 0.0)
    assert np.all(grads[(0, "bias")][50:] == 0.0)
    assert np.all(grads[(1, "kernel")][50:, :] == 0.0)
    assert np.all(grads[(1, "kernel")][:, 70:] == 0.0)
    assert np.all(grads[(2, "kernel")][70:, :] == 0.0)


def test_nan_loss_raises_numeric_error(rng):
    g = build_reference("dnn", "S", 8, classes=3)
    g.weights[0]["kernel"][0, 0] = np.float32("nan")
    with pytest.raises(NumericError, match="loss"):
        backward(g, (rng.standard_normal((2, 8)), np.array([0, 1])))


def test_empty_batch_rejected():
    g = build_reference("dnn", "S", 8, classes=3)
    with pytest.raises(DataError):
        backward(g, (np.zeros((0, 8)), np.zeros(0)))


def test_label_count_must_match_batch(rng):
    # the halves split labels with the inputs, so a count that does not
    # match is refused rather than paired with the wrong samples
    g = build_reference("dnn", "S", 8, classes=3)
    for n, labels in [(4, [0, 1, 2]), (1, [0, 1, 2]), (1, 0)]:
        with pytest.raises(ShapeMismatchError, match=f"for {n} samples"):
            backward(g, (rng.standard_normal((n, 8)), np.array(labels)))


# -- accumulation -----------------------------------------------------------


def batches_of(rng, g, n, batch=4):
    for _ in range(n):
        yield rng.standard_normal((batch, 8)), rng.integers(0, 3, batch)


def test_accumulate_single_batch_equals_backward(rng):
    g = build_reference("dnn", "S", 8, classes=3, seed=9)
    x = rng.standard_normal((4, 8))
    y = rng.integers(0, 3, 4)
    store = accumulate_importance_grads(g, iter([(x, y)]), n_batches=1)
    _, grads = backward(g, (x, y))
    for key in grads:
        np.testing.assert_array_equal(store.grads[key], grads[key])
    assert store.minibatch_count == 1


def test_accumulate_is_additive(rng):
    g = build_reference("dnn", "S", 8, classes=3, seed=9)
    b1 = (rng.standard_normal((4, 8)), rng.integers(0, 3, 4))
    b2 = (rng.standard_normal((4, 8)), rng.integers(0, 3, 4))
    store = accumulate_importance_grads(g, iter([b1, b2]), n_batches=2)
    _, g1 = backward(g, b1)
    _, g2 = backward(g, b2)
    for key in g1:
        np.testing.assert_allclose(store.grads[key], g1[key] + g2[key],
                                   atol=1e-12)


def test_accumulate_default_is_100_batches(rng):
    g = build_reference("dnn", "S", 8, classes=3, seed=9)
    import inspect
    sig = inspect.signature(accumulate_importance_grads)
    assert sig.parameters["n_batches"].default == 100
    store = accumulate_importance_grads(
        g, batches_of(rng, g, 100), n_batches=100)
    assert store.minibatch_count == 100


def test_accumulate_exhausted_stream_names_count(rng):
    g = build_reference("dnn", "S", 8, classes=3, seed=9)
    with pytest.raises(DataError, match="3"):
        accumulate_importance_grads(g, batches_of(rng, g, 3), n_batches=10)


# -- optimizer steps ----------------------------------------------------------


def test_sgd_zero_gradient_no_change():
    g = build_reference("dnn", "S", 8, classes=3, seed=1)
    before = {k: np.array(t) for i, p in enumerate(g.weights)
              for k, t in [((i, n), t) for n, t in p.items()]}
    zero = {(i, n): np.zeros(t.shape) for i, p in enumerate(g.weights)
            for n, t in p.items() if n not in ("mean", "var")}
    sgd_step(g, zero, lr=0.5)
    after = {k: np.array(t) for i, p in enumerate(g.weights)
             for k, t in [((i, n), t) for n, t in p.items()]}
    for key in before:
        np.testing.assert_array_equal(before[key], after[key])


def test_sgd_quadratic_descent_trace():
    # loss = 0.5 (w x + b)^2 at x=1, target 0: the output s = w + b decays
    # by (1 - 2 lr) per step and both parameters move by lr*s
    g = scalar_net(1.0)
    batch = (np.array([[1.0]]), np.array([[0.0]]))
    lr = 0.25
    w, b, s = 1.0, 0.0, 1.0
    for _ in range(6):
        _, grads = backward(g, batch, loss="half_sse")
        sgd_step(g, grads, lr=lr)
        w, b = w - lr * s, b - lr * s
        s = w + b
        assert g.weights[0]["kernel"][0, 0] == pytest.approx(w, rel=1e-5)
        assert g.weights[0]["bias"][0] == pytest.approx(b, rel=1e-5)


def test_sliced_sgd_leaves_inactive_weights_bit_identical(rng):
    g = build_reference("dnn", "S", 10, classes=3, seed=2)
    sl = [40, 60]
    before0 = np.array(g.weights[0]["kernel"])
    before1 = np.array(g.weights[1]["kernel"])
    x = rng.standard_normal((5, 10))
    y = rng.integers(0, 3, 5)
    _, grads = backward(g, (x, y), slicing=sl)
    sgd_step(g, grads, lr=0.1)
    after0 = g.weights[0]["kernel"]
    after1 = g.weights[1]["kernel"]
    np.testing.assert_array_equal(after0[:, 40:], before0[:, 40:])
    np.testing.assert_array_equal(after1[40:, :], before1[40:, :])
    np.testing.assert_array_equal(after1[:, 60:], before1[:, 60:])
    assert not np.array_equal(after0[:, :40], before0[:, :40])


def test_loss_decreases_on_separable_problem(rng):
    # sanity: 50 steps of SGD fit a linearly separable 2-class problem
    g = build_reference("dnn", "S", 4, classes=2, seed=3)
    n = 64
    y = rng.integers(0, 2, n)
    x = rng.standard_normal((n, 4)) + np.where(y[:, None] == 1, 3.0, -3.0)
    losses = []
    for _ in range(50):
        loss, grads = backward(g, (x, y))
        sgd_step(g, grads, lr=0.05)
        losses.append(loss)
    assert losses[-1] < 0.2 * losses[0]


def test_adam_reduces_loss(rng):
    g = build_reference("dnn", "S", 4, classes=2, seed=3)
    adam = Adam(g)
    n = 64
    y = rng.integers(0, 2, n)
    x = rng.standard_normal((n, 4)) + np.where(y[:, None] == 1, 3.0, -3.0)
    first, _ = backward(g, (x, y))
    for _ in range(30):
        loss, grads = backward(g, (x, y))
        adam.step(g, grads, lr=1e-3)
    assert loss < first


# -- train config ---------------------------------------------------------------


def test_train_config_schedule():
    tc = TrainConfig(batch_size=100, epochs=2,
                     learning_rate_schedule=[(0, 1e-3), (100, 1e-4)])
    assert tc.lr_at(0) == 1e-3
    assert tc.lr_at(99) == 1e-3
    assert tc.lr_at(100) == 1e-4
    assert tc.lr_at(10_000) == 1e-4


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate_schedule=[(0, -1.0)])
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate_schedule=[(10, 1e-3), (0, 1e-4)])


def test_grad_store_shapes_and_reset():
    g = build_reference("cnn", "S", (8, 8, 1), classes=3)
    store = random_grad_store(g)
    for (i, name), arr in store.grads.items():
        assert arr.shape == g.weights[i][name].shape
    assert all(name not in ("mean", "var") for _, name in store.grads)
    store.reset()
    assert store.minibatch_count == 0
    assert all(np.all(v == 0) for v in store.grads.values())
