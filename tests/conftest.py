"""Shared test helpers: independent oracles and small graph builders."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import nestslice.netgraph as ng
from nestslice.autograd import GradStore, backward
from nestslice.cachesim import bench_report


def random_grad_store(g, seed=0):
    """Gradient store filled with seeded noise (stands in for accumulation)."""
    rng = np.random.default_rng(seed)
    store = GradStore(g)
    for key in store.grads:
        store.grads[key] = rng.standard_normal(store.grads[key].shape)
    store.minibatch_count = 100
    return store


def _im2col(x, kh, kw, sh, sw):
    """Patch matrix for 'same' padding; x is (N, H, W, C) float64."""
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # N,Ho',Wo',C,kh,kw
    win = win[:, ::sh, ::sw]
    n_, ho, wo = win.shape[:3]
    c = x.shape[3]
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n_, ho, wo, kh * kw * c)
    return cols, ho, wo


def _dense_active_kernel(g, i, act_in, act_units):
    """Active dense kernel as a float64 (fan_in_active, units_active) copy.

    ``act_in`` is the active channel count when the layer follows a
    flatten of a spatial map (kernel rows grouped per channel, so a
    strided subset), else the active flat length.
    """
    karr = g.weights[i]["kernel"].array.astype(np.float64)
    if i in g.transposed_dense:
        karr = karr.T  # logical (fan_in, units)
    feed, info = ng.dense_feed_structure(g, i)
    if feed == "spatial":
        h, w, cfull = info
        k = karr.reshape(h * w, cfull, g.layers[i].units)[:, :act_in, :]
        k = k.reshape(h * w * act_in, g.layers[i].units)
    else:
        k = karr[:act_in, :]
    return k[:, :act_units]


def reference_forward(g, x, slicing=None, bn_stats=None):
    """Float64 forward pass written apart from the library's row programs.

    Copies every active weight slice to float64 and computes each layer
    with its own algorithm (im2col for conv, einsum for depthwise,
    normalise-then-scale batchnorm). Returns (logits, macs, relu_signs),
    where relu_signs lists (layer, pre-activation > 0) per relu layer.
    """
    act = ng.resolve_widths(g, slicing)
    cur = np.asarray(x, dtype=np.float64)
    macs = 0
    signs = []
    for i, spec in enumerate(g.layers):
        u = int(act[i]) if spec.kind != ng.FLATTEN else 0
        if spec.kind == ng.DENSE:
            feed, _ = ng.dense_feed_structure(g, i)
            act_in = int(act[i - 2]) if feed == "spatial" else cur.shape[1]
            k = _dense_active_kernel(g, i, act_in, u)
            b = g.weights[i]["bias"].array.astype(np.float64)[:u]
            out = cur @ k + b
            macs += k.shape[0] * u
        elif spec.kind == ng.CONV2D:
            kh, kw = spec.kernel
            sh, sw = spec.stride
            cols, ho, wo = _im2col(cur, kh, kw, sh, sw)
            cin = cur.shape[3]
            k2 = g.weights[i]["kernel"].array.astype(np.float64)[
                :u, :, :, :cin].reshape(u, kh * kw * cin)
            b = g.weights[i]["bias"].array.astype(np.float64)[:u]
            out = cols @ k2.T + b
            macs += ho * wo * kh * kw * cin * u
        elif spec.kind == ng.DEPTHWISE:
            kh, kw = spec.kernel
            sh, sw = spec.stride
            cin = cur.shape[3]
            xp = np.pad(cur, ((0, 0), (kh // 2, kh // 2),
                              (kw // 2, kw // 2), (0, 0)))
            win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
            ho, wo = win.shape[1:3]
            kd = g.weights[i]["kernel"].array.astype(np.float64)[:cin]
            b = g.weights[i]["bias"].array.astype(np.float64)[:cin]
            out = np.einsum("nhwckl,ckl->nhwc", win, kd) + b
            macs += ho * wo * kh * kw * cin
        elif spec.kind == ng.POINTWISE:
            cin = cur.shape[3]
            kp = g.weights[i]["kernel"].array.astype(np.float64)[:u, 0, 0, :cin]
            b = g.weights[i]["bias"].array.astype(np.float64)[:u]
            out = cur @ kp.T + b
            ho, wo = cur.shape[1:3]
            macs += ho * wo * cin * u
        elif spec.kind == ng.BATCHNORM:
            cw = cur.shape[-1]
            if bn_stats is not None and i in bn_stats:
                mean = np.asarray(bn_stats[i][0], dtype=np.float64)[:cw]
                var = np.asarray(bn_stats[i][1], dtype=np.float64)[:cw]
            else:
                mean = g.weights[i]["mean"].array.astype(np.float64)[:cw]
                var = g.weights[i]["var"].array.astype(np.float64)[:cw]
            gamma = g.weights[i]["gamma"].array.astype(np.float64)[:cw]
            beta = g.weights[i]["beta"].array.astype(np.float64)[:cw]
            inv = 1.0 / np.sqrt(var + ng.BN_EPS)
            xhat = (cur - mean) * inv
            out = gamma * xhat + beta
        else:  # flatten
            out = cur.reshape(cur.shape[0], -1)
        if spec.activation == "relu":
            signs.append((i, out > 0))
            out = np.maximum(out, 0.0)
        cur = out
    return cur, macs, signs


def relu_mask_signature(g, x):
    return reference_forward(g, x)[2]


def masks_equal(a, b):
    return all(
        la == lb and np.array_equal(ma, mb)
        for (la, ma), (lb, mb) in zip(a, b)
    )


def fd_gradient_check(g, x, y, n_checks=5, h=2.0 ** -10, seed=11,
                      loss="ce", slicing=None):
    """Worst relative error of backprop vs central finite differences.

    Central differences are only valid where the loss is differentiable,
    so perturbations that flip any relu sign between the two evaluations
    are resampled. The step is the realized float32 step, which removes
    weight-storage quantization from the comparison. Backprop runs in
    float64, so the check measures the backward rules, not float32
    rounding.
    """
    def run():
        return backward(g, (x, y), loss=loss, slicing=slicing,
                        dtype=np.float64)

    _, grads = run()
    base = relu_mask_signature(g, x)
    worst = 0.0

    def probe(flat, j, step):
        old = flat[j]
        flat[j] = old + step
        hp = float(flat[j])
        okp = masks_equal(base, relu_mask_signature(g, x))
        lp, _ = run()
        flat[j] = old - step
        hm = float(flat[j])
        okm = masks_equal(base, relu_mask_signature(g, x))
        lm, _ = run()
        flat[j] = old
        if not (okp and okm) or hp == hm:
            return None
        return (lp - lm) / (hp - hm)

    for (i, name), garr in grads.items():
        flat = g.weights[i][name].writable_array().reshape(-1)
        gflat = garr.reshape(-1)
        rng = np.random.default_rng(seed)
        checked = tries = 0
        while checked < n_checks and tries < 300:
            tries += 1
            j = int(rng.integers(flat.size))
            fd = None
            for step in (h, h / 4, h / 16):  # shrink past relu kinks
                fd = probe(flat, j, step)
                if fd is not None:
                    break
            if fd is None or abs(fd) < 1e-5:
                continue
            worst = max(worst, abs(gflat[j] - fd) / (abs(fd) + 1e-8))
            checked += 1
        assert checked == n_checks, f"could not sample layer {i} {name}"
    return worst


@pytest.fixture(scope="session")
def default_sweep():
    """The 72-point default cache sweep (RP2040-like cache, batch 4).

    Computed once per session (about 1 s); the tests that share it only
    read the rows.
    """
    return bench_report()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
