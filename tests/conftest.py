"""Shared test helpers: independent oracles and small graph builders."""

# nestslice before numpy: importing it first gives BLAS one thread (see
# nestslice/__init__.py), as in the CLI
import nestslice  # noqa: F401
import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import nestslice.autograd as ag
import nestslice.netgraph as ng
from nestslice.autograd import GradStore, backward
from nestslice.cachesim import bench_report
from nestslice.errors import InfeasiblePlanError
from nestslice.planner import DwSolution, dw_objective


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


def _dense_active_kernel(g, i, act_in, act_units, spatial=None):
    """Active dense kernel as a float64 (fan_in_active, units_active) copy.

    ``spatial`` is the active (h, w, c) map when the layer follows a
    flatten of one: the kernel rows are grouped per channel, so the
    active rows are a strided subset. Otherwise ``act_in`` is the active
    flat length.
    """
    karr = g.weights[i]["kernel"].astype(np.float64)
    if i in g.transposed_dense:
        karr = karr.T  # logical (fan_in, units)
    units = g.layers[i].units
    if spatial is not None:
        h, w, c = spatial
        k = karr.reshape(h * w, -1, units)[:, :c, :]
        k = k.reshape(h * w * c, units)
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
    flattened = None  # the map the last flatten took, if spatial
    for i, spec in enumerate(g.layers):
        u = int(act[i]) if spec.kind != ng.FLATTEN else 0
        if spec.kind == ng.DENSE:
            after_flatten = i > 0 and g.layers[i - 1].kind == ng.FLATTEN
            k = _dense_active_kernel(g, i, cur.shape[1], u,
                                     flattened if after_flatten else None)
            b = g.weights[i]["bias"].astype(np.float64)[:u]
            out = cur @ k + b
            macs += k.shape[0] * u
        elif spec.kind == ng.CONV2D:
            kh, kw = spec.kernel
            sh, sw = spec.stride
            cols, ho, wo = _im2col(cur, kh, kw, sh, sw)
            cin = cur.shape[3]
            k2 = g.weights[i]["kernel"].astype(np.float64)[
                :u, :, :, :cin].reshape(u, kh * kw * cin)
            b = g.weights[i]["bias"].astype(np.float64)[:u]
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
            kd = g.weights[i]["kernel"].astype(np.float64)[:cin]
            b = g.weights[i]["bias"].astype(np.float64)[:cin]
            out = np.einsum("nhwckl,ckl->nhwc", win, kd) + b
            macs += ho * wo * kh * kw * cin
        elif spec.kind == ng.POINTWISE:
            cin = cur.shape[3]
            kp = g.weights[i]["kernel"].astype(np.float64)[:u, 0, 0, :cin]
            b = g.weights[i]["bias"].astype(np.float64)[:u]
            out = cur @ kp.T + b
            ho, wo = cur.shape[1:3]
            macs += ho * wo * cin * u
        elif spec.kind == ng.BATCHNORM:
            cw = cur.shape[-1]
            if bn_stats is not None and i in bn_stats:
                mean = np.asarray(bn_stats[i][0], dtype=np.float64)[:cw]
                var = np.asarray(bn_stats[i][1], dtype=np.float64)[:cw]
            else:
                mean = g.weights[i]["mean"].astype(np.float64)[:cw]
                var = g.weights[i]["var"].astype(np.float64)[:cw]
            gamma = g.weights[i]["gamma"].astype(np.float64)[:cw]
            beta = g.weights[i]["beta"].astype(np.float64)[:cw]
            inv = 1.0 / np.sqrt(var + ng.BN_EPS)
            xhat = (cur - mean) * inv
            out = gamma * xhat + beta
        else:  # flatten
            flattened = cur.shape[1:] if cur.ndim == 4 else None
            out = cur.reshape(cur.shape[0], -1)
        if spec.activation == "relu":
            signs.append((i, out > 0))
            out = np.maximum(out, 0.0)
        cur = out
    return cur, macs, signs


def depthwise_oracle(cur, kd, b, kh, kw, sh, sw):
    """Unblocked per-tap depthwise forward (oracle of
    ``netgraph._run_depthwise``): each tap multiplies the whole strided
    (N, Ho, Wo, C) window by its length-C weight vector."""
    _, h, w, _ = cur.shape
    ho, wo = ng._out_hw(h, w, kh, kw, sh, sw)
    xp = ng._pad(cur, kh, kw)
    out = None
    for di in range(kh):
        for dj in range(kw):
            xs = xp[:, di:di + sh * (ho - 1) + 1:sh,
                    dj:dj + sw * (wo - 1) + 1:sw]
            if out is None:
                out = xs * kd[:, di, dj]
            else:
                out += xs * kd[:, di, dj]
    out += b
    return out


def depthwise_input_grad_oracle(d, shape, kd, kh, kw, sh, sw):
    """Unblocked depthwise input gradient (oracle of the input gradient of
    ``netgraph._depthwise_back``): every tap's whole (N, Ho, Wo, C)
    product, summed in tap order onto a zeroed padded input."""
    n, h, w, c = shape
    _, ho, wo, _ = d.shape
    ph, pw = kh // 2, kw // 2
    dxp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=d.dtype)
    for di in range(kh):
        for dj in range(kw):
            dt = d * kd[:, di, dj]
            dxp[:, di:di + sh * (ho - 1) + 1:sh,
                dj:dj + sw * (wo - 1) + 1:sw] += dt
    return dxp[:, ph:ph + h, pw:pw + w]


def copying_forward(prog, x, dtype):
    """Every step's input, each copied before the step runs, and the
    logits: the program run step by step with nothing shared."""
    cur = ng._check_input(prog.input_shape, np.array(x, dtype=dtype))
    inputs = []
    for run, _, args, relu, mask, _ in prog.steps:
        inputs.append(cur.copy())
        cur = run(cur, *args)
        if relu:
            np.maximum(cur, 0.0, out=cur)
        if mask is not None:
            cur[..., mask:] = 0.0
    return inputs, cur


def _batchnorm_back_oracle(d, x, mean, var, gamma, beta):
    """The batchnorm rule with a temporary per product."""
    inv = 1.0 / np.sqrt(var.astype(d.dtype, copy=False) + ng.BN_EPS)
    axes = tuple(range(d.ndim - 1))
    dgamma = (d * ((x - mean) * inv)).sum(axis=axes)
    return d * (gamma * inv), (None, None, dgamma, d.sum(axis=axes))


def backward_oracle(g, batch, slicing=None, loss="ce", bn_stats=None,
                    dtype=np.float32, n=None):
    """Caching backward (oracle of one half of ``autograd.backward``, or
    of a whole unsplit batch): keeps every step's input and output until
    it returns, masks relu gradients with a fresh product and runs
    ``_batchnorm_back_oracle``; the other rules are the library's. The
    loss is normalised by ``n`` samples, by default the batch's own."""
    x, labels = batch
    prog = ng._build_program(g, slicing, bn_stats)
    inputs, logits = copying_forward(prog, x, dtype)
    value, dlogits = ag._loss_and_dlogits(
        logits, labels, loss, len(logits) if n is None else n)
    grads = {}
    d = dlogits.astype(dtype)
    outputs = inputs[1:] + [logits]
    layers = list(enumerate(zip(prog.steps, inputs, outputs)))
    for i, (step, xin, out) in reversed(layers):
        if step.relu:
            d = d * (out > 0)
        rule = (_batchnorm_back_oracle if step.back is ng._batchnorm_back
                else step.back)
        d, dviews = rule(d, xin, *step.args)
        bufs = {name: np.zeros(a.shape)
                for name, a in (g.weights[i] or {}).items()}
        for view, dv in zip(step.views(bufs), dviews):
            if dv is not None:
                view[...] = dv
        for name, buf in bufs.items():
            if name not in ("mean", "var"):
                grads[(i, name)] = buf
    return value, grads


def assert_rows_share_store(model):
    """Criterion 7's no-copy check: every array operand of every row
    program of ``model`` is a float32 view of its layer's arrays in the
    shared store or of that row's batchnorm statistics."""
    for k, prog in enumerate(model._programs):
        for i, step in enumerate(prog.steps):
            stores = list((model.graph.weights[i] or {}).values())
            stores += list(model.bn_stats[k].get(i, ()))
            for arr in _array_operands(step.args):
                assert arr.dtype == np.float32, (k, i, arr.dtype)
                assert any(np.shares_memory(arr, s) for s in stores), (k, i)


def _array_operands(args):
    for a in args:
        if isinstance(a, tuple):
            yield from _array_operands(a)
        elif isinstance(a, np.ndarray):
            yield a


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
        flat = g.weights[i][name].reshape(-1)
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


def dp_lexmin_oracle(p, w, cap):
    """Unbanded lex-smallest knapsack DP (oracle of ``planner._dp_lexmin``).

    Fills every capacity cell for every item, then walks the take bits
    from capacity cap.
    """
    n = len(p)
    best = np.zeros(cap + 1)
    take = np.zeros((n, cap + 1), dtype=bool)
    for i in range(n - 1, -1, -1):
        wi = int(w[i])
        if wi > cap:
            continue
        with_i = best[: cap + 1 - wi] + p[i]
        take[i, wi:] = with_i >= best[wi:]
        if p[i] <= 0:
            take[i, wi:] &= with_i > 0
        np.maximum(best[wi:], with_i, out=best[wi:])
    sel = []
    c = cap
    for i in range(n):
        if take[i, c]:
            sel.append(i)
            c -= int(w[i])
    return sel


def solve_depthwise_oracle(inst, min_counts=None, max_counts=None):
    """Unbanded depthwise DP (oracle of ``planner.solve_depthwise``).

    Every (count, budget) cell of every block is computed, with no
    shortcut when everything fits. Ties go to the larger previous count,
    and the last layer takes its largest optimal count. Raises
    InfeasiblePlanError where the solver does; bounds are not validated.
    """
    d = len(inst.blocks)
    sizes = [inst.n0] + [b.n_units for b in inst.blocks]
    minc = [1] * (d + 1) if min_counts is None else list(min_counts)
    maxc = list(sizes) if max_counts is None else list(max_counts)
    _, min_macs = dw_objective(inst, minc)
    if min_macs > inst.capacity:
        raise InfeasiblePlanError("minimal network exceeds the capacity")
    coeffs = [inst.w1] + [c for b in inst.blocks
                          for c in (b.w2, b.w3, b.pw_extra_macs) if c]
    g = int(np.gcd.reduce(np.array(coeffs, dtype=np.int64)))
    cap = int(inst.capacity) // g
    f1 = np.concatenate([[0.0], np.cumsum(inst.first_profits)])
    best = np.full((sizes[0] + 1, cap + 1), -np.inf)
    for x in range(minc[0], maxc[0] + 1):
        if x * inst.w1 // g <= cap:
            best[x, x * inst.w1 // g:] = f1[x]
    choice = []
    for i, b in enumerate(inst.blocks):
        w2, w3, wf = b.w2 // g, b.w3 // g, b.pw_extra_macs // g
        dpre = np.concatenate([[0.0], np.cumsum(b.dw_profits)])
        kpre = np.zeros((b.n_units + 1, len(b.dw_profits) + 1))
        kpre[1:, 1:] = b.kernel_profits.cumsum(axis=0).cumsum(axis=1)
        nxt = np.full((sizes[i + 1] + 1, cap + 1), -np.inf)
        pick = np.zeros((sizes[i + 1] + 1, cap + 1), dtype=np.int64)
        for x in range(minc[i + 1], maxc[i + 1] + 1):
            for xp in range(minc[i], maxc[i] + 1):
                s = xp * w2 + x * xp * w3 + x * wf
                if s > cap:
                    break
                cand = best[xp, : cap + 1 - s] + (dpre[xp] + kpre[x, xp])
                seg = nxt[x, s:]
                pick[x, s:][cand >= seg] = xp
                np.maximum(seg, cand, out=seg)
        best = nxt
        choice.append(pick)
    best_x, best_v = -1, -np.inf
    for x in range(maxc[-1], minc[-1] - 1, -1):
        if best[x, cap] > best_v:
            best_v, best_x = best[x, cap], x
    if best_x < 0:
        raise InfeasiblePlanError("no feasible depthwise configuration")
    counts = [0] * (d + 1)
    counts[d] = best_x
    budget = cap
    for i in range(d, 0, -1):
        b, x = inst.blocks[i - 1], counts[i]
        xp = int(choice[i - 1][x, budget])
        counts[i - 1] = xp
        budget -= (xp * b.w2 + x * xp * b.w3 + x * b.pw_extra_macs) // g
    profit, macs = dw_objective(inst, counts)
    return DwSolution(tuple(counts), profit, macs)


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
