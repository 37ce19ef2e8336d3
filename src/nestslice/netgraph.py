"""Layer and model definitions plus exact MAC accounting.

Supports the three benchmark families (dense, convolutional, and
depthwise-separable convolutional, each in sizes S and L) built from a
fixed layer vocabulary: dense, conv2d, depthwise, pointwise, batchnorm,
flatten. Convolutions default to 3x3 kernels, stride 1 and 'same'
padding; pooling is omitted. The final classifier layer is never
sliceable.

What a layer kind means lives in one private record per kind
(``_KINDS``): its parameters in blob order, each parameter's shape, its
output dims, the unit and input-channel axes of its kernel, and how its
row-program step runs. Shapes, MACs, parameter counts, weight checks,
truncation and unit permutations all read these records.

Width bookkeeping is central: every sliceable layer has an *active width*
(leading units that participate in compute). ``forward`` accepts a width
vector aligned with ``sliceable_indices``; depthwise and batchnorm layers
inherit the width of the layer they are bound to. One rule prices every
kind: a unit costs its kernel elements times its output positions
(``_per_unit_macs``). MAC counts come in two flavors: one per-unit cost
per layer at full model widths (``unit_macs``, the knapsack item
weights) and exact width-aware totals (``plan_macs``); in a row program,
each step carries its kind and MACs.

There is one forward path: a row program (``_build_program``) resolves
the widths, dims and weight views of one row, and ``_run_steps`` runs it
in float32, for inference and, for autograd, keeping each layer's input
except the batchnorm outputs, which the backward rebuilds by replaying
their batchnorm step. Each step carries its kernel and the kernel's
backward rule, written next to it here. Conv and depthwise kernels loop
over kernel taps on strided views of the padded map (``_taps``), which a
one-channel conv joins for one matmul. Autograd reduces the loss and
sums gradients in float64; float64 activations are for checks only.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ExtentError, IntegrityError, ShapeMismatchError
from .tensor import read_blobs, store, write_blob

BN_EPS = 1e-3

DENSE = "dense"
CONV2D = "conv2d"
DEPTHWISE = "depthwise"
POINTWISE = "pointwise"
BATCHNORM = "batchnorm"
FLATTEN = "flatten"

# Hidden dense widths for the CNN family (the reference description names
# only the conv widths).
CNN_DENSE_WIDTHS = {"S": (64, 32), "L": (128, 64)}

DNN_WIDTH = {"S": 144, "L": 436}
CNN_CONV_WIDTHS = {"S": (28, 30), "L": (60, 76)}
DSCNN_WIDTH = {"S": 64, "L": 276}
DSCNN_BLOCKS = {"S": 4, "L": 5}


@dataclass
class LayerSpec:
    kind: str
    units: int = 0
    kernel: tuple | None = None
    stride: tuple = (1, 1)
    activation: str = "none"  # relu | none | softmax
    sliceable: bool = False

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "units": self.units,
            "kernel": list(self.kernel) if self.kernel else None,
            "stride": list(self.stride),
            "activation": self.activation,
            "sliceable": self.sliceable,
        }

    @classmethod
    def from_json(cls, d: dict) -> "LayerSpec":
        """Spec from its JSON object; IntegrityError if ``kind`` or
        ``units`` is missing, ``kind`` is not a string, ``units`` is not
        an integer or a value has the wrong type."""
        try:
            if not isinstance(d["kind"], str):
                raise TypeError(f"kind {d['kind']!r} is not a string")
            return cls(
                kind=d["kind"],
                units=operator.index(d["units"]),
                kernel=tuple(d["kernel"]) if d.get("kernel") else None,
                stride=tuple(d.get("stride", (1, 1))),
                activation=d.get("activation", "none"),
                sliceable=bool(d.get("sliceable", False)),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise IntegrityError(f"malformed layer: {e!r}") from e


@dataclass
class ModelGraph:
    layers: list
    weights: list  # per layer: dict name -> float32 array, or None
    input_shape: tuple | int
    encoder_end: int
    # Dense layers whose kernel is stored transposed (units x fan_in) for
    # the cache-friendly multiply order; one flag bit per layer.
    transposed_dense: set = field(default_factory=set)

    def sliceable_indices(self) -> list:
        return [i for i, l in enumerate(self.layers) if l.sliceable]

    def compute_indices(self) -> list:
        return [i for i, l in enumerate(self.layers) if l.kind in COMPUTE_KINDS]

    def encoder_indices(self) -> list:
        return [i for i in self.compute_indices() if i <= self.encoder_end]

    def classifier_index(self) -> int:
        return self.compute_indices()[-1]

    def attached_batchnorm(self, i: int):
        j = i + 1
        if j < len(self.layers) and self.layers[j].kind == BATCHNORM:
            return j
        return None

    def next_compute_layer(self, i: int):
        for j in range(i + 1, len(self.layers)):
            if self.layers[j].kind in COMPUTE_KINDS:
                return j
        return None

    def prev_compute_layer(self, i: int):
        for j in range(i - 1, -1, -1):
            if self.layers[j].kind in COMPUTE_KINDS:
                return j
        return None

    def copy(self) -> "ModelGraph":
        ws = [None if e is None else {k: store(a) for k, a in e.items()}
              for e in self.weights]
        return ModelGraph(
            layers=[LayerSpec(**vars(l)) for l in self.layers],
            weights=ws,
            input_shape=self.input_shape,
            encoder_end=self.encoder_end,
            transposed_dense=set(self.transposed_dense),
        )


# -- reference architectures -------------------------------------------------


def build_reference(arch, size, input_shape=None, classes=10, seed=0):
    """Construct one of the reference models with seeded random weights.

    arch: 'dnn' | 'cnn' | 'dscnn'; size: 'S' | 'L'. ``input_shape`` is a
    flat length for dnn and (h, w, c) otherwise; defaults are 100 and
    (10, 10, 1). Every parameter takes its shape from the layer's kind
    (``_param_shapes``). Kernels are He-initialised in layer order from
    one seeded generator, with the kernel elements of one unit as the
    fan-in; biases, batchnorm shifts and means start at 0, batchnorm
    scales and variances at 1.
    """
    arch = arch.lower()
    size = size.upper()
    if classes < 2:
        raise ConfigError("classes must be >= 2")
    if size not in ("S", "L"):
        raise ConfigError(f"unsupported size {size!r}")
    if arch not in ("dnn", "cnn", "dscnn"):
        raise ConfigError(f"unsupported architecture {arch!r}")
    hidden = {"activation": "relu", "sliceable": True}
    if arch == "dnn":
        input_shape = int(np.prod(100 if input_shape is None else input_shape))
        layers = [LayerSpec(DENSE, DNN_WIDTH[size], **hidden)
                  for _ in range(2)]
    else:
        input_shape = tuple((10, 10, 1) if input_shape is None
                            else input_shape)
        if len(input_shape) != 3:
            raise ConfigError(f"{arch} input_shape {input_shape} is not "
                              f"(h, w, c)")
        layers = []
    if arch == "cnn":
        for w in CNN_CONV_WIDTHS[size]:
            layers += [LayerSpec(CONV2D, w, kernel=(3, 3), **hidden),
                       LayerSpec(BATCHNORM, w)]
        layers.append(LayerSpec(FLATTEN))
        layers += [LayerSpec(DENSE, w, **hidden)
                   for w in CNN_DENSE_WIDTHS[size]]
    elif arch == "dscnn":
        w = DSCNN_WIDTH[size]
        layers += [LayerSpec(CONV2D, w, kernel=(3, 3), **hidden),
                   LayerSpec(BATCHNORM, w)]
        for _ in range(DSCNN_BLOCKS[size]):
            layers += [LayerSpec(DEPTHWISE, w, kernel=(3, 3),
                                 activation="relu"),
                       LayerSpec(BATCHNORM, w),
                       LayerSpec(POINTWISE, w, kernel=(1, 1), **hidden),
                       LayerSpec(BATCHNORM, w)]
        layers.append(LayerSpec(FLATTEN))
    layers.append(LayerSpec(DENSE, classes, activation="softmax"))
    # the encoder ends at the last layer before the classifier that is
    # not a flatten
    encoder_end = max(i for i, spec in enumerate(layers[:-1])
                      if spec.kind != FLATTEN)
    g = ModelGraph(layers, [None] * len(layers), input_shape, encoder_end)
    rng = np.random.default_rng(seed)
    dims = layer_output_dims(g)
    for i, spec in enumerate(layers):
        in_dims = _in_dims_at(g, i, dims)
        params = {}
        for nm, shape in _param_shapes(g, i, in_dims, spec.units).items():
            if nm == "kernel":  # He: fan-in is one unit's kernel elements
                fan_in = math.prod(_kind(spec).kernel(spec, in_dims, 1))
                arr = rng.standard_normal(shape)
                arr *= np.sqrt(2.0 / max(1, fan_in))
            else:
                arr = np.full(shape, 1.0 if nm in ("gamma", "var") else 0.0)
            params[nm] = store(arr)
        g.weights[i] = params or None
    validate_graph(g)
    return g


def validate_graph(g: ModelGraph) -> None:
    cls = g.classifier_index()
    if g.layers[cls].sliceable:
        raise IntegrityError("classifier layer must not be sliceable")
    for i, spec in enumerate(g.layers):
        if spec.kind == POINTWISE and spec.kernel != (1, 1):
            raise IntegrityError(f"pointwise layer {i} must have 1x1 kernel")
        if _kind(spec).out_dims is _window_dims:  # reads kernel and stride
            for name in ("kernel", "stride"):
                v = getattr(spec, name)
                if (not isinstance(v, tuple) or len(v) != 2
                        or not all(isinstance(e, int) and e > 0 for e in v)):
                    raise IntegrityError(f"{spec.kind} layer {i} {name} {v} "
                                         f"is not two positive integers")
        if _kind(spec).bound:
            prev = g.prev_compute_layer(i)
            if prev is None or g.layers[prev].units != spec.units:
                raise IntegrityError(
                    f"{spec.kind} layer {i} width must match preceding layer"
                )
    _check_weight_shapes(g)


def _input_dims(g):
    if np.isscalar(g.input_shape):
        return (int(g.input_shape),)
    return tuple(g.input_shape)


def _in_dims_at(g, i, dims):
    return dims[i - 1] if i > 0 else _input_dims(g)


def _check_weight_shapes(g):
    """IntegrityError unless every parameter is a C-contiguous float32
    array of its full-width shape."""
    dims = layer_output_dims(g)
    for i, spec in enumerate(g.layers):
        params = g.weights[i] or {}
        want = _param_shapes(g, i, _in_dims_at(g, i, dims), spec.units)
        for nm, shape in want.items():
            a = params.get(nm)
            if a is not None and not (isinstance(a, np.ndarray)
                                      and a.dtype == np.float32
                                      and a.flags.c_contiguous):
                raise IntegrityError(f"{spec.kind} layer {i} {nm} is not a "
                                     f"C-contiguous float32 array")
            got = None if a is None else a.shape
            if got != shape:
                raise IntegrityError(
                    f"{spec.kind} layer {i} {nm} shape {got} != {shape}")


def layer_output_dims(g: ModelGraph, widths=None) -> list:
    """Per-layer output dims at the given active widths (None = full)."""
    act = resolve_widths(g, widths)
    dims = []
    cur = _input_dims(g)
    for spec, u in zip(g.layers, act):
        cur = _kind(spec).out_dims(spec, cur, int(u))
        dims.append(cur)
    return dims


def resolve_widths(g: ModelGraph, slicing=None) -> np.ndarray:
    """Expand a per-sliceable-layer width vector to all layers.

    Depthwise and batchnorm layers inherit the width of the compute layer
    they are bound to; non-sliceable compute layers keep full width.
    ConfigError for a layer of unknown kind.
    """
    act = np.array([l.units if _kind(l).params else 0 for l in g.layers],
                   dtype=np.int64)
    if slicing is not None:
        sl = [int(v) for v in slicing]
        idx = g.sliceable_indices()
        if len(sl) != len(idx):
            raise ShapeMismatchError(
                f"slicing has {len(sl)} entries, expected {len(idx)}"
            )
        for i, wdt in zip(idx, sl):
            if not (1 <= wdt <= g.layers[i].units):
                raise ExtentError(
                    f"width {wdt} out of range for layer {i} "
                    f"(1..{g.layers[i].units})"
                )
            act[i] = wdt
    for i, spec in enumerate(g.layers):
        if _kind(spec).bound:
            prev = g.prev_compute_layer(i)
            if prev is not None:
                act[i] = act[prev]
    return act


# -- MAC accounting ----------------------------------------------------------


def unit_macs(g: ModelGraph) -> dict:
    """``{layer: MACs of one unit}`` for every compute layer at full model
    widths (``_per_unit_macs``); all units of a layer cost the same.
    Batchnorm contributes zero and has no entry.
    """
    dims = layer_output_dims(g)
    return {i: _per_unit_macs(g, i, _in_dims_at(g, i, dims), dims[i])
            for i in g.compute_indices()}


def _per_unit_macs(g, i, in_dim, out_dim):
    """MACs of one unit of layer i on the given dims: its kernel elements
    times its output positions, 0 without a kernel.

    Dense neuron: fan-in. Conv filter: kh*kw*cin*hout*wout. Depthwise
    filter: kh*kw*hout*wout. Pointwise filter: cin*hout*wout. Every MAC
    count (item weights, riders, the depthwise instance, row programs)
    derives from this one function.
    """
    spec = g.layers[i]
    kernel = _kind(spec).kernel
    if kernel is None:
        return 0
    return math.prod(kernel(spec, in_dim, 1)) * math.prod(out_dim[:-1])


def plan_macs(g: ModelGraph, slicing=None) -> int:
    """Exact per-sample MAC count at the given active widths."""
    act = resolve_widths(g, slicing)
    dims = layer_output_dims(g, slicing)
    return sum(_per_unit_macs(g, i, _in_dims_at(g, i, dims), dims[i]) * int(u)
               for i, u in enumerate(act))


def full_macs(g: ModelGraph) -> int:
    return plan_macs(g, None)


def param_counts(g: ModelGraph, slicing=None, encoder_only=False) -> int:
    """Learnable parameter count at the given widths.

    Counts kernels, biases and batchnorm gamma/beta (running statistics
    are not learnable). Depthwise/batchnorm widths are derived.
    """
    act = resolve_widths(g, slicing)
    dims = layer_output_dims(g, slicing)
    total = 0
    for i, u in enumerate(act):
        if encoder_only and i > g.encoder_end:
            break
        per_unit = _param_shapes(g, i, _in_dims_at(g, i, dims), 1)
        stats = _kind(g.layers[i]).stats
        total += int(u) * sum(math.prod(s) for nm, s in per_unit.items()
                              if nm not in stats)
    return total


# -- row programs: the one forward path, on views of the store ---------------
#
# A row program resolves one row once into one step per layer, the record
# of that layer: its kind, its per-sample MACs at the row's widths, its
# kernel and the kernel's backward rule, and one function from the layer's
# arrays (by parameter name) to the views its kernel reads.
# Applied to the store, that function gives read-only float32 views, never
# derived copies, so weight updates made in place by training stay
# visible; autograd applies the same function to zero gradient buffers of
# the store's shapes to put each gradient back in place. How a layer
# computes depends on its active shapes only, never on the full widths
# behind a view, so a sliced row and the physically truncated copy of that
# row run the same float operations. Kernels compute in the dtype of the
# activations: float32, or float64 for the gradient checks.


class _Step(NamedTuple):
    run: Callable  # run(cur, *args) computes the layer
    back: Callable  # back(d, x, *args): its backward rule
    args: tuple  # the layer's weight views, then static arguments
    relu: bool
    views: Callable  # {param name: array} -> the weight views in ``args``
    kind: str  # the layer's kind, e.g. BATCHNORM
    macs: int  # per-sample MACs at the row's widths


@dataclass
class _Program:
    steps: list  # one _Step per layer, in layer order: its index is its layer
    macs: int  # exact per-sample multiply count: the steps' sum


# Each kernel is followed by its backward rule. A rule takes the output
# gradient, the layer's input and the kernel's arguments, and returns the
# input gradient and the gradients of the weight views (None for views
# that are constants).


def _pad(cur, kh, kw):
    """'Same' zero padding of an (N, H, W, C) map."""
    n, h, w, c = cur.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=cur.dtype)
    xp[:, ph:ph + h, pw:pw + w] = cur
    return xp


def _out_hw(h, w, kh, kw, sh, sw):
    return ((h + 2 * (kh // 2) - kh) // sh + 1,
            (w + 2 * (kw // 2) - kw) // sw + 1)


def _windows(x, kh, kw, sh, sw):
    """(N, Ho, Wo, C, kh, kw) windows of the padded input."""
    return sliding_window_view(_pad(x, kh, kw), (kh, kw),
                               axis=(1, 2))[:, ::sh, ::sw]


def _run_matmul(cur, k, b):
    """Dense or pointwise: one matmul over the last axis. On a 2-D input
    both reshapes are views."""
    out = cur.reshape(-1, k.shape[0]) @ k
    out += b
    return out.reshape(cur.shape[:-1] + k.shape[1:])


def _matmul_back(d, x, k, b):
    d2 = d.reshape(-1, d.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    return (d2 @ k.T).reshape(x.shape), (x2.T @ d2, d2.sum(axis=0))


def _run_dense_spatial(cur, k3, b):
    """Dense after a flatten: one stacked matmul over the p positions
    reads the view k3 in place, where flattening (p, c) would copy it."""
    p, c, _ = k3.shape
    out = np.matmul(cur.reshape(len(cur), p, c).transpose(1, 0, 2),
                    k3).sum(axis=0)
    out += b
    return out


def _dense_spatial_back(d, x, k3, b):
    p, c, _ = k3.shape
    x3 = x.reshape(len(x), p, c).transpose(1, 0, 2)  # (p, N, c)
    dx3 = np.matmul(d, k3.transpose(0, 2, 1))
    return (dx3.transpose(1, 0, 2).reshape(x.shape),
            (np.matmul(x3.transpose(0, 2, 1), d), d.sum(axis=0)))


def _taps(a, kh, kw, sh, sw, ho, wo):
    """Each kernel tap's strided (N, Ho, Wo, C) view of the padded map
    ``a``, in tap order (row-major over the kernel): the inputs that tap
    multiplies, or the input-gradient entries its products add to."""
    for di in range(kh):
        for dj in range(kw):
            yield a[:, di:di + sh * (ho - 1) + 1:sh,
                    dj:dj + sw * (wo - 1) + 1:sw]


def _run_conv(cur, k, b, kh, kw, sh, sw):
    """One matmul per kernel tap on the padded input, summed in tap order.

    ``k`` is a (kh*kw, cin, u) view; each tap's inputs are copied in turn
    to a contiguous matrix, so no product's rounding depends on strides.
    One input channel takes a (kh*kw, u) ``k`` and one matmul over its
    taps set side by side: kh*kw products with an inner dimension of 1
    are ~10x slower.
    """
    n, h, w, cin = cur.shape
    ho, wo = _out_hw(h, w, kh, kw, sh, sw)
    taps = _taps(_pad(cur, kh, kw), kh, kw, sh, sw, ho, wo)
    if k.ndim == 2:
        out = np.concatenate(list(taps), axis=3).reshape(-1, kh * kw) @ k
    else:
        out = np.ascontiguousarray(next(taps)).reshape(-1, cin) @ k[0]
        for t, xs in enumerate(taps, 1):
            out += np.ascontiguousarray(xs).reshape(-1, cin) @ k[t]
    out += b
    return out.reshape(n, ho, wo, k.shape[-1])


def _conv_back(d, x, k, b, kh, kw, sh, sw):
    """Per tap, in the forward's order: its kernel gradient, and its input
    gradient added into its view of the padded input gradient."""
    n, h, w, cin = x.shape
    _, ho, wo, u = d.shape
    d2 = d.reshape(-1, u)
    ph, pw = kh // 2, kw // 2
    dxp = np.zeros((n, h + 2 * ph, w + 2 * pw, cin), dtype=d.dtype)
    dtaps = _taps(dxp, kh, kw, sh, sw, ho, wo)
    xtaps = _taps(_pad(x, kh, kw), kh, kw, sh, sw, ho, wo)
    if k.ndim == 2:  # one input channel: (kh*kw, u)
        dk = np.concatenate(list(xtaps), axis=3).reshape(-1, kh * kw).T @ d2
        for dt, dxs in zip(k @ d2.T, dtaps):
            dxs += dt.reshape(n, ho, wo, 1)
    else:
        dk = np.empty(k.shape, dtype=d.dtype)
        for t, (xs, dxs) in enumerate(zip(xtaps, dtaps)):
            dk[t] = np.ascontiguousarray(xs).reshape(-1, cin).T @ d2
            dxs += (d2 @ k[t].T).reshape(n, ho, wo, cin)
    return dxp[:, ph:ph + h, pw:pw + w], (dk, d2.sum(axis=0))


# A batch block holds at most this many activations (256 KiB of float32),
# so that one block of a depthwise output or input gradient, the padded
# input it pairs with and one tap's product fit together in a 2 MiB
# per-core L2 while every tap passes over them.
_BLOCK_ACTIVATIONS = 1 << 16


def _batch_blocks(n, per_sample):
    """Slices of a batch of n, each of at most _BLOCK_ACTIVATIONS
    activations of ``per_sample`` each (and at least one sample)."""
    step = max(1, _BLOCK_ACTIVATIONS // per_sample)
    for lo in range(0, n, step):
        yield slice(lo, lo + step)


def _tap_rows(kd, wo, dtype):
    """(kh*kw, wo, c): each tap's channel weights repeated along a row.

    A tap product with one output row of an (N, Ho, Wo, C) map then runs
    one inner loop of wo*c elements instead of one loop of c per pixel.
    Built on every call from the live kernel view, so in-place weight
    updates show, and never stored.
    """
    c, kh, kw = kd.shape
    rows = np.empty((kh * kw, wo, c), dtype=dtype)
    rows[...] = kd.reshape(c, kh * kw).T[:, None, :]
    return rows


def _run_depthwise(cur, kd, b, kh, kw, sh, sw):
    """One shifted multiply-add per kernel tap on the padded input.

    Runs one batch block at a time, all taps on a block before the next,
    so the block stays in cache. Every output element sees the plain tap
    loop's operations in its order: the first tap's product, each further
    tap's product added in turn, then the bias.
    """
    n, h, w, c = cur.shape
    ho, wo = _out_hw(h, w, kh, kw, sh, sw)
    xp = _pad(cur, kh, kw)
    rows = _tap_rows(kd, wo, cur.dtype)
    out = np.empty((n, ho, wo, c), dtype=cur.dtype)
    for blk in _batch_blocks(n, ho * wo * c):
        ob = out[blk]
        taps = _taps(xp[blk], kh, kw, sh, sw, ho, wo)
        np.multiply(next(taps), rows[0], out=ob)
        for t, xs in enumerate(taps, 1):
            ob += xs * rows[t]
        ob += b
    return out


def _depthwise_back(d, x, kd, b, kh, kw, sh, sw):
    """The input gradient adds each tap's product into the padded
    gradient, block by block as the forward runs, in the forward's tap
    order; the reductions (kernel and bias sums) keep their own order."""
    n, h, w, c = x.shape
    _, ho, wo, _ = d.shape
    dk = np.einsum("nhwc,nhwckl->ckl", d, _windows(x, kh, kw, sh, sw))
    rows = _tap_rows(kd, wo, d.dtype)
    ph, pw = kh // 2, kw // 2
    dxp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=d.dtype)
    for blk in _batch_blocks(n, ho * wo * c):
        db = d[blk]
        for t, dxs in enumerate(_taps(dxp[blk], kh, kw, sh, sw, ho, wo)):
            dxs += db * rows[t]
    return dxp[:, ph:ph + h, pw:pw + w], (dk, d.sum(axis=(0, 1, 2)))


def _run_batchnorm(cur, mean, var, gamma, beta):
    scale = gamma / np.sqrt(var.astype(cur.dtype, copy=False) + BN_EPS)
    cur *= scale  # in place: the executor owns every activation
    cur += beta - mean * scale
    return cur


def _batchnorm_back(d, x, mean, var, gamma, beta):
    """One full-size temporary: it holds d * (x - mean) * inv for the
    gamma sum, then the input gradient."""
    inv = 1.0 / np.sqrt(var.astype(d.dtype, copy=False) + BN_EPS)
    axes = tuple(range(d.ndim - 1))
    t = x - mean
    t *= inv
    t *= d
    dgamma = t.sum(axis=axes)
    dbeta = d.sum(axis=axes)
    np.multiply(d, gamma * inv, out=t)
    return t, (None, None, dgamma, dbeta)


def _run_flatten(cur):
    return cur.reshape(len(cur), math.prod(cur.shape[1:]))


def _flatten_back(d, x):
    return d.reshape(x.shape), ()


# -- layer kinds ---------------------------------------------------------------
#
# One record per kind says what a layer of that kind means. A step builder
# gives how layer i runs at active width ``u`` on active input dims ``cur``
# (``pre_flat``: the active dims entering the last flatten): its kernel, the
# kernel's backward rule, the function from the layer's arrays to the views
# the kernel reads, and its static arguments.


def _dense_step(g, i, u, cur, pre_flat, full_dims):
    units = g.layers[i].units
    transposed = i in g.transposed_dense

    def logical(a):  # the (fan_in, units) kernel, whatever its storage
        return a["kernel"].T if transposed else a["kernel"]

    if i > 0 and g.layers[i - 1].kind == FLATTEN and len(pre_flat) == 3:
        # kernel rows grouped per channel: slice channels in 3-D
        h, w, c = pre_flat
        cfull = _in_dims_at(g, i - 1, full_dims)[2]

        def views(a):
            return (logical(a).reshape(h * w, cfull, units)[:, :c, :u],
                    a["bias"][:u])
        return _run_dense_spatial, _dense_spatial_back, views, ()
    n_in = cur[0]

    def views(a):
        return logical(a)[:n_in, :u], a["bias"][:u]
    return _run_matmul, _matmul_back, views, ()


def _conv_step(g, i, u, cur, pre_flat, full_dims):
    spec = g.layers[i]
    kh, kw = spec.kernel
    cin = cur[2]

    def views(a):
        kv = a["kernel"][:u, :, :, :cin]
        k = (kv.reshape(u, kh * kw).T if cin == 1
             else kv.reshape(u, kh * kw, cin).transpose(1, 2, 0))
        return k, a["bias"][:u]
    return _run_conv, _conv_back, views, (kh, kw) + tuple(spec.stride)


def _depthwise_step(g, i, u, cur, pre_flat, full_dims):
    spec = g.layers[i]
    cin = cur[2]

    def views(a):
        return a["kernel"][:cin], a["bias"][:cin]
    return (_run_depthwise, _depthwise_back, views,
            tuple(spec.kernel) + tuple(spec.stride))


def _pointwise_step(g, i, u, cur, pre_flat, full_dims):
    cin = cur[2]

    def views(a):
        return a["kernel"][:u, 0, 0, :cin].T, a["bias"][:u]
    return _run_matmul, _matmul_back, views, ()


def _batchnorm_step(g, i, u, cur, pre_flat, full_dims):
    cw = cur[-1]

    def views(a):
        return tuple(a[nm][:cw] for nm in ("mean", "var", "gamma", "beta"))
    return _run_batchnorm, _batchnorm_back, views, ()


def _flatten_step(g, i, u, cur, pre_flat, full_dims):
    return _run_flatten, _flatten_back, lambda a: (), ()


def _window_dims(spec, d, u):
    return _out_hw(d[0], d[1], *spec.kernel, *spec.stride) + (u,)


class _Kind(NamedTuple):
    params: tuple  # names in blob order; all but a kernel are (units,)
    kernel: Callable | None  # (spec, input dims, units) -> stored kernel shape
    unit_axis: int | None  # the stored kernel's unit axis
    in_axis: int | None  # its input-channel axis
    bound: bool  # a unit is an input channel: the width is the producer's
    out_dims: Callable  # (spec, input dims, units) -> output dims
    step: Callable  # the step builder
    stats: tuple = ()  # running statistics: constants, never learned


_KB = ("kernel", "bias")
_KINDS = {
    DENSE: _Kind(_KB, lambda s, d, u: (math.prod(d), u), 1, 0, False,
                 lambda s, d, u: (u,), _dense_step),
    CONV2D: _Kind(_KB, lambda s, d, u: (u, *s.kernel, d[2]), 0, 3, False,
                  _window_dims, _conv_step),
    DEPTHWISE: _Kind(_KB, lambda s, d, u: (u, *s.kernel), 0, None, True,
                     _window_dims, _depthwise_step),
    POINTWISE: _Kind(_KB, lambda s, d, u: (u, 1, 1, d[2]), 0, 3, False,
                     lambda s, d, u: (d[0], d[1], u), _pointwise_step),
    BATCHNORM: _Kind(("gamma", "beta", "mean", "var"), None, None, None, True,
                     lambda s, d, u: d, _batchnorm_step, ("mean", "var")),
    FLATTEN: _Kind((), None, None, None, False,
                   lambda s, d, u: (math.prod(d),), _flatten_step),
}
COMPUTE_KINDS = tuple(k for k, kind in _KINDS.items()
                      if kind.kernel is not None)


def _kind(spec) -> _Kind:
    """The record of a layer's kind; ConfigError for an unknown kind."""
    try:
        return _KINDS[spec.kind]
    except KeyError:
        raise ConfigError(f"unknown layer kind {spec.kind}") from None


def _param_shapes(g, i, in_dims, units) -> dict:
    """Shape of each of layer i's parameters, in blob order, at ``units``
    units on input dims ``in_dims``; a transposed dense kernel is stored
    (units, fan_in)."""
    spec = g.layers[i]
    kind = _kind(spec)
    shapes = {nm: (units,) for nm in kind.params}
    if kind.kernel is not None:
        shape = kind.kernel(spec, in_dims, units)
        shapes["kernel"] = shape[::-1] if i in g.transposed_dense else shape
    return shapes


def _kernel_axes(g, i):
    """(unit axis, input-channel axis) of layer i's stored kernel."""
    kind = _kind(g.layers[i])
    if i in g.transposed_dense:
        return kind.in_axis, kind.unit_axis
    return kind.unit_axis, kind.in_axis


def _unit_axes(g, i):
    """(parameter, axis) for each parameter of layer i: the axis that runs
    over its units."""
    axis = _kernel_axes(g, i)[0]
    return [(nm, axis if nm == "kernel" else 0)
            for nm in _kind(g.layers[i]).params]


def _followers(g, l):
    """The layers bound to the units of layer l (its batchnorm, a depthwise
    layer and that one's batchnorm), then the next layer that reads them
    along its kernel's input-channel axis (None at the end)."""
    bound = []
    for j in range(l + 1, len(g.layers)):
        kind = _kind(g.layers[j])
        if kind.bound:
            bound.append(j)
        elif kind.in_axis is not None:
            return bound, j
    return bound, None


def _unit_gathers(g, keep) -> list:
    """The gathers that keep the units ``keep[l]`` of each layer l, in that
    order, as (layer, parameter, axis, index, channels) entries.

    They run along the unit axis of every parameter of l and of the
    layers bound to it, and along the input-channel axis of the kernel
    that reads l. Entries touch independent axes, so their order does not
    matter. Used to permute units and to truncate a model.
    """
    ops = []
    for l in sorted(keep):
        p = np.asarray(keep[l], dtype=np.int64)
        n = g.layers[l].units
        bound, reader = _followers(g, l)
        for j in [l] + bound:
            ops.extend((j, nm, axis, p, n) for nm, axis in _unit_axes(g, j))
        if reader is not None:
            ops.append((reader, "kernel", _kernel_axes(g, reader)[1], p, n))
    return ops


def _gather(arr, axis, p, n):
    """``arr`` keeping entries ``p`` of ``axis``, which holds n channels per
    position, position-major (more than one position only for a dense
    kernel after a flatten of a spatial map)."""
    head, tail = arr.shape[:axis], arr.shape[axis + 1:]
    split = arr.reshape(head + (-1, n) + tail)
    return np.take(split, p, axis=axis + 1).reshape(head + (-1,) + tail)


def _gathered_copy(g: ModelGraph, ops) -> ModelGraph:
    """A copy of g with the gathers ``ops`` (``_unit_gathers`` entries)
    applied; ``store`` makes each parameter once, after its gathers."""
    ws = [None if e is None else dict(e) for e in g.weights]
    for l, nm, axis, p, n in ops:
        ws[l][nm] = _gather(ws[l][nm], axis, p, n)
    return replace(g, weights=ws).copy()


def _build_program(g: ModelGraph, slicing=None, bn_stats=None) -> _Program:
    """Resolve one row into a program: one step per layer."""
    width = resolve_widths(g, slicing)
    full_dims = layer_output_dims(g)  # also rejects unknown layer kinds
    cur = _input_dims(g)  # active dims of the layer's input
    pre_flat = None  # active dims entering the last flatten
    steps = []
    for i, spec in enumerate(g.layers):
        if spec.kind == FLATTEN:
            pre_flat = cur
        kind, u = _kind(spec), int(width[i])
        run, back, views, static = kind.step(g, i, u, cur, pre_flat, full_dims)
        out = kind.out_dims(spec, cur, u)
        arrays = dict(g.weights[i] or {})
        if bn_stats is not None and i in bn_stats:
            arrays["mean"], arrays["var"] = (
                np.asarray(s, dtype=np.float32) for s in bn_stats[i])
        arrays = {nm: a.view() for nm, a in arrays.items()}
        for a in arrays.values():  # a program never writes the store
            a.flags.writeable = False
        steps.append(_Step(run, back, views(arrays) + static,
                           spec.activation == "relu", views, spec.kind,
                           _per_unit_macs(g, i, cur, out) * u))
        cur = out
    return _Program(steps, sum(s.macs for s in steps))


def _check_input(input_shape, x):
    """The array ``x`` as an (N, ...) batch matching ``input_shape``."""
    if np.isscalar(input_shape):
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != input_shape:
            raise ShapeMismatchError(
                f"input shape {x.shape} incompatible with {input_shape}"
            )
    else:
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or tuple(x.shape[1:]) != tuple(input_shape):
            raise ShapeMismatchError(
                f"input shape {x.shape[1:]} != {input_shape}"
            )
    return x


def _apply_step(step: _Step, cur):
    """Run one step on ``cur``, then its relu."""
    run, _, args, relu, _, _, _ = step
    cur = run(cur, *args)
    if relu:
        np.maximum(cur, 0.0, out=cur)
    return cur


def _run_steps(prog: _Program, cur, cache=None):
    """Logits of a program on ``cur``, a checked batch of the working
    dtype that the caller owns.

    Activations apply in place on fresh step outputs. A ``cache`` list
    receives one entry per step: the step's input, which is what the
    backward rules read, kept by reference (relu writes only a step's
    fresh output, and batchnorm, the one step that overwrites its input,
    runs on a copy of it). The input of a step that follows a batchnorm
    step is a batchnorm output, which one replay of that step
    (``_apply_step`` on a copy of its cached input) rebuilds with the same
    float operations; its entry is None, unless that batchnorm's own entry
    is None or the step is a flatten, whose reshaped output holds the
    array anyway.
    """
    replayable = False
    for step in prog.steps:
        if cache is not None:
            cache.append(None if replayable and step.kind != FLATTEN else cur)
            replayable = step.kind == BATCHNORM and cache[-1] is not None
            if step.kind == BATCHNORM:
                cur = cur.copy()
        cur = _apply_step(step, cur)
    return cur


def run_forward(g: ModelGraph, x, slicing=None, bn_stats=None, program=None):
    """Float32 forward pass on a row program over views of the store.

    x: (N, ...) float array matching input_shape. Returns (logits, macs)
    where macs is the exact per-sample multiply count of the dense/conv
    contractions. ``program`` is one prebuilt by ``NestedModel`` for a
    plan row, else one is built here from the other arguments.
    ``bn_stats`` optionally overrides batchnorm running statistics: dict
    layer index -> (mean, var) full-width arrays.
    """
    if program is None:
        program = _build_program(g, slicing, bn_stats)
    x = _check_input(g.input_shape, np.array(x, dtype=np.float32))
    return _run_steps(program, x), program.macs


def forward(g: ModelGraph, x, slicing=None, bn_stats=None, count_macs=False):
    """Class logits for a batch; optionally also the per-sample MAC count."""
    logits, macs = run_forward(g, x, slicing=slicing, bn_stats=bn_stats)
    return (logits, macs) if count_macs else logits


def truncate(g: ModelGraph, slicing) -> ModelGraph:
    """Physically truncated copy of the model at the given widths.

    Test oracle: sliced forward must equal the forward of this copy. Each
    sliceable layer keeps its leading units by the gathers that permute
    units (``_unit_gathers``).
    """
    act = resolve_widths(g, slicing)
    keep = {l: np.arange(act[l]) for l in g.sliceable_indices()}
    out = _gathered_copy(g, _unit_gathers(g, keep))
    for spec, u in zip(out.layers, act):
        if _kind(spec).params:
            spec.units = int(u)
    validate_graph(out)
    return out


def _masked_copy(g: ModelGraph, slicing) -> ModelGraph:
    """Full-width copy of g with zeros where ``_unit_gathers`` would index
    the units past their widths in ``slicing``: the binary-mask baseline
    of that row is the copy's full program."""
    act = resolve_widths(g, slicing)
    drop = {l: np.arange(act[l], g.layers[l].units)
            for l in g.sliceable_indices()}
    out = g.copy()
    for l, nm, axis, p, n in _unit_gathers(out, drop):
        a = out.weights[l][nm]  # C-contiguous, so ``split`` is a view
        split = a.reshape(a.shape[:axis] + (-1, n) + a.shape[axis + 1:])
        np.moveaxis(split, axis + 1, 0)[p] = 0  # as ``_gather`` splits
    return out


# -- manifest ----------------------------------------------------------------


def save_manifest(g: ModelGraph, out_dir, name="model") -> str:
    """Write the JSON manifest plus one weight blob file per layer."""
    os.makedirs(out_dir, exist_ok=True)
    layer_entries = []
    for i, spec in enumerate(g.layers):
        entry = spec.to_json()
        if g.weights[i] is not None:
            rel = f"{name}_layer{i:02d}.bin"
            with open(os.path.join(out_dir, rel), "wb") as fh:
                for nm in _kind(spec).params:
                    write_blob(g.weights[i][nm], fh)
            entry["weights_file"] = rel
        else:
            entry["weights_file"] = None
        layer_entries.append(entry)
    doc = {
        "input_shape": (g.input_shape if np.isscalar(g.input_shape)
                        else list(g.input_shape)),
        "encoder_end": g.encoder_end,
        "transposed_dense": sorted(g.transposed_dense),
        "layers": layer_entries,
    }
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    return path


def load_manifest(path) -> ModelGraph:
    """Model from a manifest written by ``save_manifest``.

    IntegrityError if the manifest lacks ``layers``, ``input_shape`` or
    ``encoder_end``, holds a malformed value or layer, a layer of unknown
    kind or a ``weights_file`` that is not a string, or if a weight
    file's tensor count is wrong.
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        entries = list(doc["layers"])
        ishape = doc["input_shape"]
        ishape = (operator.index(ishape) if np.isscalar(ishape)
                  else tuple(operator.index(v) for v in ishape))
        encoder_end = operator.index(doc["encoder_end"])
        transposed = {operator.index(i)
                      for i in doc.get("transposed_dense", [])}
    except (KeyError, TypeError, ValueError) as e:
        raise IntegrityError(f"malformed model manifest: {e!r}") from e
    base = os.path.dirname(path)
    layers = []
    weights = []
    for entry in entries:
        spec = LayerSpec.from_json(entry)
        if spec.kind not in _KINDS:
            raise IntegrityError(
                f"layer {len(layers)} has unknown kind {spec.kind!r}")
        layers.append(spec)
        rel = entry.get("weights_file")
        if rel is None:
            weights.append(None)
            continue
        if not isinstance(rel, str):
            raise IntegrityError(
                f"layer {len(layers) - 1} has weights_file {rel!r}, "
                f"not a file name")
        with open(os.path.join(base, rel), "rb") as fh:
            blobs = read_blobs(fh)
        names = _kind(spec).params
        if len(blobs) != len(names):
            raise IntegrityError(
                f"weight file {rel} holds {len(blobs)} tensors, "
                f"expected {len(names)}"
            )
        weights.append(dict(zip(names, blobs)))
    g = ModelGraph(layers=layers, weights=weights, input_shape=ishape,
                   encoder_end=encoder_end, transposed_dense=transposed)
    validate_graph(g)
    return g
