"""Reverse-mode differentiation for the fixed layer vocabulary.

This is not a general tape autodiff. ``backward`` runs the same row
program as inference (``netgraph._build_program``), keeping each layer's
input except the batchnorm outputs: walking the steps in reverse, it
rebuilds one of those by replaying its batchnorm step, and drops each
kept input once the last rule that reads it has run. Each step carries
its kernel's hand-written backward rule (they live beside the kernels in
``netgraph``), and the program's per-layer view mapping puts the weight
gradients back into full-shape arrays.
That is enough to (a) accumulate the gradient sums used for importance
scoring and (b) run (joint) fine-tuning.

Each minibatch runs as two fixed halves, the first ``ceil(n/2)`` samples
on the calling thread and the rest on one worker thread started per
call, so training uses two cores. Each half normalises its loss by the
whole batch, and the halves' float64 gradient sums and losses are added
first half plus second half. The split is the same on every host,
whatever its CPU count, so results do not depend on it; they differ from
an unsplit reduction only at float rounding level.

Precision is split as in mixed-precision training: activations and the
backward rules run in float32, the precision of the weight store, while
the softmax/loss reduction and every gradient sum (the full-shape
gradient buffers, ``GradStore``, Adam's moments, the pi-weighted joint
totals) are float64. ``backward(..., dtype=np.float64)`` runs the whole
pass in float64; only the gradient checks use it.

Batchnorm running statistics are treated as constants (inference-mode
statistics), which matches scoring and tuning of an already-trained
model. With slicing active, weights outside the active slice receive an
exactly-zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import netgraph as ng
from .errors import ConfigError, DataError, NumericError, ShapeMismatchError


def _one_hot(labels, classes):
    labels = np.asarray(labels)
    if labels.ndim == 2:  # already one-hot
        return labels.astype(np.float64)
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
    return out


def _loss_and_dlogits(logits, labels, loss, n):
    """Loss value and its logit gradient, both in float64, normalised by
    a batch of ``n`` samples (``logits`` may hold a part of it)."""
    logits = logits.astype(np.float64, copy=False)
    if loss == "ce":
        y = _one_hot(labels, logits.shape[1])
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        value = float(-(y * logp).sum() / n)
        dlogits = (np.exp(logp) - y) / n
    elif loss == "half_sse":
        # test hook: 0.5 * mean squared error against raw target vectors
        t = np.asarray(labels, dtype=np.float64).reshape(logits.shape)
        diff = logits - t
        value = float(0.5 * (diff * diff).sum() / n)
        dlogits = diff / n
    else:
        raise ShapeMismatchError(f"unknown loss {loss!r}")
    return value, dlogits


class GradStore:
    """Accumulated gradient sums, one array per weight tensor.

    Keys are (layer_index, param_name); shapes mirror the model weights
    exactly. Accumulation is additive across minibatches; ``reset``
    zeroes all entries and the counter.
    """

    def __init__(self, g: ng.ModelGraph):
        self.grads = {}
        for i, params in enumerate(g.weights):
            if params is None:
                continue
            stats = ng._kind(g.layers[i]).stats  # not learnable
            for name, a in params.items():
                if name not in stats:
                    self.grads[(i, name)] = np.zeros(a.shape,
                                                     dtype=np.float64)
        self.minibatch_count = 0

    def add(self, delta: dict) -> None:
        for key, arr in delta.items():
            self.grads[key] += arr
        self.minibatch_count += 1

    def reset(self) -> None:
        for arr in self.grads.values():
            arr[...] = 0.0
        self.minibatch_count = 0


def backward(g: ng.ModelGraph, batch, slicing=None, loss="ce", bn_stats=None,
             dtype=np.float32):
    """Gradients of the mean loss over one minibatch.

    batch: (inputs, labels), one label, one-hot row or target row per
    input sample. Returns (loss_value, grads) where grads maps
    (layer, param) to a full-shape float64 array; sliced-off weights get
    exactly zero. Activations and the backward rules run in ``dtype``:
    float32 for training, float64 only for gradient checks. The loss and
    its logit gradient are reduced in float64 either way.

    The batch of n samples runs as two fixed halves, the first
    ``ceil(n/2)`` samples on the calling thread and the rest on one
    worker thread started for this call; a 1-sample batch runs unsplit.
    Both halves read one row program and one checked copy of the inputs,
    both made here, and each normalises its loss by the whole n, so every
    per-sample activation and input gradient is the one an unsplit pass
    computes. Only the batch reductions change order: the weight
    gradients and the loss are summed within each half, then first half
    plus second half. The split never depends on the host's CPU count, so
    the results do not either; they differ from an unsplit reduction at
    float rounding level.

    Within a half, the forward keeps the layer inputs but not the
    batchnorm outputs (``netgraph._run_steps``). Walking the steps in
    reverse, a missing input is rebuilt by replaying the batchnorm step
    before it on a copy of that step's input, which repeats the forward's
    float operations; each input is dropped once the relu mask of the
    step before it has read it.
    """
    x, labels = batch
    if len(np.asarray(labels).reshape(-1)) == 0:
        raise DataError("empty minibatch")
    prog = ng._build_program(g, slicing, bn_stats)
    x = ng._check_input(g.input_shape, np.array(x, dtype=dtype))
    n = len(x)
    labels = np.asarray(labels)
    if labels.shape[:1] != (n,):  # the halves split labels with the inputs
        raise ShapeMismatchError(
            f"labels of shape {labels.shape} for {n} samples")
    args = (g, prog, loss, n, dtype)
    if n == 1:
        return _backward_half(x, labels, *args)
    h = (n + 1) // 2
    # imported here: concurrent.futures pulls in logging, which the
    # inference-only users of this module never need
    from concurrent.futures import ThreadPoolExecutor

    # the worker calls private helpers only, so no public function runs on
    # two threads at once
    with ThreadPoolExecutor(max_workers=1) as pool:
        second = pool.submit(_backward_half, x[h:], labels[h:], *args)
        try:
            value, grads = _backward_half(x[:h], labels[:h], *args)
        finally:  # read the worker's result (or error) whatever happened
            value2, grads2 = second.result()
    value += value2
    for key, buf in grads.items():
        buf += grads2[key]
    return value, grads


def _backward_half(x, labels, g, prog, loss, n, dtype):
    """Loss share and float64 gradient sums of the checked ``dtype``
    samples ``x``, with the loss normalised by the whole batch's ``n``."""
    inputs = []
    logits = ng._run_steps(prog, x, inputs)
    value, dlogits = _loss_and_dlogits(logits, labels, loss, n)
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss {value}; logits range "
                           f"[{np.min(logits)}, {np.max(logits)}]")

    grads = {}
    d = dlogits.astype(dtype)
    xin = logits
    for i in reversed(range(len(prog.steps))):
        step = prog.steps[i]
        if step.relu:  # xin still holds the next step's input: this output
            np.multiply(d, xin > 0, out=d)
        xin = inputs.pop()
        if xin is None:  # a batchnorm output
            xin = ng._apply_step(prog.steps[i - 1], inputs[-1].copy())
        d, dviews = step.back(d, xin, *step.args)
        # the step's view mapping, applied to zero buffers of the store's
        # shapes, puts each active gradient where its weight lives
        bufs = {name: np.zeros(a.shape)
                for name, a in (g.weights[i] or {}).items()}
        for view, dv in zip(step.views(bufs), dviews):
            if dv is not None:
                view[...] = dv
        stats = ng._kind(g.layers[i]).stats
        for name, buf in bufs.items():
            if name not in stats:
                grads[(i, name)] = buf
    return value, grads


def accumulate_importance_grads(g: ng.ModelGraph, stream,
                                n_batches: int = 100) -> GradStore:
    """Sum per-batch gradients over exactly ``n_batches`` minibatches."""
    store = GradStore(g)
    it = iter(stream)
    for b in range(n_batches):
        try:
            batch = next(it)
        except StopIteration:
            raise DataError(
                f"minibatch stream exhausted after {b} of {n_batches} batches"
            ) from None
        _, grads = backward(g, batch)
        store.add(grads)
    return store


def sgd_step(g: ng.ModelGraph, grads: dict, lr: float) -> None:
    """In-place SGD update on the active weights.

    Gradients produced under slicing are exactly zero outside the active
    slice, so a full-array update leaves inactive weights bit-identical.
    """
    if lr <= 0:
        raise ShapeMismatchError("learning rate must be positive")
    for (i, name), grad in grads.items():
        g.weights[i][name] -= (lr * grad).astype(np.float32)


class Adam:
    """Adam with the common defaults; meant for full-width pretraining.

    Moment state does not track slicing masks, so use SGD when alternating
    sliced updates must keep inactive weights untouched.
    """

    def __init__(self, g: ng.ModelGraph, beta1=0.9, beta2=0.999, eps=1e-7):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in GradStore(g).grads.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.m.items()}

    def step(self, g: ng.ModelGraph, grads: dict, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key, grad in grads.items():
            self.m[key] = b1 * self.m[key] + (1 - b1) * grad
            self.v[key] = b2 * self.v[key] + (1 - b2) * grad * grad
            mhat = self.m[key] / (1 - b1 ** self.t)
            vhat = self.v[key] / (1 - b2 ** self.t)
            i, name = key
            step = lr * mhat / (np.sqrt(vhat) + self.eps)
            g.weights[i][name] -= step.astype(np.float32)


@dataclass
class TrainConfig:
    """Training hyper-parameters.

    The learning-rate schedule is piecewise constant: a list of
    (step, rate) pairs with increasing steps; the rate of the last pair
    whose step is <= the global step applies.
    """

    batch_size: int = 100
    epochs: int = 10
    learning_rate_schedule: list = field(
        default_factory=lambda: [(0, 1e-3), (10_000, 1e-4)]
    )
    loss: str = "ce"

    def __post_init__(self):
        steps = [s for s, _ in self.learning_rate_schedule]
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if not steps or sorted(set(steps)) != steps:
            raise ConfigError("schedule steps must be given and increasing")
        if any(r <= 0 for _, r in self.learning_rate_schedule):
            raise ConfigError("learning rates must be positive")
        if self.loss not in ("ce", "half_sse"):
            raise ConfigError(f"unknown loss {self.loss!r}")

    def lr_at(self, step: int) -> float:
        rate = self.learning_rate_schedule[0][1]
        for s, r in self.learning_rate_schedule:
            if step >= s:
                rate = r
        return rate

    def to_json(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "learning_rate_schedule": [
                [int(s), float(r)] for s, r in self.learning_rate_schedule
            ],
            "loss": self.loss,
        }

    @classmethod
    def from_json(cls, d: dict) -> "TrainConfig":
        """Config from its JSON object; ConfigError if it is malformed."""
        kw = dict(d)
        try:
            if "learning_rate_schedule" in kw:
                kw["learning_rate_schedule"] = [
                    (int(s), float(r)) for s, r in kw["learning_rate_schedule"]
                ]
            return cls(**kw)
        except (TypeError, ValueError) as e:  # ConfigError is a ValueError
            raise ConfigError(str(e)) from e
