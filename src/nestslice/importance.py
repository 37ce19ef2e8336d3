"""Per-unit importance scores and the descending-importance permutation.

A unit's score is the grouped sum, over the weights that vanish with the
unit, of |accumulated gradient x weight value|. The weight set of a unit
covers its fan-in weights, its bias, and the scale/shift of an attached
batchnorm layer.

Reordering same-layer units is function-preserving when every adjacent
weight structure is reindexed consistently: the unit axis of the layer
itself, attached batchnorm parameters, and the input axis of the next
compute layer (rows for dense, channel axis for convolutions, grouped
rows for dense-after-flatten). Depthwise layers are never permuted
independently: a depthwise filter is bound to its input channel, so they
inherit the permutation of the preceding layer together with the kernel
axis of the following pointwise layer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import netgraph as ng
from .errors import IntegrityError
from .tensor import Tensor


@dataclass
class UnitScore:
    layer: int
    unit: int
    importance: float
    macs: int


def pair_score(pairs) -> float:
    """Sum of |g * w| over (gradient, weight) pairs; the per-unit rule."""
    return float(sum(abs(g * w) for g, w in pairs))


def _layer_unit_scores(g, grads, i):
    """Vector of per-unit scores for compute layer i."""
    spec = g.layers[i]
    w = g.weights[i]
    gk = grads[(i, "kernel")]
    gb = grads[(i, "bias")]
    karr = w["kernel"].array.astype(np.float64)
    if spec.kind == ng.DENSE:
        if i in g.transposed_dense:
            per = np.abs(gk * karr).sum(axis=1)
        else:
            per = np.abs(gk * karr).sum(axis=0)
    elif spec.kind == ng.CONV2D:
        per = np.abs(gk * karr).sum(axis=(1, 2, 3))
    elif spec.kind == ng.DEPTHWISE:
        per = np.abs(gk * karr).sum(axis=(1, 2))
    elif spec.kind == ng.POINTWISE:
        per = np.abs(gk * karr).sum(axis=(1, 2, 3))
    else:
        raise IntegrityError(f"layer {i} has no unit scores")
    per = per + np.abs(gb * w["bias"].array.astype(np.float64))
    bn = g.attached_batchnorm(i)
    if bn is not None:
        for nm in ("gamma", "beta"):
            per = per + np.abs(
                grads[(bn, nm)] * g.weights[bn][nm].array.astype(np.float64)
            )
    return per


def score_units(g: ng.ModelGraph, grad_store) -> list:
    """One UnitScore per encoder compute unit (including depthwise filters).

    Depthwise filters are not independently sliceable but their scores are
    needed by the depthwise planner formulation.
    """
    grads = grad_store.grads
    for (i, name), arr in grads.items():
        if arr.shape != g.weights[i][name].shape:
            raise IntegrityError(
                f"gradient/weight shape mismatch at layer {i} {name}"
            )
    costs = {(c.layer, c.unit): c.macs for c in ng.unit_macs(g)}
    out = []
    for i in g.encoder_indices():
        per = _layer_unit_scores(g, grads, i)
        if not np.all(np.isfinite(per)):
            raise IntegrityError(f"non-finite importance in layer {i}")
        out.extend(
            UnitScore(i, u, float(per[u]), costs[(i, u)])
            for u in range(g.layers[i].units)
        )
    return out


def pointwise_kernel_scores(g: ng.ModelGraph, grad_store, layer: int):
    """Per-kernel |g*w| matrix (filters x input channels) for a pointwise layer."""
    spec = g.layers[layer]
    if spec.kind != ng.POINTWISE:
        raise IntegrityError(f"layer {layer} is not pointwise")
    gk = grad_store.grads[(layer, "kernel")][:, 0, 0, :]
    karr = g.weights[layer]["kernel"].array.astype(np.float64)[:, 0, 0, :]
    return np.abs(gk * karr)


def scores_by_layer(scores) -> dict:
    by = {}
    for s in scores:
        by.setdefault(s.layer, []).append(s)
    for lst in by.values():
        lst.sort(key=lambda s: s.unit)
    return by


def export_scores_csv(scores, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["layer", "unit", "importance", "macs"])
        for s in scores:
            wr.writerow([s.layer, s.unit, repr(s.importance), s.macs])


# -- permutation -------------------------------------------------------------


@dataclass
class Permutation:
    """Per-layer unit reordering; identity on non-sliceable layers.

    ``maps[layer][new_position] = old_index``; applying the permutation
    gathers weights with this order array.
    """

    maps: dict

    def inverse(self) -> "Permutation":
        return Permutation({l: np.argsort(p) for l, p in self.maps.items()})

    def is_identity(self) -> bool:
        return all(np.array_equal(p, np.arange(len(p)))
                   for p in self.maps.values())


def _permutation_ops(g: ng.ModelGraph, perm: Permutation) -> list:
    """Flat list of reindex operations the permutation performs.

    Each entry is (layer, param, op, payload): op 'take' gathers along an
    axis, op 'spatial' regroups the channel axis of a dense kernel that
    follows a flatten. Operations touch independent axes, so their order
    does not matter; sharing this list lets weight tensors and
    weight-shaped arrays (gradient sums) be permuted identically.
    """
    ops = []
    for l in sorted(perm.maps):
        p = np.asarray(perm.maps[l], dtype=np.int64)
        spec = g.layers[l]
        if len(p) != spec.units:
            raise IntegrityError(
                f"permutation for layer {l} has {len(p)} entries, "
                f"layer has {spec.units} units"
            )
        if spec.kind == ng.DENSE:
            axis = 0 if l in g.transposed_dense else 1
            ops.append((l, "kernel", "take", (axis, p)))
        else:
            ops.append((l, "kernel", "take", (0, p)))
        ops.append((l, "bias", "take", (0, p)))
        bn = g.attached_batchnorm(l)
        if bn is not None:
            for nm in ("gamma", "beta", "mean", "var"):
                ops.append((bn, nm, "take", (0, p)))
        # the consumer's input axis
        nxt = g.next_compute_layer(l)
        if nxt is None:
            continue
        nspec = g.layers[nxt]
        if nspec.kind == ng.DEPTHWISE:
            # bound to input channels: same permutation for its filters,
            # its batchnorm, and the following pointwise kernel axis
            ops.append((nxt, "kernel", "take", (0, p)))
            ops.append((nxt, "bias", "take", (0, p)))
            bn2 = g.attached_batchnorm(nxt)
            if bn2 is not None:
                for nm in ("gamma", "beta", "mean", "var"):
                    ops.append((bn2, nm, "take", (0, p)))
            after = g.next_compute_layer(nxt)
            if after is not None:
                if g.layers[after].kind != ng.POINTWISE:
                    raise IntegrityError(
                        "depthwise layer must feed a pointwise layer"
                    )
                ops.append((after, "kernel", "take", (3, p)))
        elif nspec.kind in (ng.CONV2D, ng.POINTWISE):
            ops.append((nxt, "kernel", "take", (3, p)))
        elif nspec.kind == ng.DENSE:
            feed, info = ng.dense_feed_structure(g, nxt)
            if feed == "spatial":
                ops.append((nxt, "kernel", "spatial",
                            (info, p, nxt in g.transposed_dense,
                             nspec.units)))
            else:
                axis = 1 if nxt in g.transposed_dense else 0
                ops.append((nxt, "kernel", "take", (axis, p)))
    return ops


def _apply_op(arr: np.ndarray, op: str, payload) -> np.ndarray:
    if op == "take":
        axis, p = payload
        return np.take(arr, p, axis=axis)
    (h, w, cfull), p, transposed, units = payload
    k = arr.T if transposed else arr
    k = k.reshape(h * w, cfull, units)[:, p, :].reshape(h * w * cfull, units)
    return k.T if transposed else k


def apply_permutation(g: ng.ModelGraph, perm: Permutation) -> ng.ModelGraph:
    """Reindex weights so the network function is unchanged."""
    out = g.copy()
    for l, name, op, payload in _permutation_ops(g, perm):
        arr = _apply_op(out.weights[l][name].array, op, payload)
        out.weights[l][name] = Tensor.from_array(arr)
    return out


def permute_grad_store(g_new: ng.ModelGraph, perm: Permutation,
                       grad_store):
    """Gradient store reindexed like the weights, losslessly in float64."""
    from .autograd import GradStore

    out = GradStore(g_new)
    for key, arr in grad_store.grads.items():
        out.grads[key] = np.array(arr)
    for l, name, op, payload in _permutation_ops(g_new, perm):
        if (l, name) not in out.grads:
            continue  # running statistics carry no gradients
        out.grads[(l, name)] = _apply_op(out.grads[(l, name)], op, payload)
    out.minibatch_count = grad_store.minibatch_count
    return out


def permute_descending(g: ng.ModelGraph, scores):
    """Sort each sliceable layer's units by descending importance.

    Ties break by original index (stable). Returns the permuted graph and
    the permutation; the network function is unchanged.
    """
    by_layer = scores_by_layer(scores)
    sliceable = set(g.sliceable_indices())
    covered = {l for l in by_layer if l in sliceable}
    missing = sliceable - covered
    if missing:
        raise IntegrityError(f"scores missing for sliceable layers {missing}")
    maps = {}
    for l in sorted(covered):
        lst = by_layer[l]
        if len(lst) != g.layers[l].units:
            raise IntegrityError(
                f"layer {l}: {len(lst)} scores for {g.layers[l].units} units"
            )
        imp = np.array([s.importance for s in lst])
        maps[l] = np.argsort(-imp, kind="stable")
    perm = Permutation(maps)
    return apply_permutation(g, perm), perm


def apply_to_scores(g: ng.ModelGraph, perm: Permutation, scores) -> list:
    """Scores of the permuted model, in the new unit order.

    Depthwise layers follow the permutation of the layer feeding them.
    """
    by_layer = scores_by_layer(scores)
    out = []
    for l, lst in sorted(by_layer.items()):
        if l in perm.maps:
            p = perm.maps[l]
        elif g.layers[l].kind == ng.DEPTHWISE:
            src = g.prev_compute_layer(l)
            p = perm.maps.get(src, np.arange(len(lst)))
        else:
            p = np.arange(len(lst))
        for new_u, old_u in enumerate(p):
            s = lst[int(old_u)]
            out.append(UnitScore(l, new_u, s.importance, s.macs))
    return out
