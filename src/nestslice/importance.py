"""Per-unit importance scores and the descending-importance permutation.

A unit's score is the grouped sum, over the weights that vanish with the
unit, of |accumulated gradient x weight value|. The weight set of a unit
covers its fan-in weights, its bias, and the scale/shift of an attached
batchnorm layer.

Reordering same-layer units is function-preserving when every adjacent
weight structure is reindexed consistently: the unit axis of the layer
itself, of its attached batchnorm, and of the depthwise layer (with its
batchnorm) bound to its channels, and the input-channel axis of the next
kernel that reads it (grouped per position for a dense layer after a
flatten). Which axis each of these is comes from the layer-kind records
in ``netgraph`` (``_unit_axes``, ``_unit_gathers``).
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


def _layer_unit_scores(g, grads, i):
    """Vector of per-unit scores for compute layer i: |g * w| summed over
    every axis but the unit axis, for each learnable parameter of the
    layer and of its attached batchnorm."""
    per = 0.0
    for j in (i, g.attached_batchnorm(i)):
        if j is None:
            continue
        for nm, axis in ng._unit_axes(g, j):
            if (j, nm) not in grads:
                continue  # running statistics carry no gradients
            w = g.weights[j][nm].array.astype(np.float64)
            rest = tuple(a for a in range(w.ndim) if a != axis)
            per = per + np.abs(grads[(j, nm)] * w).sum(axis=rest)
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


def _permutation_ops(g: ng.ModelGraph, perm: Permutation) -> list:
    """The gathers the permutation performs (``netgraph._unit_gathers``);
    sharing this list lets weight tensors and weight-shaped arrays
    (gradient sums) be permuted identically."""
    for l, p in perm.maps.items():
        if len(p) != g.layers[l].units:
            raise IntegrityError(
                f"permutation for layer {l} has {len(p)} entries, "
                f"layer has {g.layers[l].units} units"
            )
    return ng._unit_gathers(g, perm.maps)


def apply_permutation(g: ng.ModelGraph, perm: Permutation) -> ng.ModelGraph:
    """Reindex weights so the network function is unchanged."""
    out = g.copy()
    for l, name, axis, p, n in _permutation_ops(g, perm):
        arr = ng._gather(out.weights[l][name].array, axis, p, n)
        out.weights[l][name] = Tensor.from_array(arr)
    return out


def permute_grad_store(g_new: ng.ModelGraph, perm: Permutation,
                       grad_store):
    """Gradient store reindexed like the weights, losslessly in float64."""
    from .autograd import GradStore

    out = GradStore(g_new)
    for key, arr in grad_store.grads.items():
        out.grads[key] = np.array(arr)
    for l, name, axis, p, n in _permutation_ops(g_new, perm):
        if (l, name) not in out.grads:
            continue  # running statistics carry no gradients
        out.grads[(l, name)] = ng._gather(out.grads[(l, name)], axis, p, n)
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
        elif ng._kind(g.layers[l]).bound:
            src = g.prev_compute_layer(l)
            p = perm.maps.get(src, np.arange(len(lst)))
        else:
            p = np.arange(len(lst))
        for new_u, old_u in enumerate(p):
            s = lst[int(old_u)]
            out.append(UnitScore(l, new_u, s.importance, s.macs))
    return out
