"""Per-unit importance scores and the descending-importance permutation.

Both are per-layer arrays. Scores are ``{layer: float64 array}``, one
entry per unit. A permutation is ``{layer: order}`` over the sliceable
layers, with ``order[new_position] = old_index``; applying it gathers
weights with each order array, and layers without an entry keep their
order.

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

import numpy as np

from . import netgraph as ng
from .errors import IntegrityError


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
            w = g.weights[j][nm].astype(np.float64)
            rest = tuple(a for a in range(w.ndim) if a != axis)
            per = per + np.abs(grads[(j, nm)] * w).sum(axis=rest)
    return per


def score_units(g: ng.ModelGraph, grad_store) -> dict:
    """``{layer: per-unit scores}`` for every encoder compute layer
    (including depthwise layers), in ``encoder_indices`` order.

    Depthwise filters are not independently sliceable but their scores are
    needed by the depthwise planner formulation.
    """
    grads = grad_store.grads
    for (i, name), arr in grads.items():
        if arr.shape != g.weights[i][name].shape:
            raise IntegrityError(
                f"gradient/weight shape mismatch at layer {i} {name}"
            )
    out = {}
    for i in g.encoder_indices():
        out[i] = _layer_unit_scores(g, grads, i)
        if not np.all(np.isfinite(out[i])):
            raise IntegrityError(f"non-finite importance in layer {i}")
    return out


def pointwise_kernel_scores(g: ng.ModelGraph, grad_store, layer: int):
    """Per-kernel |g*w| matrix (filters x input channels) for a pointwise layer."""
    spec = g.layers[layer]
    if spec.kind != ng.POINTWISE:
        raise IntegrityError(f"layer {layer} is not pointwise")
    gk = grad_store.grads[(layer, "kernel")][:, 0, 0, :]
    karr = g.weights[layer]["kernel"].astype(np.float64)[:, 0, 0, :]
    return np.abs(gk * karr)


def export_scores_csv(g: ng.ModelGraph, scores, path) -> None:
    """One row per unit: layer, unit, importance and the unit's MACs."""
    macs = ng.unit_macs(g)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["layer", "unit", "importance", "macs"])
        for l, vals in scores.items():
            for u, v in enumerate(vals):
                wr.writerow([l, u, repr(float(v)), macs[l]])


# -- permutation -------------------------------------------------------------


def _permutation_ops(g: ng.ModelGraph, perm: dict) -> list:
    """The gathers the permutation performs (``netgraph._unit_gathers``);
    sharing this list lets weight tensors and weight-shaped arrays
    (gradient sums) be permuted identically."""
    for l, p in perm.items():
        if len(p) != g.layers[l].units:
            raise IntegrityError(
                f"permutation for layer {l} has {len(p)} entries, "
                f"layer has {g.layers[l].units} units"
            )
    return ng._unit_gathers(g, perm)


def apply_permutation(g: ng.ModelGraph, perm: dict) -> ng.ModelGraph:
    """Reindex weights so the network function is unchanged."""
    return ng._gathered_copy(g, _permutation_ops(g, perm))


def permute_grad_store(g_new: ng.ModelGraph, perm: dict, grad_store):
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
    sliceable = g.sliceable_indices()
    missing = {l for l in sliceable if l not in scores}
    if missing:
        raise IntegrityError(f"scores missing for sliceable layers {missing}")
    perm = {}
    for l in sliceable:
        if len(scores[l]) != g.layers[l].units:
            raise IntegrityError(
                f"layer {l}: {len(scores[l])} scores for "
                f"{g.layers[l].units} units"
            )
        perm[l] = np.argsort(-scores[l], kind="stable")
    return apply_permutation(g, perm), perm


def apply_to_scores(g: ng.ModelGraph, perm: dict, scores) -> dict:
    """Scores of the permuted model, in the new unit order.

    Depthwise layers follow the permutation of the layer feeding them.
    """
    out = {}
    for l, vals in scores.items():
        src = l
        if l not in perm and ng._kind(g.layers[l]).bound:
            src = g.prev_compute_layer(l)
        out[l] = vals[perm[src]] if src in perm else vals
    return out
