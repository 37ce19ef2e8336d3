"""Runtime for a family of nested subnetworks over one weight store.

One permuted graph plus a slicing plan describes every subnetwork: the
active weights of a smaller row are a leading slice of the larger row's,
so no weights are ever duplicated. A row is configured by one integer
width per sliceable layer (plus a flag bit per cache-optimized layer),
and switching the active subnetwork copies zero weight elements.
``activate`` asserts the latter through ``tensor.copy_counter``, which
counts every element ``tensor.store`` makes, the one path that makes
weights.

Batchnorm running statistics are the one width-dependent quantity, so
they are kept per plan row (learnable scale/shift stay shared and
sliced); by default each row starts from a ``store`` copy of the graph's
own. Training treats them as constants.

Each plan row is resolved once, at construction, into a row program:
float32 read-only views of the shared store and of the row's batchnorm
statistics, plus the widths and dims they need. ``activate`` points at
one; ``infer`` runs it. The views stay live through in-place training
updates, and no program holds a copy of any weight.

The cache-optimized layout stores dense kernels transposed so each
neuron's weights are contiguous; inference then uses the flipped multiply
order. The binary-mask baseline (``masked_infer``) runs the full-width
computation with zeroed inactive units: same numbers, full-model multiply
count.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import netgraph as ng
from . import tensor as tz
from .errors import ConfigError, ExtentError, IntegrityError
from .planner import SlicingPlan

STANDARD = "standard"
CACHE_OPTIMIZED = "cache_optimized"
# the keys save_bundle writes to bundle.json
BUNDLE_KEYS = frozenset({"layout", "active", "bn_layers", "n_rows"})


@dataclass
class SwitchStats:
    integers_updated: int
    weights_copied: int
    elapsed: float


class NestedModel:
    """One shared weight store, a plan, and an active-row register."""

    def __init__(self, graph: ng.ModelGraph, plan: SlicingPlan,
                 layout: str = STANDARD, bn_stats=None):
        """``bn_stats``: per-row statistics (as ``save_bundle`` writes
        them); by default every row starts from the graph's own."""
        if layout not in (STANDARD, CACHE_OPTIMIZED):
            raise ConfigError(f"unknown layout {layout!r}")
        plan.validate(graph)
        self.plan = plan
        self.layout = layout
        if layout == CACHE_OPTIMIZED:
            graph = _transpose_dense_store(graph)
        _check_layout(graph, layout)
        self.graph = graph
        bn_layers = _bn_layers(graph)
        if bn_stats is None:
            bn_stats = [
                {i: (tz.store(graph.weights[i]["mean"]),
                     tz.store(graph.weights[i]["var"]))
                 for i in bn_layers}
                for _ in range(plan.n_rows)
            ]
        _check_bn_stats(graph, plan.n_rows, bn_layers, bn_stats)
        # per-row batchnorm running statistics, full-width float32 arrays
        # (float32 end to end so bundles round-trip bit-exactly)
        self.bn_stats = bn_stats
        self._programs = [
            ng._build_program(graph, plan.row_widths(k), bn_stats[k])
            for k in range(plan.n_rows)
        ]
        self.active = 0

    # -- switching -------------------------------------------------------

    def activate(self, k: int) -> SwitchStats:
        """Point subsequent inference at plan row k; O(layers) integers."""
        if not (0 <= k < self.plan.n_rows):
            raise ExtentError(
                f"row {k} out of range (plan has {self.plan.n_rows} rows)"
            )
        copies_before = tz.copy_counter()
        t0 = time.perf_counter()
        integers = len(self.plan.row_widths(k))
        self.active = k  # infer runs program k from here on
        if self.layout == CACHE_OPTIMIZED:
            integers += len(self.graph.transposed_dense)  # flag bits
        elapsed = time.perf_counter() - t0
        copied = tz.copy_counter() - copies_before
        if copied != 0:
            raise IntegrityError(f"activate copied {copied} weight elements")
        return SwitchStats(integers, copied, elapsed)

    # -- inference -------------------------------------------------------

    def infer(self, x, count_macs=False):
        """Float32 logits of the active subnetwork (its row program)."""
        logits, macs = ng.run_forward(self.graph, x,
                                      program=self._programs[self.active])
        return (logits, macs) if count_macs else logits

    def masked_infer(self, k: int, x, count_macs=False):
        """Full-width forward of row k with binary masks on layer inputs."""
        if not (0 <= k < self.plan.n_rows):
            raise ExtentError(f"row {k} out of range")
        logits, macs = ng.run_forward(
            self.graph, x, mask_widths=self.plan.row_widths(k),
            bn_stats=self.bn_stats[k])
        return (logits, macs) if count_macs else logits


def _bn_layers(g: ng.ModelGraph) -> list:
    return [i for i, l in enumerate(g.layers) if l.kind == ng.BATCHNORM]


def _check_layout(g: ng.ModelGraph, layout: str) -> None:
    """cache_optimized: every dense kernel stored transposed; standard:
    none."""
    dense = {i for i, l in enumerate(g.layers) if l.kind == ng.DENSE}
    want = dense if layout == CACHE_OPTIMIZED else set()
    if layout not in (STANDARD, CACHE_OPTIMIZED) or g.transposed_dense != want:
        raise IntegrityError(
            f"layout {layout!r} does not match the transposed dense layers "
            f"{sorted(g.transposed_dense)} of {sorted(dense)}")


def _check_bn_stats(g: ng.ModelGraph, n_rows: int, bn_layers: list,
                    bn_stats: list) -> None:
    if len(bn_stats) != n_rows:
        raise IntegrityError(
            f"{len(bn_stats)} rows of batchnorm statistics for {n_rows} "
            f"plan rows")
    for row in bn_stats:
        if sorted(row) != bn_layers:
            raise IntegrityError(
                f"batchnorm statistics for layers {sorted(row)}, graph has "
                f"batchnorm layers {bn_layers}")
        for i in bn_layers:
            for a in row[i]:
                if a.dtype != np.float32 or a.shape != (g.layers[i].units,):
                    raise IntegrityError(
                        f"batchnorm statistics of layer {i}: {a.dtype} "
                        f"{a.shape}, want float32 ({g.layers[i].units},)")


def _transpose_dense_store(g: ng.ModelGraph) -> ng.ModelGraph:
    """Store dense kernels transposed (units x fan_in), flagged per layer.

    One-time conversion: afterwards each neuron's weights are contiguous
    and inference uses the flipped multiply order. A graph whose dense
    kernels are all transposed already is returned as it is.
    """
    if all(i in g.transposed_dense for i, l in enumerate(g.layers)
           if l.kind == ng.DENSE):
        return g
    out = g.copy()
    for i, spec in enumerate(out.layers):
        if spec.kind != ng.DENSE or i in out.transposed_dense:
            continue
        out.weights[i]["kernel"] = tz.transpose(out.weights[i]["kernel"])
        out.transposed_dense.add(i)
    ng.validate_graph(out)
    return out


# -- bundle serialization ------------------------------------------------------


def save_bundle(model: NestedModel, out_dir) -> str:
    """Write manifest + weights + plan + per-row batchnorm statistics."""
    os.makedirs(out_dir, exist_ok=True)
    ng.save_manifest(model.graph, out_dir, name="model")
    model.plan.save(os.path.join(out_dir, "plan.json"))
    bn_layers = sorted(model.bn_stats[0]) if model.bn_stats else []
    with open(os.path.join(out_dir, "bn_stats.bin"), "wb") as fh:
        for k in range(model.plan.n_rows):
            for i in bn_layers:
                mean, var = model.bn_stats[k][i]
                tz.write_blob(mean, fh)
                tz.write_blob(var, fh)
    meta = {
        "layout": model.layout,
        "active": model.active,
        "bn_layers": bn_layers,
        "n_rows": model.plan.n_rows,
    }
    with open(os.path.join(out_dir, "bundle.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True, separators=(",", ":"))
    return out_dir


def load_bundle(bundle_dir) -> NestedModel:
    """Read a bundle written by ``save_bundle``, validating what it reads.

    The model is built by ``NestedModel.__init__``, like a fresh one. An
    inconsistent bundle raises IntegrityError: a plan that fails
    ``plan.validate``, a layout flag that disagrees with the transposed
    dense layers, batchnorm layers that differ from the graph's, or a
    statistics blob count other than rows x batchnorm layers x 2. So does
    a bundle file that is missing or unreadable, JSON that does not
    decode or parse, a blob of unknown memory order, or a ``bundle.json``
    that is not an object holding every key in BUNDLE_KEYS, or whose
    ``n_rows``, ``active`` or ``bn_layers`` entries are not integers.
    """
    try:
        with open(os.path.join(bundle_dir, "bundle.json")) as fh:
            meta = json.load(fh)
        graph = ng.load_manifest(os.path.join(bundle_dir, "model.json"))
        plan = SlicingPlan.load(os.path.join(bundle_dir, "plan.json"))
        with open(os.path.join(bundle_dir, "bn_stats.bin"), "rb") as fh:
            blobs = tz.read_blobs(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IntegrityError(f"cannot read bundle {bundle_dir}: {e}") from e
    if not isinstance(meta, dict):
        raise IntegrityError("bundle.json does not hold an object")
    missing = sorted(BUNDLE_KEYS - set(meta))
    if missing:
        raise IntegrityError(f"bundle.json lacks {', '.join(missing)}")
    layout = meta["layout"]
    _check_layout(graph, layout)
    try:
        bn_layers = [int(i) for i in meta["bn_layers"]]
        n_rows = int(meta["n_rows"])
        active = int(meta["active"])
    except (TypeError, ValueError) as e:
        raise IntegrityError(
            f"bundle.json holds a malformed value: {e}") from e
    if bn_layers != _bn_layers(graph):
        raise IntegrityError(
            f"bundle lists batchnorm layers {bn_layers}, graph has "
            f"{_bn_layers(graph)}")
    if n_rows != plan.n_rows or not 0 <= active < n_rows:
        raise IntegrityError(
            f"bundle has {n_rows} rows (active {active}), plan has "
            f"{plan.n_rows}")
    if len(blobs) != n_rows * len(bn_layers) * 2:
        raise IntegrityError(
            f"bn_stats.bin holds {len(blobs)} blobs, want {n_rows} rows x "
            f"{len(bn_layers)} layers x 2")
    stats = iter(blobs)
    bn_stats = [{i: (next(stats), next(stats)) for i in bn_layers}
                for _ in range(n_rows)]
    model = NestedModel(graph, plan, layout, bn_stats=bn_stats)
    model.activate(active)
    return model
