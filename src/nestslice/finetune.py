"""Joint fine-tuning of all plan rows with a weight-shared loss, and the
pretraining before it, both in one training loop (``_train``).

Every batch evaluates every subnetwork row; the total loss is the sum of
per-row cross-entropies weighted by pi_n, the fraction of encoder
weights the row keeps active (the 100% row has pi = 1, raw fractions are
not re-normalized). Gradients flow through each row's slice into the one
shared store and are reduced in a fixed row order so runs reproduce
bit-for-bit under a seed. Fine-tuning steps plain SGD, which leaves the
weights outside every row's slice untouched.

Pretraining (``train_single``) runs the same loop on one full-width row
(the graph's own batchnorm statistics, pi = 1) and steps Adam. Also
provides evaluation helpers, few-shot fine-tuning, and the paired
bottom-up-versus-top-down recovery harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import netgraph as ng
from .autograd import Adam, TrainConfig, backward, sgd_step
from .errors import DataError, NumericError
from .nest import NestedModel
from .planner import make_plan
from .tensor import store


def compute_pi(model: NestedModel) -> np.ndarray:
    """Per-row fraction of active encoder weights (biases and batchnorm
    scale/shift included; running statistics are not weights)."""
    g = model.graph
    total = ng.param_counts(g, None, encoder_only=True)
    out = []
    for k in range(model.plan.n_rows):
        active = ng.param_counts(g, model.plan.row_widths(k),
                                 encoder_only=True)
        out.append(active / total)
    return np.array(out)


_EVAL_BATCH = 512


def evaluate(g: ng.ModelGraph, x, y, slicing=None, bn_stats=None) -> float:
    """Classification accuracy on (x, y): one row program, run on chunks
    of ``_EVAL_BATCH`` samples."""
    prog = ng._build_program(g, slicing, bn_stats)
    hits = 0
    for s in range(0, len(x), _EVAL_BATCH):
        logits, _ = ng.run_forward(g, x[s:s + _EVAL_BATCH], program=prog)
        hits += int((logits.argmax(axis=1) == y[s:s + _EVAL_BATCH]).sum())
    return hits / len(x)


def evaluate_rows(model: NestedModel, x, y) -> list:
    """Accuracy of every plan row (capacity-descending order)."""
    return [
        evaluate(model.graph, x, y, slicing=model.plan.row_widths(k),
                 bn_stats=model.bn_stats[k])
        for k in range(model.plan.n_rows)
    ]


@dataclass
class FinetuneLog:
    epochs: list = field(default_factory=list)   # dict rows for CSV export
    batches: list = field(default_factory=list)  # (step, total, [row losses])

    def to_csv_rows(self):
        header = ["epoch", "row", "capacity_macs", "pi", "loss",
                  "val_accuracy"]
        yield header
        for e in self.epochs:
            yield [e["epoch"], e["row"], e["capacity_macs"], e["pi"],
                   e["loss"], e["val_accuracy"]]


def _snapshot(g: ng.ModelGraph):
    return {
        (i, name): store(a)
        for i, params in enumerate(g.weights) if params
        for name, a in params.items()
    }


def _restore(g: ng.ModelGraph, snap):
    for (i, name), data in snap.items():
        g.weights[i][name][...] = data


def _train(g: ng.ModelGraph, rows, pi, step_fn, dataset, cfg: TrainConfig,
           seed, train_idx):
    """The one training loop: seeded epochs over ``train_idx`` of
    pi-weighted steps on ``rows``, a list of (slicing, bn_stats) pairs.

    Per batch, each row's ``backward`` runs in row order (a fixed
    reduction order), and ``step_fn(g, grads, lr)`` applies the
    pi-weighted gradient sum. A non-finite loss restores the weights of
    the epoch's start and raises NumericError. Returns the per-batch
    (step, total loss, row losses) entries and, per epoch, each row's
    (mean loss, validation accuracy).
    """
    xs, ys = dataset.samples, dataset.labels
    val_x, val_y = dataset.split("val")
    rng = np.random.default_rng(seed)
    batches, epochs = [], []
    bs = min(cfg.batch_size, len(train_idx))
    for epoch in range(cfg.epochs):
        snap = _snapshot(g)
        order = rng.permutation(train_idx)
        first = len(batches)
        for s in range(0, len(order) - bs + 1, bs):
            sel = order[s:s + bs]
            batch = (xs[sel], ys[sel])
            total = None
            losses = []
            for k, (slicing, bn_stats) in enumerate(rows):
                try:
                    loss_k, grads_k = backward(g, batch, slicing=slicing,
                                               loss=cfg.loss,
                                               bn_stats=bn_stats)
                except NumericError:
                    _restore(g, snap)
                    raise
                losses.append(loss_k)
                if total is None:
                    total = {key: pi[k] * arr for key, arr in grads_k.items()}
                else:
                    for key, arr in grads_k.items():
                        total[key] += pi[k] * arr
            total_loss = float(np.dot(pi, losses))
            step = len(batches)
            if not np.isfinite(total_loss):
                _restore(g, snap)
                raise NumericError(
                    f"loss diverged at epoch {epoch} step {step}; "
                    "weights restored to last epoch"
                )
            step_fn(g, total, cfg.lr_at(step))
            batches.append((step, total_loss, losses))
        mean_loss = np.mean([b[2] for b in batches[first:]], axis=0)
        epochs.append([
            (float(loss), evaluate(g, val_x, val_y, slicing=slicing,
                                   bn_stats=bn_stats))
            for loss, (slicing, bn_stats) in zip(mean_loss, rows)])
    return batches, epochs


def finetune_joint(model: NestedModel, dataset, cfg: TrainConfig, seed=0,
                   train_indices=None) -> FinetuneLog:
    """Fine-tune all plan rows simultaneously.

    Per batch: total loss = sum_n pi_n * CE(row n forward); one SGD step
    on the pi-weighted gradient sum. Divergence (non-finite loss)
    restores the last epoch's weights and raises NumericError.
    """
    plan = model.plan
    pi = compute_pi(model)
    train_idx = (np.asarray(train_indices)
                 if train_indices is not None else dataset.splits["train"])
    rows = [(plan.row_widths(k), model.bn_stats[k])
            for k in range(plan.n_rows)]
    batches, epochs = _train(model.graph, rows, pi, sgd_step, dataset, cfg,
                             seed, train_idx)
    log = FinetuneLog(batches=batches)
    for epoch, results in enumerate(epochs):
        for k, (loss, acc) in enumerate(results):
            log.epochs.append({
                "epoch": epoch,
                "row": k,
                "capacity_macs": plan.capacities[k],
                "pi": float(pi[k]),
                "loss": loss,
                "val_accuracy": acc,
            })
    return log


def fewshot_indices(dataset, samples_per_class, seed=0) -> np.ndarray:
    """Seeded subsample of the train split: k samples per class."""
    rng = np.random.default_rng(seed)
    train = rng.permutation(dataset.splits["train"])
    labels = dataset.labels[train]
    picked = []
    for c in range(dataset.n_classes):
        pool = train[labels == c]
        if len(pool) < samples_per_class:
            raise DataError(
                f"class {c} has only {len(pool)} train samples, "
                f"{samples_per_class} requested"
            )
        picked.append(pool[:samples_per_class])
    return np.sort(np.concatenate(picked))


def finetune_fewshot(model: NestedModel, dataset, samples_per_class,
                     cfg: TrainConfig, seed=0) -> FinetuneLog:
    """Joint fine-tuning restricted to a seeded per-class subsample."""
    idx = fewshot_indices(dataset, samples_per_class, seed)
    return finetune_joint(model, dataset, cfg, seed=seed, train_indices=idx)


def train_single(g: ng.ModelGraph, dataset, cfg: TrainConfig,
                 seed=0) -> list:
    """Pretraining: the training loop on one full-width row with Adam.

    Returns one {"epoch", "loss", "val_accuracy"} entry per epoch.
    Divergence restores the last epoch's weights and raises NumericError.
    """
    _, epochs = _train(g, [(None, None)], np.ones(1), Adam(g).step, dataset,
                       cfg, seed, dataset.splits["train"])
    return [{"epoch": epoch, "loss": loss, "val_accuracy": acc}
            for epoch, [(loss, acc)] in enumerate(epochs)]


def few_shot_bu_td_harness(graph, scores, grad_store, dataset, capacities,
                           shot_counts, cfg: TrainConfig, seed=0) -> list:
    """Paired recovery curves: bottom-up vs top-down plans, same subsamples.

    For each shot count both plans are fine-tuned from identical copies of
    the permuted pre-trained weights on an identical subsample; the report
    carries per-row test accuracies and the mean bottom-up-minus-top-down
    delta. Deterministic under (seed, config).
    """
    test_x, test_y = dataset.split("test")
    plans = {
        mode: make_plan(graph, scores, capacities, heuristic=mode,
                        grad_store=grad_store, seed=seed)
        for mode in ("bu", "td")
    }
    out = []
    for shots in shot_counts:
        entry = {"shots": int(shots),
                 "bu_points": plans["bu"].points.tolist(),
                 "td_points": plans["td"].points.tolist()}
        accs = {}
        for mode in ("bu", "td"):
            model = NestedModel(graph.copy(), plans[mode])
            finetune_fewshot(model, dataset, shots, cfg, seed=seed)
            accs[mode] = evaluate_rows(model, test_x, test_y)
        entry["bu_accuracy"] = accs["bu"]
        entry["td_accuracy"] = accs["td"]
        entry["mean_delta"] = float(
            np.mean(np.array(accs["bu"]) - np.array(accs["td"]))
        )
        out.append(entry)
    return out
