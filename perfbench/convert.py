"""``convert``: the CLI ``pipeline`` on DS-CNN S, dataset to bundle.

The offline conversion a user runs once per model: pretrain, importance
sums, permutation, the exact depthwise DP plan, pi-weighted joint
fine-tuning of four rows per batch, batchnorm recalibration and the
bundle write. Nearly all of it is ``autograd.backward``; serving does
almost no work here.

Each run converts at least twice under the same seed and requires
byte-identical bundles. Per-row test accuracy of the written bundle is
computed outside the timed region and reported as measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time

from nestslice import cli
from nestslice.finetune import evaluate_rows
from nestslice.nest import load_bundle

from common import median

STAGES = ["dataset", "train", "score", "plan", "finetune", "bundle"]
MIN_RUNS = 2
SETUP_REPEATS = 5


def config(size):
    """The dscnn S baseline: 8x8x1 inputs, 10 classes, 2+2 epochs."""
    tiny = size == "tiny"
    return {
        "arch": "dscnn",
        "size": "S",
        "classes": 10,
        "capacities_percent": [100, 75, 50, 25],
        "heuristic": "bu",
        "formulation": "auto",
        "layout": "standard",
        "importance_batches": 2 if tiny else 20,
        "dataset": {"kind": "synthetic", "classes": 10,
                    "per_class": 10 if tiny else 100, "dims": [8, 8, 1],
                    "separation": 4.0},
        "pretrain": {"batch_size": 20 if tiny else 100,
                     "epochs": 1 if tiny else 2,
                     "learning_rate_schedule": [[0, 0.001]], "loss": "ce"},
        "finetune": {"batch_size": 20 if tiny else 100,
                     "epochs": 1 if tiny else 2,
                     "learning_rate_schedule": [[0, 0.001]], "loss": "ce"},
    }


def _digest(bundle_dir):
    """sha256 per bundle file; None when there is no bundle."""
    out = {}
    try:
        for name in sorted(os.listdir(bundle_dir)):
            with open(os.path.join(bundle_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None
    return out


def _setup(cfg_path, seed):
    cfg = cli.load_config(cfg_path, seed=seed)
    data = cli.build_dataset(cfg)
    return data.split("test")


def _convert(cfg_path, seed, out_dir, report):
    """One timed pipeline run, then its checks outside the timed region.

    Returns the seconds of each stage and of the rest of ``cli.main``.
    ``cmd_pipeline`` rewrites the manifest as each stage ends, so a clock
    read after each write splits the run.
    """
    argv = ["--seed", str(seed), "--config", cfg_path, "--out", out_dir,
            "pipeline"]
    write = cli._write_manifest
    marks = []

    def marked(*args):
        write(*args)
        marks.append(time.perf_counter())

    cli._write_manifest = marked
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        marks.append(time.perf_counter())
        cli._write_manifest = write
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            done = [s["stage"] for s in json.load(fh)["stages"]]
    except (OSError, ValueError, KeyError):
        done = []
    for stage in STAGES:
        report.op(stage in done, f"pipeline stage {stage} did not complete")
    report.gate(rc == 0, f"pipeline exit code {rc}")
    report.gate(len(marks) == len(STAGES) + 1,
                f"{len(marks) - 1} manifest writes, not {len(STAGES)}")
    return [b - a for a, b in zip([t0] + marks, marks)]


def _inspect(out_dir, test, report):
    """Reload the bundle, validate its plan, score every row on test data."""
    bundle = os.path.join(out_dir, "bundle")
    try:
        model = load_bundle(bundle)
        model.plan.validate(model.graph)
    except Exception as e:  # a bundle that does not reload fails the run
        report.gate(False, f"bundle does not reload or validate: {e}")
        return None, None
    accs = evaluate_rows(model, *test)
    val = {}
    with open(os.path.join(out_dir, "finetune_log.csv"), newline="") as fh:
        for r in csv.DictReader(fh):
            val[int(r["row"])] = float(r["val_accuracy"])  # last epoch wins
    return accs, [val[k] for k in sorted(val)]


def run(args, report, work_dir, import_s, tracer=None):
    cfg_path = os.path.join(work_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(config(args.size), fh)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        test = _setup(cfg_path, args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + median(setups)

    runs, digests = [], []
    deadline = time.perf_counter() + args.seconds
    while len(runs) < (1 if tracer else MIN_RUNS) or (
            not tracer and time.perf_counter() < deadline):
        out_dir = os.path.join(work_dir, f"run{len(runs)}")
        runs.append(_convert(cfg_path, args.seed, out_dir, report))
        digests.append(_digest(os.path.join(out_dir, "bundle")))
    if tracer:
        out_dir = os.path.join(work_dir, "traced")
        with tracer.active():
            traced_s = sum(_convert(cfg_path, args.seed, out_dir, report))
        digests.append(_digest(os.path.join(out_dir, "bundle")))
    for k, d in enumerate(digests[1:], 1):
        report.gate(d is not None and d == digests[0],
                    f"bundle of conversion {k} differs from conversion 0")
    accs, val_accs = _inspect(out_dir, test, report)

    report.name("setup_s", setup_s, "s")
    times = [sum(r) for r in runs]
    # each stage's fastest run: a slow spell of the host that hit one
    # stage of one conversion does not count
    stage_s = [min(r) for r in zip(*runs)]
    report.name("convert_s", median(times), "s")
    for k, t in enumerate(times):
        report.name(f"convert_run{k}_s", t, "s")
    for stage, t in zip(STAGES + ["rest"], stage_s):
        report.name(f"stage_{stage}_s", t, "s")
    if accs is not None:
        report.name("row_acc_min", min(accs), "ratio")
        for k, acc in enumerate(accs):
            report.name(f"row{k}_test_acc", acc, "ratio")
        for k, acc in enumerate(val_accs):
            report.name(f"row{k}_finetune_val_acc", acc, "ratio")
    report.end_to_end.update(setup_s=setup_s, op_ms=1e3 * sum(stage_s))
    if tracer:
        pl = report.per_layer
        pl["finetune.finetune_joint.val_acc_min"] = (min(val_accs)
                                                     if val_accs else 0.0)
        report.name("make_plan_depthwise_calls",
                    tracer.get("planner.plan_depthwise").calls, "count")
        pl["trace.untraced_s"] = median(times)
        pl["trace.traced_s"] = traced_s
