"""Command-line entry point.

Subcommands: pipeline, train, score, plan, finetune, eval, switch-sim,
bench-cache, verify-bounds. Global flags: --seed, --config (JSON file),
--out. The first five run stages from one table (``STAGES``); they write
every artifact under --out together with a manifest that lists the stages
run and embeds the configuration and its hash, so a run is reproducible
from (seed, config). ``eval`` and ``switch-sim`` read a bundle and write
their report under --out, never into the bundle.

Exit codes: 0 success, 2 config error, 3 infeasible plan, 4 data error,
5 numeric error, 6 integrity error (an inconsistent bundle), 7 shape
mismatch (a truncated tensor blob). Diagnostics go to stderr through the
``nestslice`` logger; results go to stdout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import traceback

import numpy as np

from . import bounds as bnd
from . import cachesim as cs
from . import netgraph as ng
from .autograd import TrainConfig, accumulate_importance_grads
from .datasets import Dataset, load_idx, synth_blobs
from .errors import EXIT_CODES, ConfigError, NestsliceError
from .finetune import evaluate_rows, finetune_joint, train_single
from .importance import (apply_to_scores, export_scores_csv,
                         permute_descending, permute_grad_store, score_units)
from .nest import NestedModel, load_bundle, save_bundle
from .planner import SlicingPlan, make_plan, plan_baseline

log = logging.getLogger("nestslice")


class _StderrHandler(logging.Handler):
    """Writes each record to the current ``sys.stderr``, so a redirected
    or captured stderr sees it."""

    def emit(self, record):
        print(self.format(record), file=sys.stderr)


DEFAULT_CONFIG = {
    "seed": 0,
    "arch": "dnn",
    "size": "S",
    "classes": None,  # the data's class count
    "input_shape": None,
    "capacities_percent": [100, 75, 50, 25],
    "heuristic": "bu",
    "formulation": "auto",
    "layout": "standard",
    "importance_batches": 100,
    "dataset": {
        "kind": "synthetic",
        "classes": 10,
        "per_class": 100,
        "dims": 16,
        "separation": 4.0,
    },
    "pretrain": {
        "batch_size": 100,
        "epochs": 5,
        "learning_rate_schedule": [[0, 0.001]],
        "loss": "ce",
    },
    "finetune": {
        "batch_size": 100,
        "epochs": 5,
        "learning_rate_schedule": [[0, 0.001]],
        "loss": "ce",
    },
}


def _read_json(path, what):
    """The JSON value in file ``path``; ConfigError if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e


# the types a scalar config value may have, by the type of its default
_KINDS = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}
# the least value of each count
_LOWS = {"importance_batches": 1, "dataset.per_class": 1, "classes": 2,
         "dataset.classes": 2, "dataset.dims": 1, "input_shape": 1}
# the dataset keys of IDX data, beside those of the default synthetic data,
# each with a value of its kind
_IDX_KEYS = {"images": "images.idx", "labels": "labels.idx",
             "normalize": True}


def _check_kind(name, value, default):
    """ConfigError unless ``value`` has the kind of its ``default`` and a
    count is at least its ``_LOWS`` value; the shape keys take an int or a
    list of positive ints."""
    if name in ("dataset.dims", "input_shape"):
        want = "an integer or a list of positive integers"
        ok = (type(value) is int or (value is None and default is None)
              or isinstance(value, list) and bool(value)
              and all(type(d) is int and d > 0 for d in value))
    elif name == "classes":
        want, ok = "an integer or null", value is None or type(value) is int
    else:
        want = f"of the kind of {default!r}"
        ok = type(value) in _KINDS.get(type(default), (type(value),))
    if not ok:
        raise ConfigError(f"config key {name} must be {want}, not {value!r}")
    if name in _LOWS and type(value) is int and value < _LOWS[name]:
        raise ConfigError(f"config key {name} must be >= {_LOWS[name]}, "
                          f"not {value}")


def load_config(path=None, seed=None, dataset=None) -> dict:
    """The default config, its object sections updated from and its other
    keys replaced by those of the JSON object in ``path``; ``dataset``
    (the IDX flags) replaces its dataset section. Every key is one of the
    default's (or an IDX dataset key), every scalar keeps the kind of its
    default, counts and the seed (``seed`` applied) keep their ranges,
    each training section makes a valid ``TrainConfig`` and synthetic
    data fits ``_check_data``; ConfigError if not."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    user = _read_json(path, "config") if path else {}
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    for k, v in user.items():
        if k not in cfg:
            raise ConfigError(f"unknown config key {k!r}")
        if isinstance(cfg[k], dict):
            if not isinstance(v, dict):
                raise ConfigError(f"config section {k!r} is not an object")
            for sk, sv in v.items():
                if sk not in cfg[k] and not (k == "dataset"
                                             and sk in _IDX_KEYS):
                    raise ConfigError(f"unknown config key '{k}.{sk}'")
                _check_kind(f"{k}.{sk}", sv,
                            cfg[k].get(sk, _IDX_KEYS.get(sk)))
            cfg[k].update(v)
        else:
            _check_kind(k, v, cfg[k])
            cfg[k] = v
    if seed is not None:
        cfg["seed"] = seed
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    if dataset is not None:
        cfg["dataset"] = dataset
    pct = cfg["capacities_percent"]
    if (not isinstance(pct, list) or not pct
            or any(type(p) not in (int, float) or not 0 < p <= 100
                   for p in pct)
            or pct != sorted(pct, reverse=True)):
        raise ConfigError("capacities_percent must be a non-empty list of "
                          "descending values in (0, 100]")
    for section in ("pretrain", "finetune"):
        try:
            TrainConfig.from_json(cfg[section])
        except ConfigError as e:
            raise ConfigError(f"config section {section!r}: {e}") from e
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":  # the config gives its shape and classes
        _check_data(cfg, np.ravel(ds["dims"]).tolist(), ds["classes"])
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_dataset(cfg: dict):
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        blob = synth_blobs(classes=ds["classes"], per_class=ds["per_class"],
                           dims=int(np.prod(ds["dims"])), seed=cfg["seed"],
                           separation=ds["separation"])
        if isinstance(ds["dims"], list):  # image-shaped synthetic data
            blob = Dataset(blob.samples.reshape([-1] + ds["dims"]),
                           blob.labels, blob.splits)
        return blob
    if ds["kind"] == "idx":
        return load_idx(ds["images"], ds["labels"],
                        normalize=ds.get("normalize", True),
                        seed=cfg["seed"])
    raise ConfigError(f"unknown dataset kind {ds['kind']!r}")


def _check_data(cfg, shape, classes):
    """ConfigError unless data of ``classes`` classes whose samples have
    ``shape`` fits the arch, and the config's ``input_shape`` and
    ``classes`` where given: a conv arch reads (h, w, c) samples, a dnn
    reads them flat, so there only the size must match."""
    shape, given = list(shape), cfg["input_shape"]
    if given is not None:
        given = np.ravel(given).tolist()
    if cfg["arch"] == "dnn":
        shape, given = [math.prod(shape)], given and [math.prod(given)]
    elif len(shape) == 1:
        raise ConfigError("image-shaped data required for conv architectures")
    if given not in (None, shape):
        raise ConfigError(f"input_shape {cfg['input_shape']} does not fit "
                          f"the data's samples {shape}")
    if cfg["classes"] not in (None, classes):
        raise ConfigError(f"classes {cfg['classes']} is not the data's "
                          f"{classes}")


def _dataset_input_shape(cfg, dataset):
    """The input shape of the data's samples as the arch reads them (the
    dataset stage flattens them for a dnn); ConfigError if the data does
    not fit the config (``_check_data``)."""
    shape = dataset.samples.shape[1:]
    _check_data(cfg, shape, dataset.n_classes)
    return shape[0] if cfg["arch"] == "dnn" else tuple(shape)


def _arch_samples(cfg, dataset):
    """Dataset samples shaped for the target architecture."""
    if cfg["arch"] == "dnn":
        return dataset.samples.reshape(len(dataset.samples), -1)
    return dataset.samples


def capacities_from_percent(g, percents):
    full = ng.full_macs(g)
    return [max(1, int(full * p / 100.0)) for p in percents]


def _write_manifest(out_dir, cfg, stages):
    doc = {"config": cfg, "config_hash": config_hash(cfg), "stages": stages}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)


# -- stages --------------------------------------------------------------------
# Each stage reads what earlier stages left in ``state``, writes its own
# artifacts under ``out_dir`` and returns its manifest entry's details.


def _stage_dataset(cfg, state, out_dir):
    dataset = build_dataset(cfg)
    state["ds"] = Dataset(_arch_samples(cfg, dataset), dataset.labels,
                          dataset.splits)
    return {"samples": int(len(dataset.samples))}


def _stage_train(cfg, state, out_dir):
    ds = state["ds"]
    g = ng.build_reference(cfg["arch"], cfg["size"],
                           input_shape=_dataset_input_shape(cfg, ds),
                           classes=ds.n_classes, seed=cfg["seed"])
    tc = TrainConfig.from_json(cfg["pretrain"])
    log = train_single(g, ds, tc, seed=cfg["seed"])
    ng.save_manifest(g, out_dir, name="model")
    with open(os.path.join(out_dir, "train_log.json"), "w") as fh:
        json.dump(log, fh, indent=2)
    state["graph"] = g
    return {"artifact": "model.json"}


def _stage_score(cfg, state, out_dir):
    ds, g = state["ds"], state["graph"]
    stream = ds.batches("train", min(cfg["pretrain"]["batch_size"],
                                     len(ds.splits["train"])),
                        seed=cfg["seed"], repeat=True)
    state["grads"] = accumulate_importance_grads(
        g, stream, n_batches=cfg["importance_batches"])
    state["scores"] = score_units(g, state["grads"])
    export_scores_csv(g, state["scores"], os.path.join(out_dir, "scores.csv"))
    return {"artifact": "scores.csv"}


def _stage_plan(cfg, state, out_dir):
    g, scores = state["graph"], state["scores"]
    caps = capacities_from_percent(g, cfg["capacities_percent"])
    if cfg["heuristic"] in ("l1", "random"):
        g2, plan = plan_baseline(g, cfg["heuristic"], caps, seed=cfg["seed"])
    else:
        g2, perm = permute_descending(g, scores)
        plan = make_plan(g2, apply_to_scores(g, perm, scores), caps,
                         heuristic=cfg["heuristic"],
                         grad_store=permute_grad_store(g2, perm,
                                                       state["grads"]),
                         formulation=cfg["formulation"], seed=cfg["seed"])
    ng.save_manifest(g2, out_dir, name="permuted")
    plan.save(os.path.join(out_dir, "plan.json"))
    state["graph"], state["plan"] = g2, plan
    return {"artifact": "plan.json", "heuristic": cfg["heuristic"],
            "capacities": caps}


def _stage_finetune(cfg, state, out_dir):
    # Ships the batchnorm statistics the rows were fine-tuned and validated
    # with: training never updates them, so re-estimating them afterwards
    # would change the function the rows learned.
    model = NestedModel(state["graph"], state["plan"], layout=cfg["layout"])
    tc = TrainConfig.from_json(cfg["finetune"])
    log = finetune_joint(model, state["ds"], tc, seed=cfg["seed"])
    with open(os.path.join(out_dir, "finetune_log.csv"), "w",
              newline="") as fh:
        csv.writer(fh).writerows(log.to_csv_rows())
    state["model"] = model
    return {"artifact": "finetune_log.csv"}


def _stage_bundle(cfg, state, out_dir):
    save_bundle(state["model"], os.path.join(out_dir, "bundle"))
    return {"artifact": "bundle/"}


STAGES = {
    "dataset": _stage_dataset,
    "train": _stage_train,
    "score": _stage_score,
    "plan": _stage_plan,
    "finetune": _stage_finetune,
    "bundle": _stage_bundle,
}

# the stages each stage subcommand runs, in table order; ``finetune`` starts
# from the graph and plan given by --model and --plan
COMMAND_STAGES = {
    "pipeline": tuple(STAGES),
    "train": ("dataset", "train"),
    "score": ("dataset", "train", "score"),
    "plan": ("dataset", "train", "score", "plan"),
    "finetune": ("dataset", "finetune", "bundle"),
}


def _run_stages(command, cfg, out_dir, state) -> int:
    """Run a subcommand's stages, rewriting the manifest as each one ends."""
    os.makedirs(out_dir, exist_ok=True)
    done = []
    for name in COMMAND_STAGES[command]:
        try:
            info = STAGES[name](cfg, state, out_dir)
        except NestsliceError as e:
            log.error("%s halted at stage '%s': %s", command, name, e)
            done.append({"stage": f"failed:{name}", "error": str(e)})
            _write_manifest(out_dir, cfg, done)
            raise
        done.append({"stage": name, **info})
        _write_manifest(out_dir, cfg, done)
    return 0


def cmd_pipeline(cfg, out_dir) -> int:
    return _run_stages("pipeline", cfg, out_dir, {})


def cmd_eval(bundle_dir, cfg, out_dir) -> int:
    model = load_bundle(bundle_dir)
    dataset = build_dataset(cfg)
    xs = _arch_samples(cfg, dataset)
    test_idx = dataset.splits["test"]
    test_x, test_y = xs[test_idx], dataset.labels[test_idx]
    accs = evaluate_rows(model, test_x, test_y)
    full = ng.full_macs(model.graph)
    rows = []
    for k in range(model.plan.n_rows):
        widths = model.plan.row_widths(k)
        macs = ng.plan_macs(model.graph, widths)
        rows.append({
            "row": k,
            "capacity_pct": round(100.0 * model.plan.capacities[k] / full, 2),
            "capacity_macs": model.plan.capacities[k],
            "macs": macs,
            "macs_pct": round(100.0 * macs / full, 2),
            "params": ng.param_counts(model.graph, widths),
            "accuracy": accs[k],
        })
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "eval.csv"), "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=list(rows[0]))
        wr.writeheader()
        wr.writerows(rows)
    for r in rows:
        print(f"row {r['row']}: budget {r['capacity_pct']:6.2f}%, "
              f"MACs {r['macs_pct']:6.2f}% ({r['macs']}), "
              f"params {r['params']}, accuracy {r['accuracy']:.4f}")
    return 0


def cmd_switch_sim(bundle_dir, schedule_path, out_dir) -> int:
    schedule = _read_json(schedule_path, "schedule")
    if not isinstance(schedule, list):
        raise ConfigError(f"schedule {schedule_path} is not a JSON list")
    for entry in schedule:
        if not (isinstance(entry, list) and len(entry) == 2
                and type(entry[1]) is int):
            raise ConfigError(f"schedule entry {entry!r} is not a "
                              f"[time, integer row] pair")
    model = load_bundle(bundle_dir)
    events = []
    for t, row in schedule:
        st = model.activate(row)
        events.append({
            "time": t,
            "row": row,
            "integers_updated": st.integers_updated,
            "weights_copied": st.weights_copied,
            "elapsed_s": st.elapsed,
        })
    per_row = [{"row": k,
                "inference_macs": ng.plan_macs(model.graph,
                                               model.plan.row_widths(k))}
               for k in range(model.plan.n_rows)]
    doc = {"events": events, "per_row_macs": per_row,
           "total_weights_copied": int(sum(e["weights_copied"]
                                           for e in events))}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "switch_log.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"{len(events)} switches, "
          f"{doc['total_weights_copied']} weight elements copied")
    return 0


def cmd_bench_cache(args, out_dir) -> int:
    cfg = cs.CacheConfig(args.cache_bytes, args.ways, args.line_bytes)
    rows = cs.bench_report(cfg=cfg, b=args.batch,
                           miss_penalty=args.miss_penalty,
                           include_inputs=args.include_inputs)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "cache_report.csv")
    cs.write_report_csv(rows, path)
    worst = {}
    for r in rows:
        key = (r["m"], r["n"], r["elem_bytes"], r["slice"])
        worst.setdefault(key, {})[r["mode"]] = r["hit_rate"]
    regressions = sum(
        1 for v in worst.values() if v["optimized"] < v["basic"]
    )
    print(f"wrote {path}; {len(rows)} rows; "
          f"{regressions} configurations where optimized < basic")
    return 0


def cmd_verify_bounds(args, seed) -> int:
    reports = bnd.verify_bounds(n_instances=args.instances, seed=seed,
                                max_items=args.max_items)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bounds_report.json")
    with open(path, "w") as fh:
        json.dump([r.to_json() for r in reports], fh, indent=2)
    failed = [r for r in reports if not r.passed]
    print(f"wrote {path}; {len(reports)} reports, {len(failed)} violations")
    return 0 if not failed else 5


# -- argument parsing ------------------------------------------------------------


def _make_parser():
    ap = argparse.ArgumentParser(
        prog="nestslice",
        description="nested weight-sharing subnetworks toolkit",
    )
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--config", type=str, default=None,
                    help="JSON config file")
    ap.add_argument("--out", type=str, default="out")
    ap.add_argument("--images", type=str, default=None,
                    help="IDX image file (switches the dataset to IDX)")
    ap.add_argument("--labels", type=str, default=None,
                    help="IDX label file")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("pipeline", help="train, score, permute, plan, "
                                    "fine-tune, bundle")
    sub.add_parser("train", help="pretrain the reference model")
    sub.add_parser("score", help="accumulate gradients and export scores")
    p = sub.add_parser("plan", help="permute and plan slicing points")
    p.add_argument("--heuristic", choices=["bu", "td", "l1", "random"],
                   default=None)
    p = sub.add_parser("finetune", help="joint fine-tuning into a bundle")
    p.add_argument("--model", required=True,
                   help="permuted model manifest JSON")
    p.add_argument("--plan", required=True, help="plan JSON")
    p = sub.add_parser("eval", help="per-row accuracy of a bundle")
    p.add_argument("--bundle", required=True)
    p = sub.add_parser("switch-sim", help="replay a resource schedule")
    p.add_argument("--bundle", required=True)
    p.add_argument("--schedule", required=True,
                   help="JSON [[time, row], ...]")
    p = sub.add_parser("bench-cache", help="cache hit-rate sweep")
    p.add_argument("--cache-bytes", type=int, default=16384)
    p.add_argument("--ways", type=int, default=2)
    p.add_argument("--line-bytes", type=int, default=8)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--miss-penalty", type=int, default=10)
    p.add_argument("--include-inputs", action="store_true")
    p = sub.add_parser("verify-bounds", help="knapsack bound property run")
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--max-items", type=int, default=12)
    return ap


def main(argv=None) -> int:
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        log.addHandler(_StderrHandler())
    ap = _make_parser()
    args = ap.parse_args(argv)
    try:
        dataset = None
        if args.images or args.labels:
            if not (args.images and args.labels):
                raise ConfigError("--images and --labels go together")
            dataset = {"kind": "idx", "images": args.images,
                       "labels": args.labels, "normalize": True}
        cfg = load_config(args.config, seed=args.seed, dataset=dataset)
        out_dir = args.out
        if args.command == "pipeline":
            return cmd_pipeline(cfg, out_dir)
        if args.command in COMMAND_STAGES:
            state = {}
            if args.command == "plan" and args.heuristic:
                cfg["heuristic"] = args.heuristic
            if args.command == "finetune":
                state = {"graph": ng.load_manifest(args.model),
                         "plan": SlicingPlan.load(args.plan)}
            return _run_stages(args.command, cfg, out_dir, state)
        if args.command == "eval":
            return cmd_eval(args.bundle, cfg, out_dir)
        if args.command == "switch-sim":
            return cmd_switch_sim(args.bundle, args.schedule, out_dir)
        if args.command == "bench-cache":
            return cmd_bench_cache(args, out_dir)
        if args.command == "verify-bounds":
            return cmd_verify_bounds(args, cfg["seed"])
        raise ConfigError(f"unknown command {args.command!r}")
    except NestsliceError as e:
        log.error("error: %s", e)
        return next((code for cls, code in EXIT_CODES.items()
                     if isinstance(e, cls)), 1)
    except Exception:  # pragma: no cover - unexpected crash path
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
