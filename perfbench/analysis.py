"""``analysis``: the offline study tools, with no forward pass.

Planning runs flat bottom-up and top-down on DS-CNN L (the planner-speed
instance of the acceptance suite) and on DS-CNN S, and the exact
depthwise DP in both modes on DS-CNN S. The cache part sweeps the two
smaller default RP2040 ``bench_report`` shapes (48 of the 72 default
points); the bounds part is ``verify_bounds`` over 1000 seeded
instances. Pure ``planner``, ``cachesim`` and ``bounds`` work, so runtime
changes must not move it.

A run repeats the floor set (flat BU and TD on S, two sweep points,
``verify_bounds`` over 20 instances) for ``--seconds`` of its own time
and runs every other unit once, one after each of the first floor
passes; ``op_ms`` sums each floor unit's fastest run. The
planning instances and the sweep are fixed; ``--seed`` picks the bound
instances. Plans and hit counts are checked against ``reference.json``,
written by ``make_reference.py``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext

import numpy as np

from nestslice import bounds as bnd
from nestslice import cachesim as cs
from nestslice import netgraph as ng
from nestslice.autograd import GradStore
from nestslice.errors import IntegrityError
from nestslice.importance import (apply_to_scores, permute_descending,
                                  permute_grad_store, score_units)
from nestslice.planner import plan_bottom_up, plan_depthwise, plan_top_down

from common import median

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
INSTANCE_SEED = 11
SETUP_REPEATS = 3
SIZES = {  # sweep shapes, element widths, bound instances
    # the two smaller default shapes: 48 of the 72 default points. The
    # 256x512 shape is 73% of the default sweep's accesses; with it one
    # pass took 24-34 s.
    "full": (cs.DEFAULT_SHAPES[:2], cs.DEFAULT_WIDTHS, 1000),
    "tiny": (cs.DEFAULT_SHAPES[:1], (1, 4), 10),
}
# The floor set: units of 10-60 ms, repeated for --seconds of their own
# time. Each one's fastest run is its cost on a quiet host. On a shared
# 2-vCPU host, in six 10 s windows of one minute, their summed floors
# spanned 7%, where the floors of a set of 0.1-0.4 s units spanned 42%.
FLOOR_PLANS = ("S.flat.bu", "S.flat.td")
FLOOR_SWEEP = tuple(f"{m}x{n}/e{w}/s0.25" for (m, n) in cs.DEFAULT_SHAPES[:1]
                    for w in (1, 4))  # the cache fits at width 1, not at 4
FLOOR_BOUNDS = 20  # instances in the repeated verify_bounds unit
MIN_PASSES = 5  # floor passes at least, whatever --seconds says


def _noise_store(g, seed):
    """Gradient sums filled with seeded noise, in place of accumulation."""
    rng = np.random.default_rng(seed)
    store = GradStore(g)
    for key in store.grads:
        store.grads[key] = rng.standard_normal(store.grads[key].shape)
    store.minibatch_count = 100
    return store


def _instance(size, input_shape, classes):
    g = ng.build_reference("dscnn", size, input_shape, classes=classes,
                           seed=INSTANCE_SEED)
    store = _noise_store(g, INSTANCE_SEED)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    full = ng.full_macs(g2)
    caps = [full, int(0.75 * full), int(0.5 * full), int(0.25 * full)]
    return (g2, apply_to_scores(g, perm, scores),
            permute_grad_store(g2, perm, store), caps)


def setup():
    return {"L": _instance("L", (10, 10, 1), 12),
            "S": _instance("S", (8, 8, 1), 10)}


def units(inst, seed, size):
    """Every unit of work as (kind, name, job, in the floor set).

    Planning: flat BU and TD on DS-CNN L and S, the depthwise DP in both
    modes on S. Cache: one unit per sweep point (shape, element width and
    slice, both modes). Bounds: ``verify_bounds`` over the run's bound
    instances, and over ``FLOOR_BOUNDS`` fixed ones: random instances
    differ in cost, so the floor set draws the same ones in every run.

    Jobs look the program's functions up when called, so a tracer that
    swaps them in sees these calls.
    """
    shapes, widths, n_bounds = SIZES[size]
    out = []
    for key in ("L", "S"):
        g, sc, _, caps = inst[key]
        out += [(f"{key}.flat.bu",
                 lambda g=g, sc=sc, caps=caps: plan_bottom_up(g, sc, caps)),
                (f"{key}.flat.td",
                 lambda g=g, sc=sc, caps=caps: plan_top_down(g, sc, caps))]
    g, sc, stores, caps = inst["S"]
    for mode in ("bu", "td"):
        out.append((f"S.depthwise.{mode}",
                    lambda mode=mode: plan_depthwise(g, sc, stores, caps,
                                                     mode=mode)))
    out = [("plan", name, job, name in FLOOR_PLANS) for name, job in out]
    for m, n in shapes:
        for width in widths:
            for frac in cs.DEFAULT_SLICES:
                name = f"{m}x{n}/e{width}/s{frac}"
                out.append(("sweep", name,
                            lambda m=m, n=n, width=width, frac=frac:
                            cs.bench_report(shapes=((m, n),),
                                            widths=(width,),
                                            slices=(frac,)),
                            name in FLOOR_SWEEP))
    for n, rng_seed in ((n_bounds, seed), (FLOOR_BOUNDS, INSTANCE_SEED)):
        out.append(("bounds", f"verify_bounds.{n}",
                    lambda n=n, rng_seed=rng_seed: bnd.verify_bounds(
                        n_instances=n, seed=rng_seed),
                    n == FLOOR_BOUNDS))
    return out


def plan_jobs(inst):
    """Every plan, keyed by job name; plans depend on no seed or size."""
    return {name: job() for kind, name, job, _ in units(inst, 0, "tiny")
            if kind == "plan"}


def sweep_key(r):
    return f"{r['mode']}/{r['m']}x{r['n']}/e{r['elem_bytes']}/s{r['slice']}"


def one_pass(work, order, tracer=None):
    """Run the units ``order`` names, in that order: outputs and seconds."""
    out = {"plan": {}, "sweep": {}, "bounds": {}, "unit_s": {}}
    for i in order:
        kind, name, job, _ = work[i]
        if tracer is not None:
            tracer.tag = name.rpartition(".")[2] if kind == "plan" else None
        t0 = time.perf_counter()
        out[kind][name] = job()
        out["unit_s"][name] = time.perf_counter() - t0
    if tracer is not None:
        tracer.tag = None
    return out


def _check(out, inst, ref, report):
    for name, plan in out["plan"].items():
        g = inst[name[0]][0]
        try:
            plan.validate(g)
            valid = True
        except IntegrityError as e:
            valid = report.op(False, f"plan {name} invalid: {e}")
        if valid:
            report.op(plan.points.tolist() == ref["plans"][name],
                      f"plan {name} slicing points differ from reference")
    for name, rows in out["sweep"].items():
        report.op(len(rows) == 2, f"sweep point {name} gave {len(rows)} "
                  "rows, not one per mode")
        for r in rows:
            want = ref["sweep"].get(sweep_key(r))
            report.op(want == [r["accesses"], r["hits"]],
                      f"sweep point {sweep_key(r)}: {r['accesses']} "
                      f"accesses, {r['hits']} hits; reference {want}")
    for r in (r for v in out["bounds"].values() for r in v):
        report.op(r.passed, f"bound violated: {r.to_json()}")


def run(args, report, work_dir, import_s, tracer=None):
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.active() if tracer else nullcontext():
            inst = setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + median(setups)

    work = units(inst, args.seed, args.size)
    floor_set = [i for i, unit in enumerate(work) if unit[3]]
    rng = np.random.default_rng([args.seed, 3])
    once = [i for i in rng.permutation(len(work)) if not work[i][3]]
    # The floor set runs over and over for --seconds of its own time, each
    # pass in a fresh order, and each other unit runs once, at the end of
    # one of the first passes. So the floor passes span the whole run, and
    # a slow spell of the host falls on other units each time.
    passes, floor_time = [], 0.0
    while once or len(passes) < MIN_PASSES or floor_time < args.seconds:
        order = list(rng.permutation(floor_set)) + once[:1]
        del once[:1]
        out = one_pass(work, order)
        _check(out, inst, ref, report)
        passes.append(out)
        floor_time += sum(out["unit_s"][work[i][1]] for i in floor_set)
    first = {}  # each unit's first run: (seconds, output)
    for p in passes:
        for kind, name, _, _ in work:
            if name in p["unit_s"]:
                first.setdefault(name, (p["unit_s"][name], p[kind][name]))
    floors = {work[i][1]: min(p["unit_s"][work[i][1]] for p in passes)
              for i in floor_set}
    floor_s = sum(floors.values())
    rows = [r for kind, name, _, _ in work if kind == "sweep"
            for r in first[name][1]]
    accesses = sum(r["accesses"] for r in rows)
    report.name("setup_s", setup_s, "s")
    for kind, key in (("plan", "plan_s"), ("sweep", "cache_sweep_s"),
                      ("bounds", "bounds_s")):
        report.name(key, sum(first[name][0] for k, name, _, _ in work
                             if k == kind), "s")
    report.name("floor_passes", len(passes), "count")
    for name, t in floors.items():
        report.name(f"floor.{name}_ms", 1e3 * t, "ms")
    report.name("sweep_points", len(rows), "count")
    report.name("simulated_accesses", accesses, "count")
    report.name("bound_reports", sum(len(first[name][1]) for k, name, _, _
                                     in work if k == "bounds"), "count")
    report.end_to_end.update(setup_s=setup_s, op_ms=1e3 * floor_s)

    if tracer is None:
        return
    with tracer.active():
        out = one_pass(work, range(len(work)), tracer)
    _check(out, inst, ref, report)
    sim_s = tracer.get("cachesim.simulate").total_s
    pl = report.per_layer
    pl["planner.items"] = sum(
        sum(inst[name[0]][0].layers[i].units
            for i in inst[name[0]][0].sliceable_indices())
        for kind, name, _, _ in work if kind == "plan")
    pl["cachesim.simulate.accesses"] = accesses
    pl["cachesim.simulate.accesses_per_s"] = accesses / sim_s if sim_s else 0.0
    pl["bounds.violations"] = sum(not r.passed for v in out["bounds"].values()
                                  for r in v)
    pl["trace.untraced_s"] = sum(t for t, _ in first.values())
    pl["trace.traced_s"] = sum(out["unit_s"].values())
