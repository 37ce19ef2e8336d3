"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 9's optimized-hit-rate floor is asserted faithfully and
is expected to fail: a weight-only trace on the 16 kB / 2-way / 8 B cache
has an information-theoretic hit-rate ceiling of 1 - elem_bytes/(8*batch)
(compulsory line fetches), which is 96.9% at its best sweep point, below
the 97% floor. See the repository notes for the full analysis; the
directional and verbatim-order clauses of criterion 9 hold and are
asserted separately.
"""

import itertools
import time

import numpy as np
import pytest

import nestslice.netgraph as ng
from conftest import (assert_rows_share_store, fd_gradient_check,
                      random_grad_store)
from nestslice.autograd import TrainConfig
from nestslice.bounds import (brute_opt, bu_two_stage, td_two_stage,
                              random_instance, tight_instance_bu,
                              tight_instance_td)
from nestslice.cachesim import trace_matmul
from nestslice.datasets import synth_blobs
from nestslice.finetune import (evaluate, evaluate_rows,
                                few_shot_bu_td_harness, finetune_joint,
                                train_single)
from nestslice.importance import (apply_to_scores, permute_descending,
                                  permute_grad_store, score_units)
from nestslice.nest import CACHE_OPTIMIZED, NestedModel
from nestslice.netgraph import build_reference, forward, full_macs
from nestslice.planner import (DwBlock, DwInstance, KnapsackInstance,
                               dw_objective, plan_bottom_up, solve_depthwise,
                               solve_exact)
from nestslice.tensor import copy_counter


def report(n, text):
    print(f"\n[criterion {n:>2}] PASS: {text}")


def quarter_caps(g):
    full = full_macs(g)
    return [full, int(0.75 * full), int(0.5 * full), int(0.25 * full)]


def prepared(arch, ishape, seed, classes=10):
    g = build_reference(arch, "S", ishape, classes=classes, seed=seed)
    store = random_grad_store(g, seed=seed)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    store2 = permute_grad_store(g2, perm, store)
    return g2, scores2, store2


def test_criterion_01_knapsack_exactness():
    rng = np.random.default_rng(101)
    t0 = time.time()
    for _ in range(500):
        profits, weights, c = random_instance(rng, max_items=15)
        a = solve_exact(KnapsackInstance(profits, weights, c))
        b = brute_opt(profits, weights, c)
        assert a.profit == b.profit  # exact profit equality
        assert a.weight <= c
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"500 instances match exhaustive enumeration in "
              f"{elapsed:.2f}s")


def test_criterion_02_bottom_up_bound():
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(1000):
        profits, weights, c = random_instance(rng, max_items=12)
        bu, _, _ = bu_two_stage(profits, weights, c)
        opt = solve_exact(KnapsackInstance(profits, weights, c)).profit
        if bu < (2.0 / 3.0) * opt - 1e-9:
            violations += 1
    assert violations == 0
    profits, weights, c, _ = tight_instance_bu(10.0, 0.1, 6)
    bu, _, _ = bu_two_stage(profits, weights, c)
    ratio = bu / brute_opt(profits, weights, c).profit
    assert 0.666 < ratio < 0.68
    report(2, f"0 violations in 1000 instances; tight ratio {ratio:.4f}")


def test_criterion_03_top_down_bound():
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(1000):
        profits, weights, c = random_instance(rng, max_items=12)
        td, _, _ = td_two_stage(profits, weights, c)
        opt_half = solve_exact(
            KnapsackInstance(profits, weights, c // 2)).profit
        if td < 0.5 * opt_half - 1e-9:
            violations += 1
    assert violations == 0
    profits, weights, c, _ = tight_instance_td(10.0, 0.1, 6)
    td, _, _ = td_two_stage(profits, weights, c)
    ratio = td / brute_opt(profits, weights, c // 2).profit
    assert 0.5 < ratio < 0.51
    report(3, f"0 violations in 1000 instances; tight ratio {ratio:.4f}")


def test_criterion_04_depthwise_solver_exact():
    rng = np.random.default_rng(404)
    t0 = time.time()
    checked = 0
    while checked < 200:
        d = int(rng.integers(1, 4))
        n0 = int(rng.integers(2, 7))
        sizes = [n0]
        blocks = []
        for _ in range(d):
            ni = int(rng.integers(2, 7))
            km = rng.random((ni, sizes[-1]))
            km = km[np.argsort(-km.sum(axis=1))]
            blocks.append(DwBlock(
                dw_profits=rng.random(sizes[-1]),
                w2=int(rng.integers(1, 9)), n_units=ni,
                kernel_profits=km, w3=int(rng.integers(1, 5)),
                pw_extra_macs=int(rng.integers(0, 4))))
            sizes.append(ni)
        inst = DwInstance(np.sort(rng.random(n0))[::-1].copy(),
                          int(rng.integers(1, 9)), n0, blocks, 1)
        _, total = dw_objective(inst, sizes)
        cap = int(rng.integers(max(1, total // 4), total + 3))
        inst.capacity = cap
        _, minimal = dw_objective(inst, [1] * (d + 1))
        if minimal > cap:
            continue
        sol = solve_depthwise(inst)
        best = -1.0
        for tup in itertools.product(*[range(1, s + 1) for s in sizes]):
            pr, mc = dw_objective(inst, tup)
            if mc <= cap and pr > best:
                best = pr
        assert sol.profit == best  # exact equality (shared prefix sums)
        assert sol.macs <= cap
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(4, f"200 instances match count-tuple enumeration in "
              f"{elapsed:.1f}s")


def test_criterion_05_permutation_invariance():
    rng = np.random.default_rng(55)
    worst = 0.0
    for arch, ishape in [("dnn", 64), ("cnn", (10, 10, 1)),
                         ("dscnn", (10, 10, 1))]:
        g = build_reference(arch, "S", ishape, classes=10, seed=5)
        scores = score_units(g, random_grad_store(g, seed=5))
        g2, _ = permute_descending(g, scores)
        shape = (100, ishape) if np.isscalar(ishape) else (100,) + ishape
        x = rng.standard_normal(shape)
        a, b = forward(g, x), forward(g2, x)
        diff = float(np.abs(a - b).max())
        worst = max(worst, diff)
        assert diff < 1e-5
        assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))
    report(5, f"logits preserved on 100 inputs per architecture "
              f"(max |diff| {worst:.2e}); argmax identical")


def test_criterion_06_slicing_equivalence():
    rng = np.random.default_rng(66)
    for arch, ishape in [("dnn", 24), ("dscnn", (8, 8, 1))]:
        g2, scores2, _ = prepared(arch, ishape, seed=6)
        plan = plan_bottom_up(g2, scores2, quarter_caps(g2))
        model = NestedModel(g2, plan)
        full = full_macs(g2)
        shape = (8, ishape) if np.isscalar(ishape) else (8,) + ishape
        x = rng.standard_normal(shape)
        for k in range(plan.n_rows):
            model.activate(k)
            sliced, macs_s = model.infer(x, count_macs=True)
            masked, macs_m = model.masked_infer(k, x, count_macs=True)
            trunc = ng.truncate(g2, plan.row_widths(k))
            bn_idx = [i for i, l in enumerate(trunc.layers)
                      if l.kind == ng.BATCHNORM]
            stats = {i: model.bn_stats[k][i] for i in bn_idx}
            truncated = forward(trunc, x, bn_stats=stats)
            assert np.abs(sliced - masked).max() < 1e-5
            assert np.abs(sliced - truncated).max() < 1e-5
            assert macs_s <= plan.capacities[k]
            assert macs_m == full  # masking pays the full-model count
    report(6, "sliced = masked = truncated within 1e-5 for every row; "
              "masked count equals the full count")


def test_criterion_07_adaptation_cost():
    for ishape in (16, 256):  # cost independent of width
        g2, scores2, _ = prepared("dnn", ishape, seed=7)
        plan = plan_bottom_up(g2, scores2, quarter_caps(g2))
        model = NestedModel(g2, plan)
        before = copy_counter()
        for i in range(200):
            st = model.activate(i % plan.n_rows)
            assert st.weights_copied == 0
            assert st.integers_updated == 2  # one per sliceable layer
        assert copy_counter() == before
    g2, scores2, _ = prepared("dnn", 16, seed=7)
    plan = plan_bottom_up(g2, scores2, quarter_caps(g2))
    opt = NestedModel(g2, plan, layout=CACHE_OPTIMIZED)
    st = opt.activate(1)
    assert st.integers_updated == 2 + 3  # plus one flag bit per dense layer
    assert st.weights_copied == 0
    # inference copies no weights either: every row runs on float32 views
    # of the one store (and of that row's batchnorm statistics)
    convs = []
    for arch, layout in (("dscnn", "standard"), ("cnn", CACHE_OPTIMIZED)):
        g3, scores3, _ = prepared(arch, (8, 8, 1), seed=7)
        convs.append(NestedModel(
            g3, plan_bottom_up(g3, scores3, quarter_caps(g3)), layout=layout))
    rng = np.random.default_rng(77)
    for m in [model, opt] + convs:
        shape = m.graph.input_shape
        x = rng.standard_normal(
            (2,) + ((shape,) if np.isscalar(shape) else shape))
        before = copy_counter()
        for k in range(m.plan.n_rows):
            m.activate(k)
            m.infer(x)
        assert copy_counter() == before
        assert_rows_share_store(m)
    report(7, "200 switches: 0 weight elements copied, 2 integers each "
              "(+3 layout flags when cache-optimized), width-independent; "
              "inference on every row copies 0 and reads float32 views")


def test_criterion_08_gradient_correctness():
    from test_autograd import one_block_net
    rng = np.random.default_rng(88)
    worst = 0.0
    g = build_reference("dnn", "S", 16, classes=4, seed=8)
    g = ng.truncate(g, [24, 24])
    worst = max(worst, fd_gradient_check(
        g, rng.standard_normal((4, 16)), rng.integers(0, 4, 4)))
    g = one_block_net(rng, relu=True)
    worst = max(worst, fd_gradient_check(
        g, rng.standard_normal((4, 6, 6, 2)), rng.integers(0, 4, 4)))
    assert worst < 1e-4
    report(8, f"backprop vs central differences: worst relative error "
              f"{worst:.2e} over every layer kind")


def test_criterion_09a_cache_direction(default_sweep):
    pairs = {}
    for r in default_sweep:
        pairs.setdefault((r["m"], r["n"], r["elem_bytes"], r["slice"]),
                         {})[r["mode"]] = r["hit_rate"]
    for key, pair in pairs.items():
        assert pair["optimized"] >= pair["basic"], key
    report("9a", f"optimized hit rate >= basic on all {len(pairs)} "
                 f"sweep points (RP2040-like cache)")


def test_criterion_09b_optimized_hit_rate_floor(default_sweep):
    # Faithful assertion of the 97% floor. Unattainable for a weight-only
    # trace: every line must be fetched once per sweep of a >16kB matrix,
    # so hit_rate <= 1 - elem_bytes/(8*4) <= 96.88%. Kept red on purpose;
    # do not weaken.
    floor = 0.97
    worst = min(r["hit_rate"] for r in default_sweep
                if r["mode"] == "optimized")
    assert worst >= floor, (
        f"optimized hit-rate floor {worst:.4f} < {floor}: a weight-only "
        f"trace tops out at 1 - elem/(8*b); hardware counters that also "
        f"see instruction fetches report higher absolute rates"
    )
    report("9b", f"optimized hit rate >= 97% everywhere (min {worst:.3f})")


def test_criterion_09c_verbatim_access_orders():
    # both canonical sequences appear verbatim at batch 3
    basic = trace_matmul("basic", 2, 3, 3, 1.0, 4) // 4
    opt = trace_matmul("optimized", 2, 3, 3, 1.0, 4) // 4
    assert list(basic[:8]) == [0, 3, 1, 4, 2, 5, 0, 3]
    assert list(opt[:8]) == [0, 1, 0, 1, 0, 1, 2, 3]
    report("9c", "2x3 worked-example access orders match verbatim")


def test_criterion_10_nestedness_and_monotone_quality():
    t0 = time.time()
    data = synth_blobs(classes=10, per_class=120, dims=16, seed=10,
                       separation=5.0)
    # the dataset is at least 95% linearly learnable: fit a linear
    # softmax probe with plain gradient descent
    import nestslice.autograd as ag
    from nestslice.tensor import store
    lin = ng.ModelGraph(
        [ng.LayerSpec("dense", 10, activation="softmax")],
        [{"kernel": store(np.zeros((16, 10), np.float32)),
          "bias": store(np.zeros(10, np.float32))}],
        16, encoder_end=0)
    tx, ty = data.split("train")
    for _ in range(300):
        _, grads = ag.backward(lin, (tx, ty))
        ag.sgd_step(lin, grads, lr=0.5)
    assert evaluate(lin, tx, ty) >= 0.95

    g = build_reference("dnn", "S", 16, classes=10, seed=10)
    cfg = TrainConfig(batch_size=100, epochs=4,
                      learning_rate_schedule=[(0, 3e-3)])
    train_single(g, data, cfg, seed=10)
    stream = data.batches("train", 100, seed=10, repeat=True)
    from nestslice.autograd import accumulate_importance_grads
    grads = accumulate_importance_grads(g, stream, n_batches=100)
    scores = score_units(g, grads)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    plan = plan_bottom_up(g2, scores2, quarter_caps(g2))
    assert np.all(plan.points[1:] <= plan.points[:-1])  # nested rows
    model = NestedModel(g2, plan)
    tune = TrainConfig(batch_size=100, epochs=10,
                       learning_rate_schedule=[(0, 2e-3)])
    finetune_joint(model, data, tune, seed=10)
    test_x, test_y = data.split("test")
    accs = evaluate_rows(model, test_x, test_y)  # capacity descending
    asc = accs[::-1]  # 25, 50, 75, 100
    inversions = [(a - b) for a, b in zip(asc, asc[1:]) if b < a]
    assert len(inversions) <= 1
    assert all(gap <= 0.01 + 1e-9 for gap in inversions)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(10, f"nested plan; accuracies (25/50/75/100%) = "
               f"{[round(a, 3) for a in asc]}; "
               f"{len(inversions)} inversion(s); {elapsed:.0f}s")


def test_criterion_11_planner_speed_at_scale():
    # DS-CNN L item counts: width 276, five blocks (plus the first conv)
    g = build_reference("dscnn", "L", (10, 10, 1), classes=12, seed=11)
    store = random_grad_store(g, seed=11)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    t0 = time.time()
    plan = plan_bottom_up(g2, scores2, quarter_caps(g2))
    elapsed = time.time() - t0
    plan.validate(g2)
    n_items = sum(g2.layers[i].units for i in g2.sliceable_indices())
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(11, f"bottom-up plan over {n_items} units "
               f"({full_macs(g2):,} MACs) in {elapsed:.1f}s")


def test_criterion_12_few_shot_harness():
    from nestslice.datasets import Dataset
    blob = synth_blobs(classes=6, per_class=50, dims=16, seed=12,
                       separation=4.0)
    data = Dataset(blob.samples.reshape(-1, 4, 4, 1), blob.labels,
                   blob.splits)
    g = build_reference("dscnn", "S", (4, 4, 1), classes=6, seed=12)
    cfg0 = TrainConfig(batch_size=50, epochs=2,
                       learning_rate_schedule=[(0, 3e-3)])
    train_single(g, data, cfg0, seed=12)
    stream = data.batches("train", 50, seed=12, repeat=True)
    from nestslice.autograd import accumulate_importance_grads
    grads = accumulate_importance_grads(g, stream, n_batches=20)
    scores = score_units(g, grads)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    grads2 = permute_grad_store(g2, perm, grads)
    full = full_macs(g2)
    caps = [full, full // 2, full // 4]
    cfg = TrainConfig(batch_size=20, epochs=2,
                      learning_rate_schedule=[(0, 2e-3)])
    r1 = few_shot_bu_td_harness(g2, scores2, grads2, data, caps,
                                shot_counts=[5, 10], cfg=cfg, seed=12)
    r2 = few_shot_bu_td_harness(g2, scores2, grads2, data, caps,
                                shot_counts=[5, 10], cfg=cfg, seed=12)
    assert r1 == r2  # deterministic under seed
    deltas = {e["shots"]: e["mean_delta"] for e in r1}
    assert set(deltas) == {5, 10}
    plans_differ = r1[0]["bu_points"] != r1[0]["td_points"]
    report(12, "paired recovery curves emitted; mean BU-TD deltas "
               + ", ".join(f"{k} shots: {v:+.4f}"
                           for k, v in sorted(deltas.items()))
               + ("; plans differ" if plans_differ
                  else "; both heuristics found the same nested plan")
               + " (direction reported, not asserted)")
