import itertools
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestslice.netgraph as ng
import nestslice.planner as pl
from conftest import (dp_lexmin_oracle, flat_rows_brute, flat_rows_oracle,
                      random_grad_store, solve_depthwise_oracle)
from nestslice.bounds import brute_opt
from nestslice.errors import ConfigError, InfeasiblePlanError
from nestslice.importance import (apply_to_scores, permute_descending,
                                  permute_grad_store, score_units)
from nestslice.netgraph import build_reference, full_macs
from nestslice.planner import (DwBlock, DwInstance, KnapsackInstance,
                               SlicingPlan, dw_objective, make_plan,
                               plan_baseline, plan_bottom_up, plan_depthwise,
                               plan_top_down, rider_costs, solve_depthwise,
                               solve_exact, solve_iterative)

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "reference.json")


def test_tight_instance_selects_heavier_item():
    # capacity 30 prefers the single 10.1-profit item over any 10
    inst = KnapsackInstance([10.1, 10, 10, 10], [21, 20, 20, 20], 30)
    sol = solve_exact(inst)
    assert sol.selected == (0,)
    assert sol.profit == pytest.approx(10.1)


def test_everything_fits_selects_all():
    inst = KnapsackInstance([1.0, 2.0, 3.0], [5, 5, 5], 100)
    assert solve_exact(inst).selected == (0, 1, 2)


def test_forced_and_excluded():
    inst = KnapsackInstance([10.0, 9.0, 8.0], [5, 5, 5], 10,
                            forced_in={2}, excluded={0})
    sol = solve_exact(inst)
    assert sol.selected == (1, 2)


def test_forced_exceeding_capacity_infeasible():
    with pytest.raises(InfeasiblePlanError):
        solve_exact(KnapsackInstance([1.0, 1.0], [6, 6], 10,
                                     forced_in={0, 1}))


def test_overlapping_forced_excluded_rejected():
    with pytest.raises(ConfigError):
        KnapsackInstance([1.0], [1], 1, forced_in={0}, excluded={0})


def test_matches_brute_force_on_random_instances(rng):
    for _ in range(200):
        n = int(rng.integers(1, 16))
        weights = rng.integers(1, 60, n)
        profits = rng.integers(1, 100, n).astype(np.float64)
        cap = int(rng.integers(5, 150))
        a = solve_exact(KnapsackInstance(profits, weights, cap))
        b = brute_opt(profits, weights, cap)
        assert a.profit == b.profit
        assert a.selected == b.selected  # lex tie-break agreement
        assert a.weight <= cap


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_solver_optimality_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    weights = rng.integers(1, 40, n)
    profits = rng.integers(0, 50, n).astype(np.float64)
    cap = int(rng.integers(1, 120))
    a = solve_exact(KnapsackInstance(profits, weights, cap))
    b = brute_opt(profits, weights, cap)
    assert a.profit == b.profit and a.selected == b.selected


def test_forced_and_excluded_match_reduced_brute_force(rng):
    # emulate forced/excluded by solving the reduced free-item problem
    # exhaustively and stitching the forced items back in
    for _ in range(100):
        n = int(rng.integers(3, 12))
        weights = rng.integers(1, 30, n)
        profits = rng.integers(1, 60, n).astype(np.float64)
        idx = rng.permutation(n)
        forced = frozenset(int(i) for i in idx[: rng.integers(0, 3)])
        excluded = frozenset(
            int(i) for i in idx[len(forced):len(forced) + rng.integers(0, 3)]
        )
        cap = int(weights.sum() // 2 + 1)
        if int(weights[list(forced)].sum()) > cap:
            continue
        sol = solve_exact(KnapsackInstance(profits, weights, cap,
                                           forced_in=forced,
                                           excluded=excluded))
        free = [i for i in range(n) if i not in forced | excluded]
        sub = brute_opt(profits[free], weights[free],
                        cap - int(weights[list(forced)].sum()))
        expect = tuple(sorted(set(forced) | {free[i] for i in sub.selected}))
        assert sol.profit == pytest.approx(
            sub.profit + float(profits[list(forced)].sum()))
        assert sol.selected == expect
        assert forced <= set(sol.selected)
        assert not (excluded & set(sol.selected))


# zero, negative, tied and float profits; weights up to twice the capacity
PROFITS = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 0.0, 1.0, 1.0, 2.0]),
                    st.floats(-10, 10, allow_nan=False))
ITEMS = st.lists(st.tuples(PROFITS, st.integers(1, 120)), min_size=1,
                 max_size=16)


@settings(max_examples=400, deadline=None)
@given(items=ITEMS, cap=st.integers(1, 70))
def test_banded_dp_matches_unbanded_oracle(items, cap):
    p = np.array([v for v, _ in items])
    w = np.array([v for _, v in items], dtype=np.int64)
    assert pl._dp_lexmin(p, w, cap) == dp_lexmin_oracle(p, w, cap)


@settings(max_examples=200, deadline=None)
@given(items=ITEMS, cap=st.integers(1, 70), data=st.data())
def test_forced_and_excluded_match_unbanded_oracle(items, cap, data):
    p = np.array([v for v, _ in items])
    w = np.array([v for _, v in items], dtype=np.int64)
    index = st.integers(0, len(items) - 1)
    forced = data.draw(st.frozensets(index, max_size=3))
    excluded = data.draw(st.frozensets(index, max_size=3)) - forced
    inst = KnapsackInstance(p, w, cap, forced_in=forced, excluded=excluded)
    try:
        got = solve_exact(inst)
    except InfeasiblePlanError:
        assert int(w[list(forced)].sum()) > cap
        return
    with mock.patch.object(pl, "_dp_lexmin", dp_lexmin_oracle):
        assert got == solve_exact(inst)


def test_banded_dp_matches_oracle_on_wide_instances(rng):
    # many items and capacities spanning many take-bit bytes, with the
    # capacity below, near and above the total weight
    for total_share in (0.1, 0.5, 0.95, 1.2):
        n = 150
        w = rng.integers(1, 200, n)
        p = rng.integers(-5, 40, n).astype(np.float64)
        cap = int(total_share * w.sum())
        assert pl._dp_lexmin(p, w, cap) == dp_lexmin_oracle(p, w, cap)


def test_gcd_scaling_handles_large_capacities():
    profits = np.array([5.0, 4.0, 3.0])
    weights = np.array([1_000_000, 2_000_000, 3_000_000])
    sol = solve_exact(KnapsackInstance(profits, weights, 3_500_000))
    assert sol.selected == (0, 1)


def test_dp_memory_is_bits_per_cell(monkeypatch):
    # the DP keeps one take bit per (item, capacity) cell plus a few float
    # rows; storing float rows per item would need 64 bits a cell
    rng = np.random.default_rng(3)
    n, cap = 400, 50_000
    weights = rng.integers(1, 1000, n)
    profits = rng.integers(1, 100, n).astype(np.float64)
    assert np.gcd.reduce(weights) == 1 and weights.sum() > cap
    # tracemalloc sees no mapped table, so keep the take bits on the heap
    monkeypatch.setattr(pl, "TABLE_MAP_BYTES", float("inf"))
    tracemalloc.start()
    try:
        solve_exact(KnapsackInstance(profits, weights, cap))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (n * (cap + 1) / 8 + 32 * (cap + 1))


def test_mapped_tables_give_the_same_solutions(rng, monkeypatch):
    table = pl._dp_table((3, 5), np.uint16)
    assert table.shape == (3, 5) and table.dtype == np.uint16
    assert table.flags.writeable and not table.any()
    w = rng.integers(1, 200, 150)
    p = rng.integers(-5, 40, 150).astype(np.float64)
    dw, sizes = random_signed_dw_instance(rng, 2)
    least = dw_objective(dw, [1] * len(sizes))[1]
    dw.capacity = (least + dw_objective(dw, sizes)[1]) // 2
    heap = pl._dp_lexmin(p, w, int(w.sum()) // 2), solve_depthwise(dw)
    monkeypatch.setattr(pl, "TABLE_MAP_BYTES", 1)  # map every table
    mapped = pl._dp_lexmin(p, w, int(w.sum()) // 2), solve_depthwise(dw)
    assert pl._dp_table((3, 5)).base is not None
    assert mapped == heap


def test_branch_and_bound_fallback_agrees(monkeypatch):
    import nestslice.planner as pl
    rng = np.random.default_rng(5)
    weights = rng.integers(1, 10 ** 6, 24)
    profits = rng.integers(1, 100, 24).astype(np.float64)
    cap = int(weights.sum() * 0.4)
    dp = solve_exact(KnapsackInstance(profits, weights, cap))
    monkeypatch.setattr(pl, "DP_BYTE_LIMIT", 10)
    bb = solve_exact(KnapsackInstance(profits, weights, cap))
    assert bb.profit == pytest.approx(dp.profit)
    assert bb.weight <= cap


# -- iterative heuristics -----------------------------------------------------


def test_bu_on_worst_case_instance():
    profits = [10.1, 10, 10, 10]
    weights = [21, 20, 20, 20]
    sols = solve_iterative(profits, weights, [60, 30], mode="bu")
    assert sols[1].selected == (0,)
    assert sols[0].profit == pytest.approx(20.1)
    opt = brute_opt(profits, weights, 60)
    assert sols[0].profit / opt.profit == pytest.approx(0.67)
    assert sols[0].profit / opt.profit >= 2 / 3


def test_td_on_worst_case_instance():
    profits = [10.1, 10.1, 10.1, 20]
    weights = [20, 20, 20, 30]
    sols = solve_iterative(profits, weights, [60, 30], mode="td")
    assert sols[0].selected == (0, 1, 2)
    assert sols[1].profit == pytest.approx(10.1)
    opt_half = brute_opt(profits, weights, 30)
    assert sols[1].profit / opt_half.profit == pytest.approx(0.505)


def test_single_capacity_bu_equals_td(rng):
    profits = rng.integers(1, 50, 10).astype(np.float64)
    weights = rng.integers(1, 20, 10)
    cap = int(weights.sum())
    a = solve_iterative(profits, weights, [cap], mode="bu")
    b = solve_iterative(profits, weights, [cap], mode="td")
    assert a[0].selected == b[0].selected == tuple(range(10))


def test_iterative_nesting_property(rng):
    for mode in ("bu", "td"):
        for _ in range(25):
            n = int(rng.integers(3, 14))
            profits = rng.integers(1, 80, n).astype(np.float64)
            weights = rng.integers(1, 30, n)
            total = int(weights.sum())
            caps = [total, (3 * total) // 4, total // 2, total // 4]
            caps = [max(c, int(weights.min())) for c in caps]
            sols = solve_iterative(profits, weights, caps, mode=mode)
            for big, small in zip(sols, sols[1:]):
                assert set(small.selected) <= set(big.selected)
                assert small.weight <= big.weight
            for sol, cap in zip(sols, caps):
                assert sol.weight <= cap


# -- plans over graphs ---------------------------------------------------------


def planned_graph(arch="dnn", ishape=16, seed=1, size="S", classes=5):
    g = build_reference(arch, size, ishape, classes=classes, seed=seed)
    store = random_grad_store(g, seed=seed)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    store2 = permute_grad_store(g2, perm, store)
    return g2, scores2, store2


def quarter_caps(g):
    full = full_macs(g)
    return [full, int(0.75 * full), int(0.5 * full), int(0.25 * full)]


def test_plan_bottom_up_quarter_capacities():
    g2, scores2, _ = planned_graph()
    caps = quarter_caps(g2)
    plan = plan_bottom_up(g2, scores2, caps)
    assert plan.n_rows == 4
    plan.validate(g2)
    # 100% row keeps everything
    assert plan.row_widths(0) == [g2.layers[i].units
                                  for i in g2.sliceable_indices()]


def test_plan_single_full_capacity_row():
    g2, scores2, _ = planned_graph()
    plan = plan_bottom_up(g2, scores2, [full_macs(g2)])
    assert plan.n_rows == 1
    assert plan.row_widths(0) == [144, 144]


def test_plan_top_down_nested_and_feasible():
    g2, scores2, _ = planned_graph("dscnn", (8, 8, 1))
    caps = quarter_caps(g2)
    plan = plan_top_down(g2, scores2, caps)
    plan.validate(g2)
    assert np.all(plan.points[1:] <= plan.points[:-1])


def test_plans_match_benchmark_reference():
    # perfbench/reference.json holds the six plans of the benchmark's
    # analysis workload: DS-CNN L and S (seed 11, noise gradient sums) at
    # 100/75/50/25% of full MACs, flat in both modes and depthwise on S
    with open(REFERENCE) as fh:
        want = json.load(fh)["plans"]
    got = {}
    for size, ishape, classes in (("L", (10, 10, 1), 12),
                                  ("S", (8, 8, 1), 10)):
        g2, scores2, store2 = planned_graph("dscnn", ishape, seed=11,
                                            size=size, classes=classes)
        caps = quarter_caps(g2)
        got[f"{size}.flat.bu"] = plan_bottom_up(g2, scores2, caps)
        got[f"{size}.flat.td"] = plan_top_down(g2, scores2, caps)
        if size == "S":
            for mode in ("bu", "td"):
                got[f"S.depthwise.{mode}"] = plan_depthwise(
                    g2, scores2, store2, caps, mode=mode)
    assert {k: p.points.tolist() for k, p in got.items()} == want


def test_plan_with_duplicate_capacities():
    # rounding percent budgets can repeat a capacity; rows must still nest
    g2, scores2, _ = planned_graph()
    full = full_macs(g2)
    plan = plan_bottom_up(g2, scores2, [full, full // 2, full // 2])
    plan.validate(g2)
    assert plan.row_widths(1) == plan.row_widths(2)


def test_plan_requires_descending_scores():
    g = build_reference("dnn", "S", 16, classes=5, seed=1)
    scores = score_units(g, random_grad_store(g, seed=1))
    caps = quarter_caps(g)
    from nestslice.errors import IntegrityError
    with pytest.raises(IntegrityError, match="descending"):
        plan_bottom_up(g, scores, caps)  # unpermuted model


def test_plan_infeasible_stage_is_named():
    g2, scores2, _ = planned_graph()
    with pytest.raises(InfeasiblePlanError, match="stage 0"):
        plan_bottom_up(g2, scores2, [full_macs(g2), 1])


def test_rider_costs_cover_classifier_and_depthwise():
    g = build_reference("dscnn", "S", (8, 8, 1), classes=5, seed=1)
    riders = rider_costs(g)
    sl = g.sliceable_indices()
    per_unit = ng.unit_macs(g)
    dw_layers = [i for i, l in enumerate(g.layers) if l.kind == ng.DEPTHWISE]
    # conv and all but the last pointwise carry the next depthwise filter
    for i in sl[:-1]:
        assert riders[i] == per_unit[g.next_compute_layer(i)]
    # last pointwise carries the classifier columns: classes * h * w
    assert riders[sl[-1]] == 5 * 8 * 8
    # folded planning budget bounds true full-model MACs exactly
    items_total = sum(per_unit[i] * g.layers[i].units + riders[i]
                      * g.layers[i].units for i in sl)
    assert items_total == full_macs(g)
    g2, scores2, _ = planned_graph("dscnn", (8, 8, 1), seed=1)
    assert pl.PlanItems.build(g2, scores2).weights.sum() == full_macs(g2)


FLAT_GRAPHS = [(arch, ishape, size) for arch, ishape in
               (("dnn", 16), ("cnn", (8, 8, 1)), ("dscnn", (8, 8, 1)))
               for size in ("S", "L")]


@pytest.mark.parametrize("arch,ishape,size", FLAT_GRAPHS,
                         ids=[f"{a}-{s}" for a, _, s in FLAT_GRAPHS])
def test_flat_rows_match_item_dp_on_continuous_scores(arch, ishape, size):
    # 6 graphs x 2 modes x (7 seeds on S, 2 on L): 54 plans equal those
    # of solve_iterative over every unit
    for seed in range(7 if size == "S" else 2):
        g2, scores2, _ = planned_graph(arch, ishape, seed=seed, size=size)
        items = pl.PlanItems.build(g2, scores2)
        caps = quarter_caps(g2)
        for mode in ("bu", "td"):
            got = pl._flat_rows(items, caps, mode)
            assert ([r.tolist() for r in got]
                    == flat_rows_oracle(items, caps, mode)), (seed, mode)


def test_flat_rows_match_item_dp_and_brute_force_on_integer_ties(rng):
    # few weight classes and profits in 1..3: many exact ties, across
    # layers of one class and between count tuples
    for _ in range(150):
        sizes = rng.integers(1, 5, int(rng.integers(1, 5))).tolist()
        w_layer = rng.choice([2, 3, 4, 6], len(sizes))
        profits = np.concatenate([np.sort(rng.integers(1, 4, n))[::-1]
                                  for n in sizes]).astype(np.float64)
        items = pl.PlanItems(profits, np.repeat(w_layer, sizes),
                             np.cumsum([0] + sizes[:-1]), sizes)
        total = int(items.weights.sum())
        caps = sorted(rng.integers(int(w_layer.sum()), total + 1, 3),
                      reverse=True)
        for mode in ("bu", "td"):
            got = [r.tolist() for r in pl._flat_rows(items, caps, mode)]
            assert got == flat_rows_oracle(items, caps, mode)
            assert got == flat_rows_brute(items, caps, mode)


@pytest.mark.parametrize("arch,ishape", [("dnn", 16), ("cnn", (8, 8, 1)),
                                         ("dscnn", (8, 8, 1))])
def test_flat_fallback_gives_the_same_plans(arch, ishape, monkeypatch):
    # a stage whose count tuples outnumber the item DP's cells runs
    # solve_exact; forcing that on every stage changes no plan
    g2, scores2, _ = planned_graph(arch, ishape, seed=2)
    caps = quarter_caps(g2)
    want = [plan_bottom_up(g2, scores2, caps), plan_top_down(g2, scores2, caps)]
    calls = []
    solve = pl.solve_exact
    monkeypatch.setattr(pl, "_dp_cells", lambda *a: 0)
    monkeypatch.setattr(pl, "solve_exact",
                        lambda inst: calls.append(1) or solve(inst))
    got = [plan_bottom_up(g2, scores2, caps), plan_top_down(g2, scores2, caps)]
    assert calls
    for a, b in zip(got, want):
        assert a.points.tolist() == b.points.tolist()


def test_flat_block_memory_is_bounded(monkeypatch):
    # the largest block of the reference graphs: CNN L at 8x8x1, in the
    # top-down stage at 75% of full MACs. Its traced peak stays within
    # the bytes the guard estimates for it
    g2, scores2, _ = planned_graph("cnn", (8, 8, 1), size="L")
    items = pl.PlanItems.build(g2, scores2)
    caps = quarter_caps(g2)
    ones = np.ones(len(items.sizes), np.int64)
    prev = pl._flat_stage(items, caps[0], ones, np.array(items.sizes))
    tuples = []
    block_bytes = pl._block_bytes
    monkeypatch.setattr(pl, "_block_bytes",
                        lambda n: tuples.append(n) or block_bytes(n))
    tracemalloc.start()
    try:
        pl._flat_stage(items, caps[1], ones, prev)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tuples == [272_640]
    assert peak <= block_bytes(tuples[0])


def test_flat_block_over_byte_limit_runs_solve_exact(monkeypatch):
    # a stage whose block would take more than DP_BYTE_LIMIT bytes runs
    # solve_exact, which keeps the item DP's own budget; no plan changes
    g2, scores2, _ = planned_graph("dscnn", (8, 8, 1), seed=2)
    caps = quarter_caps(g2)
    sizes = []
    block_bytes = pl._block_bytes
    monkeypatch.setattr(pl, "_block_bytes",
                        lambda n: sizes.append(block_bytes(n)) or sizes[-1])
    want = [plan_bottom_up(g2, scores2, caps), plan_top_down(g2, scores2, caps)]
    limit, low = pl.DP_BYTE_LIMIT, max(sizes) - 1
    over = sizes.count(low + 1)
    calls = []
    solve = pl.solve_exact

    def exact(inst):
        calls.append(1)
        pl.DP_BYTE_LIMIT = limit
        try:
            return solve(inst)
        finally:
            pl.DP_BYTE_LIMIT = low

    monkeypatch.setattr(pl, "DP_BYTE_LIMIT", low)
    monkeypatch.setattr(pl, "solve_exact", exact)
    got = [plan_bottom_up(g2, scores2, caps), plan_top_down(g2, scores2, caps)]
    assert len(calls) == over > 0
    for a, b in zip(got, want):
        assert a.points.tolist() == b.points.tolist()


@pytest.mark.parametrize("kind", ng.COMPUTE_KINDS)
def test_cost_lives_in_one_place(kind, monkeypatch):
    # tripling one kind's per-unit cost in its one function must reach
    # every MAC count: the steps of row programs, plan_macs, item weights
    # with their riders, and both planner formulations. Each step is the
    # record of its layer: its kind, and MACs that sum to the row's
    per_unit = ng._per_unit_macs

    def scaled(g, i, in_dim, out_dim):
        macs = per_unit(g, i, in_dim, out_dim)
        return 3 * macs if g.layers[i].kind == kind else macs

    monkeypatch.setattr(ng, "_per_unit_macs", scaled)
    for arch, ishape in (("dscnn", (8, 8, 1)), ("cnn", (8, 8, 1)),
                         ("dnn", 16)):
        g2, scores2, store2 = planned_graph(arch, ishape, seed=3)
        items = pl.PlanItems.build(g2, scores2)
        assert items.weights.sum() == full_macs(g2)
        caps = quarter_caps(g2)
        plan = (plan_depthwise(g2, scores2, store2, caps) if arch == "dscnn"
                else plan_bottom_up(g2, scores2, caps))
        plan.validate(g2)
        for k in range(plan.n_rows):
            widths = plan.row_widths(k)
            masked = ng._masked_copy(g2, widths)
            for prog, want in ((ng._build_program(g2, widths),
                                ng.plan_macs(g2, widths)),
                               (ng._build_program(masked), full_macs(g2))):
                assert ([s.kind for s in prog.steps]
                        == [l.kind for l in g2.layers])
                assert prog.macs == sum(s.macs for s in prog.steps) == want


# -- baselines -----------------------------------------------------------------


def test_equal_share_half_capacity():
    # 2 hidden layers of width 4: 50% capacity keeps 2 units per layer
    from nestslice.netgraph import LayerSpec, ModelGraph
    from nestslice.tensor import store
    rng = np.random.default_rng(0)
    mk = lambda fi, u: {
        "kernel": store(
            rng.standard_normal((fi, u)).astype(np.float32)),
        "bias": store(np.zeros(u, dtype=np.float32)),
    }
    layers = [LayerSpec("dense", 4, activation="relu", sliceable=True),
              LayerSpec("dense", 4, activation="relu", sliceable=True),
              LayerSpec("dense", 2, activation="softmax")]
    g = ModelGraph(layers, [mk(4, 4), mk(4, 4), mk(4, 2)], 4, encoder_end=1)
    caps = [full_macs(g), full_macs(g) // 2]
    g2, plan = plan_baseline(g, "l1", caps)
    assert plan.row_widths(1) == [2, 2]


def test_l1_ordering():
    # norms (3, 1, 2) keep order unit0, unit2, unit1
    from nestslice.netgraph import LayerSpec, ModelGraph
    from nestslice.tensor import store
    k1 = np.array([[3.0, -1.0, 2.0]], dtype=np.float32)
    k2 = np.ones((3, 2), dtype=np.float32)
    layers = [LayerSpec("dense", 3, activation="relu", sliceable=True),
              LayerSpec("dense", 2, activation="softmax")]
    weights = [{"kernel": store(k1),
                "bias": store(np.zeros(3, np.float32))},
               {"kernel": store(k2),
                "bias": store(np.zeros(2, np.float32))}]
    g = ModelGraph(layers, weights, 1, encoder_end=0)
    g2, _ = plan_baseline(g, "l1", [full_macs(g)])
    np.testing.assert_allclose(g2.weights[0]["kernel"],
                               [[3.0, 2.0, -1.0]])


def test_random_baseline_reproducible():
    g = build_reference("dnn", "S", 16, classes=5, seed=1)
    caps = quarter_caps(g)
    g_a, plan_a = plan_baseline(g, "random", caps, seed=42)
    g_b, plan_b = plan_baseline(g, "random", caps, seed=42)
    assert np.array_equal(plan_a.points, plan_b.points)
    np.testing.assert_array_equal(g_a.weights[0]["kernel"],
                                  g_b.weights[0]["kernel"])
    g_c, _ = plan_baseline(g, "random", caps, seed=43)
    assert not np.array_equal(g_a.weights[0]["kernel"],
                              g_c.weights[0]["kernel"])


def test_baseline_nested():
    g = build_reference("cnn", "S", (8, 8, 1), classes=5, seed=2)
    for strategy in ("l1", "random"):
        g2, plan = plan_baseline(g, strategy, quarter_caps(g), seed=0)
        plan.validate(g2)


# -- depthwise solver ----------------------------------------------------------


def random_dw_instance(rng, d=None, nmax=6):
    d = d or int(rng.integers(1, 4))
    n0 = int(rng.integers(2, nmax + 1))
    first = np.sort(rng.random(n0))[::-1].copy()
    blocks = []
    sizes = [n0]
    for _ in range(d):
        ni = int(rng.integers(2, nmax + 1))
        km = rng.random((ni, sizes[-1]))
        km = km[np.argsort(-km.sum(axis=1))]
        blocks.append(DwBlock(
            dw_profits=rng.random(sizes[-1]),
            w2=int(rng.integers(1, 9)),
            n_units=ni,
            kernel_profits=km,
            w3=int(rng.integers(1, 5)),
            pw_extra_macs=int(rng.integers(0, 4)),
        ))
        sizes.append(ni)
    inst = DwInstance(first, 3, n0, blocks, 1)
    _, total = dw_objective(inst, sizes)
    return inst, sizes, total


def brute_dw(inst, sizes):
    best_p, best = -1.0, None
    for tup in itertools.product(*[range(1, s + 1) for s in sizes]):
        pr, mc = dw_objective(inst, tup)
        if mc <= inst.capacity and pr > best_p:
            best_p, best = pr, tup
    return best_p, best


def test_dw_full_capacity_keeps_everything(rng):
    inst, sizes, total = random_dw_instance(rng)
    inst = DwInstance(inst.first_profits, inst.w1, inst.n0, inst.blocks,
                      total + 10)
    sol = solve_depthwise(inst)
    assert list(sol.counts) == sizes


def test_dw_matches_brute_force(rng):
    for _ in range(40):
        inst, sizes, total = random_dw_instance(rng)
        cap = int(rng.integers(max(1, total // 4), total + 3))
        inst = DwInstance(inst.first_profits, inst.w1, inst.n0, inst.blocks,
                          cap)
        try:
            sol = solve_depthwise(inst)
        except InfeasiblePlanError:
            _, minimal = dw_objective(inst, [1] * len(sizes))
            assert minimal > cap
            continue
        best_p, _ = brute_dw(inst, sizes)
        assert sol.profit == pytest.approx(best_p, abs=1e-9)
        assert sol.macs <= cap


def test_dw_ties_take_reverse_lex_largest_counts(rng):
    # with profits in {0, 1, 2} optima tie often; the solver returns the
    # optimal count tuple that is largest compared from the last layer back
    ties = 0
    for _ in range(150):
        inst, sizes, total = random_dw_instance(rng, nmax=5)
        first = np.sort(rng.integers(0, 3, inst.n0))[::-1].astype(float)
        blocks = []
        for b in inst.blocks:
            km = rng.integers(0, 3, b.kernel_profits.shape).astype(float)
            km = km[np.argsort(-km.sum(axis=1), kind="stable")]
            blocks.append(DwBlock(rng.integers(0, 3, len(b.dw_profits)),
                                  b.w2, b.n_units, km, b.w3,
                                  b.pw_extra_macs))
        cap = int(rng.integers(max(1, total // 4), total + 3))
        inst = DwInstance(first, inst.w1, inst.n0, blocks, cap)
        tuples = list(itertools.product(*[range(1, s + 1) for s in sizes]))
        objs = [dw_objective(inst, t) for t in tuples]
        feas = [(p, t) for t, (p, m) in zip(tuples, objs) if m <= cap]
        if not feas:
            continue
        best = max(p for p, _ in feas)
        optima = [t for p, t in feas if p == best]
        ties += len(optima) > 1
        want = max(optima, key=lambda t: t[::-1])
        assert solve_depthwise(inst).counts == want
    assert ties >= 20


def random_signed_dw_instance(rng, kind):
    """Random chain whose profits are ties (kind 0), signed (1) or float."""
    def prof(shape):
        if kind == 0:
            return rng.integers(0, 3, shape).astype(float)
        if kind == 1:
            return rng.integers(-2, 3, shape).astype(float)
        return rng.normal(size=shape)

    sizes = [int(rng.integers(1, 7))]
    first = np.sort(prof(sizes[0]))[::-1].copy()
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        ni = int(rng.integers(1, 7))
        km = prof((ni, sizes[-1]))
        km = km[np.argsort(-km.sum(axis=1), kind="stable")]
        blocks.append(DwBlock(prof(sizes[-1]), int(rng.integers(1, 9)), ni,
                              km, int(rng.integers(1, 5)),
                              int(rng.integers(0, 4))))
        sizes.append(ni)
    inst = DwInstance(first, int(rng.integers(1, 6)), sizes[0], blocks, 1)
    return inst, sizes


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.integers(0, 2),
       bounds=st.sampled_from(["none", "min", "max", "both"]))
def test_banded_dw_matches_unbanded_oracle(seed, kind, bounds):
    rng = np.random.default_rng(seed)
    inst, sizes = random_signed_dw_instance(rng, kind)
    _, total = dw_objective(inst, sizes)
    inst.capacity = int(rng.integers(1, total + 5))
    lo = [int(rng.integers(1, n + 1)) for n in sizes]
    hi = [int(rng.integers(1, n + 1)) for n in sizes]
    if bounds == "both":
        hi = [max(a, b) for a, b in zip(lo, hi)]
    minc = lo if bounds in ("min", "both") else None
    maxc = hi if bounds in ("max", "both") else None
    try:
        want = solve_depthwise_oracle(inst, minc, maxc)
    except InfeasiblePlanError:
        with pytest.raises(InfeasiblePlanError):
            solve_depthwise(inst, minc, maxc)
        return
    assert solve_depthwise(inst, minc, maxc) == want


def test_dw_fits_all_returns_bounds_without_a_dp():
    # with coprime MAC coefficients and a capacity of 10^12 the DP table
    # could not be allocated; nonnegative profits that all fit skip it
    blk = DwBlock(dw_profits=np.array([1.0, 0.0]), w2=7, n_units=3,
                  kernel_profits=np.array([[2.0, 0.0], [1.0, 1.0],
                                           [0.0, 0.0]]), w3=5)
    inst = DwInstance(np.array([3.0, 0.0]), 11, 2, [blk], capacity=10 ** 12)
    sol = solve_depthwise(inst)
    assert sol.counts == (2, 3)
    assert solve_depthwise(inst, max_counts=[1, 2]).counts == (1, 2)


def test_dw_prefix_kernel_accounting():
    # with 2 first-layer filters kept, every chosen pointwise filter
    # contributes exactly its first 2 kernel profits
    first = np.array([5.0, 4.0, 3.0])
    km = np.array([[9.0, 1.0, 7.0],
                   [6.0, 2.0, 5.0]])
    blk = DwBlock(dw_profits=np.array([1.0, 1.0, 1.0]), w2=1, n_units=2,
                  kernel_profits=km, w3=1)
    inst = DwInstance(first, 1, 3, [blk], capacity=100)
    profit, _ = dw_objective(inst, (2, 2))
    expect = (5 + 4) + (1 + 1) + (9 + 1) + (6 + 2)
    assert profit == pytest.approx(expect)


def test_dw_infeasible_capacity():
    first = np.array([1.0])
    blk = DwBlock(dw_profits=np.array([1.0]), w2=10, n_units=1,
                  kernel_profits=np.array([[1.0]]), w3=10)
    with pytest.raises(InfeasiblePlanError):
        solve_depthwise(DwInstance(first, 10, 1, [blk], capacity=5))


def test_plan_depthwise_bu_td_nested():
    g2, scores2, store2 = planned_graph("dscnn", (8, 8, 1), seed=3)
    caps = quarter_caps(g2)
    for mode in ("bu", "td"):
        plan = plan_depthwise(g2, scores2, store2, caps, mode=mode)
        plan.validate(g2)


def test_plan_depthwise_repeated_capacities():
    # equal budgets get equal rows; bottom-up once left a row unsolved
    g2, scores2, store2 = planned_graph("dscnn", (8, 8, 1), seed=3)
    full = full_macs(g2)
    caps = [full, full // 2, full // 2]
    for mode in ("bu", "td"):
        plan = plan_depthwise(g2, scores2, store2, caps, mode=mode)
        plan.validate(g2)
        assert plan.n_rows == 3
        assert plan.row_widths(1) == plan.row_widths(2)


def test_dw_cost_model_matches_mac_accounting(rng):
    # the depthwise formulation's MAC term must equal the width-aware
    # count of the actual sliced network, for any count tuple
    from nestslice.planner import build_dw_instance
    g2, scores2, store2 = planned_graph("dscnn", (8, 8, 1), seed=4)
    inst = build_dw_instance(g2, scores2, store2)
    sizes = [inst.n0] + [b.n_units for b in inst.blocks]
    for _ in range(20):
        counts = [int(rng.integers(1, s + 1)) for s in sizes]
        _, macs = dw_objective(inst, counts)
        assert macs == ng.plan_macs(g2, counts)


def test_make_plan_auto_picks_depthwise_for_small_dscnn():
    g2, scores2, store2 = planned_graph("dscnn", (8, 8, 1), seed=3)
    caps = quarter_caps(g2)
    auto = make_plan(g2, scores2, caps, heuristic="bu", grad_store=store2,
                     formulation="auto")
    exact = plan_depthwise(g2, scores2, store2, caps, mode="bu")
    assert np.array_equal(auto.points, exact.points)
    flat = make_plan(g2, scores2, caps, heuristic="bu",
                     formulation="flat")
    flat.validate(g2)


@pytest.mark.parametrize("formulation", ["flat", "depthwise"])
def test_make_plan_rejects_unknown_heuristic(formulation):
    g2, scores2, store2 = planned_graph("dscnn", (8, 8, 1), seed=3)
    with pytest.raises(ConfigError, match="unknown heuristic 'xx'"):
        make_plan(g2, scores2, quarter_caps(g2), heuristic="xx",
                  grad_store=store2, formulation=formulation)


# -- plan file format ----------------------------------------------------------


def test_plan_json_round_trip(tmp_path):
    g2, scores2, _ = planned_graph()
    plan = plan_bottom_up(g2, scores2, quarter_caps(g2), seed=7)
    path = tmp_path / "plan.json"
    plan.save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"capacities", "points", "heuristic", "seed"}
    assert doc["heuristic"] == "bu"
    assert doc["seed"] == 7
    back = SlicingPlan.load(path)
    assert np.array_equal(back.points, plan.points)
    assert back.capacities == plan.capacities
