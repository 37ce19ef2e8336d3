import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestslice import bounds
from nestslice.bounds import (BoundReport, brute_opt, bu_two_stage,
                              find_split_item, random_instance, td_two_stage,
                              tight_instance_bu, tight_instance_td,
                              verify_bounds, violation_search)
from nestslice.errors import ConfigError
from nestslice.planner import KnapsackInstance, solve_exact


def test_brute_empty_items():
    sol = brute_opt([], [], 10)
    assert sol.profit == 0.0 and sol.selected == ()


def test_brute_worst_case_instance_profit():
    profits, weights, c, _ = tight_instance_bu(10.0, 0.1, 6)
    assert brute_opt(profits, weights, c).profit == pytest.approx(30.0)


def test_brute_matches_solver_on_500_instances():
    rng = np.random.default_rng(1)
    for _ in range(500):
        profits, weights, c = random_instance(rng, max_items=12)
        a = brute_opt(profits, weights, c)
        b = solve_exact(KnapsackInstance(profits, weights, c))
        assert a.profit == b.profit and a.selected == b.selected


def test_brute_item_limit():
    with pytest.raises(ConfigError):
        brute_opt(np.ones(23), np.ones(23, dtype=int), 5)


def test_brute_nothing_fits_is_empty():
    sol = brute_opt([3.0, 4.0], [2, 5], -1)
    assert sol.selected == () and sol.profit == 0.0 and sol.weight == 0


def test_brute_at_item_limit_memory_is_bounded():
    # 2^22 subsets: the sums take 64 MiB; a bit matrix would take 738 MB
    rng = np.random.default_rng(4)
    profits = rng.integers(0, 100, bounds.BRUTE_LIMIT).astype(np.float64)
    weights = rng.integers(1, 60, bounds.BRUTE_LIMIT)
    tracemalloc.start()
    try:
        sol = brute_opt(profits, weights, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2**20
    want = solve_exact(KnapsackInstance(profits, weights, 300))
    assert sol.profit == want.profit and sol.weight <= 300


# -- split item -----------------------------------------------------------------


def test_no_split_item_on_exact_fill():
    res = find_split_item([2, 2, 2], 6)
    assert res.split_index is None


def test_split_item_worst_case_ordering():
    res = find_split_item([21, 20, 20, 20], 30)
    assert res.split_index == 1


def test_split_item_prefix_conditions_hold(rng):
    for _ in range(100):
        n = int(rng.integers(1, 12))
        weights = rng.integers(1, 30, n)
        cap = int(rng.integers(5, 80))
        res = find_split_item(weights, cap)
        if res.split_index is None:
            continue
        s = res.split_index
        before = int(weights[:s].sum())
        assert before < cap
        assert before + weights[s] > cap


# -- two-stage bounds -------------------------------------------------------------


def test_tight_bu_ratio_default_eps():
    profits, weights, c, _ = tight_instance_bu(10.0, 0.1, 6)
    bu, _, half_sel = bu_two_stage(profits, weights, c)
    opt = brute_opt(profits, weights, c).profit
    assert half_sel == (0,)
    ratio = bu / opt
    assert 0.666 < ratio < 0.68
    assert ratio >= 2 / 3


def test_tight_td_ratio_default_eps():
    profits, weights, c, _ = tight_instance_td(10.0, 0.1, 6)
    td, _, big_sel = td_two_stage(profits, weights, c)
    opt_half = brute_opt(profits, weights, c // 2).profit
    assert big_sel == (0, 1, 2)
    ratio = td / opt_half
    assert 0.5 < ratio < 0.51


def test_tight_ratios_approach_bounds_as_eps_shrinks():
    for eps, slack in [(0.1, 0.02), (0.01, 0.002)]:
        profits, weights, c, _ = tight_instance_bu(10.0, eps, 6)
        bu, _, _ = bu_two_stage(profits, weights, c)
        ratio = bu / brute_opt(profits, weights, c).profit
        assert 2 / 3 < ratio < 2 / 3 + slack
        profits, weights, c, _ = tight_instance_td(10.0, eps, 6)
        td, _, _ = td_two_stage(profits, weights, c)
        ratio = td / brute_opt(profits, weights, c // 2).profit
        assert 0.5 < ratio < 0.5 + slack


def test_two_stage_heuristics_match_definition_oracle(rng):
    # independent oracle: compose brute-force solves stage by stage and
    # compare against the solver-based two-stage implementations
    for _ in range(60):
        profits, weights, c = random_instance(rng, max_items=10)
        profits = np.asarray(profits)
        weights = np.asarray(weights)
        half = brute_opt(profits, weights, c // 2)
        rest = [i for i in range(len(profits)) if i not in half.selected]
        fill = brute_opt(profits[rest], weights[rest],
                         c - half.weight)
        oracle_bu = half.profit + fill.profit
        bu, _, _ = bu_two_stage(profits, weights, c)
        assert bu == oracle_bu

        big = brute_opt(profits, weights, c)
        keep = list(big.selected)
        small = brute_opt(profits[keep], weights[keep], c // 2)
        td, _, _ = td_two_stage(profits, weights, c)
        assert td == small.profit


def test_verify_bounds_no_violations():
    reports = verify_bounds(n_instances=150, seed=3, max_items=10)
    assert all(r.passed for r in reports)
    assert any(r.instance.get("tight") for r in reports)
    for r in reports:
        if r.instance["kind"] == "bu":
            assert r.ratio >= 2 / 3 - 1e-9
            assert r.bound == pytest.approx(2 / 3)
        else:
            assert r.ratio >= 0.5 - 1e-9
            assert r.bound == pytest.approx(0.5)


def test_case1_instances_hit_optimum():
    reports = verify_bounds(n_instances=400, seed=5, max_items=8)
    case1 = [r for r in reports
             if r.instance["kind"] == "bu" and r.instance.get("case1")]
    assert case1, "expected at least one case-1 instance"
    for r in case1:
        assert r.heuristic_profit == pytest.approx(r.opt_c)


def test_unrestricted_weights_produce_violations():
    reports = violation_search(n_instances=200, seed=0)
    assert any(not r.passed for r in reports), (
        "heavy items should break both bounds on some instance"
    )


def test_report_serialization():
    reports = verify_bounds(n_instances=2, seed=0, max_items=6)
    doc = reports[0].to_json()
    assert set(doc) == {"instance", "opt_c", "opt_half", "heuristic_profit",
                        "ratio", "bound", "passed"}
    assert doc["passed"] == (doc["ratio"] >= doc["bound"] - 1e-9)


def test_generator_respects_weight_restriction(rng):
    for _ in range(50):
        profits, weights, c = random_instance(rng, max_items=12)
        assert c % 2 == 0
        assert np.all(weights <= c // 2)
        assert np.all(weights >= 1)


# -- the enumerated lab against the planner ----------------------------------


def _oracle(profits, weights, c):
    """The lab's four knapsacks and case1, through the planner."""
    opt_c = solve_exact(KnapsackInstance(profits, weights, c))
    opt_half = solve_exact(KnapsackInstance(profits, weights, c // 2))
    bu, bu_sel, bu_half = bu_two_stage(profits, weights, c)
    td, td_sel, _ = td_two_stage(profits, weights, c)
    assert bu_half == opt_half.selected  # bottom-up's first stage
    case1 = bounds._case1_holds(weights, c, opt_c.selected,
                                opt_half.selected)
    return opt_c, opt_half, (bu, bu_sel), (td, td_sel), case1


def _check_lab(profits, weights, c):
    opt_c, opt_half, bu, td, case1 = _oracle(profits, weights, c)
    assert bounds._selections(profits, weights, c) == (
        opt_c.selected, opt_half.selected, bu[1], td[1])
    instances, reports = [], []
    bounds._check_instance(instances, reports, profits, weights, c,
                           case1=True)
    rb, rt = bounds.BoundReports(instances, reports)
    assert (rb.opt_c, rb.opt_half) == (opt_c.profit, opt_half.profit)
    assert rb.heuristic_profit == bu[0] and rt.heuristic_profit == td[0]
    assert rb.instance["case1"] == case1 and "case1" not in rt.instance


@settings(max_examples=300, deadline=None)
@given(items=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 9)),
                      min_size=1, max_size=12),
       c=st.integers(2, 40))
def test_enumerated_lab_matches_planner(items, c):
    # small ranges: zero profits and repeated profits and weights, so
    # ties and zero-profit tails are common
    profits = np.array([p for p, _ in items], dtype=np.float64)
    weights = np.array([w for _, w in items], dtype=np.int64)
    _check_lab(profits, weights, c)


@pytest.mark.parametrize("n", [16, 18, 20])
def test_planner_path_above_enumeration_limit(n):
    rng = np.random.default_rng(n)
    profits = rng.integers(0, 20, n).astype(np.float64)
    weights = rng.integers(1, 30, n)
    c = 120
    assert n > bounds.ENUM_ITEMS
    _check_lab(profits, weights, c)
    opt_c, opt_half, _, _ = bounds._selections(profits, weights, c)
    assert opt_c == brute_opt(profits, weights, c).selected
    assert opt_half == brute_opt(profits, weights, c // 2).selected


# -- reports as columns -------------------------------------------------------


def test_violation_search_json_is_pinned():
    # the sha256 of this JSON as written before the bound lab was rebuilt
    # on one subset enumeration per instance
    doc = json.dumps([r.to_json() for r in violation_search(200, seed=0)],
                     indent=2)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "56b88fe06ffc975c2e844854c73d036bab4cc221a57ca1989aab1f2e4827481d")


def test_reports_index_like_a_sequence():
    reports = verify_bounds(n_instances=3, seed=2, max_items=8)
    assert len(reports) == 8
    listed = list(reports)
    assert all(isinstance(r, BoundReport) for r in listed)
    assert [r.to_json() for r in listed] == [
        reports[i].to_json() for i in range(-8, 0)]
    with pytest.raises(IndexError):
        reports[8]
    assert len(violation_search(0)) == 0
    bu, td = reports[0], reports[1]
    assert bu.instance["profits"] is not td.instance["profits"]
    assert np.shares_memory(bu.instance["profits"], td.instance["profits"])
    with pytest.raises(ValueError):
        reports.heuristic[0] = 0.0
    assert [r.instance.get("tight", False) for r in listed] == [False] * 6 + [
        True, True]
    assert [r.instance["kind"] for r in listed[-2:]] == ["bu", "td"]


def test_verify_bounds_result_stays_small():
    # analysis keeps every floor pass's reports: peak memory grows with this
    verify_bounds(20, seed=11)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = verify_bounds(20, seed=11)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(kept) == 42
    assert retained <= 8 * 1024


@pytest.mark.parametrize("search", [verify_bounds, violation_search])
@pytest.mark.parametrize("kwargs", [{"max_items": 3}, {"max_items": 21},
                                    {"n_instances": -1}])
def test_lab_counts_out_of_range_raise(search, kwargs):
    with pytest.raises(ConfigError):
        search(**kwargs)


@pytest.mark.parametrize("max_items", [bounds.MIN_ITEMS, bounds.MAX_ITEMS])
def test_lab_counts_at_range_ends_run(max_items):
    assert len(verify_bounds(2, seed=1, max_items=max_items)) == 6
    assert len(violation_search(2, seed=1, max_items=max_items)) == 4
