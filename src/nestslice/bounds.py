"""Empirical laboratory for the iterative-knapsack approximation bounds.

Two-stage facts under the restriction that every item weighs at most
half the large capacity c:

* bottom-up (solve c/2, freeze, fill up to c) achieves at least 2/3 of
  the optimum at c, and the bound is tight;
* top-down (solve c, restrict, re-solve at c/2) achieves at least 1/2 of
  the optimum at c/2, and that bound is tight as well.

This module provides the brute-force oracle, the split-item construction
used by the proofs, parameterized tight instances, and a harness that
checks the bounds over seeded random instances. Without the weight
restriction both ratios can get arbitrarily bad; a dedicated generator
exhibits such violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .planner import (KnapsackInstance, KnapsackSolution, solve_exact,
                      solve_iterative)

BRUTE_LIMIT = 22
TIGHT_P = 10.0  # the profit P of the tight instances verify_bounds reports


def brute_opt(profits, weights, capacity) -> KnapsackSolution:
    """Exhaustive optimum; lexicographically smallest set among ties."""
    return _brute_opts(profits, weights, (capacity,))[0]


def _brute_opts(profits, weights, capacities) -> list:
    """brute_opt at each capacity, enumerating the subsets once."""
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.int64)
    n = len(profits)
    if n > BRUTE_LIMIT:
        raise ConfigError(f"brute force limited to {BRUTE_LIMIT} items")
    if n == 0:
        return [KnapsackSolution((), 0.0, 0) for _ in capacities]
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(
        np.float64
    )
    tot_w = bits @ weights.astype(np.float64)
    tot_p = bits @ profits
    sols = []
    for capacity in capacities:
        feas = tot_w <= capacity
        best = tot_p[feas].max(initial=0.0)
        cand = np.nonzero(feas & (tot_p >= best))[0]
        best_key = None
        best_sel = ()
        for mk in cand:
            sel = tuple(int(i) for i in range(n) if (int(mk) >> i) & 1)
            if best_key is None or sel < best_key:
                best_key = sel
                best_sel = sel
        idx = np.array(best_sel, dtype=np.int64)
        sols.append(KnapsackSolution(
            best_sel,
            float(profits[idx].sum()) if best_sel else 0.0,
            int(weights[idx].sum()) if best_sel else 0,
        ))
    return sols


@dataclass
class SplitItemResult:
    ordering: tuple
    split_index: int | None


def find_split_item(weights_in_order, capacity) -> SplitItemResult:
    """First position where the cumulative weight crosses the capacity.

    An exact landing on the capacity is not a crossing; when the running
    total never exceeds the capacity there is no split item.
    """
    ordering = tuple(int(w) for w in weights_in_order)
    before = 0
    for i, w in enumerate(ordering):
        if before < capacity and before + w > capacity:
            return SplitItemResult(ordering, i)
        before += w
    return SplitItemResult(ordering, None)


# -- two-stage heuristics on raw items ----------------------------------------


def bu_two_stage(profits, weights, c):
    """Bottom-up: optimal at c/2, freeze, fill the rest up to c.

    Returns (profit at c, selected set, selected set at c/2).
    """
    full, half = solve_iterative(profits, weights, [c, c // 2], "bu")
    return full.profit, full.selected, half.selected


def td_two_stage(profits, weights, c):
    """Top-down: optimal at c, restrict to it, re-solve at c/2.

    Returns (profit at c/2, selected set at c/2, selected set at c).
    """
    big, small = solve_iterative(profits, weights, [c, c // 2], "td")
    return small.profit, small.selected, big.selected


# -- tight instances -----------------------------------------------------------


def _int_scale(values) -> int:
    """Smallest power-of-ten scale that makes all values integral."""
    scale = 1
    for _ in range(9):
        if all(abs(v * scale - round(v * scale)) < 1e-9 for v in values):
            return scale
        scale *= 10
    raise ConfigError("values need too fine a scale")


def tight_instance_bu(p=10.0, eps=0.1, c=6):
    """Worst case for bottom-up: c/2 grabs the slightly heavier item.

    Weights (c/3 + eps, c/3, c/3, c/3), profits (P + eps, P, P, P). The
    half-capacity optimum takes item 0 and only one more item fits at c,
    so the heuristic gets 2P + eps while the optimum at c packs 3P.
    """
    if c % 3 != 0:
        raise ConfigError("c must be divisible by 3")
    weights = [c / 3 + eps, c / 3, c / 3, c / 3]
    scale = _int_scale(weights + [c])
    w = np.array([round(v * scale) for v in weights], dtype=np.int64)
    profits = np.array([p + eps, p, p, p], dtype=np.float64)
    return profits, w, int(c * scale), scale


def tight_instance_td(p=10.0, eps=0.1, c=6):
    """Worst case for top-down: the best c/2 item never enters Opt_c.

    Weights (c/3, c/3, c/3, c/2), profits (P+eps, P+eps, P+eps, 2P). The
    full-capacity optimum is the three light items; restricted to them
    only one fits at c/2 (profit P+eps) while the unrestricted optimum at
    c/2 takes the heavy item worth 2P.
    """
    if c % 6 != 0:
        raise ConfigError("c must be divisible by 6")
    weights = [c / 3, c / 3, c / 3, c / 2]
    scale = _int_scale(weights + [c])
    w = np.array([round(v * scale) for v in weights], dtype=np.int64)
    profits = np.array([p + eps, p + eps, p + eps, 2 * p], dtype=np.float64)
    return profits, w, int(c * scale), scale


# -- verification harness ------------------------------------------------------


@dataclass(slots=True)
class BoundReport:
    """One bound check. ``instance`` holds the generated profit and weight
    arrays, shared by an instance's bu and td reports; ``to_json`` turns
    them into lists."""

    instance: dict
    opt_c: float
    opt_half: float
    heuristic_profit: float
    ratio: float
    bound: float
    passed: bool

    def to_json(self) -> dict:
        inst = self.instance
        return {
            "instance": {**inst, "profits": inst["profits"].tolist(),
                         "weights": inst["weights"].tolist()},
            "opt_c": self.opt_c,
            "opt_half": self.opt_half,
            "heuristic_profit": self.heuristic_profit,
            "ratio": self.ratio,
            "bound": self.bound,
            "passed": self.passed,
        }


def _make_report(kind, profits, weights, c, heuristic_profit, opt_c,
                 opt_half, bound, extra=None):
    ref = opt_c if kind == "bu" else opt_half
    ratio = heuristic_profit / ref if ref > 0 else 1.0
    inst = {
        "kind": kind,
        "profits": np.asarray(profits, dtype=np.float64),
        "weights": np.asarray(weights, dtype=np.int64),
        "capacity": int(c),
    }
    if extra:
        inst.update(extra)
    return BoundReport(inst, float(opt_c), float(opt_half),
                       float(heuristic_profit), float(ratio), bound,
                       bool(ratio >= bound - 1e-9))


def random_instance(rng, max_items=12, restrict_weights=True):
    """Documented generator: c even in [20, 200], weights in [1, c/2]
    (or [1, c] when unrestricted), integer profits in [1, 100]."""
    c = int(rng.integers(10, 101)) * 2
    n = int(rng.integers(4, max_items + 1))
    hi = c // 2 if restrict_weights else c
    weights = rng.integers(1, hi + 1, size=n).astype(np.int64)
    profits = rng.integers(1, 101, size=n).astype(np.float64)
    return profits, weights, c


def _opts(profits, weights, c):
    """Optimal solutions at c and c // 2."""
    if len(profits) <= 15:
        return _brute_opts(profits, weights, (c, c // 2))
    return [solve_exact(KnapsackInstance(profits, weights, cap))
            for cap in (c, c // 2)]


def verify_bounds(n_instances=1000, seed=0, max_items=12) -> list:
    """BoundReports for BU (vs Opt_c) and TD (vs Opt_{c/2}) per instance.

    All generated weights respect the <= c/2 restriction the bounds
    assume. The two tight instances follow, flagged ``tight``, at
    P = TIGHT_P and eps = P/1000 so their ratios sit just above the
    bounds.
    """
    if max_items > 20:
        raise ConfigError("max_items must be <= 20")
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(n_instances):
        profits, weights, c = random_instance(rng, max_items)
        opt_c, opt_half = _opts(profits, weights, c)
        bu_profit, _, bu_half_sel = bu_two_stage(profits, weights, c)
        td_profit, _, _ = td_two_stage(profits, weights, c)
        case1 = _case1_holds(weights, c, opt_c, opt_half, bu_half_sel)
        reports.append(_make_report(
            "bu", profits, weights, c, bu_profit, opt_c.profit,
            opt_half.profit, 2.0 / 3.0, extra={"case1": case1}))
        reports.append(_make_report(
            "td", profits, weights, c, td_profit, opt_c.profit,
            opt_half.profit, 1.0 / 2.0))
    for kind, tight, two_stage, bound in (
            ("bu", tight_instance_bu, bu_two_stage, 2.0 / 3.0),
            ("td", tight_instance_td, td_two_stage, 1.0 / 2.0)):
        profits, weights, c, _ = tight(TIGHT_P, TIGHT_P / 1000.0)
        opt_c, opt_half = _opts(profits, weights, c)
        reports.append(_make_report(
            kind, profits, weights, c, two_stage(profits, weights, c)[0],
            opt_c.profit, opt_half.profit, bound, extra={"tight": True}))
    return reports


def _case1_holds(weights, c, opt_c, opt_half, bu_half_selected):
    """True when the proof's ordering of Opt_c has no split item at c/2.

    opt_c and opt_half are the optimal solutions at c and c // 2. In that
    case the bottom-up heuristic must hit Opt_c exactly; callers can
    assert that on flagged instances.
    """
    half_set = set(opt_half.selected)
    bu_fill = set(bu_half_selected)
    both = [i for i in opt_c.selected if i in half_set]
    neither = [i for i in opt_c.selected
               if i not in half_set and i not in bu_fill]
    fill = [i for i in opt_c.selected if i in bu_fill and i not in half_set]
    order = both + neither + fill
    res = find_split_item([weights[i] for i in order], c // 2)
    return res.split_index is None


def violation_search(n_instances=200, seed=0, max_items=10) -> list:
    """Unrestricted-weight instances; returns reports (violations expected).

    With items heavier than c/2 both heuristics can be arbitrarily bad,
    so at least some reports should carry passed=False.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(n_instances):
        profits, weights, c = random_instance(rng, max_items,
                                              restrict_weights=False)
        opt_c, opt_half = _opts(profits, weights, c)
        bu_profit, _, _ = bu_two_stage(profits, weights, c)
        td_profit, _, _ = td_two_stage(profits, weights, c)
        reports.append(_make_report("bu", profits, weights, c, bu_profit,
                                    opt_c.profit, opt_half.profit, 2.0 / 3.0))
        reports.append(_make_report("td", profits, weights, c, td_profit,
                                    opt_c.profit, opt_half.profit, 1.0 / 2.0))
    return reports
