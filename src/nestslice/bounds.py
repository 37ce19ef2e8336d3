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

The harness needs four knapsacks per instance: Opt_c, Opt_{c/2}, the
bottom-up fill at c and the top-down re-solve at c/2. For up to
ENUM_ITEMS items it builds every subset's profit and weight sums once,
by doubling, and answers all four as masked argmax queries over them,
breaking ties as solve_exact does. Larger instances go through
bu_two_stage and td_two_stage, whose first stages are Opt_{c/2} and
Opt_c. Reports are kept as columns (BoundReports) and built into
BoundReport objects when indexed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .planner import KnapsackSolution, solve_iterative

BRUTE_LIMIT = 22
ENUM_ITEMS = 15  # the harness enumerates instances of up to this many items
MIN_ITEMS, MAX_ITEMS = 4, 20  # the range of random_instance's max_items
TIGHT_P = 10.0  # the profit P of the tight instances verify_bounds reports
BOUNDS = {"bu": 2.0 / 3.0, "td": 1.0 / 2.0}


def brute_opt(profits, weights, capacity) -> KnapsackSolution:
    """Exhaustive optimum; lexicographically smallest set among ties."""
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.int64)
    sums = _subset_sums(profits, weights)
    fits = sums[1] <= capacity
    sel = _members(_best(sums[0], fits[None])[0]) if fits.any() else ()
    return KnapsackSolution(sel, _profit(profits, sel),
                            int(weights[list(sel)].sum()) if sel else 0)


def _subset_sums(profits, weights) -> np.ndarray:
    """Profit (row 0) and weight (row 1) sums of every subset.

    Column m is the subset holding item i when bit i of m is set. The
    sums double once per item: item i writes the first 2^i columns plus
    its profit and weight into the next 2^i. Memory is 16 bytes per
    subset.
    """
    n = len(profits)
    if n > BRUTE_LIMIT:
        raise ConfigError(f"brute force limited to {BRUTE_LIMIT} items")
    items = np.array([profits, weights], dtype=np.float64)
    sums = np.empty((2, 1 << n))
    sums[:, 0] = 0.0
    for i in range(n):
        k = 1 << i
        np.add(sums[:, :k], items[:, i:i + 1], out=sums[:, k:2 * k])
    return sums


def _best(profit_sums, ok, forced=(0,)) -> list:
    """Per row of ``ok``, the mask of its most profitable marked subset.

    Each row marks at least one subset, and every subset it marks holds
    that row's ``forced`` mask. Ties go to the lexicographically smallest
    sorted index set of the other items (a proper prefix first, as tuples
    compare), as solve_exact breaks them.
    """
    score = np.where(ok, profit_sums, -np.inf)
    rows, masks = (score == score.max(axis=1, keepdims=True)).nonzero()
    if len(masks) == len(ok):  # no ties
        return masks.tolist()
    return [min(masks[rows == r].tolist(), key=lambda m: _members(m ^ f))
            for r, f in enumerate(forced)]


def _members(mask) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _profit(profits, sel) -> float:
    """A selection's profit, summed as KnapsackSolution profits are."""
    return float(profits[list(sel)].sum()) if sel else 0.0


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


class BoundReports:
    """The reports of one bound run, kept as read-only numpy columns.

    Per instance k: its items (``profits`` and ``weights``, concatenated;
    instance k's are at ``starts[k]:starts[k + 1]``), ``capacity`` and the
    optimal profits ``opt_c`` and ``opt_half``. Per report: the
    ``instance`` it checks, whether it checks top-down (``td``), the
    two-stage ``heuristic`` profit, ``case1`` (-1 where it was not
    checked) and ``tight``. Indexing and iteration build BoundReport
    objects; the reports of one instance share views of its items.
    """

    __slots__ = ("profits", "weights", "starts", "capacity", "opt_c",
                 "opt_half", "instance", "td", "heuristic", "case1", "tight")

    def __init__(self, instances, reports):
        """Columns from row tuples: (profits, weights, capacity, opt_c,
        opt_half) per instance, (instance, td, heuristic, case1, tight)
        per report."""
        p, w, cap, opt_c, opt_half = zip(*instances) if instances else [()] * 5
        k, td, heuristic, case1, tight = zip(*reports) if reports else [()] * 5
        cols = (np.concatenate([np.empty(0), *p]),
                np.concatenate([np.empty(0, np.int64), *w]),
                np.cumsum([0, *map(len, p)]), np.array(cap, np.int64),
                np.array(opt_c, np.float64), np.array(opt_half, np.float64),
                np.array(k, np.int32), np.array(td, bool),
                np.array(heuristic, np.float64), np.array(case1, np.int8),
                np.array(tight, bool))
        for name, col in zip(self.__slots__, cols):
            col.flags.writeable = False
            setattr(self, name, col)

    def __len__(self) -> int:
        return len(self.instance)

    def __getitem__(self, i):
        n = len(self)
        if not -n <= i < n:
            raise IndexError("report index out of range")
        i %= n
        k = self.instance[i]
        kind = "td" if self.td[i] else "bu"
        lo, hi = self.starts[k], self.starts[k + 1]
        inst = {"kind": kind, "profits": self.profits[lo:hi],
                "weights": self.weights[lo:hi],
                "capacity": int(self.capacity[k])}
        if self.case1[i] >= 0:
            inst["case1"] = bool(self.case1[i])
        if self.tight[i]:
            inst["tight"] = True
        opt_c, opt_half = float(self.opt_c[k]), float(self.opt_half[k])
        profit = float(self.heuristic[i])
        ref = opt_half if kind == "td" else opt_c
        ratio = profit / ref if ref > 0 else 1.0
        bound = BOUNDS[kind]
        return BoundReport(inst, opt_c, opt_half, profit, ratio, bound,
                           ratio >= bound - 1e-9)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def random_instance(rng, max_items=12, restrict_weights=True):
    """Documented generator: c even in [20, 200], weights in [1, c/2]
    (or [1, c] when unrestricted), integer profits in [1, 100]."""
    c = int(rng.integers(10, 101)) * 2
    n = int(rng.integers(4, max_items + 1))
    hi = c // 2 if restrict_weights else c
    weights = rng.integers(1, hi + 1, size=n).astype(np.int64)
    profits = rng.integers(1, 101, size=n).astype(np.float64)
    return profits, weights, c


def _check_counts(n_instances, max_items):
    if not MIN_ITEMS <= max_items <= MAX_ITEMS:
        raise ConfigError(f"max_items must be in [{MIN_ITEMS}, {MAX_ITEMS}], "
                          f"got {max_items}")
    if n_instances < 0:
        raise ConfigError(f"n_instances must be >= 0, got {n_instances}")


def _selections(profits, weights, c) -> tuple:
    """Selections of Opt_c, Opt_{c/2}, bottom-up at c and top-down at c/2.

    Up to ENUM_ITEMS items, four queries over one enumeration: bottom-up
    takes the best superset of Opt_{c/2} within c, top-down the best
    subset of Opt_c within c // 2. Larger instances run the two-stage
    heuristics, whose first stages are the two optima.
    """
    n = len(profits)
    if n > ENUM_ITEMS:
        _, bu, opt_half = bu_two_stage(profits, weights, c)
        _, td, opt_c = td_two_stage(profits, weights, c)
        return opt_c, opt_half, bu, td
    sums = _subset_sums(profits, weights)
    fits = sums[1] <= np.array([[c], [c // 2]])
    opt_c, opt_half = _best(sums[0], fits, (0, 0))
    # rows: supersets of Opt_{c/2} within c, subsets of Opt_c within c // 2
    within = (np.arange(1 << n) & np.array([[opt_half], [~opt_c]])) \
        == np.array([[opt_half], [0]])
    bu, td = _best(sums[0], fits & within, (opt_half, 0))
    return tuple(_members(m) for m in (opt_c, opt_half, bu, td))


def _check_instance(instances, reports, profits, weights, c,
                    kinds=("bu", "td"), case1=False, tight=False):
    """Append an instance's BoundReports rows: a report per kind, with
    case1 checked on the bu report when asked."""
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.int64)
    opt_c, opt_half, bu, td = _selections(profits, weights, c)
    k = len(instances)
    instances.append((profits, weights, int(c), _profit(profits, opt_c),
                      _profit(profits, opt_half)))
    for kind in kinds:
        flag = int(_case1_holds(weights, c, opt_c, opt_half)) \
            if case1 and kind == "bu" else -1
        reports.append((k, kind == "td",
                        _profit(profits, td if kind == "td" else bu), flag,
                        tight))


def verify_bounds(n_instances=1000, seed=0, max_items=12) -> BoundReports:
    """BoundReports for BU (vs Opt_c) and TD (vs Opt_{c/2}) per instance.

    All generated weights respect the <= c/2 restriction the bounds
    assume. The two tight instances follow, flagged ``tight``, at
    P = TIGHT_P and eps = P/1000 so their ratios sit just above the
    bounds. max_items must lie in [MIN_ITEMS, MAX_ITEMS] and n_instances
    must not be negative (ConfigError otherwise).
    """
    _check_counts(n_instances, max_items)
    rng = np.random.default_rng(seed)
    instances, reports = [], []
    for _ in range(n_instances):
        _check_instance(instances, reports, *random_instance(rng, max_items),
                        case1=True)
    for kind, tight in (("bu", tight_instance_bu), ("td", tight_instance_td)):
        profits, weights, c, _ = tight(TIGHT_P, TIGHT_P / 1000.0)
        _check_instance(instances, reports, profits, weights, c,
                        kinds=(kind,), tight=True)
    return BoundReports(instances, reports)


def _case1_holds(weights, c, opt_c, opt_half):
    """True when the proof's ordering of Opt_c has no split item at c/2.

    opt_c and opt_half are the optimal selections at c and c // 2; the
    ordering takes the items of Opt_c that are in Opt_{c/2} first, then
    the others. With no split item the bottom-up heuristic must hit
    Opt_c exactly; callers can assert that on flagged instances.
    """
    half_set = set(opt_half)
    order = sorted(opt_c, key=lambda i: i not in half_set)
    res = find_split_item([weights[i] for i in order], c // 2)
    return res.split_index is None


def violation_search(n_instances=200, seed=0, max_items=10) -> BoundReports:
    """Unrestricted-weight instances; returns reports (violations expected).

    With items heavier than c/2 both heuristics can be arbitrarily bad,
    so at least some reports should carry passed=False. The counts are
    checked as in verify_bounds.
    """
    _check_counts(n_instances, max_items)
    rng = np.random.default_rng(seed)
    instances, reports = [], []
    for _ in range(n_instances):
        profits, weights, c = random_instance(rng, max_items,
                                              restrict_weights=False)
        _check_instance(instances, reports, profits, weights, c)
    return BoundReports(instances, reports)
