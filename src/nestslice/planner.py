"""Iterative knapsack planning of nested subnetwork widths.

The core is an exact 0-1 knapsack solver: dynamic programming over
GCD-reduced integer MAC weights, with a branch-and-bound fallback when
the DP's take-bit table would exceed a byte budget. On top of it sit the
two multi-stage heuristics: bottom-up (solve the tightest capacity first,
freeze its items for all larger stages) and top-down (solve the loosest
capacity first, restrict every smaller stage to the previous selection).
Both produce nested plans by construction.

Items are the encoder's computational units with their importance score
as profit and their full-width MAC count as weight. Costs that a unit
drags along implicitly are folded into its weight: the depthwise filter
bound to a channel, and the classifier columns fed by the last encoder
layer. With that folding the knapsack budget bounds the true full-model
MAC count of the resulting subnetwork.

Flat plans solve each stage of those heuristics by weight class instead
of by the item DP: every unit of a layer weighs the same, so a stage
takes the most profitable units of each class of equal weight and is a
choice of one count per class. One vectorized block enumerates the
counts of all classes but the one with the most options, which takes
its largest count that fits; ties resolve as in the item solver. A
block of more tuples than the item DP has cells, or of more than
DP_BYTE_LIMIT bytes, runs the item solver.

Depthwise-separable chains get a dedicated exact solver: choosing k
filters in a layer forces k depthwise filters and k kernels per chosen
pointwise filter in the next block, which couples consecutive counts. The
solver runs dynamic programming over (block, count, MAC budget); its work
grows with width^2 per block, so ``make_plan`` plans wide models with the
flat formulation instead.

Both exact solvers have one shape: a forward DP pass that records one
compact decision per cell (a take bit, or a predecessor count), then a
walk back over those decisions. Each pass computes only a band of budget
cells per item or count: below the band the walk back never reads, and
above it every value and decision repeats the band's top cell (the
budget exceeds all the weight left to place). The depthwise solver skips
the DP altogether when every profit is nonnegative and the upper count
bounds fit. Neither changes a result, the byte budget behind the
branch-and-bound fallback, or the work estimate behind make_plan's
choice of formulation.
"""

from __future__ import annotations

import json
import mmap
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import netgraph as ng
from .errors import ConfigError, InfeasiblePlanError, IntegrityError

# bytes of solve_exact's DP (take bits plus float rows) before it falls
# back to branch and bound
DP_BYTE_LIMIT = 400_000_000
# depthwise DP cells above which make_plan's 'auto' plans flat
DW_WORK_LIMIT = 2e9
# DP tables of at least this many bytes get a memory mapping of their own
TABLE_MAP_BYTES = 1 << 20


@dataclass
class KnapsackInstance:
    profits: np.ndarray
    weights: np.ndarray
    capacity: int
    forced_in: frozenset = frozenset()
    excluded: frozenset = frozenset()

    def __post_init__(self):
        self.profits = np.asarray(self.profits, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        self.forced_in = frozenset(int(i) for i in self.forced_in)
        self.excluded = frozenset(int(i) for i in self.excluded)
        if self.profits.shape != self.weights.shape:
            raise ConfigError("profits and weights must align")
        if np.any(self.weights <= 0):
            raise ConfigError("item weights must be positive integers")
        if self.capacity <= 0:
            raise ConfigError("capacity must be positive")
        if self.forced_in & self.excluded:
            raise ConfigError("forced_in and excluded overlap")


@dataclass
class KnapsackSolution:
    selected: tuple
    profit: float
    weight: int


def _dp_table(shape, dtype=np.float64) -> np.ndarray:
    """A zero-filled DP table; large ones in their own anonymous mapping.

    The banded solvers write only part of their tables. From malloc, a
    large table may come from heap pages that earlier solves left
    resident, since glibc serves blocks below its mmap threshold (raised
    to the largest block freed so far) from the heap and keeps freed heap
    pages. How much of the table adds to resident memory then depends on
    what ran before. A private mapping holds only the pages the solve
    writes and is unmapped when the table is freed, whatever ran before.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    if nbytes < TABLE_MAP_BYTES:
        return np.zeros(shape, dtype)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype).reshape(shape)


def solve_exact(inst: KnapsackInstance) -> KnapsackSolution:
    """Profit-maximal feasible selection honoring forced_in/excluded.

    Deterministic tie-break: the lexicographically smallest selected index
    set among optima, comparing sorted index sequences (a proper prefix
    sorts first, so trailing zero-profit items are dropped while a leading
    zero-profit item that keeps the set lexicographically smaller is kept).
    Exact float ties require exactly representable profit sums; integer
    valued profits are safe. When the DP would need more than
    DP_BYTE_LIMIT bytes it falls back to branch and bound, which is exact
    but not lex-canonical.
    """
    n = len(inst.profits)
    forced = sorted(inst.forced_in)
    if any(i >= n or i < 0 for i in inst.forced_in | inst.excluded):
        raise ConfigError("item index out of range")
    forced_w = int(inst.weights[forced].sum()) if forced else 0
    if forced_w > inst.capacity:
        raise InfeasiblePlanError(
            f"forced items weigh {forced_w} > capacity {inst.capacity}"
        )
    skip = inst.forced_in | inst.excluded
    free = [i for i in range(n) if i not in skip]
    cap_free = inst.capacity - forced_w

    def finish(sel_free):
        sel = tuple(sorted(set(forced) | set(sel_free)))
        idx = np.array(sel, dtype=np.int64)
        profit = float(inst.profits[idx].sum()) if sel else 0.0
        weight = int(inst.weights[idx].sum()) if sel else 0
        return KnapsackSolution(sel, profit, weight)

    if not free or cap_free <= 0:
        return finish([])
    w_free = inst.weights[free]
    p_free = inst.profits[free]
    if int(w_free.sum()) <= cap_free:
        # everything fits: lex-min keeps every item up to the last one
        # contributing profit and drops the zero-profit tail
        pos = np.nonzero(p_free > 0)[0]
        last = int(pos[-1]) + 1 if len(pos) else 0
        return finish(free[:last])

    g = int(np.gcd.reduce(w_free))
    ws = (w_free // g).astype(np.int64)
    cap_s = cap_free // g
    # per capacity: one take bit per item, about 25 bytes of float rows
    if (cap_s + 1) * (len(free) // 8 + 25) > DP_BYTE_LIMIT:
        sel_free = _branch_and_bound(p_free, w_free, cap_free)
    else:
        sel_free = _dp_lexmin(p_free, ws, cap_s)
    return finish([free[i] for i in sel_free])


def _dp_lexmin(p, w, cap):
    """Lex-smallest optimal subset: one suffix pass, then a walk over bits.

    best[c] = best profit of items i.. within capacity c, built from the
    last item back. Item i's take bit at capacity c is set when taking it
    is needed for optimality, or on a profit tie whenever positive profit
    remains behind it (which is exactly when taking it keeps the sorted
    index sequence lexicographically smaller). The forward walk from
    capacity cap follows the bits.

    Only a band of cells is computed per item. Counting items that fit
    (w <= cap), let spent be the weight of those before i and suffix the
    weight of i and those after it. The walk reaches item i with at
    least cap - spent left, and at or above suffix every value and bit is
    that of cell suffix. So item i fills [lo, hi] with hi = min(cap,
    suffix) and lo = max(min(cap - spent, hi), w[i]), and the walk reads
    its bit at min(c, hi). Memory is n*(cap+1) bits plus a few float
    rows.
    """
    n = len(p)
    total = int(w[w <= cap].sum())
    best = np.zeros(cap + 1)
    take = _dp_table((n, cap // 8 + 1), np.uint8)
    bits = np.zeros(take.shape[1] * 8, dtype=bool)
    suffix = top = 0  # best is current on cells up to top
    for i in range(n - 1, -1, -1):
        wi = int(w[i])
        if wi > cap:
            continue
        suffix += wi
        hi = min(cap, suffix)
        lo = max(min(cap - total + suffix, hi), wi)
        if hi > top:  # cells above top hold the value at top
            best[top + 1: hi + 1] = best[top]
            top = hi
        pi = p[i]
        with_i = best[lo - wi: hi + 1 - wi] + pi
        cur = best[lo: hi + 1]
        band = bits[lo: hi + 1]
        b0 = lo >> 3
        if lo == wi and lo & 7:  # the walk may read the cells below wi
            bits[b0 * 8: lo] = False
        np.greater_equal(with_i, cur, out=band)
        if pi <= 0:
            band &= with_i > 0
        row = take[i]
        row[b0: (hi >> 3) + 1] = np.packbits(bits[b0 * 8: hi + 1])
        np.maximum(cur, with_i, out=cur)
    sel = []
    c, suffix = cap, total
    for i in range(n):
        wi = int(w[i])
        if wi > cap:
            continue
        at = min(c, suffix)
        suffix -= wi
        if (take[i, at >> 3] >> (7 - (at & 7))) & 1:
            sel.append(i)
            c -= wi
    return sel


def _branch_and_bound(p, w, cap):
    """Exact fallback for huge capacities; deterministic but not lex-canonical."""
    n = len(p)
    order = sorted(range(n), key=lambda i: (-p[i] / w[i], i))
    ps = p[order]
    ws = w[order]

    def bound(k, cap_left, cur):
        b = cur
        for j in range(k, n):
            if ws[j] <= cap_left:
                cap_left -= ws[j]
                b += ps[j]
            else:
                return b + ps[j] * (cap_left / ws[j])
        return b

    best = -1.0
    best_set = []
    stack = [(0, cap, 0.0, [])]
    while stack:
        k, cap_left, cur, chosen = stack.pop()
        if k == n:
            if cur > best:
                best, best_set = cur, chosen
            continue
        if bound(k, cap_left, cur) <= best:
            continue
        # exclude branch pushed first so the include branch is explored first
        stack.append((k + 1, cap_left, cur, chosen))
        if ws[k] <= cap_left:
            stack.append((k + 1, cap_left - ws[k], cur + ps[k],
                          chosen + [order[k]]))
        if cur > best:
            best, best_set = cur, chosen
    return sorted(best_set)


def _descending(capacities) -> list:
    caps = [int(c) for c in capacities]
    if caps != sorted(caps, reverse=True):
        raise ConfigError("capacities must be sorted descending")
    return caps


def _run_stages(capacities, mode, solve) -> list:
    """One nested stage per capacity, aligned with the descending caps.

    solve(cap, prev) solves a stage given the previous stage's result
    (None for the first). Bottom-up solves the capacities in ascending
    order, top-down in descending order. An infeasible stage is named in
    the raised InfeasiblePlanError.
    """
    caps = _descending(capacities)
    if mode not in ("bu", "td"):
        raise ConfigError(f"unknown mode {mode!r}")
    order = caps[::-1] if mode == "bu" else caps
    name = "bottom-up" if mode == "bu" else "top-down"
    sols, prev = [], None
    for stage, cap in enumerate(order):
        try:
            prev = solve(cap, prev)
        except InfeasiblePlanError as e:
            raise InfeasiblePlanError(
                f"{name} stage {stage} (capacity {cap}): {e}") from None
        sols.append(prev)
    return sols[::-1] if mode == "bu" else sols


def solve_iterative(profits, weights, capacities, mode="bu",
                    forced=frozenset()):
    """Multi-stage knapsack with nesting across stages.

    capacities: descending budgets. Bottom-up solves the smallest budget
    first and freezes its selection into all larger stages; top-down
    solves the largest budget first and restricts each smaller stage to
    the previous selection. Returns KnapsackSolutions aligned with the
    (descending) capacities.
    """
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.int64)
    forced = frozenset(forced)
    every = frozenset(range(len(profits)))

    def solve(cap, prev):
        if prev is None:
            inst = KnapsackInstance(profits, weights, cap, forced_in=forced)
        elif mode == "bu":
            inst = KnapsackInstance(profits, weights, cap,
                                    forced_in=prev.selected)
        else:
            inst = KnapsackInstance(profits, weights, cap, forced_in=forced,
                                    excluded=every - set(prev.selected))
        return solve_exact(inst)

    return _run_stages(capacities, mode, solve)


# -- slicing plans -----------------------------------------------------------


@dataclass
class SlicingPlan:
    """One integer slicing point per subnetwork and sliceable layer."""

    capacities: list
    points: np.ndarray  # (n_rows, n_sliceable)
    heuristic: str = "bu"
    seed: int | None = None

    def __post_init__(self):
        self.capacities = [int(c) for c in self.capacities]
        self.points = np.asarray(self.points, dtype=np.int64)

    @property
    def n_rows(self) -> int:
        return self.points.shape[0]

    def row_widths(self, k: int) -> list:
        return [int(v) for v in self.points[k]]

    def validate(self, g: ng.ModelGraph) -> None:
        if self.capacities != sorted(self.capacities, reverse=True):
            raise IntegrityError("plan capacities must be descending")
        if self.points.shape[0] != len(self.capacities):
            raise IntegrityError("one row per capacity required")
        full = [g.layers[i].units for i in g.sliceable_indices()]
        if self.points.ndim != 2 or self.points.shape[1] != len(full):
            raise IntegrityError(
                f"plan points of shape {self.points.shape} do not match "
                f"{len(full)} sliceable layers")
        if np.any(self.points < 1):
            raise IntegrityError("every slicing point must be >= 1")
        if np.any(self.points[1:] > self.points[:-1]):
            raise IntegrityError("rows must be pointwise nested")
        if np.any(self.points > np.array(full)):
            raise IntegrityError("slicing point exceeds layer width")
        for k, cap in enumerate(self.capacities):
            used = ng.plan_macs(g, self.row_widths(k))
            if used > cap:
                raise IntegrityError(
                    f"row {k} uses {used} MACs > capacity {cap}"
                )

    def to_json(self) -> dict:
        return {
            "capacities": self.capacities,
            "points": self.points.tolist(),
            "heuristic": self.heuristic,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, d: dict) -> "SlicingPlan":
        """Plan from its JSON object; IntegrityError if a key is missing
        or a value has the wrong type."""
        try:
            return cls(d["capacities"], np.asarray(d["points"]),
                       d.get("heuristic", "bu"), d.get("seed"))
        except (KeyError, TypeError, ValueError) as e:
            raise IntegrityError(f"malformed plan: {e!r}") from e

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True,
                      separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "SlicingPlan":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _classifier_share(g: ng.ModelGraph, per_unit: dict) -> int:
    """MACs the classifier spends per unit of the layer feeding it: its
    per-unit cost times its units, over its input channels."""
    cls = g.classifier_index()
    feeder = g.layers[g.prev_compute_layer(cls)]
    return per_unit[cls] * g.layers[cls].units // feeder.units


def rider_costs(g: ng.ModelGraph) -> dict:
    """Extra MACs a unit of each sliceable layer drags along implicitly.

    A unit forces one unit of every layer bound to its channels (a
    following depthwise filter); a unit in the last encoder layer feeds
    columns of the classifier. Folding these into item weights makes the
    knapsack budget bound the full-model MAC count.
    """
    per_unit = ng.unit_macs(g)
    riders = {i: sum(per_unit.get(j, 0) for j in ng._followers(g, i)[0])
              for i in g.sliceable_indices()}
    last_enc = [i for i in g.sliceable_indices() if i <= g.encoder_end][-1]
    riders[last_enc] += _classifier_share(g, per_unit)
    return riders


@dataclass
class PlanItems:
    profits: np.ndarray
    weights: np.ndarray
    starts: np.ndarray  # item index of each sliceable layer's first unit
    sizes: list  # units per sliceable layer, in item order

    @classmethod
    def build(cls, g: ng.ModelGraph, scores):
        """Flat knapsack items from permuted, descending-importance scores.

        Depthwise layers produce no items (their filters ride with the
        units of the preceding layer); the classifier is always kept. A
        tiny profit floor keeps zero-importance units selectable: a unit
        that fits the budget is kept rather than dropped, so a 100% row
        really is the full model.
        """
        unit_macs = ng.unit_macs(g)
        riders = rider_costs(g)
        top = max((v.max() for v in scores.values()), default=1.0)
        floor = 1e-9 * max(top, 1.0)
        profits, weights, sizes = [], [], []
        for li in g.sliceable_indices():
            imp = scores.get(li)
            if imp is None or len(imp) != g.layers[li].units:
                raise IntegrityError(f"scores missing for layer {li}")
            if np.any(np.diff(imp) > 1e-12):
                raise IntegrityError(
                    f"layer {li} scores are not descending; permute first"
                )
            sizes.append(len(imp))
            profits.append(imp + floor)
            weights.append(np.full(len(imp), unit_macs[li] + riders[li]))
        starts = np.cumsum([0] + sizes[:-1])
        return cls(np.concatenate(profits), np.concatenate(weights),
                   starts, sizes)


def _dp_cells(weights, room) -> int:
    """Cells of solve_exact's item DP over items of these weights."""
    return len(weights) * (room // int(np.gcd.reduce(weights)) + 1)


def _block_bytes(n_tuples) -> float:
    """Bytes _flat_stage's block of n_tuples count tuples peaks below: 16
    a tuple to hold it (weight and profit sum), at most 41 to search it."""
    return 64.0 * n_tuples


def _flat_stage(items: PlanItems, cap, lo, hi) -> np.ndarray:
    """Per-layer counts of one flat stage, solved by weight class.

    Units [lo, hi) of each layer are free, those below lo are taken and
    those from hi on left out. All units of a layer weigh the same, and
    an optimal stage takes, of every weight class, its units of highest
    profit (ties to the lower index): swapping a taken unit for a better
    one of equal weight never loses. So a stage is one count per class.
    Every count tuple of the classes but the one with the most options
    is enumerated as one vectorized block; that class gets its largest
    count that fits beside each tuple. Among equal profit sums the
    lexicographically smallest index set wins, as in solve_exact. Units
    of no positive profit are never taken. A stage whose block has more
    tuples than solve_exact's DP has cells, or would take more than
    DP_BYTE_LIMIT bytes, runs solve_exact instead.
    """
    layer = np.repeat(np.arange(len(lo)), items.sizes)
    unit = np.arange(len(layer)) - items.starts[layer]
    taken, left = unit < lo[layer], unit >= hi[layer]
    forced_w = int(items.weights[taken].sum())
    if forced_w > cap:
        raise InfeasiblePlanError(
            f"forced items weigh {forced_w} > capacity {cap}")
    room = cap - forced_w
    free = np.flatnonzero(~taken & ~left & (items.profits > 0))
    w_free = items.weights[free]
    if int(w_free.sum()) <= room:
        return lo + np.bincount(layer[free], minlength=len(lo))
    classes = []  # (weight, options, profit prefix sums, units)
    for w in np.unique(w_free):
        units = free[w_free == w]
        units = units[np.argsort(-items.profits[units], kind="stable")]
        classes.append((int(w), min(len(units), room // int(w)),
                        np.concatenate([[0.0],
                                        items.profits[units].cumsum()]),
                        units))
    # profits add up in a fixed order, so rounding never moves a plan: the
    # classes by options, the fewest moved last, then the one with the most
    *classes, big = sorted(classes, key=lambda c: c[1])
    classes = classes[1:] + classes[:1]
    n_tuples = np.prod([m + 1.0 for _, m, _, _ in classes])
    if (n_tuples > _dp_cells(w_free, room)
            or _block_bytes(n_tuples) > DP_BYTE_LIMIT):
        sol = solve_exact(KnapsackInstance(
            items.profits, items.weights, cap,
            forced_in=np.flatnonzero(taken), excluded=np.flatnonzero(left)))
        return np.bincount(layer[list(sol.selected)], minlength=len(lo))
    shape = [m + 1 for _, m, _, _ in classes]
    w_blk, p_blk = np.zeros(shape, np.int64), np.zeros(shape)
    for w_ax, p_ax in zip(
            np.ix_(*[w * np.arange(m + 1) for w, m, _, _ in classes]),
            np.ix_(*[cum[:m + 1] for _, m, cum, _ in classes])):
        w_blk += w_ax
        p_blk += p_ax
    w_big, m_big, cum_big, _ = big
    fit = np.flatnonzero(w_blk <= room)
    k_big = np.minimum((room - w_blk.ravel()[fit]) // w_big, m_big)
    total = p_blk.ravel()[fit] + cum_big[k_big]
    ties = np.flatnonzero(total == total.max())

    def chosen(j):  # the units of the j-th count tuple that fits
        ks = [*np.unravel_index(fit[j], shape), k_big[j]]
        return np.concatenate([c[3][:k] for c, k in zip(classes + [big], ks)])

    win = ties[0] if len(ties) == 1 else min(
        ties, key=lambda j: tuple(np.sort(chosen(j)).tolist()))
    return lo + np.bincount(layer[chosen(win)], minlength=len(lo))


def _flat_rows(items: PlanItems, capacities, mode) -> list:
    """Per-layer counts of each flat stage, aligned with the descending
    capacities; the stages chain as in solve_iterative.

    Every stage takes at least the first unit of each layer. Bottom-up
    frees the units past the previous stage's counts; top-down frees
    units 1 to count - 1 of the previous stage.
    """
    ones = np.ones(len(items.sizes), np.int64)
    sizes = np.array(items.sizes, np.int64)

    def solve(cap, prev):
        if prev is None:
            return _flat_stage(items, cap, ones, sizes)
        if mode == "bu":
            return _flat_stage(items, cap, prev, sizes)
        return _flat_stage(items, cap, ones, prev)

    return _run_stages(capacities, mode, solve)


def _plan_flat(g, scores, capacities, mode, seed) -> SlicingPlan:
    rows = _flat_rows(PlanItems.build(g, scores), capacities, mode)
    plan = SlicingPlan(capacities, np.array(rows), heuristic=mode, seed=seed)
    plan.validate(g)
    return plan


def plan_bottom_up(g: ng.ModelGraph, scores, capacities,
                   seed=None) -> SlicingPlan:
    """Nested plan via the bottom-up heuristic on the flat formulation."""
    return _plan_flat(g, scores, capacities, "bu", seed)


def plan_top_down(g: ng.ModelGraph, scores, capacities,
                  seed=None) -> SlicingPlan:
    """Nested plan via the top-down heuristic on the flat formulation."""
    return _plan_flat(g, scores, capacities, "td", seed)


def plan_baseline(g: ng.ModelGraph, strategy, capacities, seed=0):
    """Equal-share baselines: keep the same unit fraction in every layer.

    Unit choice is by descending L1 weight norm or seeded-uniform random;
    the graph is re-permuted by that ordering so rows remain leading
    prefixes. Returns (permuted graph, plan).
    """
    from .importance import permute_descending

    caps = _descending(capacities)
    rng = np.random.default_rng(seed)
    scores = {}
    for li in g.sliceable_indices():
        spec = g.layers[li]
        karr = g.weights[li]["kernel"].astype(np.float64)
        if strategy == "l1":
            unit_axis = ng._kernel_axes(g, li)[0]
            vals = np.abs(karr).sum(
                axis=tuple(a for a in range(karr.ndim) if a != unit_axis))
        elif strategy == "random":
            vals = rng.random(spec.units)
        else:
            raise ConfigError(f"unknown baseline strategy {strategy!r}")
        scores[li] = vals
    g2, _ = permute_descending(g, scores)

    sliceable = g2.sliceable_indices()
    units = np.array([g2.layers[i].units for i in sliceable])
    rows = []
    for cap in caps:
        chosen = None
        for k in range(1000, 0, -1):
            f = k / 1000.0
            raw = (f * units).astype(np.int64)
            widths = np.maximum(1, raw)
            if ng.plan_macs(g2, widths.tolist()) <= cap:
                chosen = widths
                if np.any(raw == 0):
                    clamped = [int(sliceable[j])
                               for j in np.nonzero(raw == 0)[0]]
                    warnings.warn(
                        f"equal share {f:.3f} yields 0 units in layers "
                        f"{clamped}; clamped to 1"
                    )
                break
        if chosen is None:
            raise InfeasiblePlanError(
                f"no equal-share fraction fits capacity {cap}"
            )
        rows.append(chosen.tolist())
    plan = SlicingPlan(caps, np.array(rows), heuristic=strategy, seed=seed)
    plan.validate(g2)
    return g2, plan


# -- depthwise-separable chains ----------------------------------------------


@dataclass
class DwBlock:
    dw_profits: np.ndarray     # (n_prev,) one per depthwise filter
    w2: int                    # MACs per depthwise filter
    n_units: int               # pointwise filter count
    kernel_profits: np.ndarray  # (n_units, n_prev) per pointwise kernel
    w3: int                    # MACs per pointwise kernel
    pw_extra_macs: int = 0     # per-pointwise-filter rider (classifier share)

    def __post_init__(self):
        self.dw_profits = np.asarray(self.dw_profits, dtype=np.float64)
        self.kernel_profits = np.asarray(self.kernel_profits,
                                         dtype=np.float64)
        if self.kernel_profits.shape != (self.n_units, len(self.dw_profits)):
            raise ConfigError("kernel profit matrix shape mismatch")
        if self.w2 <= 0 or self.w3 <= 0 or self.pw_extra_macs < 0:
            raise ConfigError("MAC coefficients must be positive")


@dataclass
class DwInstance:
    first_profits: np.ndarray
    w1: int
    n0: int
    blocks: list
    capacity: int

    def __post_init__(self):
        self.first_profits = np.asarray(self.first_profits, dtype=np.float64)
        if len(self.first_profits) != self.n0:
            raise ConfigError("first layer profit count mismatch")
        if self.w1 <= 0:
            raise ConfigError("MAC coefficients must be positive")
        if np.any(np.diff(self.first_profits) > 1e-12):
            raise ConfigError("first layer profits must be descending")
        for b in self.blocks:
            rowsum = b.kernel_profits.sum(axis=1)
            if np.any(np.diff(rowsum) > 1e-9 * np.maximum(1.0, rowsum[:-1])):
                raise ConfigError(
                    "pointwise filter profits must be descending; "
                    "permute first"
                )


@dataclass
class DwSolution:
    counts: tuple
    profit: float
    macs: int


def dw_objective(inst: DwInstance, counts) -> tuple:
    """(profit, macs) of a count tuple under prefix-selection semantics."""
    counts = [int(c) for c in counts]
    x0 = counts[0]
    profit = float(inst.first_profits[:x0].sum())
    macs = x0 * inst.w1
    for i, blk in enumerate(inst.blocks):
        xp, x = counts[i], counts[i + 1]
        profit += float(blk.dw_profits[:xp].sum())
        profit += float(blk.kernel_profits[:x, :xp].sum())
        macs += xp * blk.w2 + x * xp * blk.w3 + x * blk.pw_extra_macs
    return profit, macs


def solve_depthwise(inst: DwInstance, min_counts=None,
                    max_counts=None) -> DwSolution:
    """Exact filter counts for a depthwise-separable chain.

    Choosing count x in a layer takes its top-x prefix; the depthwise
    filter count equals the previous layer count and every chosen
    pointwise filter carries exactly that many kernels. A forward pass
    over the blocks keeps one float table (count, MAC budget) and records
    in a small-integer table per block the previous layer's count behind
    each cell; among equal profits it takes the larger previous count,
    and the final layer takes its largest optimal count. The counts are
    a walk back over those tables.
    """
    d = len(inst.blocks)
    sizes = [inst.n0] + [b.n_units for b in inst.blocks]
    minc = [1] * (d + 1) if min_counts is None else [int(v) for v in min_counts]
    maxc = list(sizes) if max_counts is None else [int(v) for v in max_counts]
    if len(minc) != d + 1 or len(maxc) != d + 1:
        raise ConfigError("count bounds must cover every layer")
    for lo, hi, n in zip(minc, maxc, sizes):
        if not (1 <= lo <= hi <= n):
            raise ConfigError(f"invalid count bounds [{lo}, {hi}] for n={n}")
    _, min_macs = dw_objective(inst, minc)
    if min_macs > inst.capacity:
        raise InfeasiblePlanError(
            f"minimal network needs {min_macs} MACs > capacity "
            f"{inst.capacity}"
        )

    profits = [inst.first_profits] + [p for b in inst.blocks
                                      for p in (b.dw_profits, b.kernel_profits)]
    if all(np.all(p >= 0) for p in profits):
        # every count at its upper bound fits: with no negative profit that
        # tuple is optimal, and as the componentwise largest it is also
        # the one the tie rule below picks
        profit, macs = dw_objective(inst, maxc)
        if macs <= inst.capacity:
            return DwSolution(tuple(maxc), profit, macs)

    coeffs = [inst.w1]
    for b in inst.blocks:
        coeffs.extend([b.w2, b.w3])
        if b.pw_extra_macs:
            coeffs.append(b.pw_extra_macs)
    g = int(np.gcd.reduce(np.array(coeffs, dtype=np.int64)))
    w1 = inst.w1 // g
    cap = int(inst.capacity) // g

    # prefix sums
    f1 = np.concatenate([[0.0], np.cumsum(inst.first_profits)])
    dpre, kpre = [], []
    for b in inst.blocks:
        dpre.append(np.concatenate([[0.0], np.cumsum(b.dw_profits)]))
        k2 = np.zeros((b.n_units + 1, len(b.dw_profits) + 1))
        k2[1:, 1:] = b.kernel_profits.cumsum(axis=0).cumsum(axis=1)
        kpre.append(k2)

    # best[x, c]: best profit with count x in the current layer within
    # budget c; choice[i][x, c]: the previous layer's count behind it.
    # band[x] = (lo, hi): row x is -inf below lo, and from hi on every
    # value and choice is that of cell hi. Only cells [lo, hi] are
    # computed; None marks a count no budget up to cap reaches.
    neg = -np.inf
    best = _dp_table((sizes[0] + 1, cap + 1))
    band = [None] * (sizes[0] + 1)
    for x in range(minc[0], maxc[0] + 1):
        c0 = x * w1
        if c0 <= cap:
            best[x, c0] = f1[x]
            band[x] = (c0, c0)
    coef = [(b.w2 // g, b.w3 // g, b.pw_extra_macs // g)
            for b in inst.blocks]
    choice, bands = [], []
    for i, (w2, w3, wf) in enumerate(coef):
        nxt = _dp_table((sizes[i + 1] + 1, cap + 1))
        pick = _dp_table((sizes[i + 1] + 1, cap + 1),
                         np.min_scalar_type(sizes[i]))
        nband = [None] * (sizes[i + 1] + 1)
        for x in range(minc[i + 1], maxc[i + 1] + 1):
            ups = []
            for xp in range(minc[i], maxc[i] + 1):
                s = xp * w2 + x * xp * w3 + x * wf
                if s > cap:
                    break
                if band[xp] is not None and s + band[xp][0] <= cap:
                    ups.append((xp, s))
            if not ups:
                continue
            lo = min(s + band[xp][0] for xp, s in ups)
            hi = min(cap, max(s + band[xp][1] for xp, s in ups))
            nband[x] = (lo, hi)
            row, prow = nxt[x], pick[x]
            row[lo: hi + 1] = neg
            tails = []
            # xp ascends, so a cell keeps the last xp whose candidate
            # reached the running best: ties go to the larger xp
            for xp, s in ups:
                a, z = band[xp]
                end = min(s + z, cap)
                cand = best[xp, a: end + 1 - s] + (dpre[i][xp]
                                                   + kpre[i][x, xp])
                seg = row[s + a: end + 1]
                np.copyto(prow[s + a: end + 1], xp, where=cand >= seg)
                np.maximum(seg, cand, out=seg)
                if end < hi:  # from end + 1 on the candidate is constant
                    tails.append((end + 1, cand[-1], xp))
            if tails:
                _fold_tails(row[: hi + 1], prow[: hi + 1], tails)
        best, band = nxt, nband
        choice.append(pick)
        bands.append(nband)

    best_x, best_v = -1, neg
    for x in range(maxc[-1], minc[-1] - 1, -1):  # prefer larger counts on ties
        if band[x] is not None and best[x, band[x][1]] > best_v:
            best_v, best_x = best[x, band[x][1]], x
    if best_x < 0:
        raise InfeasiblePlanError("no feasible depthwise configuration")

    counts = [0] * (d + 1)
    counts[d] = best_x
    budget = cap
    for i in range(d, 0, -1):
        w2, w3, wf = coef[i - 1]
        x = counts[i]
        xp = int(choice[i - 1][x, min(budget, bands[i - 1][x][1])])
        counts[i - 1] = xp
        budget -= xp * w2 + x * xp * w3 + x * wf
    profit, macs = dw_objective(inst, counts)
    return DwSolution(tuple(counts), profit, macs)


def _fold_tails(row, prow, tails):
    """Fold constant candidates into the end of one depthwise DP row.

    tails holds (start, value, xp): the candidate of count xp equals value
    on every cell from start to the end of row. One running max over the
    starts gives each cell the best such value and, on ties, the largest
    xp; it then joins the banded values and choices already in row and
    prow under the same rule.
    """
    tails.sort(key=lambda t: t[0])
    starts, vals, picks = [], [], []
    v_run, p_run = -np.inf, 0
    for start, v, xp in tails:
        if v > v_run or (v == v_run and xp > p_run):
            v_run, p_run = v, xp
        starts.append(start)
        vals.append(v_run)
        picks.append(p_run)
    # equal starts give all but the last of their entries zero length
    lens = np.diff(starts + [len(row)])
    tv = np.repeat(vals, lens)
    tp = np.repeat(np.array(picks, dtype=prow.dtype), lens)
    seg, pseg = row[starts[0]:], prow[starts[0]:]
    np.copyto(pseg, tp, where=tv > seg)
    np.maximum(pseg, tp, out=pseg, where=tv == seg)
    np.maximum(seg, tv, out=seg)


def build_dw_instance(g: ng.ModelGraph, scores, grad_store) -> DwInstance:
    """DwInstance for a depthwise-separable graph from permuted scores.

    Kernel profits of each pointwise layer come from per-weight scores;
    the filter-level bias/batchnorm share is folded into the first kernel
    column, which every feasible solution includes (at least one unit per
    layer is always kept). The classifier MAC share rides on the last
    block's pointwise filters so the capacity bounds full-model MACs.
    """
    from .importance import pointwise_kernel_scores

    sliceable = g.sliceable_indices()
    conv_idx = sliceable[0]
    if g.layers[conv_idx].kind != ng.CONV2D:
        raise ConfigError("depthwise formulation expects a leading conv layer")
    per_unit = ng.unit_macs(g)

    blocks = []
    cur = conv_idx
    cls_idx = g.classifier_index()
    cls_per_unit = _classifier_share(g, per_unit)
    while True:
        dw = g.next_compute_layer(cur)
        if dw is None or g.layers[dw].kind != ng.DEPTHWISE:
            break
        pw = g.next_compute_layer(dw)
        if pw is None or g.layers[pw].kind != ng.POINTWISE:
            raise ConfigError("depthwise layer must feed a pointwise layer")
        kmat = pointwise_kernel_scores(g, grad_store, pw)
        extras = np.zeros(g.layers[pw].units)
        gb = grad_store.grads[(pw, "bias")]
        extras += np.abs(gb * g.weights[pw]["bias"].astype(np.float64))
        bn = g.attached_batchnorm(pw)
        if bn is not None:
            for nm in ("gamma", "beta"):
                extras += np.abs(
                    grad_store.grads[(bn, nm)]
                    * g.weights[bn][nm].astype(np.float64)
                )
        kmat = kmat.copy()
        kmat[:, 0] += extras
        is_last = g.next_compute_layer(pw) in (None, cls_idx) or (
            g.layers[g.next_compute_layer(pw)].kind != ng.DEPTHWISE
        )
        # per-kernel MACs: the full per-filter cost spread over full cin
        blocks.append(DwBlock(
            dw_profits=scores[dw],
            w2=per_unit[dw],
            n_units=g.layers[pw].units,
            kernel_profits=kmat,
            w3=per_unit[pw] // g.layers[cur].units,
            pw_extra_macs=cls_per_unit if is_last else 0,
        ))
        cur = pw
    if not blocks:
        raise ConfigError("graph has no depthwise blocks")
    return DwInstance(
        first_profits=scores[conv_idx],
        w1=per_unit[conv_idx],
        n0=g.layers[conv_idx].units,
        blocks=blocks,
        capacity=1,  # set per solve
    )


def plan_depthwise(g: ng.ModelGraph, scores, grad_store, capacities,
                   mode="bu", seed=None) -> SlicingPlan:
    """Iterative BU/TD planning with the exact depthwise solver.

    Bottom-up makes each stage's counts the next stage's minimum counts;
    top-down makes them the next stage's maximum counts.
    """
    base = build_dw_instance(g, scores, grad_store)

    def solve(cap, prev):
        bound = None if prev is None else list(prev.counts)
        inst = replace(base, capacity=cap)
        if mode == "bu":
            return solve_depthwise(inst, min_counts=bound)
        return solve_depthwise(inst, max_counts=bound)

    sols = _run_stages(capacities, mode, solve)
    plan = SlicingPlan(capacities, np.array([s.counts for s in sols]),
                       heuristic=mode, seed=seed)
    plan.validate(g)
    return plan


def dw_dp_work(g: ng.ModelGraph, capacities) -> float:
    """Rough cell count of the depthwise DP; used to pick a formulation."""
    blocks = sum(1 for l in g.layers if l.kind == ng.DEPTHWISE)
    width = max((l.units for l in g.layers if l.kind == ng.POINTWISE),
                default=0)
    coeffs = list(ng.unit_macs(g).values())
    gg = int(np.gcd.reduce(np.array(coeffs, dtype=np.int64))) or 1
    cap = max(capacities) // gg
    return float(blocks) * width * width * cap


def make_plan(g: ng.ModelGraph, scores, capacities, heuristic="bu",
              grad_store=None, formulation="auto", seed=None):
    """Plan entry point choosing between flat and depthwise formulations.

    'auto' uses the exact depthwise solver when the graph has depthwise
    blocks and the DP's work is at most DW_WORK_LIMIT cells, otherwise
    the flat item formulation (depthwise MACs ride along with the
    preceding layer's units).
    """
    has_dw = any(l.kind == ng.DEPTHWISE for l in g.layers)
    if heuristic in ("l1", "random"):
        raise ConfigError("baseline plans are built by plan_baseline")
    if heuristic not in ("bu", "td"):
        raise ConfigError(f"unknown heuristic {heuristic!r}")
    if formulation == "auto":
        use_dw = (has_dw and grad_store is not None
                  and dw_dp_work(g, capacities) <= DW_WORK_LIMIT)
    elif formulation == "depthwise":
        if not has_dw:
            raise ConfigError("graph has no depthwise blocks")
        if grad_store is None:
            raise ConfigError("depthwise formulation needs gradient sums")
        use_dw = True
    elif formulation == "flat":
        use_dw = False
    else:
        raise ConfigError(f"unknown formulation {formulation!r}")
    if use_dw:
        return plan_depthwise(g, scores, grad_store, capacities,
                              mode=heuristic, seed=seed)
    if heuristic == "bu":
        return plan_bottom_up(g, scores, capacities, seed=seed)
    return plan_top_down(g, scores, capacities, seed=seed)
