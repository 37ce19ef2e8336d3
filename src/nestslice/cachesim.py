"""Weight-access traces and a set-associative LRU cache simulator.

``trace_matmul`` emits the exact byte-address sequence of weight reads
for a sliced multiply of W[m x n] and X[m x b]: a loop nest over batch
column ``i``, active neuron ``j`` and row ``k``, in which each operand
advances a byte stride per loop (``e`` is the element width).

* basic, X^T . W with W row-major: loops ``i, j, k``, weight strides
  ``{k: n*e, j: e}``; consecutive reads stride by a full row.
* optimized, (W^T . X)^T with each neuron's weights contiguous in W^T:
  loops ``j, i, k``, weight strides ``{j: m*e, k: e}``; reads sweep one
  row per batch column before moving on.

X is row-major in both, strides ``{k: b*e, i: e}``. Its reads are left
out by default since the layout argument is about weight order. The
simulator is a cold-start LRU set-associative cache with no prefetcher,
deliberately matching a simple XIP-style flash cache.

``simulate`` is exact LRU for any associativity, and it runs all sets in
lockstep instead of one access at a time. Sets never interact, so the
accesses are sorted stably by set, keeping each set's own order. A run of
the same line within a set is collapsed to its first access: the rest of
the run are hits and leave the set's LRU order as it was. The i-th
remaining access of every set is then stepped together on (sets, ways)
arrays of tags and last-use stamps: a hit refreshes its way's stamp, a
miss replaces the way with the lowest stamp (empty ways hold tag -1 and
stamp 0, so they fill from way 0 up). The number of numpy steps is the
longest collapsed sequence of any one set, each step costing O(active
sets x ways); a trace that keeps hitting one set with changing lines
therefore costs one step per access, while the default sweep needs at
most 512 steps per point.

Modeled cost is ``accesses + miss_penalty * misses``; wall-clock speed-up
percentages depend on the host multiplier latency and are out of scope.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    total_bytes: int = 16384
    ways: int = 2
    line_bytes: int = 8

    def __post_init__(self):
        for v in (self.total_bytes, self.ways, self.line_bytes):
            if v <= 0 or (v & (v - 1)) != 0:
                raise ConfigError("cache geometry must be powers of two")
        if self.total_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                "total_bytes must be divisible by ways * line_bytes"
            )

    @property
    def n_sets(self) -> int:
        return self.total_bytes // (self.ways * self.line_bytes)


# RP2040-style XIP cache: 16 kB, 2-way, 8-byte lines, LRU
RP2040_CACHE = CacheConfig(16384, 2, 8)


@dataclass
class TraceStats:
    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def _active_cols(n: int, slice_fraction: float) -> int:
    if not (0.0 < slice_fraction <= 1.0):
        raise ConfigError("slice_fraction must be in (0, 1]")
    return max(1, int(round(n * slice_fraction)))


def _nest_addrs(order, extents, strides) -> np.ndarray:
    """Flat byte offsets an operand reads in a loop nest: ``order`` names
    the loops outermost first, ``extents`` gives each loop's trip count
    and ``strides`` the bytes the operand advances per step of each loop
    it indexes."""
    steps = (np.arange(extents[v], dtype=np.int64) * strides.get(v, 0)
             for v in order)
    return sum(np.ix_(*steps)).reshape(-1)


def trace_matmul(mode, m, n, b, slice_fraction=1.0, elem_bytes=4,
                 include_inputs=False) -> np.ndarray:
    """Byte addresses of weight reads for a sliced W[m x n] times X[m x b].

    Slicing keeps the leading fraction of the n neurons. "basic" runs
    loops ``i, j, k`` with weight strides ``{k: n*e, j: e}``, "optimized"
    runs ``j, i, k`` on W^T with ``{j: m*e, k: e}``. Addresses are
    relative to the weight base; with ``include_inputs`` each weight read
    is followed by its X read, at strides ``{k: b*e, i: e}`` from the
    first 64-byte boundary after the weights.
    """
    if m <= 0 or n <= 0 or b <= 0:
        raise ConfigError("degenerate matmul dimensions")
    if elem_bytes not in (1, 2, 4):
        raise ConfigError("elem_bytes must be 1, 2 or 4")
    e = elem_bytes
    extents = {"i": b, "j": _active_cols(n, slice_fraction), "k": m}
    if mode == "basic":
        order, w_strides = "ijk", {"k": n * e, "j": e}
    elif mode == "optimized":
        order, w_strides = "jik", {"j": m * e, "k": e}
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    w_addr = _nest_addrs(order, extents, w_strides)
    if not include_inputs:
        return w_addr
    x_base = ((m * n * e + 63) // 64) * 64  # separate region
    x_addr = _nest_addrs(order, extents, {"k": b * e, "i": e}) + x_base
    out = np.empty(2 * w_addr.size, dtype=np.int64)
    out[0::2] = w_addr
    out[1::2] = x_addr
    return out


def simulate(trace, cfg: CacheConfig = RP2040_CACHE) -> TraceStats:
    """LRU set-associative hit/miss accounting from a cold cache.

    Exact for any associativity; see the module docstring for the
    lockstep algorithm and its cost.
    """
    addrs = np.asarray(trace, dtype=np.int64)
    if addrs.size and addrs.min() < 0:
        raise ConfigError("addresses must be nonnegative")
    n_sets, ways = cfg.n_sets, cfg.ways
    lines = addrs.reshape(-1) // cfg.line_bytes
    # a narrow key lets numpy's stable sort use radix sort
    key = (lines % n_sets).astype(np.min_scalar_type(n_sets - 1))
    lines = lines[np.argsort(key, kind="stable")]
    # a repeat of the previous line in the same set is a hit that leaves
    # the set's LRU order as it was, so each run keeps its first access
    fresh = np.ones(lines.size, dtype=bool)
    fresh[1:] = lines[1:] != lines[:-1]
    hits = int(lines.size - np.count_nonzero(fresh))
    lines = lines[fresh]
    sets = lines % n_sets
    first = np.flatnonzero(np.r_[True, sets[1:] != sets[:-1]])
    length = np.diff(np.r_[first, lines.size])
    rank = np.arange(lines.size) - np.repeat(first, length)
    # sets in order of decreasing sequence length, so the k sets that
    # have an r-th access are a prefix and step r reads one block of seq
    slot = np.empty_like(length)
    slot[np.argsort(-length, kind="stable")] = np.arange(length.size)
    active = np.bincount(rank)
    block = np.r_[0, np.cumsum(active)]
    seq = np.empty_like(lines)
    seq[block[rank] + np.repeat(slot, length)] = lines // n_sets
    tags = np.full(length.size * ways, -1, dtype=np.int64)
    stamp = np.zeros(length.size * ways, dtype=np.int64)
    way0 = np.arange(0, length.size * ways, ways)  # flat index of way 0
    for r, k in enumerate(active):
        tag = seq[block[r]:block[r + 1]]
        match = tags[:k * ways].reshape(k, ways) == tag[:, None]
        hits += int(np.count_nonzero(match))
        # the matching way if any, else the least recently used one (an
        # empty way has stamp 0; ties go to the lowest way)
        way = np.where(match, -1, stamp[:k * ways].reshape(k, ways))
        way = way.argmin(axis=1) + way0[:k]
        tags[way] = tag
        stamp[way] = r + 1
    return TraceStats(accesses=int(addrs.size), hits=hits)


DEFAULT_SHAPES = ((256, 64), (256, 128), (256, 512))  # (m, n); n = neurons
DEFAULT_SLICES = (0.25, 0.5, 0.75, 1.0)
DEFAULT_WIDTHS = (1, 2, 4)
REPORT_FIELDS = ["mode", "m", "n", "b", "elem_bytes", "slice", "accesses",
                 "hits", "misses", "hit_rate", "cost"]


def bench_report(shapes=DEFAULT_SHAPES, widths=DEFAULT_WIDTHS,
                 slices=DEFAULT_SLICES, cfg: CacheConfig = RP2040_CACHE,
                 b=4, miss_penalty=10, include_inputs=False) -> list:
    """Hit-rate sweep over modes, shapes, element widths and slices.

    Returns one dict per configuration, keyed by REPORT_FIELDS.
    """
    rows = []
    for (m, n) in shapes:
        for elem in widths:
            for sl in slices:
                for mode in ("basic", "optimized"):
                    tr = trace_matmul(mode, m, n, b, sl, elem,
                                      include_inputs=include_inputs)
                    st = simulate(tr, cfg)
                    rows.append(dict(zip(REPORT_FIELDS, (
                        mode, m, n, b, elem, sl, st.accesses, st.hits,
                        st.misses, st.hit_rate,
                        st.accesses + miss_penalty * st.misses))))
    return rows


def write_report_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
        wr.writeheader()
        wr.writerows(rows)
