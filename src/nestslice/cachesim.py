"""Weight-access traces and a set-associative LRU cache simulator.

``trace_matmul`` emits the exact byte-address sequence of weight reads
for a sliced matrix multiply in either ordering:

* basic: X^T . W with W row-major; the inner loop walks a column of W,
  so consecutive reads stride by a full row.
* optimized: (W^T . X)^T with the transposed weights stored so each
  neuron's weights are contiguous; reads sweep each row repeatedly per
  batch column before moving on.

Input (X) accesses are excluded by default since the layout argument is
about weight order; ``include_inputs=True`` appends them for
investigation. The simulator is a cold-start LRU set-associative cache
with no prefetcher, deliberately matching a simple XIP-style flash cache.

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


def trace_matmul(mode, m, n, b, slice_fraction=1.0, elem_bytes=4,
                 include_inputs=False) -> np.ndarray:
    """Byte addresses of weight reads for a sliced W[m x n] times X[m x b].

    Slicing keeps the leading fraction of the n neurons. Addresses are
    relative to the weight base; with ``include_inputs`` the X reads are
    interleaved at their loop positions, placed in a separate region after
    the weights.
    """
    if m <= 0 or n <= 0 or b <= 0:
        raise ConfigError("degenerate matmul dimensions")
    if elem_bytes not in (1, 2, 4):
        raise ConfigError("elem_bytes must be 1, 2 or 4")
    nact = _active_cols(n, slice_fraction)
    ks = np.arange(m, dtype=np.int64)
    if mode == "basic":
        # loops: i over batch, j over active columns, k over rows
        col = (ks[None, :] * n).reshape(1, 1, m)  # k*n
        js = np.arange(nact, dtype=np.int64).reshape(1, nact, 1)
        w_idx = np.broadcast_to(col + js, (b, nact, m))
        x_idx = np.broadcast_to(
            (ks[None, :]).reshape(1, 1, m) * b
            + np.arange(b, dtype=np.int64).reshape(b, 1, 1),
            (b, nact, m),
        )
    elif mode == "optimized":
        # loops: j over active rows of W^T, i over batch, k inner
        rows = (np.arange(nact, dtype=np.int64) * m).reshape(nact, 1, 1)
        w_idx = np.broadcast_to(rows + ks.reshape(1, 1, m), (nact, b, m))
        x_idx = np.broadcast_to(
            ks.reshape(1, 1, m) * b
            + np.arange(b, dtype=np.int64).reshape(1, b, 1),
            (nact, b, m),
        )
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    w_addr = (w_idx.reshape(-1) * elem_bytes).astype(np.int64)
    if not include_inputs:
        return w_addr
    x_base = ((m * n * elem_bytes + 63) // 64) * 64  # separate region
    x_addr = x_idx.reshape(-1) * elem_bytes + x_base
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


def bench_report(shapes=DEFAULT_SHAPES, widths=DEFAULT_WIDTHS,
                 slices=DEFAULT_SLICES, cfg: CacheConfig = RP2040_CACHE,
                 b=4, miss_penalty=10, include_inputs=False) -> list:
    """Hit-rate sweep over modes, shapes, element widths and slices.

    Returns one dict per configuration with fields mode, m, n, b,
    elem_bytes, slice, accesses, hits, misses, hit_rate, cost.
    """
    rows = []
    for (m, n) in shapes:
        for elem in widths:
            for sl in slices:
                for mode in ("basic", "optimized"):
                    tr = trace_matmul(mode, m, n, b, sl, elem,
                                      include_inputs=include_inputs)
                    st = simulate(tr, cfg)
                    rows.append({
                        "mode": mode,
                        "m": m,
                        "n": n,
                        "b": b,
                        "elem_bytes": elem,
                        "slice": sl,
                        "accesses": st.accesses,
                        "hits": st.hits,
                        "misses": st.misses,
                        "hit_rate": st.hit_rate,
                        "cost": st.accesses + miss_penalty * st.misses,
                    })
    return rows


REPORT_FIELDS = ["mode", "m", "n", "b", "elem_bytes", "slice", "accesses",
                 "hits", "misses", "hit_rate", "cost"]


def write_report_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
        wr.writeheader()
        for r in rows:
            wr.writerow({k: r[k] for k in REPORT_FIELDS})
