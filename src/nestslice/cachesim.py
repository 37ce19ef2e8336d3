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


def _simulate_py(addrs, n_sets, ways, line_bytes):
    tags = np.full((n_sets, ways), -1, dtype=np.int64)
    stamp = np.zeros((n_sets, ways), dtype=np.int64)
    t = 0
    hits = 0
    for a in addrs:
        line = a // line_bytes
        s = line % n_sets
        tag = line // n_sets
        t += 1
        row = tags[s]
        hit = False
        for wy in range(ways):
            if row[wy] == tag:
                hits += 1
                stamp[s, wy] = t
                hit = True
                break
        if not hit:
            victim = int(np.argmin(stamp[s]))
            tags[s, victim] = tag
            stamp[s, victim] = t
    return hits


def simulate(trace, cfg: CacheConfig = RP2040_CACHE) -> TraceStats:
    """LRU set-associative hit/miss accounting from a cold cache."""
    addrs = np.asarray(trace, dtype=np.int64)
    if addrs.size and addrs.min() < 0:
        raise ConfigError("addresses must be nonnegative")
    hits = int(_simulate_py(addrs, cfg.n_sets, cfg.ways, cfg.line_bytes))
    return TraceStats(accesses=int(addrs.size), hits=hits)


def simulate_direct_mapped(trace, cfg: CacheConfig) -> TraceStats:
    """Independent single-way reference simulator (test oracle)."""
    if cfg.ways != 1:
        raise ConfigError("direct-mapped oracle requires ways=1")
    lines = {}
    hits = 0
    n = 0
    for a in np.asarray(trace, dtype=np.int64):
        line = int(a) // cfg.line_bytes
        s = line % cfg.n_sets
        n += 1
        if lines.get(s) == line:
            hits += 1
        else:
            lines[s] = line
    return TraceStats(accesses=n, hits=hits)


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
