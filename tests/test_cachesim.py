import csv
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestslice.cachesim import (CacheConfig, RP2040_CACHE, TraceStats,
                                bench_report, simulate, trace_matmul,
                                write_report_csv)
from nestslice.errors import ConfigError
from nestslice.tensor import transpose

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "reference.json")


def _simulate_py(addrs, n_sets, ways, line_bytes):
    """Per-access LRU loop (oracle of ``simulate``); returns the hits."""
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


def matmul_basic_traced(x, w, nact):
    """Loop for x.T @ w[:, :nact] over a row-major store, recording the
    flat index of each weight read and of the X read beside it.

    x is (m x b), w (m x n): out[i, j] = sum_k x[k, i] * w[k, j].
    """
    m, b = x.shape
    n = w.shape[1]
    xf = x.reshape(-1).astype(np.float64)
    wf = w.reshape(-1).astype(np.float64)
    out = np.zeros((b, nact))
    w_reads, x_reads = [], []
    for i in range(b):
        for j in range(nact):
            acc = 0.0
            for k in range(m):
                w_reads.append(k * n + j)
                x_reads.append(k * b + i)
                acc += xf[k * b + i] * wf[k * n + j]
            out[i, j] = acc
    return out, np.asarray(w_reads, dtype=np.int64), np.asarray(x_reads)


def matmul_optimized_traced(x, wt, nact):
    """The same product from the transposed store wt (n x m), each row one
    neuron's weights, recording flat weight and X reads."""
    m, b = x.shape
    xf = x.reshape(-1).astype(np.float64)
    wf = wt.reshape(-1).astype(np.float64)
    out = np.zeros((b, nact))
    w_reads, x_reads = [], []
    for j in range(nact):
        for i in range(b):
            acc = 0.0
            for k in range(m):
                w_reads.append(j * m + k)
                x_reads.append(k * b + i)
                acc += wf[j * m + k] * xf[k * b + i]
            out[i, j] = acc
    return out, np.asarray(w_reads, dtype=np.int64), np.asarray(x_reads)


def test_cache_config_validation():
    CacheConfig(16384, 2, 8)
    with pytest.raises(ConfigError):
        CacheConfig(16383, 2, 8)
    with pytest.raises(ConfigError):
        CacheConfig(16384, 3, 8)
    assert RP2040_CACHE.n_sets == 1024


def test_basic_trace_worked_example():
    tr = trace_matmul("basic", 2, 3, 2, 1.0, elem_bytes=4)
    assert list(tr[:8] // 4) == [0, 3, 1, 4, 2, 5, 0, 3]


def test_optimized_trace_worked_example():
    # the canonical printed order arises at three batch columns
    tr = trace_matmul("optimized", 2, 3, 3, 1.0, elem_bytes=4)
    assert list(tr[:8] // 4) == [0, 1, 0, 1, 0, 1, 2, 3]
    tr2 = trace_matmul("optimized", 2, 3, 2, 1.0, elem_bytes=4)
    assert list(tr2 // 4) == [0, 1, 0, 1, 2, 3, 2, 3, 4, 5, 4, 5]


def test_full_slice_optimized_is_repeated_contiguous_sweep():
    m, n, b = 4, 3, 2
    tr = trace_matmul("optimized", m, n, b, 1.0, elem_bytes=1)
    per_row = [list(tr[j * b * m:(j + 1) * b * m]) for j in range(n)]
    for j, chunk in enumerate(per_row):
        sweep = list(range(j * m, (j + 1) * m))
        assert chunk == sweep * b


def test_trace_slicing_restricts_neurons():
    tr = trace_matmul("basic", 2, 4, 1, 0.5, elem_bytes=4)
    cols = set(int(a) // 4 % 4 for a in tr)
    assert cols == {0, 1}
    assert len(tr) == 2 * 2 * 1


def test_trace_validation():
    with pytest.raises(ConfigError):
        trace_matmul("basic", 0, 3, 2)
    with pytest.raises(ConfigError):
        trace_matmul("basic", 2, 3, 2, elem_bytes=3)
    with pytest.raises(ConfigError):
        trace_matmul("basic", 2, 3, 2, slice_fraction=0.0)
    with pytest.raises(ConfigError):
        trace_matmul("sideways", 2, 3, 2)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 9), n=st.integers(1, 9), b=st.integers(1, 4),
       frac=st.floats(0.01, 1.0), elem=st.sampled_from((1, 2, 4)),
       include_inputs=st.booleans())
def test_traces_match_instrumented_matmuls(m, n, b, frac, elem,
                                           include_inputs):
    # instrumented reference loops read the same weight and input
    # elements in the same order as the synthetic traces
    rng = np.random.default_rng(m * 100 + n * 10 + b)
    x = rng.standard_normal((m, b)).astype(np.float32)
    w = rng.standard_normal((m, n)).astype(np.float32)
    nact = max(1, int(round(n * frac)))
    x_base = -(-m * n * elem // 64) * 64
    for mode, (out, w_reads, x_reads) in (
            ("basic", matmul_basic_traced(x, w, nact)),
            ("optimized", matmul_optimized_traced(x, transpose(w), nact))):
        np.testing.assert_allclose(out, x.T.astype(np.float64)
                                   @ w[:, :nact].astype(np.float64),
                                   rtol=1e-9, atol=1e-9)
        want = w_reads * elem
        if include_inputs:
            want = np.column_stack([want, x_reads * elem + x_base])
        tr = trace_matmul(mode, m, n, b, frac, elem,
                          include_inputs=include_inputs)
        assert tr.dtype == np.int64
        np.testing.assert_array_equal(tr, want.reshape(-1))


# -- simulator -----------------------------------------------------------------


def test_sequential_bytes_one_miss_per_line():
    stats = simulate(np.arange(16), CacheConfig(64, 2, 8))
    assert stats.misses == 2
    assert stats.hits == 14


def test_repeated_single_address():
    stats = simulate(np.zeros(10, dtype=np.int64), CacheConfig(64, 2, 8))
    assert stats.misses == 1 and stats.hits == 9


def test_lru_eviction_order():
    cfg = CacheConfig(16, 2, 8)  # one set, two ways
    # a, b fill the set; touching a again makes b the LRU victim for c
    a, b, c = 0, 8, 16
    stats = simulate([a, b, a, c, a], cfg)
    assert stats.hits == 2  # second a, third a
    stats2 = simulate([a, b, a, c, b], cfg)
    assert stats2.hits == 1  # b was evicted by c


def test_against_direct_mapped_oracle(rng):
    cfg = CacheConfig(512, 1, 8)
    trace = rng.integers(0, 4096, 5000)
    fast = simulate(trace, cfg)
    ref = simulate_direct_mapped(trace, cfg)
    assert fast.hits == ref.hits and fast.accesses == ref.accesses


@st.composite
def geometry_and_trace(draw):
    """A power-of-two cache and a trace of runs over a few lines more than
    it holds; optionally every line maps to one set."""
    ways = 2 ** draw(st.integers(0, 3))
    n_sets = 2 ** draw(st.integers(0, 6))
    line_bytes = 2 ** draw(st.integers(0, 4))
    cfg = CacheConfig(ways * n_sets * line_bytes, ways, line_bytes)
    stride = n_sets if draw(st.booleans()) else 1  # one set, or all
    n_lines = draw(st.integers(1, 3 * ways * n_sets))
    base = draw(st.integers(0, 2 ** 32)) * n_sets
    runs = draw(st.lists(st.tuples(st.integers(0, n_lines - 1),
                                   st.integers(0, line_bytes - 1),
                                   st.integers(1, 40)),
                         max_size=120))
    trace = [(base + li * stride) * line_bytes + off
             for li, off, rep in runs for _ in range(rep)]
    return cfg, np.asarray(trace, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(case=geometry_and_trace())
@example(case=(CacheConfig(64, 4, 8), np.zeros(0, dtype=np.int64)))
def test_matches_per_access_loop_oracle(case):
    cfg, trace = case
    got = simulate(trace, cfg)
    assert got.accesses == trace.size
    assert got.hits == _simulate_py(trace, cfg.n_sets, cfg.ways,
                                    cfg.line_bytes)


def test_simulator_deterministic_and_order_sensitive(rng):
    trace = rng.integers(0, 65536, 4000)
    a = simulate(trace, RP2040_CACHE)
    b = simulate(trace, RP2040_CACHE)
    assert a == b
    doubled = simulate(np.concatenate([trace, trace]), RP2040_CACHE)
    assert doubled.misses <= 2 * a.misses


def test_negative_addresses_rejected():
    with pytest.raises(ConfigError):
        simulate(np.array([-1]), RP2040_CACHE)


# -- sweep ---------------------------------------------------------------------


def test_optimized_never_worse_than_basic(default_sweep):
    by_key = {}
    for r in default_sweep:
        by_key.setdefault((r["m"], r["n"], r["elem_bytes"], r["slice"]),
                          {})[r["mode"]] = r
    for key, pair in by_key.items():
        assert pair["optimized"]["hit_rate"] >= pair["basic"]["hit_rate"], key
        assert pair["optimized"]["cost"] <= pair["basic"]["cost"], key


def test_directional_example_512x256_uint8(default_sweep):
    rows = [r for r in default_sweep
            if (r["m"], r["n"], r["elem_bytes"], r["slice"]) ==
            (256, 512, 1, 1.0)]
    modes = {r["mode"]: r["hit_rate"] for r in rows}
    assert modes["optimized"] > modes["basic"]


def test_hit_rate_gap_stable_across_slices(default_sweep):
    # no notable difference across the 25/50/75/100% splits
    for (m, n, elem) in {(r["m"], r["n"], r["elem_bytes"])
                         for r in default_sweep}:
        gaps = []
        for sl in (0.25, 0.5, 0.75, 1.0):
            pair = {r["mode"]: r["hit_rate"] for r in default_sweep
                    if (r["m"], r["n"], r["elem_bytes"], r["slice"]) ==
                    (m, n, elem, sl)}
            gaps.append(pair["optimized"] - pair["basic"])
        assert max(gaps) - min(gaps) < 0.05


def test_optimized_hit_rate_formula(default_sweep):
    # weight-only steady state: misses are compulsory line fetches, so the
    # hit rate is exactly 1 - elem_bytes / (line_bytes * batch)
    for r in default_sweep:
        if r["mode"] != "optimized":
            continue
        expect = 1.0 - r["elem_bytes"] / (8 * r["b"])
        assert r["hit_rate"] == pytest.approx(expect, abs=1e-3), r


def test_default_sweep_matches_benchmark_reference(default_sweep):
    # perfbench/reference.json holds the accesses and hits of all 72
    # default sweep points, written from the per-access loop
    with open(REFERENCE) as fh:
        want = json.load(fh)["sweep"]
    got = {f"{r['mode']}/{r['m']}x{r['n']}/e{r['elem_bytes']}/s{r['slice']}":
           [r["accesses"], r["hits"]] for r in default_sweep}
    assert len(got) == 72
    assert got == want


def test_report_csv(tmp_path, default_sweep):
    path = tmp_path / "report.csv"
    write_report_csv(default_sweep, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(default_sweep)
    assert set(rows[0]) == {"mode", "m", "n", "b", "elem_bytes", "slice",
                            "accesses", "hits", "misses", "hit_rate", "cost"}
    for got, want in zip(rows, default_sweep):
        assert int(got["accesses"]) == want["accesses"]
        assert int(got["hits"]) + int(got["misses"]) == want["accesses"]


def test_combined_trace_mode_exists():
    rows = bench_report(shapes=((64, 32),), widths=(1,), slices=(1.0,),
                        include_inputs=True)
    base = bench_report(shapes=((64, 32),), widths=(1,), slices=(1.0,))
    assert rows[0]["accesses"] == 2 * base[0]["accesses"]
