import csv

import numpy as np
import pytest

import nestslice.netgraph as ng
from conftest import random_grad_store
from nestslice.importance import (Permutation, apply_permutation,
                                  apply_to_scores, export_scores_csv,
                                  permute_descending, pointwise_kernel_scores,
                                  score_units)
from nestslice.netgraph import build_reference, forward


def test_all_zero_gradients_zero_scores():
    g = build_reference("dnn", "S", 8, classes=3, seed=0)
    store = random_grad_store(g)
    for key in store.grads:
        store.grads[key][...] = 0.0
    scores = score_units(g, store)
    assert all(s.importance == 0.0 for s in scores)


def test_scores_match_elementwise_oracle(rng):
    g = build_reference("dscnn", "S", (8, 8, 1), classes=4, seed=1)
    store = random_grad_store(g, seed=3)
    scores = score_units(g, store)
    by = {(s.layer, s.unit): s for s in scores}
    # independent brute-force sum of |g*w| per unit, including bias and
    # attached batchnorm scale/shift
    for li in g.encoder_indices():
        spec = g.layers[li]
        karr = g.weights[li]["kernel"].astype(np.float64)
        gk = store.grads[(li, "kernel")]
        for u in [0, spec.units // 2, spec.units - 1]:
            if spec.kind == ng.DENSE:
                total = sum(abs(gk[i, u] * karr[i, u])
                            for i in range(karr.shape[0]))
            else:
                total = float(np.abs(gk[u] * karr[u]).sum())
            total += abs(store.grads[(li, "bias")][u]
                         * float(g.weights[li]["bias"][u]))
            bn = g.attached_batchnorm(li)
            if bn is not None:
                for nm in ("gamma", "beta"):
                    total += abs(store.grads[(bn, nm)][u]
                                 * float(g.weights[bn][nm][u]))
            assert by[(li, u)].importance == pytest.approx(total, rel=1e-12)


def test_scores_cover_depthwise_and_carry_macs():
    g = build_reference("dscnn", "S", (8, 8, 1), classes=4, seed=1)
    scores = score_units(g, random_grad_store(g))
    costs = {(c.layer, c.unit): c.macs for c in ng.unit_macs(g)}
    layers = {s.layer for s in scores}
    assert any(g.layers[li].kind == ng.DEPTHWISE for li in layers)
    assert g.classifier_index() not in layers
    assert all(s.macs == costs[(s.layer, s.unit)] for s in scores)


def test_fig1_style_swap_preserves_function(rng):
    # swapping the first and last neurons of a hidden layer swaps the
    # corresponding kernel columns and next-layer rows; outputs identical
    g = build_reference("dnn", "S", 12, classes=3, seed=2)
    n = g.layers[0].units
    p = np.arange(n)
    p[0], p[-1] = p[-1], p[0]
    perm = Permutation({0: p})
    g2 = apply_permutation(g, perm)
    np.testing.assert_array_equal(g2.weights[0]["kernel"][:, 0],
                                  g.weights[0]["kernel"][:, -1])
    np.testing.assert_array_equal(g2.weights[1]["kernel"][0, :],
                                  g.weights[1]["kernel"][-1, :])
    x = rng.standard_normal((100, 12))
    assert np.abs(forward(g, x) - forward(g2, x)).max() < 1e-6


def test_already_sorted_scores_identity_permutation():
    g = build_reference("dnn", "S", 8, classes=3, seed=0)
    store = random_grad_store(g)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    _, perm2 = permute_descending(g2, scores2)
    assert all(np.array_equal(p, np.arange(len(p)))
               for p in perm2.maps.values())


@pytest.mark.parametrize("arch,ishape", [
    ("dnn", 16), ("cnn", (8, 8, 1)), ("dscnn", (8, 8, 1)),
])
def test_permutation_preserves_function(arch, ishape, rng):
    g = build_reference(arch, "S", ishape, classes=5, seed=4)
    scores = score_units(g, random_grad_store(g, seed=7))
    g2, _ = permute_descending(g, scores)
    shape = (100, ishape) if np.isscalar(ishape) else (100,) + ishape
    x = rng.standard_normal(shape)
    a, b = forward(g, x), forward(g2, x)
    assert np.abs(a - b).max() < 1e-5
    assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))


def test_post_permutation_scores_descending():
    g = build_reference("dscnn", "S", (8, 8, 1), classes=4, seed=5)
    scores = score_units(g, random_grad_store(g, seed=8))
    g2, perm = permute_descending(g, scores)
    by_layer = {}
    for s in apply_to_scores(g, perm, scores):
        by_layer.setdefault(s.layer, []).append(s.importance)
    for li in g2.sliceable_indices():
        imp = by_layer[li]
        assert all(a >= b for a, b in zip(imp, imp[1:]))


def test_ties_break_by_original_index():
    g = build_reference("dnn", "S", 6, classes=3, seed=0)
    store = random_grad_store(g)
    scores = score_units(g, store)
    for s in scores:
        s.importance = 1.0  # all tied
    _, perm = permute_descending(g, scores)
    assert all(np.array_equal(p, np.arange(len(p)))
               for p in perm.maps.values())


def test_inverse_restores_bit_identical_weights():
    g = build_reference("dscnn", "S", (8, 8, 1), classes=4, seed=6)
    scores = score_units(g, random_grad_store(g, seed=9))
    g2, perm = permute_descending(g, scores)
    inverse = Permutation({l: np.argsort(p) for l, p in perm.maps.items()})
    g3 = apply_permutation(g2, inverse)
    for i, params in enumerate(g.weights):
        if params is None:
            continue
        for name, t in params.items():
            np.testing.assert_array_equal(t, g3.weights[i][name])


def test_depthwise_follows_preceding_layer():
    g = build_reference("dscnn", "S", (8, 8, 1), classes=4, seed=7)
    scores = score_units(g, random_grad_store(g, seed=10))
    g2, perm = permute_descending(g, scores)
    conv = g.sliceable_indices()[0]
    dw = g.next_compute_layer(conv)
    p = perm.maps[conv]
    np.testing.assert_array_equal(g2.weights[dw]["kernel"],
                                  g.weights[dw]["kernel"][p])
    pw = g.next_compute_layer(dw)
    np.testing.assert_array_equal(
        g2.weights[pw]["kernel"][:, 0, 0, :],
        g.weights[pw]["kernel"][:, 0, 0, :][:, p][
            perm.maps[pw], :])


def test_permuted_grad_store_consistent_with_scores():
    # permuting the gradient store and rescoring the permuted graph gives
    # the same numbers as reindexing the scores directly
    from nestslice.importance import permute_grad_store
    g = build_reference("dscnn", "S", (8, 8, 1), classes=4, seed=3)
    store = random_grad_store(g, seed=4)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    store2 = permute_grad_store(g2, perm, store)
    rescored = score_units(g2, store2)
    reindexed = apply_to_scores(g, perm, scores)
    assert len(rescored) == len(reindexed)
    for a, b in zip(sorted(rescored, key=lambda s: (s.layer, s.unit)),
                    sorted(reindexed, key=lambda s: (s.layer, s.unit))):
        assert (a.layer, a.unit, a.macs) == (b.layer, b.unit, b.macs)
        assert a.importance == pytest.approx(b.importance, rel=1e-12)
    # the store stays float64 and the original is untouched
    assert all(v.dtype == np.float64 for v in store2.grads.values())
    again = score_units(g, store)
    for a, b in zip(scores, again):
        assert a.importance == b.importance


def test_pointwise_kernel_scores_shape():
    g = build_reference("dscnn", "S", (8, 8, 1), classes=4, seed=7)
    store = random_grad_store(g)
    pw = [i for i, l in enumerate(g.layers) if l.kind == ng.POINTWISE][0]
    mat = pointwise_kernel_scores(g, store, pw)
    assert mat.shape == (64, 64)
    assert np.all(mat >= 0)


def test_scores_csv_export(tmp_path):
    g = build_reference("dnn", "S", 8, classes=3, seed=0)
    scores = score_units(g, random_grad_store(g))
    path = tmp_path / "scores.csv"
    export_scores_csv(scores, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["layer", "unit", "importance", "macs"]
    assert len(rows) == 1 + len(scores)
    assert float(rows[1][2]) == scores[0].importance
