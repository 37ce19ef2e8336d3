import numpy as np
import pytest

from nestslice.datasets import (load_idx, make_splits, synth_blobs,
                                write_idx_images, write_idx_labels)
from nestslice.errors import DataError


@pytest.fixture
def idx_pair(tmp_path, rng):
    images = rng.integers(0, 256, (4, 5, 3)).astype(np.uint8)
    labels = np.array([0, 1, 2, 1], dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp, images, labels


def test_idx_fixture_round_trip(idx_pair):
    ip, lp, images, labels = idx_pair
    ds = load_idx(ip, lp, normalize=False)
    assert ds.samples.shape == (4, 5, 3, 1)
    np.testing.assert_array_equal(ds.samples[..., 0], images)
    np.testing.assert_array_equal(ds.labels, labels)


def test_idx_normalization(idx_pair):
    ip, lp, images, _ = idx_pair
    ds = load_idx(ip, lp, normalize=True)
    assert ds.samples.max() <= 1.0
    np.testing.assert_allclose(ds.samples[..., 0], images / 255.0,
                               atol=1e-7)
    raw = load_idx(ip, lp, normalize=False)
    assert raw.samples.max() == images.max()


def test_idx_big_endian_dimensions(tmp_path):
    # dimension 28 encodes as 00 00 00 1c; a little-endian misread would
    # see 469762048
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, np.zeros(2, dtype=np.uint8))
    raw = open(ip, "rb").read()
    assert raw[8:12] == bytes([0, 0, 0, 28])
    ds = load_idx(ip, lp)
    assert ds.samples.shape[1] == 28


def test_idx_magic_mismatch(tmp_path, idx_pair):
    ip, _, _, _ = idx_pair
    # image file offered as labels: magic 0x803 where 0x801 is required
    with pytest.raises(DataError, match="magic"):
        load_idx(ip, ip)
    # label file (long enough to pass the header read) offered as images
    lp10 = tmp_path / "ten.idx"
    write_idx_labels(lp10, np.zeros(10, dtype=np.uint8))
    with pytest.raises(DataError, match="magic"):
        load_idx(lp10, lp10)


def test_idx_truncation(tmp_path, idx_pair):
    ip, lp, _, _ = idx_pair
    raw = open(ip, "rb").read()
    bad = tmp_path / "trunc.idx"
    bad.write_bytes(raw[:-5])
    with pytest.raises(DataError, match="truncated"):
        load_idx(bad, lp)


def test_idx_count_mismatch(tmp_path, idx_pair):
    ip, _, _, _ = idx_pair
    lp2 = tmp_path / "short.idx"
    write_idx_labels(lp2, np.zeros(3, dtype=np.uint8))
    with pytest.raises(DataError, match="labels"):
        load_idx(ip, lp2)


# -- splits ---------------------------------------------------------------------


def test_split_ratios_and_disjointness():
    splits = make_splits(1000, seed=4)
    assert len(splits["train"]) == 800
    assert len(splits["val"]) == 100
    assert len(splits["test"]) == 100
    all_idx = np.concatenate([splits[k] for k in ("train", "val", "test")])
    assert len(set(all_idx.tolist())) == 1000


def test_split_deterministic_under_seed():
    a = make_splits(123, seed=9)
    b = make_splits(123, seed=9)
    c = make_splits(123, seed=10)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)


# -- synthetic blobs -------------------------------------------------------------


def test_blobs_deterministic():
    a = synth_blobs(classes=4, per_class=10, dims=3, seed=7)
    b = synth_blobs(classes=4, per_class=10, dims=3, seed=7)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_separable_limit():
    # huge separation: nearest-centroid classification is perfect
    ds = synth_blobs(classes=5, per_class=30, dims=8, seed=1,
                     separation=100.0)
    means = np.stack([ds.samples[ds.labels == c].mean(axis=0)
                      for c in range(5)])
    pred = np.argmin(
        ((ds.samples[:, None, :] - means[None]) ** 2).sum(-1), axis=1)
    assert (pred == ds.labels).mean() == 1.0


def test_blobs_batches_iterator():
    ds = synth_blobs(classes=3, per_class=20, dims=4, seed=2)
    batches = list(ds.batches("train", 16, seed=0))
    assert all(x.shape == (16, 4) for x, _ in batches)
    again = list(ds.batches("train", 16, seed=0))
    for (x1, y1), (x2, y2) in zip(batches, again):
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)


def test_default_separation_full_model_beats_quarter_slice():
    # trained at default separation, the full net outscores its 25% slice
    # on held-out data before any fine-tuning
    from nestslice.autograd import TrainConfig
    from nestslice.finetune import evaluate, train_single
    from nestslice.importance import (apply_to_scores, permute_descending,
                                      score_units)
    from nestslice.netgraph import build_reference, full_macs
    from nestslice.planner import plan_bottom_up
    from nestslice.autograd import accumulate_importance_grads

    ds = synth_blobs(classes=10, per_class=80, dims=16, seed=11)
    g = build_reference("dnn", "S", 16, classes=10, seed=11)
    tc = TrainConfig(batch_size=50, epochs=4,
                     learning_rate_schedule=[(0, 3e-3)])
    train_single(g, ds, tc, seed=11)
    grads = accumulate_importance_grads(
        g, ds.batches("train", 50, seed=11, repeat=True), n_batches=20)
    scores = score_units(g, grads)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    full = full_macs(g2)
    plan = plan_bottom_up(g2, scores2, [full, full // 4])
    vx, vy = ds.split("val")
    acc_full = evaluate(g2, vx, vy, slicing=plan.row_widths(0))
    acc_quarter = evaluate(g2, vx, vy, slicing=plan.row_widths(1))
    assert acc_full > acc_quarter
