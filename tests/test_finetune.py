import numpy as np
import pytest

import nestslice.netgraph as ng
from conftest import assert_rows_share_store, random_grad_store
from nestslice.autograd import TrainConfig, backward, sgd_step
from nestslice.datasets import synth_blobs
from nestslice.errors import DataError, NumericError
from nestslice.finetune import (compute_pi, evaluate_rows,
                                few_shot_bu_td_harness, fewshot_indices,
                                finetune_fewshot, finetune_joint,
                                train_single)
from nestslice.importance import (apply_to_scores, permute_descending,
                                  score_units)
from nestslice.nest import NestedModel
from nestslice.netgraph import build_reference, full_macs
from nestslice.planner import SlicingPlan, plan_bottom_up


def small_setup(seed=1, caps=(1.0, 0.75, 0.5, 0.25), dims=12, classes=5):
    data = synth_blobs(classes=classes, per_class=40, dims=dims, seed=seed,
                       separation=5.0)
    g = build_reference("dnn", "S", dims, classes=classes, seed=seed)
    tc = TrainConfig(batch_size=32, epochs=3,
                     learning_rate_schedule=[(0, 3e-3)])
    train_single(g, data, tc, seed=seed)
    store = random_grad_store(g, seed=seed)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    full = full_macs(g2)
    plan = plan_bottom_up(g2, scores2, [int(full * f) for f in caps])
    return NestedModel(g2, plan), data, scores2, store


def test_pi_full_row_is_one():
    m, _, _, _ = small_setup()
    pi = compute_pi(m)
    assert pi[0] == pytest.approx(1.0)
    assert np.all(np.diff(pi) <= 0)  # non-increasing with capacity


def test_pi_simple_ratio():
    # a plan row using half the first layer and all of the second on a
    # known architecture: ratio equals an independent count
    m, _, _, _ = small_setup()
    g = m.graph
    widths = [72, 144]
    plan = SlicingPlan(
        [full_macs(g), ng.plan_macs(g, widths)],
        [[144, 144], widths])
    m2 = NestedModel(g, plan)
    pi = compute_pi(m2)
    total = ng.param_counts(g, None, encoder_only=True)
    active = (12 * 72 + 72) + (72 * 144 + 144)
    assert pi[1] == pytest.approx(active / total)


def test_pi_matches_independent_audit_dscnn():
    rng = np.random.default_rng(0)
    g = build_reference("dscnn", "S", (8, 8, 1), classes=4, seed=2)
    store = random_grad_store(g, seed=2)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    full = full_macs(g2)
    plan = plan_bottom_up(g2, scores2,
                          [int(full * f) for f in (1.0, 0.75, 0.5, 0.25)])
    m = NestedModel(g2, plan)
    pi = compute_pi(m)
    # independent audit: enumerate parameters layer by layer
    for k in range(plan.n_rows):
        act = ng.resolve_widths(g2, plan.row_widths(k))
        dims = ng.layer_output_dims(g2, plan.row_widths(k))
        count = 0
        for i, spec in enumerate(g2.layers):
            if i > g2.encoder_end:
                continue
            u = int(act[i])
            if spec.kind == "conv2d":
                cin = dims[i - 1][2] if i else g2.input_shape[2]
                count += u * 9 * cin + u
            elif spec.kind == "depthwise":
                count += u * 9 + u
            elif spec.kind == "pointwise":
                count += u * dims[i - 1][2] + u
            elif spec.kind == "batchnorm":
                count += 2 * u
        total = ng.param_counts(g2, None, encoder_only=True)
        assert pi[k] == pytest.approx(count / total)


def test_single_row_reduces_to_plain_finetuning():
    m, data, _, _ = small_setup(caps=(1.0,))
    tc = TrainConfig(batch_size=32, epochs=1,
                     learning_rate_schedule=[(0, 1e-3)])
    g = m.graph.copy()
    log = finetune_joint(m, data, tc, seed=0)
    # the same steps as plain SGD over the same seeded batch order
    order = np.random.default_rng(0).permutation(data.splits["train"])
    losses = []
    for s in range(0, len(order) - 32 + 1, 32):
        sel = order[s:s + 32]
        loss, grads = backward(g, (data.samples[sel], data.labels[sel]),
                               slicing=m.plan.row_widths(0))
        sgd_step(g, grads, 1e-3)
        losses.append(loss)
    for i, params in enumerate(m.graph.weights):
        for name, t in params.items():
            np.testing.assert_array_equal(t, g.weights[i][name])
    assert [b[2] for b in log.batches] == [[v] for v in losses]
    assert len(log.epochs) == 1
    assert log.epochs[0]["loss"] == pytest.approx(np.mean(losses))


def test_joint_gradient_is_pi_weighted_sum():
    m, data, _, _ = small_setup()
    pi = compute_pi(m)
    xs, ys = data.samples[:16], data.labels[:16]
    manual = None
    for k in range(m.plan.n_rows):
        _, grads = backward(m.graph, (xs, ys),
                            slicing=m.plan.row_widths(k))
        if manual is None:
            manual = {key: pi[k] * arr for key, arr in grads.items()}
        else:
            for key, arr in grads.items():
                manual[key] += pi[k] * arr
    # replicate one joint step and compare the applied delta
    before = {(i, n): np.array(t)
              for i, p in enumerate(m.graph.weights)
              for n, t in p.items()}
    tc = TrainConfig(batch_size=16, epochs=1,
                     learning_rate_schedule=[(0, 0.1)])
    sub = synth_blobs(classes=5, per_class=8, dims=12, seed=99)
    sub.samples[...] = 0  # not used; we drive batches manually below
    sgd_step(m.graph, manual, lr=0.1)
    after = {(i, n): np.array(t)
             for i, p in enumerate(m.graph.weights)
             for n, t in p.items()}
    for key in before:
        i, n = key
        expect = before[key] - (0.1 * manual[key]).astype(np.float32)
        np.testing.assert_allclose(after[key], expect, atol=1e-7)


def test_loss_linearity_on_logged_batches():
    m, data, _, _ = small_setup()
    pi = compute_pi(m)
    tc = TrainConfig(batch_size=32, epochs=1,
                     learning_rate_schedule=[(0, 1e-3)])
    log = finetune_joint(m, data, tc, seed=0)
    assert log.batches
    for _, total, row_losses in log.batches:
        assert total == pytest.approx(float(np.dot(pi, row_losses)),
                                      abs=1e-6)


def test_all_rows_improve_after_joint_finetune():
    m, data, _, _ = small_setup(seed=3)
    test_x, test_y = data.split("test")
    before = evaluate_rows(m, test_x, test_y)
    tc = TrainConfig(batch_size=32, epochs=8,
                     learning_rate_schedule=[(0, 5e-3)])
    finetune_joint(m, data, tc, seed=0)
    after = evaluate_rows(m, test_x, test_y)
    for b, a in zip(before, after):
        assert a >= b - 0.02
    assert sum(after) > sum(before)


def test_weight_sharing_preserved_after_finetune():
    m, data, _, _ = small_setup(seed=4)
    tc = TrainConfig(batch_size=32, epochs=2,
                     learning_rate_schedule=[(0, 1e-3)])
    finetune_joint(m, data, tc, seed=0)
    assert_rows_share_store(m)


def test_finetune_cache_optimized_layout_matches_standard():
    # joint fine-tuning drives the same updates through either store
    from nestslice.nest import CACHE_OPTIMIZED
    m_std, data, _, _ = small_setup(seed=7)
    m_opt = NestedModel(m_std.graph.copy(), m_std.plan,
                        layout=CACHE_OPTIMIZED)
    tc = TrainConfig(batch_size=32, epochs=2,
                     learning_rate_schedule=[(0, 1e-3)])
    finetune_joint(m_std, data, tc, seed=0)
    finetune_joint(m_opt, data, tc, seed=0)
    test_x, test_y = data.split("test")
    a = evaluate_rows(m_std, test_x, test_y)
    b = evaluate_rows(m_opt, test_x, test_y)
    assert a == b
    for i in (0, 1, 2):
        np.testing.assert_allclose(
            m_opt.graph.weights[i]["kernel"],
            m_std.graph.weights[i]["kernel"].T, atol=1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("stage", ["finetune", "pretrain"])
def test_divergence_restores_checkpoint_and_raises(stage):
    m, data, _, _ = small_setup(seed=5)
    g = (m.graph if stage == "finetune"
         else build_reference("dnn", "S", 12, classes=5, seed=5))
    snapshot = {(i, n): np.array(t)
                for i, p in enumerate(g.weights)
                for n, t in p.items()}
    tc = TrainConfig(batch_size=32, epochs=1,
                     learning_rate_schedule=[(0, 1e30)])
    with pytest.raises(NumericError):
        if stage == "finetune":
            finetune_joint(m, data, tc, seed=0)
        else:
            train_single(g, data, tc, seed=0)
    for key, data_before in snapshot.items():
        i, n = key
        np.testing.assert_array_equal(g.weights[i][n], data_before)


def test_finetune_log_schema():
    m, data, _, _ = small_setup(seed=6)
    tc = TrainConfig(batch_size=32, epochs=2,
                     learning_rate_schedule=[(0, 1e-3)])
    log = finetune_joint(m, data, tc, seed=0)
    rows = list(log.to_csv_rows())
    assert rows[0] == ["epoch", "row", "capacity_macs", "pi", "loss",
                       "val_accuracy"]
    assert len(rows) == 1 + 2 * m.plan.n_rows


# -- few shot --------------------------------------------------------------------


def test_fewshot_indices_deterministic_and_balanced():
    data = synth_blobs(classes=4, per_class=30, dims=6, seed=7)
    a = fewshot_indices(data, 5, seed=1)
    b = fewshot_indices(data, 5, seed=1)
    np.testing.assert_array_equal(a, b)
    labels = data.labels[a]
    assert all((labels == c).sum() == 5 for c in range(4))
    assert np.isin(a, data.splits["train"]).all()


def test_fewshot_insufficient_samples():
    data = synth_blobs(classes=4, per_class=5, dims=6, seed=7)
    with pytest.raises(DataError):
        fewshot_indices(data, 50, seed=1)


def test_fewshot_full_dataset_reduces_to_joint():
    m, data, _, _ = small_setup(seed=8)
    per_class_train = min(
        int((data.labels[data.splits["train"]] == c).sum())
        for c in range(data.n_classes))
    tc = TrainConfig(batch_size=16, epochs=1,
                     learning_rate_schedule=[(0, 1e-3)])
    g_copy = m.graph.copy()
    finetune_fewshot(m, data, per_class_train, tc, seed=0)
    # a fresh model fine-tuned on the same index set matches exactly
    m2 = NestedModel(g_copy, m.plan)
    idx = fewshot_indices(data, per_class_train, seed=0)
    finetune_joint(m2, data, tc, seed=0, train_indices=idx)
    for i, params in enumerate(m.graph.weights):
        for name, t in params.items():
            np.testing.assert_array_equal(
                t, m2.graph.weights[i][name])


def test_fewshot_seed_reproducible():
    m, data, _, _ = small_setup(seed=9)
    tc = TrainConfig(batch_size=16, epochs=1,
                     learning_rate_schedule=[(0, 1e-3)])
    g_copy = m.graph.copy()
    log1 = finetune_fewshot(m, data, 8, tc, seed=5)
    m2 = NestedModel(g_copy, m.plan)
    log2 = finetune_fewshot(m2, data, 8, tc, seed=5)
    assert [b[1] for b in log1.batches] == [b[1] for b in log2.batches]


def test_bu_td_harness_deterministic():
    data = synth_blobs(classes=4, per_class=40, dims=10, seed=10,
                       separation=4.0)
    g = build_reference("dnn", "S", 10, classes=4, seed=10)
    tc0 = TrainConfig(batch_size=32, epochs=2,
                      learning_rate_schedule=[(0, 3e-3)])
    train_single(g, data, tc0, seed=0)
    store = random_grad_store(g, seed=10)
    scores = score_units(g, store)
    g2, perm = permute_descending(g, scores)
    scores2 = apply_to_scores(g, perm, scores)
    full = full_macs(g2)
    caps = [full, full // 2]
    tc = TrainConfig(batch_size=8, epochs=1,
                     learning_rate_schedule=[(0, 1e-3)])
    r1 = few_shot_bu_td_harness(g2, scores2, store, data, caps, [4, 8],
                                tc, seed=0)
    r2 = few_shot_bu_td_harness(g2, scores2, store, data, caps, [4, 8],
                                tc, seed=0)
    assert r1 == r2
    assert [e["shots"] for e in r1] == [4, 8]
    for e in r1:
        assert len(e["bu_accuracy"]) == len(caps)
        assert "mean_delta" in e
