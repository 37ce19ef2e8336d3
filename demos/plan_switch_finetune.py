"""End-to-end conversion of a trained model into nested subnetworks.

Pipeline on synthetic ten-class data: pretrain a small dense network,
accumulate gradient sums, score and permute units, plan slicing points
with the bottom-up knapsack against 100/75/50/25% MAC budgets, compare
with the equal-share baselines, fine-tune all rows jointly, and measure
switching cost.
"""

# nestslice before numpy: importing it first gives BLAS one thread (see
# nestslice/__init__.py), which its two-thread training relies on
from nestslice import (NestedModel, build_reference, full_macs, plan_macs,
                       plan_baseline, plan_bottom_up, plan_top_down,
                       synth_blobs)
import numpy as np
from nestslice.autograd import TrainConfig, accumulate_importance_grads
from nestslice.finetune import (compute_pi, evaluate_rows, finetune_joint,
                                train_single)
from nestslice.importance import (apply_to_scores, permute_descending,
                                  score_units)

SEED = 0
data = synth_blobs(classes=10, per_class=120, dims=16, seed=SEED,
                   separation=5.0)
net = build_reference("dnn", "S", 16, classes=10, seed=SEED)

# ------------------------------------------------------------- pretrain
cfg = TrainConfig(batch_size=100, epochs=4,
                  learning_rate_schedule=[(0, 3e-3)])
log = train_single(net, data, cfg, seed=SEED)
print("pretrained validation accuracy:", round(log[-1]["val_accuracy"], 3))

# ------------------------------------------------- score and permute
stream = data.batches("train", 100, seed=SEED, repeat=True)
grads = accumulate_importance_grads(net, stream, n_batches=100)
scores = score_units(net, grads)
raw = net
net, perm = permute_descending(net, scores)
scores = apply_to_scores(raw, perm, scores)
print("units permuted into descending importance order")

# ------------------------------------------------------------- planning
full = full_macs(net)
caps = [full, int(0.75 * full), int(0.5 * full), int(0.25 * full)]
plan_bu = plan_bottom_up(net, scores, caps)
plan_td = plan_top_down(net, scores, caps)
print("\nbottom-up slicing points:", plan_bu.points.tolist())
print("top-down slicing points: ", plan_td.points.tolist())
g_l1, plan_l1 = plan_baseline(net, "l1", caps, seed=SEED)
print("L1 equal-share points:   ", plan_l1.points.tolist())

# ----------------------------------------------------- joint fine-tuning
model = NestedModel(net, plan_bu)
pi = compute_pi(model)
print("\nloss weights pi per row:", np.round(pi, 4))
tune = TrainConfig(batch_size=100, epochs=8,
                   learning_rate_schedule=[(0, 2e-3)])
finetune_joint(model, data, tune, seed=SEED)

test_x, test_y = data.split("test")
accs = evaluate_rows(model, test_x, test_y)
print("\n  row  capacity   MACs      accuracy")
for k in range(plan_bu.n_rows):
    macs = plan_macs(net, plan_bu.row_widths(k))
    pct = 100.0 * plan_bu.capacities[k] / full
    print(f"  {k}    {pct:5.0f}%   {macs:8d}   {accs[k]:.3f}")

# ------------------------------------------------------------- switching
total_ints = 0
for i in range(200):
    st = model.activate(i % plan_bu.n_rows)
    total_ints += st.integers_updated
    assert st.weights_copied == 0
print(f"\n200 subnetwork switches: {total_ints} integers updated in total, "
      "0 weight elements copied")
