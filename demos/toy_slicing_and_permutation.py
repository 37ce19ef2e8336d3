"""Layer slicing and permutation invariance on a toy dense network.

A 3-4-4-2 network: three inputs, two hidden layers of four units, two
outputs. Slicing two neurons off the first hidden layer removes two
columns of W1 and two rows of W2 and nothing else. Because same-layer
units can be reordered without changing the function (as long as the
adjacent weights are reindexed consistently), the kept units can always
be moved to the front, so a subnetwork is just a per-layer width.
"""

import numpy as np

from nestslice import (NestedModel, copy_counter, forward, full_macs,
                       plan_macs)
from nestslice.importance import apply_permutation
from nestslice.netgraph import LayerSpec, ModelGraph
from nestslice.planner import SlicingPlan

rng = np.random.default_rng(7)

# ---------------------------------------------------------------- build
w1 = rng.standard_normal((3, 4)).astype(np.float32)
w2 = rng.standard_normal((4, 4)).astype(np.float32)
w3 = rng.standard_normal((4, 2)).astype(np.float32)


def dense(k):  # the graph takes float32 arrays as they are
    return {"kernel": k, "bias": np.zeros(k.shape[1], np.float32)}


net = ModelGraph(
    [LayerSpec("dense", 4, activation="none", sliceable=True),
     LayerSpec("dense", 4, activation="none", sliceable=True),
     LayerSpec("dense", 2, activation="none")],
    [dense(w1), dense(w2), dense(w3)],
    input_shape=3, encoder_end=1)

x = rng.standard_normal((5, 3))
print("full network output:\n", forward(net, x)[:2])

# ------------------------------------------------------- slicing views
# keeping two of four first-layer units uses the leading 3x2 block of W1
# and the leading 2x4 block of W2; the views copy nothing
before = copy_counter()
v1 = net.weights[0]["kernel"][:3, :2]
v2 = net.weights[1]["kernel"][:2, :4]
print("\nview shapes:", v1.shape, v2.shape,
      "| elements copied:", copy_counter() - before,
      "| views of the store:",
      np.shares_memory(v1, net.weights[0]["kernel"])
      and np.shares_memory(v2, net.weights[1]["kernel"]))

sliced = forward(net, x, slicing=[2, 4])
by_hand = ((x @ w1[:, :2]) @ w2[:2, :]) @ w3
print("sliced forward matches the hand-written chain:",
      np.allclose(sliced, by_hand, atol=1e-6))
print("MACs full -> sliced:", full_macs(net), "->", plan_macs(net, [2, 4]))

# -------------------------------------------------- permutation invariance
# swap the first and last units of hidden layer 1: columns 0 and 3 of W1,
# rows 0 and 3 of W2. The function is unchanged on every input.
p = np.array([3, 1, 2, 0])
permuted = apply_permutation(net, {0: p})
delta = np.abs(forward(net, x) - forward(permuted, x)).max()
print("\nmax |output difference| after the swap:", float(delta))

# once units are sorted so the ones worth keeping come first, every
# subnetwork is a contiguous prefix: one integer per layer
plan = SlicingPlan(
    [full_macs(net), plan_macs(net, [2, 4])],
    [[4, 4], [2, 4]])
model = NestedModel(net, plan)
stats = model.activate(1)
print("\nswitching to the small subnetwork updated",
      stats.integers_updated, "integers and copied",
      stats.weights_copied, "weights")
print("small subnetwork output matches the sliced chain:",
      np.allclose(model.infer(x), by_hand, atol=1e-6))
