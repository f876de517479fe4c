"""Verify the analytic loss gradients against central finite differences.

Also demonstrates the hardness-aware structure of the loss: the gradient
with respect to a negative pair's distance scales with that pair's softmin
probability, so hard negatives (close ones) are pushed hardest.

Run: python demos/gradient_verification.py
"""

import numpy as np

from boda.gradcheck import run_gradcheck
from boda.losses import boda_grad
from boda.numerics import make_rng
from boda.stats import FeatureStats, StatsStore

print("max relative error of analytic vs numeric z-gradients")
print("(50 random instances per variant, h = 1e-5):")
for variant, err in run_gradcheck(seed=0, n_instances=50).items():
    print(f"  {variant:16s} {err:.3e}")

# hardness awareness on a hand-built instance: three negatives at
# increasing distances, one positive
rng = make_rng(1)
store = StatsStore([
    FeatureStats((0, 0), np.array([0.0, 0.0]), np.zeros((2, 2)), 5),
    FeatureStats((1, 0), np.array([2.0, 0.0]), np.zeros((2, 2)), 5),   # positive
    FeatureStats((0, 1), np.array([0.8, 0.0]), np.zeros((2, 2)), 5),   # hard negative
    FeatureStats((1, 1), np.array([3.0, 3.0]), np.zeros((2, 2)), 5),   # easy negative
])
z = np.array([0.1, 0.0])
grad, detail = boda_grad("boda", z, (0, 0), store)
print("\nper-destination softmin weights and distance gradients:")
for key, p, g in zip(detail.keys, detail.probabilities,
                     detail.dloss_ddistance):
    role = "positive" if key == (1, 0) else "negative"
    print(f"  pair {key} ({role:8s}): P = {p:.3f}, dLoss/dDist = {g:+.4f}")
print(f"softmin weights sum to {detail.probabilities.sum():.6f}")
print("\nthe hard negative (0,1) carries a larger push than the easy one "
      "(1,1), and the gradient on the sample is")
print(f"  dLoss/dz = {grad}")
