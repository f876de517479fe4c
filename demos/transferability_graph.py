"""Build a transferability graph from a trained model and project it to 2D.

Generates a small two-domain dataset with divergent long-tailed labels,
trains an encoder briefly, then walks the full analysis pipeline: per-pair
feature statistics, the directed transferability matrix, its summary
statistics, and the classical-scaling layout used for plotting.

Run: python demos/transferability_graph.py
"""

import numpy as np

from boda.datagen import DatasetSpec, DomainShift, LabelProfile, generate
from boda.stats import (
    build_graph,
    compute_stats,
    distances,
    group_by_pair,
    mds_2d,
    pair_grouping,
    save_mds_csv,
    transfer_stats,
)
from boda.trainer import TrainConfig, encode_features, train

DIM = 12
spec = DatasetSpec(
    num_domains=2, num_classes=6, input_dim=DIM,
    profiles=(LabelProfile("forward_lt", 100, 50.0),
              LabelProfile("backward_lt", 100, 50.0)),
    domain_shift=(DomainShift(0.0, (0.0,) * DIM),
                  DomainShift(0.9, (1.5, -1.0) + (0.5,) * (DIM - 2))),
    class_separation=3.0, noise_std=0.7,
    test_per_pair=40, val_per_pair=10, seed=1,
)
ds = generate(spec)
print(f"dataset: {ds.num_domains} domains x {ds.num_classes} classes, "
      f"{len(ds.train)} training samples")
print("training counts per (domain, class):")
for d in range(ds.num_domains):
    row = [ds.counts[(d, c)] for c in range(ds.num_classes)]
    print(f"  domain {d}: {row}")

params, _ = train(ds, TrainConfig(steps=800, eval_every=800, seed=1,
                                  hidden=(32, 32), rep_dim=8))

z = encode_features(params, ds.train)
grouping = pair_grouping(ds.train.domain, ds.train.label)
store = compute_stats(group_by_pair(z, grouping), grouping)
graph = build_graph(store, distances(z, store), grouping)
print(f"\ntransferability matrix over {len(graph.keys)} pairs "
      f"(row = source, column = destination):")
with np.printoptions(precision=2, suppress=True):
    print(graph.weights)

ts = transfer_stats(graph, nu=1.0, counts=store.counts)
print(f"\nalpha (same class, cross domain)  = {ts.alpha:.3f}")
print(f"beta  (same domain, cross class)  = {ts.beta:.3f}")
print(f"gamma (cross domain, cross class) = {ts.gamma:.3f}")
print(f"(beta + gamma) - alpha            = {ts.beta + ts.gamma - ts.alpha:.3f}")
print(f"calibrated (nu=1): alpha={ts.calibrated.alpha:.3f} "
      f"beta={ts.calibrated.beta:.3f} gamma={ts.calibrated.gamma:.3f}")

keys, coords = mds_2d(graph)
print("\n2-D layout (domain, class, x, y):")
for (d, c), (x, y) in zip(keys, coords):
    print(f"  d{d} c{c}: ({x:+.2f}, {y:+.2f})")
save_mds_csv(keys, coords, "mds_layout.csv")
print("\nwrote mds_layout.csv")
