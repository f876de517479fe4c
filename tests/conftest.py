import numpy as np
import pytest

from boda.datagen import DatasetSpec, DomainShift, LabelProfile, generate
from boda.stats import (FeatureStats, StatsStore, build_graph, distances,
                        pair_grouping)


def divergent_spec(seed=0, max_count=200, ratio=100.0, input_dim=24,
                   num_classes=10, test_per_pair=100, val_per_pair=20):
    """Two domains with opposed long tails plus a rigid domain shift: the
    configuration where alignment is supposed to beat plain ERM."""
    trans = tuple([1.5, -1.0] + [0.5] * (input_dim - 2))
    return DatasetSpec(
        num_domains=2,
        num_classes=num_classes,
        input_dim=input_dim,
        profiles=(
            LabelProfile("forward_lt", max_count, ratio),
            LabelProfile("backward_lt", max_count, ratio),
        ),
        domain_shift=(
            DomainShift(0.0, tuple([0.0] * input_dim)),
            DomainShift(0.9, trans),
        ),
        class_separation=3.0,
        noise_std=0.7,
        test_per_pair=test_per_pair,
        val_per_pair=val_per_pair,
        seed=seed,
    )


def balanced_spec(seed=0, max_count=300, input_dim=24, num_classes=10,
                  test_per_pair=100, val_per_pair=20):
    """Two domains, uniform labels, same rigid shift."""
    trans = tuple([1.5, -1.0] + [0.5] * (input_dim - 2))
    return DatasetSpec(
        num_domains=2,
        num_classes=num_classes,
        input_dim=input_dim,
        profiles=(
            LabelProfile("uniform", max_count),
            LabelProfile("uniform", max_count),
        ),
        domain_shift=(
            DomainShift(0.0, tuple([0.0] * input_dim)),
            DomainShift(0.9, trans),
        ),
        class_separation=3.0,
        noise_std=0.7,
        test_per_pair=test_per_pair,
        val_per_pair=val_per_pair,
        seed=seed,
    )


def tiny_spec(seed=0, **kwargs):
    """Small dataset for fast pipeline tests."""
    defaults = dict(max_count=40, ratio=4.0, input_dim=4, num_classes=3,
                    test_per_pair=10, val_per_pair=5)
    defaults.update(kwargs)
    return divergent_spec(seed=seed, **defaults)


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate(tiny_spec(seed=11))


def make_store(stats):
    """A StatsStore holding these FeatureStats records, in any key order."""
    stats = sorted(stats, key=lambda st: tuple(st.key))
    return StatsStore([st.key[0] for st in stats], [st.key[1] for st in stats],
                      [st.mu for st in stats], [st.sigma for st in stats],
                      [st.count for st in stats])


def random_store(rng, num_domains=2, num_classes=2, dim=3, max_count=50,
                 spread=2.0):
    """Random per-pair statistics with PSD covariances."""
    stats = []
    for d in range(num_domains):
        for c in range(num_classes):
            mu = spread * rng.standard_normal(dim)
            a = rng.standard_normal((dim, dim)) / np.sqrt(dim)
            sigma = a @ a.T + 0.1 * np.eye(dim)
            count = int(rng.integers(1, max_count + 1))
            stats.append(FeatureStats((d, c), mu, sigma, count))
    return make_store(stats)


def random_features(rng, num_domains, num_classes, dim, max_count=50,
                    spread=2.0):
    """Gaussian features for every pair of a full domain-class grid."""
    groups = {}
    for d in range(num_domains):
        for c in range(num_classes):
            n = int(rng.integers(1, max_count + 1))
            center = spread * rng.standard_normal(dim)
            groups[(d, c)] = center + rng.standard_normal((n, dim))
    z = np.vstack([groups[k] for k in sorted(groups)])
    doms = np.concatenate([
        np.full(len(groups[k]), k[0], dtype=np.int64) for k in sorted(groups)
    ])
    labs = np.concatenate([
        np.full(len(groups[k]), k[1], dtype=np.int64) for k in sorted(groups)
    ])
    return z, doms, labs, groups


def graph_of(store, groups, metric="euclidean"):
    """``build_graph`` of per-pair feature groups: their rows stacked in
    key order and their ``distances`` to the store's centroids."""
    keys = sorted(groups)
    sizes = [len(groups[k]) for k in keys]
    z = np.vstack([np.asarray(groups[k], dtype=np.float64) for k in keys])
    doms = np.repeat([k[0] for k in keys], sizes)
    labs = np.repeat([k[1] for k in keys], sizes)
    return build_graph(store, distances(z, store, metric),
                       pair_grouping(doms, labs))
