import numpy as np
import pytest

from boda import stats
from boda.errors import ValidationError
from boda.numerics import inverse_shrunk, make_rng
from boda.stats import (
    StatsStore,
    compute_stats,
    group_by_pair,
    load_graph,
    mds_2d,
    momentum_update,
    pair_grouping,
    save_graph,
    transfer_stats,
)

from conftest import (PairStats, graph_of, make_store, random_features,
                      stats_of)


# ---------------------------------------------------------------------------
# Loop oracles: the per-pair and per-key definitions that the array passes
# of ``compute_stats``, ``momentum_update`` and ``build_graph`` must match.
# ---------------------------------------------------------------------------

def compute_stats_oracle(features_by_key: dict) -> dict:
    """Mean, population covariance and count, one pair at a time."""
    out = {}
    for key in sorted(features_by_key):
        z = np.asarray(features_by_key[key], dtype=np.float64)
        if z.size == 0:
            continue
        mu = z.mean(axis=0)
        centered = z - mu
        sigma = centered.T @ centered / z.shape[0]
        out[tuple(key)] = PairStats(tuple(key), mu, sigma, z.shape[0])
    return out


def momentum_oracle(prev: StatsStore, current: StatsStore,
                    alpha_m: float) -> dict:
    """``alpha_m * prev + (1 - alpha_m) * current``, one key at a time."""
    out = {}
    for key in current.keys():
        p, c = (int(s.index([key[0]], [key[1]])[0]) for s in (prev, current))
        out[key] = PairStats(
            key,
            alpha_m * prev.mu[p] + (1.0 - alpha_m) * current.mu[c],
            alpha_m * prev.sigma[p] + (1.0 - alpha_m) * current.sigma[c],
            int(current.counts[c]),
        )
    return out


def transferability(src_samples, mu_dst, metric="euclidean", sigma_inv=None):
    """Mean distance from source samples to a destination centroid."""
    src = np.asarray(src_samples, dtype=np.float64)
    mu_dst = np.asarray(mu_dst, dtype=np.float64)
    if src.ndim != 2 or src.shape[0] == 0:
        raise ValidationError("source sample set must be nonempty and 2-D")
    if src.shape[1] != mu_dst.shape[0]:
        raise ValidationError("feature dimension mismatch")
    diff = src - mu_dst
    if metric == "euclidean":
        d = np.sqrt(np.sum(diff * diff, axis=1))
    else:
        d = np.sqrt(np.maximum(
            np.einsum("nh,hk,nk->n", diff, sigma_inv, diff), 0.0))
    return float(d.mean())


def assert_store_bit_equal(store: StatsStore, expected: dict):
    assert store.keys() == list(expected)
    for i, (key, st) in enumerate(expected.items()):
        assert store.mu[i].tobytes() == np.asarray(st.mu).tobytes(), key
        assert store.sigma[i].tobytes() == np.asarray(st.sigma).tobytes(), key
        assert store.counts[i] == st.count, key


def uneven_groups(rng, num_domains=3, num_classes=5, dim=4, max_count=6):
    """A grid with counts 1..max_count (singletons included), a few pairs
    left out, and one added singleton pair at a negative domain."""
    _, _, _, groups = random_features(rng, num_domains, num_classes, dim,
                                      max_count=max_count)
    for key in list(groups):
        if rng.random() < 0.2:
            del groups[key]
    groups[(-1, 2)] = 3.0 * rng.standard_normal((1, dim))
    return groups


UNIT_SQUARE = {
    (0, 0): np.array([[0.0, 0.0]]),
    (0, 1): np.array([[1.0, 0.0]]),
    (1, 0): np.array([[0.0, 1.0]]),
    (1, 1): np.array([[1.0, 1.0]]),
}


class TestComputeStats:
    def test_singleton_zero_covariance(self):
        store = stats_of({(0, 0): np.array([[2.0, -1.0]])})
        np.testing.assert_array_equal(store.mu[0], [2.0, -1.0])
        np.testing.assert_array_equal(store.sigma[0], np.zeros((2, 2)))
        assert store.counts[0] == 1

    def test_two_point_hand_computation(self):
        store = stats_of({(0, 0): np.array([[0.0, 0.0], [2.0, 0.0]])})
        np.testing.assert_array_equal(store.mu[0], [1.0, 0.0])
        np.testing.assert_array_equal(store.sigma[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_permutation_invariance(self):
        rng = make_rng(1)
        z = rng.standard_normal((20, 3))
        store1 = stats_of({(0, 0): z})
        store2 = stats_of({(0, 0): z[::-1]})
        np.testing.assert_allclose(store1.mu[0], store2.mu[0])
        np.testing.assert_allclose(store1.sigma[0], store2.sigma[0])

    def test_empty_group_omitted(self):
        # A pair with no rows is not in the grouping, so it gets no row.
        store = stats_of({(0, 0): np.zeros((0, 2)), (1, 0): np.ones((2, 2))})
        with pytest.raises(ValidationError, match="no statistics"):
            store.index([0], [0])
        np.testing.assert_array_equal(store.index([1], [0]), [0])
        assert store.keys() == [(1, 0)]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            stats_of({(0, 0): np.array([[np.inf, 0.0]])})

    def test_population_covariance(self):
        rng = make_rng(2)
        z = rng.standard_normal((7, 2))
        store = stats_of({(0, 0): z})
        np.testing.assert_allclose(store.sigma[0], np.cov(z.T, bias=True))


class TestMomentumUpdate:
    def _store(self, mu, count=4):
        return make_store([PairStats((0, 0), np.array(mu, dtype=float),
                                        np.eye(2), count)])

    def test_alpha_one_keeps_prev(self):
        out = momentum_update(self._store([0.0, 0.0], 3),
                              self._store([2.0, 2.0], 9), 1.0)
        np.testing.assert_array_equal(out.mu[0], [0.0, 0.0])
        assert out.counts[0] == 9  # counts track the current pass

    def test_alpha_zero_takes_current(self):
        out = momentum_update(self._store([0.0, 0.0]),
                              self._store([2.0, 2.0]), 0.0)
        np.testing.assert_array_equal(out.mu[0], [2.0, 2.0])

    def test_midpoint(self):
        out = momentum_update(self._store([0.0, 0.0]),
                              self._store([2.0, 2.0]), 0.5)
        np.testing.assert_array_equal(out.mu[0], [1.0, 1.0])

    def test_different_pairs_rejected(self):
        a = PairStats((0, 0), np.zeros(2), np.eye(2), 1)
        b = PairStats((1, 0), np.ones(2), np.eye(2), 2)
        for prev, cur in (([a], [b]), ([a], [a, b]), ([a, b], [b])):
            with pytest.raises(ValidationError, match="same pairs"):
                momentum_update(make_store(prev), make_store(cur), 0.9)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            momentum_update(self._store([0.0, 0.0]),
                            self._store([1.0, 1.0]), 1.5)


class TestStore:
    def test_rows_are_read_only_views(self):
        store = stats_of(uneven_groups(make_rng(20)))
        for key in store.keys():
            i = int(store.index([key[0]], [key[1]])[0])
            mu, sigma = store.mu[i], store.sigma[i]
            assert np.shares_memory(mu, store.mu)
            assert np.shares_memory(sigma, store.sigma)
            assert not mu.flags.writeable
            assert not sigma.flags.writeable
        for name in ("mu", "sigma", "counts", "key_domain", "key_class",
                     "inverses"):
            assert not getattr(store, name).flags.writeable, name

    def test_index_finds_every_key(self):
        store = stats_of(uneven_groups(make_rng(21)))
        keys = store.keys()
        rows = store.index([k[0] for k in keys], [k[1] for k in keys])
        np.testing.assert_array_equal(rows, np.arange(len(keys)))
        with pytest.raises(ValidationError, match="no statistics"):
            store.index([7], [0])

    def test_unsorted_or_duplicate_keys_rejected(self):
        mu, sigma = np.zeros((2, 2)), np.zeros((2, 2, 2))
        for domains, classes in (([1, 0], [0, 0]), ([0, 0], [1, 1])):
            with pytest.raises(ValidationError):
                StatsStore(domains, classes, mu, sigma, [1, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            StatsStore([0, 1], [0, 0], np.zeros((2, 3)), np.zeros((2, 2, 2)),
                       [1, 1])

    def test_inverses_match_inverse_shrunk(self):
        store = stats_of(uneven_groups(make_rng(22)))
        for k, sigma in enumerate(store.sigma):
            assert store.inverses[k].tobytes() == \
                inverse_shrunk(sigma).tobytes()


class TestArrayStatsMatchLoops:
    @pytest.mark.parametrize("seed", range(6))
    def test_compute_stats_bit_equal(self, seed):
        groups = uneven_groups(make_rng(30 + seed))
        store = stats_of(groups)
        assert (store.counts == 1).any()
        assert_store_bit_equal(store, compute_stats_oracle(groups))

    def test_group_by_pair_with_grouping(self):
        rng = make_rng(36)
        domains = rng.integers(-1, 3, 200)
        labels = rng.integers(0, 6, 200)
        z = rng.standard_normal((200, 3))
        grouping = pair_grouping(domains, labels)
        keys, _, bounds = grouping
        rows = group_by_pair(z, grouping)
        groups = {(int(d), int(c)): z[(domains == d) & (labels == c)]
                  for d, c in set(zip(domains, labels))}
        assert keys == sorted(groups)
        for i, key in enumerate(keys):
            assert rows[bounds[i]:bounds[i + 1]].tobytes() == \
                groups[key].tobytes()
        assert_store_bit_equal(compute_stats(rows, grouping),
                               compute_stats_oracle(groups))

    @pytest.mark.parametrize("alpha_m", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_momentum_update_bit_equal(self, seed, alpha_m):
        rng = make_rng(40 + seed)
        prev_groups = uneven_groups(rng)
        cur_groups = uneven_groups(rng)
        shared = prev_groups.keys() & cur_groups.keys()
        prev_groups = {k: prev_groups[k] for k in shared}
        cur_groups = {k: cur_groups[k] for k in shared}
        prev, cur = stats_of(prev_groups), stats_of(cur_groups)
        out = momentum_update(prev, cur, alpha_m)
        assert_store_bit_equal(out, momentum_oracle(prev, cur, alpha_m))

    def test_momentum_update_same_keys(self):
        groups = uneven_groups(make_rng(44))
        prev = stats_of(groups)
        cur = stats_of({k: v + 1.0 for k, v in groups.items()})
        out = momentum_update(prev, cur, 0.9)
        assert_store_bit_equal(out, momentum_oracle(prev, cur, 0.9))


class TestTransferability:
    """The graph oracle's own definition."""

    def test_zero_when_sources_at_centroid(self):
        mu = np.array([1.0, 2.0])
        assert transferability(np.tile(mu, (5, 1)), mu) == 0.0

    def test_mean_of_distances(self):
        src = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert transferability(src, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_mahalanobis_identity_equals_euclid(self):
        rng = make_rng(3)
        src = rng.standard_normal((6, 3))
        mu = rng.standard_normal(3)
        e = transferability(src, mu, "euclidean")
        m = transferability(src, mu, "mahalanobis", sigma_inv=np.eye(3))
        assert m == pytest.approx(e, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            transferability(np.zeros((2, 3)), np.zeros(2))


class TestBuildGraph:
    def test_single_key(self):
        groups = {(0, 0): np.array([[1.0, 1.0], [3.0, 1.0]])}
        graph = graph_of(stats_of(groups), groups)
        assert graph.weights.shape == (1, 1)
        assert graph.weights[0, 0] == pytest.approx(1.0)  # mean |z - mu|

    def test_unit_square_enumeration(self):
        graph = graph_of(stats_of(UNIT_SQUARE), UNIT_SQUARE)
        assert graph.keys == [(0, 0), (0, 1), (1, 0), (1, 1)]
        w = graph.weights
        root2 = np.sqrt(2.0)
        # hand enumeration: same-class cross-domain and same-domain
        # cross-class edges are 1; opposite corners are sqrt(2)
        expected = np.array([
            [0, 1, 1, root2],
            [1, 0, root2, 1],
            [1, root2, 0, 1],
            [root2, 1, 1, 0],
        ])
        np.testing.assert_allclose(w, expected)

    def test_generally_asymmetric(self):
        # two clusters with different radii: mean distance from the wide
        # cluster to the tight centroid differs from the reverse direction
        rng = make_rng(4)
        tight = rng.standard_normal((50, 2)) * 0.1
        wide = np.array([4.0, 0.0]) + rng.standard_normal((50, 2)) * 2.0
        groups = {(0, 0): tight, (1, 0): wide}
        graph = graph_of(stats_of(groups), groups)
        assert abs(graph.weights[0, 1] - graph.weights[1, 0]) > 0.05

    def test_missing_stats_rejected(self):
        groups = {(0, 0): np.zeros((1, 2)), (1, 0): np.ones((1, 2))}
        store = stats_of({(0, 0): np.zeros((1, 2))})
        with pytest.raises(ValidationError):
            graph_of(store, groups)

    def test_graph_json_roundtrip(self, tmp_path):
        graph = graph_of(stats_of(UNIT_SQUARE), UNIT_SQUARE)
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.keys == graph.keys
        np.testing.assert_allclose(loaded.weights, graph.weights)


def graph_oracle(store, groups, metric):
    """Per-pair loop over ``transferability``: the graph's definition."""
    keys = sorted(groups)
    weights = np.empty((len(keys), len(keys)))
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            row = int(store.index([kj[0]], [kj[1]])[0])
            inv = (inverse_shrunk(store.sigma[row], 1e-3)
                   if metric == "mahalanobis" else None)
            weights[i, j] = transferability(groups[ki], store.mu[row],
                                            metric, inv)
    return weights


def transfer_stats_oracle(graph, nu=None, counts=None):
    """Ordered-pair loop over the graph: (alpha, beta, gamma) and, with
    ``nu``, their count-calibrated variants."""
    sums = {"alpha": [], "beta": [], "gamma": []}
    cal = {"alpha": [], "beta": [], "gamma": []}
    for i, (d, c) in enumerate(graph.keys):
        for j, (d2, c2) in enumerate(graph.keys):
            if i == j:
                continue
            if c == c2 and d != d2:
                bucket = "alpha"
            elif d == d2:
                bucket = "beta"
            else:
                bucket = "gamma"
            w = graph.weights[i, j]
            sums[bucket].append(w)
            if nu is not None:
                ratio = counts[j] / counts[i]
                cal[bucket].append(ratio ** nu * w)
    plain = [float(np.mean(sums[b])) for b in ("alpha", "beta", "gamma")]
    if nu is None:
        return plain, None
    return plain, [float(np.mean(cal[b])) for b in ("alpha", "beta", "gamma")]


@pytest.fixture()
def uneven_grid():
    """3 x 5 grid, counts 1..30 per pair, one pair without data."""
    _, _, _, groups = random_features(make_rng(8), 3, 5, 4, max_count=30)
    del groups[(1, 2)]
    return stats_of(groups), groups


class TestArrayPassesMatchLoops:
    # A tiny block budget splits every source pair's destinations into
    # several blocks; the default budget computes each row in one block.
    @pytest.mark.parametrize("block", [None, 40])
    def test_build_graph_euclidean_exact(self, uneven_grid, monkeypatch,
                                         block):
        store, groups = uneven_grid
        whole = graph_of(store, groups)
        if block is not None:
            monkeypatch.setattr(stats, "BLOCK_ELEMS", block)
        graph = graph_of(store, groups)
        assert graph.keys == sorted(groups)
        np.testing.assert_array_equal(graph.weights, whole.weights)
        # The expanded square rounds apart from the exact differences.
        np.testing.assert_allclose(graph.weights,
                                   graph_oracle(store, groups, "euclidean"),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("block", [None, 40])
    def test_build_graph_mahalanobis(self, uneven_grid, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(stats, "BLOCK_ELEMS", block)
        store, groups = uneven_grid
        graph = graph_of(store, groups, metric="mahalanobis")
        # matmul and einsum sum h x h products in different orders
        np.testing.assert_allclose(
            graph.weights, graph_oracle(store, groups, "mahalanobis"),
            rtol=1e-12, atol=0.0,
        )

    def test_unknown_metric_rejected(self, uneven_grid):
        store, groups = uneven_grid
        with pytest.raises(ValidationError):
            graph_of(store, groups, metric="cosine")

    def test_transfer_stats_plain_and_calibrated(self, uneven_grid):
        store, groups = uneven_grid
        graph = graph_of(store, groups)
        counts = store.counts
        ts = transfer_stats(graph, nu=1.3, counts=counts)
        plain, cal = transfer_stats_oracle(graph, nu=1.3, counts=counts)
        assert [ts.alpha, ts.beta, ts.gamma] == plain
        np.testing.assert_allclose(
            [ts.calibrated.alpha, ts.calibrated.beta, ts.calibrated.gamma],
            cal, rtol=1e-13, atol=0.0,
        )
        ts_plain = transfer_stats(graph)
        assert ts_plain.calibrated is None
        assert [ts_plain.alpha, ts_plain.beta, ts_plain.gamma] == plain

    def test_group_by_pair_keeps_row_order(self):
        rng = np.random.default_rng(9)
        n = 300
        domains = rng.integers(-1, 3, n)
        labels = rng.integers(0, 6, n)
        z = np.column_stack([np.arange(n, dtype=float), rng.normal(size=n)])
        keys, _, bounds = grouping = pair_grouping(domains, labels)
        rows = group_by_pair(z, grouping)
        expected = sorted({(int(d), int(c)) for d, c in zip(domains, labels)})
        assert keys == expected
        for i, (d, c) in enumerate(keys):
            np.testing.assert_array_equal(
                rows[bounds[i]:bounds[i + 1]],
                z[(domains == d) & (labels == c)]
            )
        assert len(rows) == bounds[-1] == n

    def test_group_by_pair_empty(self):
        grouping = pair_grouping([], [])
        assert grouping[0] == []
        assert group_by_pair(np.zeros((0, 3)), grouping).shape == (0, 3)


class TestTransferStats:
    def test_unit_square_values(self):
        graph = graph_of(stats_of(UNIT_SQUARE), UNIT_SQUARE)
        ts = transfer_stats(graph)
        assert ts.alpha == pytest.approx(1.0)
        assert ts.beta == pytest.approx(1.0)
        assert ts.gamma == pytest.approx(np.sqrt(2.0))

    def test_equal_counts_calibrated_matches_plain(self):
        graph = graph_of(stats_of(UNIT_SQUARE), UNIT_SQUARE)
        counts = np.full(len(graph.keys), 7)
        ts = transfer_stats(graph, nu=1.3, counts=counts)
        assert ts.calibrated.alpha == ts.alpha
        assert ts.calibrated.beta == ts.beta
        assert ts.calibrated.gamma == ts.gamma

    def test_nu_zero_matches_plain(self):
        rng = make_rng(5)
        z, doms, labs, groups = random_features(rng, 3, 4, 3)
        store = stats_of(groups)
        graph = graph_of(store, groups)
        ts = transfer_stats(graph, nu=0.0, counts=store.counts)
        assert ts.calibrated.alpha == ts.alpha
        assert ts.calibrated.beta == ts.beta
        assert ts.calibrated.gamma == ts.gamma

    def test_relabeling_invariance(self):
        rng = make_rng(6)
        z, doms, labs, groups = random_features(rng, 2, 3, 4)
        store = stats_of(groups)
        ts = transfer_stats(graph_of(store, groups))
        # permute domain ids (0<->1) and class ids (cyclic shift)
        remap = {
            (d, c): (1 - d, (c + 1) % 3) for d in range(2) for c in range(3)
        }
        groups2 = {remap[k]: v for k, v in groups.items()}
        ts2 = transfer_stats(graph_of(stats_of(groups2), groups2))
        assert ts2.alpha == pytest.approx(ts.alpha, rel=1e-12)
        assert ts2.beta == pytest.approx(ts.beta, rel=1e-12)
        assert ts2.gamma == pytest.approx(ts.gamma, rel=1e-12)

    def test_translation_invariance(self):
        rng = make_rng(7)
        z, doms, labs, groups = random_features(rng, 2, 2, 5)
        ts = transfer_stats(graph_of(stats_of(groups), groups))
        shift = 13.7 * np.ones(5)
        groups2 = {k: v + shift for k, v in groups.items()}
        ts2 = transfer_stats(graph_of(stats_of(groups2), groups2))
        assert ts2.alpha == pytest.approx(ts.alpha, rel=1e-9)
        assert ts2.beta == pytest.approx(ts.beta, rel=1e-9)
        assert ts2.gamma == pytest.approx(ts.gamma, rel=1e-9)

    def test_single_domain_rejected(self):
        groups = {(0, 0): np.zeros((2, 2)), (0, 1): np.ones((2, 2))}
        graph = graph_of(stats_of(groups), groups)
        with pytest.raises(ValidationError):
            transfer_stats(graph)


def pairwise_distances(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


class TestMds:
    def test_equilateral_triangle(self):
        keys = [(0, 0), (0, 1), (1, 0)]
        from boda.stats import TransferabilityGraph
        w = np.ones((3, 3)) - np.eye(3)
        graph = TransferabilityGraph(keys, w)
        _, coords = mds_2d(graph)
        got = pairwise_distances(coords)
        np.testing.assert_allclose(got, w, atol=1e-9)

    def test_two_points_distance_five(self):
        from boda.stats import TransferabilityGraph
        graph = TransferabilityGraph([(0, 0), (1, 0)],
                                     np.array([[0.0, 5.0], [5.0, 0.0]]))
        _, coords = mds_2d(graph)
        assert np.linalg.norm(coords[0] - coords[1]) == pytest.approx(5.0)

    def test_planted_configuration_recovered(self):
        from boda.stats import TransferabilityGraph
        rng = make_rng(8)
        for n in (4, 9, 20):
            pts = rng.standard_normal((n, 2)) * 3.0
            dist = pairwise_distances(pts)
            keys = [(0, i) for i in range(n)]
            _, coords = mds_2d(TransferabilityGraph(keys, dist))
            got = pairwise_distances(coords)
            assert np.sqrt(((got - dist) ** 2).mean()) <= 1e-9

    def test_asymmetric_input_symmetrized(self):
        from boda.stats import TransferabilityGraph
        w = np.array([[0.0, 1.0], [3.0, 0.0]])
        graph = TransferabilityGraph([(0, 0), (1, 0)], w)
        _, coords = mds_2d(graph)
        assert np.linalg.norm(coords[0] - coords[1]) == pytest.approx(2.0)

    def test_single_key_rejected(self):
        from boda.stats import TransferabilityGraph
        with pytest.raises(ValidationError):
            mds_2d(TransferabilityGraph([(0, 0)], np.zeros((1, 1))))


class TestGroupByPair:
    def test_grouping(self):
        z = np.arange(8, dtype=float).reshape(4, 2)
        keys, _, bounds = grouping = pair_grouping([0, 0, 1, 1], [0, 1, 0, 0])
        rows = group_by_pair(z, grouping)
        assert set(keys) == {(0, 0), (0, 1), (1, 0)}
        i = keys.index((1, 0))
        np.testing.assert_array_equal(rows[bounds[i]:bounds[i + 1]], z[2:])
