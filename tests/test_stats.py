import numpy as np
import pytest

from boda import stats
from boda.errors import ValidationError
from boda.numerics import inverse_shrunk, make_rng
from boda.stats import (
    FeatureStats,
    StatsStore,
    build_graph,
    compute_stats,
    group_by_pair,
    load_graph,
    mds_2d,
    momentum_update,
    save_graph,
    transfer_stats,
    transferability,
)

from conftest import random_features

UNIT_SQUARE = {
    (0, 0): np.array([[0.0, 0.0]]),
    (0, 1): np.array([[1.0, 0.0]]),
    (1, 0): np.array([[0.0, 1.0]]),
    (1, 1): np.array([[1.0, 1.0]]),
}


class TestComputeStats:
    def test_singleton_zero_covariance(self):
        store = compute_stats({(0, 0): np.array([[2.0, -1.0]])})
        st = store[(0, 0)]
        np.testing.assert_array_equal(st.mu, [2.0, -1.0])
        np.testing.assert_array_equal(st.sigma, np.zeros((2, 2)))
        assert st.count == 1

    def test_two_point_hand_computation(self):
        store = compute_stats({(0, 0): np.array([[0.0, 0.0], [2.0, 0.0]])})
        st = store[(0, 0)]
        np.testing.assert_array_equal(st.mu, [1.0, 0.0])
        np.testing.assert_array_equal(st.sigma, [[1.0, 0.0], [0.0, 0.0]])

    def test_permutation_invariance(self):
        rng = make_rng(1)
        z = rng.standard_normal((20, 3))
        store1 = compute_stats({(0, 0): z})
        store2 = compute_stats({(0, 0): z[::-1]})
        np.testing.assert_allclose(store1[(0, 0)].mu, store2[(0, 0)].mu)
        np.testing.assert_allclose(store1[(0, 0)].sigma, store2[(0, 0)].sigma)

    def test_empty_group_omitted(self):
        store = compute_stats({(0, 0): np.zeros((0, 2)),
                               (1, 0): np.ones((2, 2))})
        assert (0, 0) not in store
        assert (1, 0) in store

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            compute_stats({(0, 0): np.array([[np.inf, 0.0]])})

    def test_population_covariance(self):
        rng = make_rng(2)
        z = rng.standard_normal((7, 2))
        store = compute_stats({(0, 0): z})
        np.testing.assert_allclose(store[(0, 0)].sigma, np.cov(z.T, bias=True))


class TestMomentumUpdate:
    def _store(self, mu, count=4):
        return StatsStore([FeatureStats((0, 0), np.array(mu, dtype=float),
                                        np.eye(2), count)])

    def test_alpha_one_keeps_prev(self):
        out = momentum_update(self._store([0.0, 0.0], 3),
                              self._store([2.0, 2.0], 9), 1.0)
        np.testing.assert_array_equal(out[(0, 0)].mu, [0.0, 0.0])
        assert out[(0, 0)].count == 9  # counts track the current pass

    def test_alpha_zero_takes_current(self):
        out = momentum_update(self._store([0.0, 0.0]),
                              self._store([2.0, 2.0]), 0.0)
        np.testing.assert_array_equal(out[(0, 0)].mu, [2.0, 2.0])

    def test_midpoint(self):
        out = momentum_update(self._store([0.0, 0.0]),
                              self._store([2.0, 2.0]), 0.5)
        np.testing.assert_array_equal(out[(0, 0)].mu, [1.0, 1.0])

    def test_new_and_missing_keys(self):
        prev = StatsStore([FeatureStats((0, 0), np.zeros(2), np.eye(2), 1)])
        cur = StatsStore([FeatureStats((1, 0), np.ones(2), np.eye(2), 2)])
        out = momentum_update(prev, cur, 0.9)
        np.testing.assert_array_equal(out[(0, 0)].mu, np.zeros(2))
        np.testing.assert_array_equal(out[(1, 0)].mu, np.ones(2))

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            momentum_update(self._store([0.0, 0.0]),
                            self._store([1.0, 1.0]), 1.5)


class TestTransferability:
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
        graph = build_graph(compute_stats(groups), groups)
        assert graph.weights.shape == (1, 1)
        assert graph.weights[0, 0] == pytest.approx(1.0)  # mean |z - mu|

    def test_unit_square_enumeration(self):
        graph = build_graph(compute_stats(UNIT_SQUARE), UNIT_SQUARE)
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
        graph = build_graph(compute_stats(groups), groups)
        assert abs(graph.weights[0, 1] - graph.weights[1, 0]) > 0.05

    def test_missing_stats_rejected(self):
        groups = {(0, 0): np.zeros((1, 2)), (1, 0): np.ones((1, 2))}
        store = compute_stats({(0, 0): np.zeros((1, 2))})
        with pytest.raises(ValidationError):
            build_graph(store, groups)

    def test_graph_json_roundtrip(self, tmp_path):
        graph = build_graph(compute_stats(UNIT_SQUARE), UNIT_SQUARE)
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
            inv = (inverse_shrunk(store[kj].sigma, 1e-3)
                   if metric == "mahalanobis" else None)
            weights[i, j] = transferability(groups[ki], store[kj].mu,
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
                ratio = counts[graph.keys[j]] / counts[graph.keys[i]]
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
    return compute_stats(groups), groups


class TestArrayPassesMatchLoops:
    # A tiny block budget splits every source pair's destinations into
    # several blocks; the default budget computes each row in one block.
    @pytest.mark.parametrize("block", [None, 40])
    def test_build_graph_euclidean_exact(self, uneven_grid, monkeypatch,
                                         block):
        if block is not None:
            monkeypatch.setattr(stats, "BLOCK_ELEMS", block)
        store, groups = uneven_grid
        graph = build_graph(store, groups)
        assert graph.keys == sorted(groups)
        np.testing.assert_array_equal(graph.weights,
                                      graph_oracle(store, groups, "euclidean"))

    @pytest.mark.parametrize("block", [None, 40])
    def test_build_graph_mahalanobis(self, uneven_grid, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(stats, "BLOCK_ELEMS", block)
        store, groups = uneven_grid
        graph = build_graph(store, groups, metric="mahalanobis")
        # matmul and einsum sum h x h products in different orders
        np.testing.assert_allclose(
            graph.weights, graph_oracle(store, groups, "mahalanobis"),
            rtol=1e-12, atol=0.0,
        )

    def test_unknown_metric_rejected(self, uneven_grid):
        store, groups = uneven_grid
        with pytest.raises(ValidationError):
            build_graph(store, groups, metric="cosine")

    def test_transfer_stats_plain_and_calibrated(self, uneven_grid):
        store, groups = uneven_grid
        graph = build_graph(store, groups)
        counts = {k: store[k].count for k in store.keys()}
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
        groups = group_by_pair(z, domains, labels)
        expected = sorted({(int(d), int(c)) for d, c in zip(domains, labels)})
        assert list(groups) == expected
        for (d, c), rows in groups.items():
            np.testing.assert_array_equal(
                rows, z[(domains == d) & (labels == c)]
            )
        assert sum(len(v) for v in groups.values()) == n

    def test_group_by_pair_empty(self):
        assert group_by_pair(np.zeros((0, 3)), [], []) == {}


class TestTransferStats:
    def test_unit_square_values(self):
        graph = build_graph(compute_stats(UNIT_SQUARE), UNIT_SQUARE)
        ts = transfer_stats(graph)
        assert ts.alpha == pytest.approx(1.0)
        assert ts.beta == pytest.approx(1.0)
        assert ts.gamma == pytest.approx(np.sqrt(2.0))

    def test_equal_counts_calibrated_matches_plain(self):
        graph = build_graph(compute_stats(UNIT_SQUARE), UNIT_SQUARE)
        counts = {k: 7 for k in graph.keys}
        ts = transfer_stats(graph, nu=1.3, counts=counts)
        assert ts.calibrated.alpha == ts.alpha
        assert ts.calibrated.beta == ts.beta
        assert ts.calibrated.gamma == ts.gamma

    def test_nu_zero_matches_plain(self):
        rng = make_rng(5)
        z, doms, labs, groups = random_features(rng, 3, 4, 3)
        store = compute_stats(groups)
        graph = build_graph(store, groups)
        counts = {k: store[k].count for k in store.keys()}
        ts = transfer_stats(graph, nu=0.0, counts=counts)
        assert ts.calibrated.alpha == ts.alpha
        assert ts.calibrated.beta == ts.beta
        assert ts.calibrated.gamma == ts.gamma

    def test_relabeling_invariance(self):
        rng = make_rng(6)
        z, doms, labs, groups = random_features(rng, 2, 3, 4)
        store = compute_stats(groups)
        ts = transfer_stats(build_graph(store, groups))
        # permute domain ids (0<->1) and class ids (cyclic shift)
        remap = {
            (d, c): (1 - d, (c + 1) % 3) for d in range(2) for c in range(3)
        }
        groups2 = {remap[k]: v for k, v in groups.items()}
        ts2 = transfer_stats(build_graph(compute_stats(groups2), groups2))
        assert ts2.alpha == pytest.approx(ts.alpha, rel=1e-12)
        assert ts2.beta == pytest.approx(ts.beta, rel=1e-12)
        assert ts2.gamma == pytest.approx(ts.gamma, rel=1e-12)

    def test_translation_invariance(self):
        rng = make_rng(7)
        z, doms, labs, groups = random_features(rng, 2, 2, 5)
        ts = transfer_stats(build_graph(compute_stats(groups), groups))
        shift = 13.7 * np.ones(5)
        groups2 = {k: v + shift for k, v in groups.items()}
        ts2 = transfer_stats(build_graph(compute_stats(groups2), groups2))
        assert ts2.alpha == pytest.approx(ts.alpha, rel=1e-9)
        assert ts2.beta == pytest.approx(ts.beta, rel=1e-9)
        assert ts2.gamma == pytest.approx(ts.gamma, rel=1e-9)

    def test_single_domain_rejected(self):
        groups = {(0, 0): np.zeros((2, 2)), (0, 1): np.ones((2, 2))}
        graph = build_graph(compute_stats(groups), groups)
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
        groups = group_by_pair(z, [0, 0, 1, 1], [0, 1, 0, 0])
        assert set(groups) == {(0, 0), (0, 1), (1, 0)}
        np.testing.assert_array_equal(groups[(1, 0)], z[2:])
