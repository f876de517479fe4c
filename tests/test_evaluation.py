import dataclasses

import numpy as np
import pytest

from boda import model
from boda.datagen import Dataset, Split, generate
from boda.errors import ValidationError
from boda.evaluation import (
    accuracy_report,
    shot_region,
    stats_accuracy_correlation,
)
from boda.numerics import make_rng

from conftest import tiny_spec


def identity_model(dim, num_classes, cls_w=None):
    """Encoder = identity, classifier supplied by the caller."""
    p = model.init(dim, (), dim, num_classes, seed=0)
    p.weights[0][...] = np.eye(dim)
    p.biases[0][...] = 0.0
    p.cls_w[...] = cls_w if cls_w is not None else 0.0
    p.cls_b[...] = 0.0
    return p


def two_blob_dataset(seed=0, n_train=(30, 30), n_test=20):
    """Two domains, two classes at x = -5 / +5, linearly separable."""
    rng = make_rng(seed)

    def split(n_per_pair):
        xs, ds_, cs = [], [], []
        for d in range(2):
            for c in range(2):
                n = n_per_pair if np.isscalar(n_per_pair) else n_per_pair[c]
                center = np.array([-5.0 if c == 0 else 5.0, float(d)])
                xs.append(center + 0.3 * rng.standard_normal((n, 2)))
                ds_.append(np.full(n, d))
                cs.append(np.full(n, c))
        return Split(np.vstack(xs), np.concatenate(ds_).astype(np.int64),
                     np.concatenate(cs).astype(np.int64))

    train = split(n_train)
    test = split(n_test)
    counts = {(d, c): n_train[c] for d in range(2) for c in range(2)}
    return Dataset(train, test, test, counts, 2, 2, 2)


class TestShotRegion:
    def test_boundaries(self):
        assert shot_region(0) == "zero"
        assert shot_region(1) == "few"
        assert shot_region(19) == "few"
        assert shot_region(20) == "medium"    # inclusive lower edge
        assert shot_region(100) == "medium"   # inclusive upper edge
        assert shot_region(101) == "many"

    def test_partition(self, tiny_dataset):
        ds = tiny_dataset
        report = accuracy_report(identity_model(ds.input_dim, ds.num_classes),
                                 ds)
        assert len(report.shot_region) == ds.num_domains * ds.num_classes


class TestAccuracyReport:
    def test_perfect_classifier(self):
        ds = two_blob_dataset()
        cls_w = np.array([[-1.0, 0.0], [1.0, 0.0]])
        report = accuracy_report(identity_model(2, 2, cls_w), ds)
        assert report.average == 100.0
        assert report.worst == 100.0
        assert all(v == 100.0 for v in report.per_pair.values())

    def test_constant_prediction_is_chance_level(self):
        # zero classifier always predicts class 0; balanced test -> 1/C
        ds = generate(tiny_spec(seed=6, num_classes=3))
        report = accuracy_report(identity_model(ds.input_dim, 3), ds)
        assert report.average == pytest.approx(100.0 / 3, abs=1e-9)

    def test_zero_shot_region_only_counts_empty_pairs(self):
        spec = dataclasses.replace(tiny_spec(seed=7),
                                   zero_pairs=frozenset({(0, 1), (1, 2)}))
        ds = generate(spec)
        report = accuracy_report(identity_model(ds.input_dim, ds.num_classes),
                                 ds)
        zero_pairs = [k for k, v in report.shot_region.items() if v == "zero"]
        assert sorted(zero_pairs) == [(0, 1), (1, 2)]
        expected = np.mean([report.per_pair[k] for k in zero_pairs])
        assert report.zero == pytest.approx(expected)

    def test_average_recomputes_from_per_pair(self, tiny_dataset):
        ds = tiny_dataset
        report = accuracy_report(identity_model(ds.input_dim, ds.num_classes),
                                 ds)
        # balanced test: per-domain accuracy is the mean over its pairs
        for d, acc in report.per_domain.items():
            pairs = [report.per_pair[(d, c)] for c in range(ds.num_classes)]
            assert acc == pytest.approx(np.mean(pairs), abs=1e-9)
        assert report.average == pytest.approx(
            np.mean(list(report.per_domain.values())), abs=1e-9
        )

    def test_invariant_to_test_ordering(self, tiny_dataset):
        ds = tiny_dataset
        perm = make_rng(8).permutation(len(ds.test))
        shuffled = dataclasses.replace(
            ds,
            test=Split(ds.test.x[perm], ds.test.domain[perm],
                       ds.test.label[perm]),
        )
        p = identity_model(ds.input_dim, ds.num_classes)
        r1 = accuracy_report(p, ds)
        r2 = accuracy_report(p, shuffled)
        assert r1.per_pair == r2.per_pair
        assert r1.average == r2.average


class FakeRecord:
    def __init__(self, score, accuracy):
        self.score = score
        self.accuracy = accuracy


class TestStatsAccuracyCorrelation:
    def test_perfectly_monotone(self):
        records = [FakeRecord(s, 10 * s + 1) for s in (1.0, 2.0, 5.0, 9.0)]
        out = stats_accuracy_correlation(records)
        assert out["spearman"] == pytest.approx(1.0)
        assert out["pearson"] == pytest.approx(1.0)
        assert out["degenerate"] is False

    def test_anti_monotone(self):
        records = [FakeRecord(s, -s ** 3) for s in (1.0, 2.0, 3.0, 4.0)]
        out = stats_accuracy_correlation(records)
        assert out["spearman"] == pytest.approx(-1.0)

    def test_constant_accuracy_degenerate(self):
        records = [FakeRecord(s, 50.0) for s in (1.0, 2.0, 3.0)]
        out = stats_accuracy_correlation(records)
        assert out == {"pearson": 0.0, "spearman": 0.0, "degenerate": True}

    def test_too_few_records(self):
        with pytest.raises(ValidationError):
            stats_accuracy_correlation([FakeRecord(1, 2), FakeRecord(2, 3)])
