import csv
import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from boda import datagen
from boda.datagen import (
    DatasetSpec,
    DomainShift,
    LabelProfile,
    generate,
    label_divergence,
    load_dataset,
    load_spec,
    profile_counts,
    save_dataset,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)
from boda.datagen import Split
from boda.errors import ValidationError
from boda.numerics import make_rng

from conftest import balanced_spec, divergent_spec, tiny_spec

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def bench_spec(name, seed):
    """A benchmark workload's dataset spec (``perfbench/workloads.py``)."""
    loader = importlib.util.spec_from_file_location("perfbench_workloads",
                                                    WORKLOADS)
    module = importlib.util.module_from_spec(loader)
    sys.modules[loader.name] = module  # its dataclass looks itself up
    loader.loader.exec_module(module)
    return spec_from_dict(getattr(module, f"{name}_spec")(seed))


# README at two seeds, OfficeHome-MLT, the benchmark warm-up, the conftest
# grids and one with two zero pairs.
ORACLE_SPECS = {
    "readme_3": lambda: bench_spec("readme", 3),
    "readme_7": lambda: bench_spec("readme", 7),
    "officehome_3": lambda: bench_spec("officehome", 3),
    "warmup_3": lambda: bench_spec("warmup", 3),
    "tiny": lambda: tiny_spec(seed=11),
    "balanced": lambda: balanced_spec(seed=2),
    "divergent": lambda: divergent_spec(seed=4),
    "two_zero_pairs": lambda: dataclasses.replace(
        tiny_spec(seed=7), zero_pairs=frozenset({(0, 1), (1, 2)})),
}


def generate_oracle(spec):
    """The per-pair generator that ``generate`` replaced: one noise draw per
    pair and split, domain-major. Returns the splits and a (d, c) -> count
    dict."""
    rng = make_rng(spec.seed)
    protos = np.zeros((spec.num_classes, spec.input_dim))
    for c in range(spec.num_classes):
        angle = 2.0 * math.pi * c / spec.num_classes
        protos[c, 0] = spec.class_separation * math.cos(angle)
        protos[c, 1] = spec.class_separation * math.sin(angle)
    per_domain = [profile_counts(p, spec.num_classes) for p in spec.profiles]
    counts = {(d, c): 0 if (d, c) in spec.zero_pairs else per_domain[d][c]
              for d in range(spec.num_domains)
              for c in range(spec.num_classes)}

    def shifted(proto, shift):
        out = proto.copy()
        cos, sin = math.cos(shift.rotation), math.sin(shift.rotation)
        x0, x1 = out[0], out[1]
        out[0] = cos * x0 - sin * x1
        out[1] = sin * x0 + cos * x1
        return out + np.asarray(shift.translation, dtype=np.float64)

    def draw_split(n_of_pair):
        xs, ds, cs = [], [], []
        for d in range(spec.num_domains):
            for c in range(spec.num_classes):
                n = n_of_pair(d, c)
                if n == 0:
                    continue
                center = shifted(protos[c], spec.domain_shift[d])
                xs.append(center + spec.noise_std * rng.standard_normal(
                    (n, spec.input_dim)))
                ds.append(np.full(n, d, dtype=np.int64))
                cs.append(np.full(n, c, dtype=np.int64))
        return Split(np.vstack(xs), np.concatenate(ds), np.concatenate(cs))

    splits = (draw_split(lambda d, c: counts[(d, c)]),
              draw_split(lambda d, c: spec.val_per_pair),
              draw_split(lambda d, c: spec.test_per_pair))
    return splits, counts


def label_divergence_oracle(ds):
    """The per-pair ``label_divergence`` that the (D, C) expression
    replaced."""
    counts, c_count = ds.counts.tolist(), ds.num_classes
    probs = {}
    for d in range(ds.num_domains):
        n_d = sum(counts[d][c] for c in range(c_count))
        if n_d == 0:
            raise ValidationError(f"domain {d} has no training samples")
        probs[d] = np.array([(counts[d][c] + 1.0) / (n_d + c_count)
                             for c in range(c_count)])
    to_uniform = {
        d: float(np.sum(p * np.log(p * c_count))) for d, p in probs.items()
    }
    pairwise = {}
    for d in range(ds.num_domains):
        for d2 in range(ds.num_domains):
            if d != d2:
                pairwise[(d, d2)] = float(
                    np.sum(probs[d] * np.log(probs[d] / probs[d2])))
    return {"to_uniform": to_uniform, "pairwise": pairwise}


def csv_writer_save(ds, path):
    """The ``csv.writer`` dataset writer that ``save_dataset`` replaced: the
    byte oracle for the CSV format."""
    header = ["split", "domain", "class"] + [f"x{i}" for i in range(ds.input_dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, split in (("train", ds.train), ("val", ds.val), ("test", ds.test)):
            for i in range(len(split)):
                row = [name, int(split.domain[i]), int(split.label[i])]
                row += [repr(float(v)) for v in split.x[i]]
                writer.writerow(row)


def split_bits(splits):
    """The splits' arrays as (dtype, shape, bytes), which tell -0.0 from 0.0
    where ``assert_array_equal`` does not."""
    return [(a.dtype.str, a.shape, a.tobytes()) for split in splits
            for a in (split.x, split.domain, split.label)]


def dataset_bits(ds):
    return (split_bits((ds.train, ds.val, ds.test)),
            (ds.counts.dtype.str, ds.counts.shape, ds.counts.tobytes()),
            ds.num_domains, ds.num_classes, ds.input_dim)


def with_extreme_features(ds):
    """``ds`` with a signed zero, subnormal and huge features in train."""
    x = ds.train.x.copy()
    x[0, :4] = (-0.0, 1e-300, 5e-324, -1.7976931348623157e308)
    return dataclasses.replace(ds, train=dataclasses.replace(ds.train, x=x))


class TestProfileCounts:
    def test_uniform(self):
        counts = profile_counts(LabelProfile("uniform", 1000), 10)
        assert counts == [1000] * 10

    def test_forward_lt_geometric(self):
        counts = profile_counts(LabelProfile("forward_lt", 1000, 100.0), 10)
        expected = [
            int(math.floor(1000 * 100.0 ** (-c / 9) + 0.5)) for c in range(10)
        ]
        assert counts == expected
        assert counts[0] == 1000 and counts[-1] == 10
        # geometric decay: successive ratios roughly constant up to rounding
        ratios = [counts[i] / counts[i + 1] for i in range(9)]
        assert max(ratios) / min(ratios) < 1.05

    def test_backward_is_reversed_forward(self):
        fwd = profile_counts(LabelProfile("forward_lt", 777, 31.0), 7)
        bwd = profile_counts(LabelProfile("backward_lt", 777, 31.0), 7)
        assert bwd == fwd[::-1]

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValidationError):
            LabelProfile("forward_lt", 100, 0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            profile_counts(LabelProfile("uniform", 10), 1)


class TestGenerate:
    def test_zero_pair_removes_train_only(self):
        spec = dataclasses.replace(tiny_spec(seed=3),
                                   zero_pairs=frozenset({(0, 2)}))
        ds = generate(spec)
        assert ds.counts[(0, 2)] == 0
        test_mask = (ds.test.domain == 0) & (ds.test.label == 2)
        assert test_mask.sum() == spec.test_per_pair
        val_mask = (ds.val.domain == 0) & (ds.val.label == 2)
        assert val_mask.sum() == spec.val_per_pair

    def test_counts_match_train(self, tiny_dataset):
        ds = tiny_dataset
        for (d, c), n in np.ndenumerate(ds.counts):
            mask = (ds.train.domain == d) & (ds.train.label == c)
            assert mask.sum() == n
        assert ds.counts.sum() == len(ds.train)

    def test_val_test_balanced(self, tiny_dataset):
        ds = tiny_dataset
        for split, per_pair in ((ds.val, 5), (ds.test, 10)):
            for d in range(ds.num_domains):
                for c in range(ds.num_classes):
                    mask = (split.domain == d) & (split.label == c)
                    assert mask.sum() == per_pair

    def test_no_shift_means_matching_class_means(self):
        # identical domains: per-domain class means differ only by noise
        dim = 6
        spec = DatasetSpec(
            num_domains=2, num_classes=4, input_dim=dim,
            profiles=(LabelProfile("uniform", 400),) * 2,
            domain_shift=(DomainShift(0.0, (0.0,) * dim),) * 2,
            class_separation=3.0, noise_std=0.5,
            test_per_pair=5, val_per_pair=5, seed=21,
        )
        ds = generate(spec)
        for c in range(4):
            m0 = ds.train.x[(ds.train.domain == 0) & (ds.train.label == c)]
            m1 = ds.train.x[(ds.train.domain == 1) & (ds.train.label == c)]
            gap = np.linalg.norm(m0.mean(axis=0) - m1.mean(axis=0))
            # each mean has std noise/sqrt(N) per coordinate
            assert gap <= 3.0 * 0.5 * math.sqrt(dim) / math.sqrt(400) * 2

    def test_deterministic_bytes(self, tmp_path):
        spec = tiny_spec(seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(generate(spec), p1)
        save_dataset(generate(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_1d_input(self):
        with pytest.raises(ValidationError):
            DatasetSpec(
                num_domains=2, num_classes=3, input_dim=1,
                profiles=(LabelProfile("uniform", 10),) * 2,
                domain_shift=(DomainShift(0.0, (0.0,)),) * 2,
                class_separation=1.0, noise_std=1.0,
                test_per_pair=2, val_per_pair=2, seed=0,
            )

    @pytest.mark.parametrize("name", list(ORACLE_SPECS))
    def test_matches_per_pair_oracle(self, name):
        spec = ORACLE_SPECS[name]()
        ds = generate(spec)
        splits, counts = generate_oracle(spec)
        assert split_bits((ds.train, ds.val, ds.test)) == split_bits(splits)
        assert ds.counts.dtype == np.int64
        assert ds.counts.shape == (spec.num_domains, spec.num_classes)
        assert {k: int(n) for k, n in np.ndenumerate(ds.counts)} == counts
        assert (ds.num_domains, ds.num_classes, ds.input_dim) \
            == (spec.num_domains, spec.num_classes, spec.input_dim)

    def test_no_training_rows_rejected(self):
        spec = dataclasses.replace(
            tiny_spec(), zero_pairs=frozenset(
                (d, c) for d in range(2) for c in range(3)))
        with pytest.raises(ValidationError, match="no training samples"):
            generate(spec)

    def test_roundtrip_csv(self, tmp_path, tiny_dataset):
        ds = with_extreme_features(tiny_dataset)
        path, again = tmp_path / "ds.csv", tmp_path / "again.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert dataset_bits(loaded) == dataset_bits(ds)
        save_dataset(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def _set(line, field, value):
    """Edit: field ``field`` of CSV line ``line`` (0 is the header) becomes
    ``value(old)``; rows end in CRLF as ``save_dataset`` writes them."""
    def edit(lines):
        fields = lines[line].split(",")
        fields[field] = value(fields[field])
        return "\r\n".join(lines[:line] + [",".join(fields)]
                           + lines[line + 1:]) + "\r\n"
    return edit


def _crlf(lines):
    return "\r\n".join(lines) + "\r\n"


# name -> (edit of the saved CSV's lines, whether the one-pass parse takes it)
CSV_EDITS = {
    "crlf": (_crlf, True),
    "lf": (lambda lines: "\n".join(lines) + "\n", True),
    "no_final_newline": (lambda lines: "\r\n".join(lines), True),
    "padded_id": (_set(3, 1, lambda v: f" {v} "), True),
    "padded_feature": (_set(3, 4, lambda v: f"\t{v} "), True),
    "plus_id": (_set(3, 2, lambda v: f"+{v}"), True),
    "no_val_rows": (lambda lines: _crlf(
        [line for line in lines if not line.startswith("val,")]), True),
    "blank_line": (lambda lines: _crlf(lines[:4] + [""] + lines[4:]), False),
    "blank_last_line": (lambda lines: _crlf(lines + [""]), False),
    "only_blank_rows": (lambda lines: _crlf(lines[:1] + [""]), False),
    "header_only": (lambda lines: _crlf(lines[:1]), False),
    "quoted_train": (_set(3, 0, lambda v: f'"{v}"'), False),
    "underscore_feature": (_set(3, 4, lambda v: "1_0"), False),
    "underscore_id": (_set(3, 2, lambda v: "1_0"), False),
    "padded_split": (_set(3, 0, lambda v: f" {v}"), False),
    "float_id": (_set(3, 1, lambda v: "1.0"), False),
    "plus_float_id": (_set(3, 2, lambda v: "+1.0"), False),
    "train_xyz": (_set(3, 0, lambda v: "trainXYZ"), False),
    "empty_split": (_set(3, 0, lambda v: ""), False),
    "nul_in_split": (_set(3, 0, lambda v: "train\0"), False),
    # csv reads one header field, a comma split two, matching the rows
    "quoted_header_comma": (lambda lines: _crlf(
        [lines[0].replace("x1", '"x1,y"')]
        + [f"{line},0.5" for line in lines[1:]]), False),
    "lone_cr_in_row": (_set(3, 4, lambda v: f"{v}\r{v}"), False),
    "lone_cr_in_header": (_set(0, 4, lambda v: f"{v}\rx"), False),
    # byte 0x80 past the first 8 KiB that reading the header decodes, so
    # the row loop reports it
    "not_utf8": (_set(200, 4, lambda v: "\udc80"), False),
    "nan_feature": (_set(3, 5, lambda v: "nan"), False),
    "negative_class": (_set(3, 2, lambda v: "-1"), False),
    "grid_over_cap": (_set(3, 1, lambda v: "60000"), False),
    "extra_column": (_set(3, 3, lambda v: f"{v},0.5"), False),
}


class TestDatasetCsv:
    @pytest.mark.filterwarnings("error")  # e.g. loadtxt's "no data" warning
    @pytest.mark.parametrize("case", sorted(CSV_EDITS))
    def test_one_pass_parse_agrees_with_row_validator(
            self, tmp_path, tiny_dataset, case):
        edit, one_pass = CSV_EDITS[case]
        path = tmp_path / "data.csv"
        save_dataset(tiny_dataset, path)
        text = edit(path.read_bytes().decode().split("\r\n")[:-1])
        path.write_bytes(text.encode(errors="surrogateescape"))

        def outcome(load):
            try:
                splits = load(path)
            except Exception as exc:  # the same error, message and all
                return type(exc), str(exc)
            return split_bits(splits), splits[0].x.shape[1]

        def loaded(path):
            ds = load_dataset(path)
            return ds.train, ds.val, ds.test

        assert outcome(loaded) == outcome(datagen._load_rows)
        assert (datagen._parse_rows(text) is not None) == one_pass

    @pytest.mark.parametrize("spec", [tiny_spec(seed=3), divergent_spec(seed=3)],
                             ids=["tiny", "readme"])
    def test_save_matches_csv_writer_bytes(self, tmp_path, spec):
        ds = with_extreme_features(generate(spec))
        save_dataset(ds, tmp_path / "new.csv")
        csv_writer_save(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "old.csv").read_bytes()

    def test_no_feature_columns_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"split,domain,class\r\ntrain,0,1\r\ntest,1,0\r\n")
        ds = load_dataset(path)
        assert ds.input_dim == 0 and ds.train.x.shape == (1, 0)
        save_dataset(ds, tmp_path / "new.csv")
        csv_writer_save(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == path.read_bytes() \
            == (tmp_path / "old.csv").read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path, tiny_dataset):
        path = tmp_path / "data.csv"
        save_dataset(tiny_dataset, path)
        before = path.read_bytes()
        # fails after the train and val rows are written
        broken = dataclasses.replace(tiny_dataset, test=None)
        with pytest.raises(AttributeError):
            save_dataset(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


class TestSpecJson:
    def test_roundtrip(self, tmp_path):
        spec = divergent_spec(seed=5)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_missing_field_named(self):
        data = spec_to_dict(balanced_spec())
        del data["noise_std"]
        with pytest.raises(ValidationError, match="noise_std"):
            spec_from_dict(data)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_spec(path)


class TestLabelDivergence:
    def test_identical_balanced_domains_near_zero(self):
        ds = generate(balanced_spec(seed=2, max_count=100, num_classes=5))
        report = label_divergence(ds)
        for v in report["to_uniform"].values():
            assert 0.0 <= v <= 1e-12
        for v in report["pairwise"].values():
            assert 0.0 <= v <= 1e-12

    def test_divergent_exceeds_uniform_divergence(self):
        ds = generate(divergent_spec(seed=4))
        report = label_divergence(ds)
        max_uniform = max(report["to_uniform"].values())
        min_pairwise = min(report["pairwise"].values())
        assert min_pairwise > max_uniform

    def test_single_class_domain_closed_form(self):
        # one domain concentrated on class 0, the other uniform
        dim = 4
        c_count = 5
        n = 200
        spec = DatasetSpec(
            num_domains=2, num_classes=c_count, input_dim=dim,
            profiles=(LabelProfile("uniform", n),) * 2,
            domain_shift=(DomainShift(0.0, (0.0,) * dim),) * 2,
            class_separation=2.0, noise_std=0.5,
            zero_pairs=frozenset((0, c) for c in range(1, c_count)),
            test_per_pair=2, val_per_pair=2, seed=1,
        )
        ds = generate(spec)
        report = label_divergence(ds)
        # closed form with add-one smoothing on counts (n,0,0,0,0)
        p = np.array([n + 1.0] + [1.0] * (c_count - 1)) / (n + c_count)
        expected = float(np.sum(p * np.log(p * c_count)))
        assert report["to_uniform"][0] == pytest.approx(expected, rel=1e-12)
        assert expected < math.log(c_count)  # smoothing shrinks it below ln C
        assert report["to_uniform"][0] > 0.9 * math.log(c_count)

    @pytest.mark.parametrize("name", list(ORACLE_SPECS))
    def test_matches_per_pair_oracle(self, name):
        ds = generate(ORACLE_SPECS[name]())
        assert label_divergence(ds) == label_divergence_oracle(ds)

    def test_empty_domain_named(self):
        spec = dataclasses.replace(tiny_spec(seed=2), zero_pairs=frozenset(
            (1, c) for c in range(3)))
        ds = generate(spec)
        with pytest.raises(ValidationError,
                           match="^domain 1 has no training samples$"):
            label_divergence_oracle(ds)
        with pytest.raises(ValidationError,
                           match="^domain 1 has no training samples$"):
            label_divergence(ds)

    def test_all_divergences_nonnegative(self):
        ds = generate(tiny_spec(seed=8))
        report = label_divergence(ds)
        assert all(v >= 0 for v in report["to_uniform"].values())
        assert all(v >= 0 for v in report["pairwise"].values())
