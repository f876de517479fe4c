"""Synthetic multi-domain long-tailed datasets.

Each class owns a prototype on a circle of configurable radius; each domain
applies a rigid transform (rotation in the first two coordinates plus a
translation) to every prototype, and samples are prototypes plus isotropic
Gaussian noise. Per-domain label profiles control how many training samples
each domain-class pair receives, so label imbalance, divergence across
domains, and zero-shot pairs can all be dialed in directly. Validation and
test splits are always balanced over the full domain-class grid.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ValidationError
from .numerics import make_rng

PROFILE_KINDS = ("uniform", "forward_lt", "backward_lt")


@dataclass(frozen=True)
class LabelProfile:
    """Per-domain training-count law over class ids."""

    kind: str
    max_count: int
    imbalance_ratio: float = 1.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValidationError(f"unknown profile kind {self.kind!r}")
        if self.max_count < 1:
            raise ValidationError("max_count must be positive")
        if not self.imbalance_ratio >= 1.0:  # also rejects NaN
            raise ValidationError("imbalance_ratio must be >= 1")


@dataclass(frozen=True)
class DomainShift:
    """Rigid transform a domain applies to all class prototypes."""

    rotation: float = 0.0
    translation: tuple = ()


@dataclass(frozen=True)
class DatasetSpec:
    num_domains: int
    num_classes: int
    input_dim: int
    profiles: tuple
    domain_shift: tuple
    class_separation: float
    noise_std: float
    zero_pairs: frozenset = frozenset()
    test_per_pair: int = 50
    val_per_pair: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 2:
            raise ValidationError("input_dim must be at least 2")
        if self.num_domains < 1 or self.num_classes < 2:
            raise ValidationError("need >= 1 domain and >= 2 classes")
        if len(self.profiles) != self.num_domains:
            raise ValidationError("need one LabelProfile per domain")
        if len(self.domain_shift) != self.num_domains:
            raise ValidationError("need one DomainShift per domain")
        for shift in self.domain_shift:
            if len(shift.translation) != self.input_dim:
                raise ValidationError("translation length must equal input_dim")
            if not all(map(math.isfinite, (shift.rotation, *shift.translation))):
                raise ValidationError("domain shifts must be finite")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.class_separation, self.noise_std)):
            raise ValidationError(
                "class_separation and noise_std must be finite and > 0")
        if self.test_per_pair < 1 or self.val_per_pair < 1:
            raise ValidationError("test_per_pair and val_per_pair must be >= 1")
        for d, c in self.zero_pairs:
            if not (0 <= d < self.num_domains and 0 <= c < self.num_classes):
                raise ValidationError(f"zero pair ({d},{c}) out of range")


@dataclass
class Split:
    """One dataset split as parallel arrays."""

    x: np.ndarray        # (n, input_dim) float64
    domain: np.ndarray   # (n,) int64
    label: np.ndarray    # (n,) int64

    def __len__(self):
        return self.x.shape[0]


@dataclass
class Dataset:
    train: Split
    val: Split
    test: Split
    counts: dict                 # (domain, class) -> training count, all pairs
    num_domains: int
    num_classes: int
    input_dim: int


def profile_counts(profile: LabelProfile, num_classes: int) -> list:
    """Training counts per class id under a label profile.

    Forward-LT interpolates geometrically from ``max_count`` down to
    ``max_count / imbalance_ratio`` (rounded half away from zero);
    Backward-LT is the exact reversal; Uniform ignores the ratio.
    """
    if num_classes < 2:
        raise ValidationError("num_classes must be >= 2")
    if profile.kind == "uniform":
        return [profile.max_count] * num_classes
    r = profile.imbalance_ratio
    forward = [
        int(math.floor(profile.max_count * r ** (-c / (num_classes - 1)) + 0.5))
        for c in range(num_classes)
    ]
    if profile.kind == "forward_lt":
        return forward
    return forward[::-1]


def _class_prototypes(spec: DatasetSpec) -> np.ndarray:
    protos = np.zeros((spec.num_classes, spec.input_dim))
    for c in range(spec.num_classes):
        angle = 2.0 * math.pi * c / spec.num_classes
        protos[c, 0] = spec.class_separation * math.cos(angle)
        protos[c, 1] = spec.class_separation * math.sin(angle)
    return protos


def _shifted_prototype(proto: np.ndarray, shift: DomainShift) -> np.ndarray:
    out = proto.copy()
    c, s = math.cos(shift.rotation), math.sin(shift.rotation)
    x0, x1 = out[0], out[1]
    out[0] = c * x0 - s * x1
    out[1] = s * x0 + c * x1
    return out + np.asarray(shift.translation, dtype=np.float64)


def generate(spec: DatasetSpec) -> Dataset:
    """Generate a dataset deterministically from its spec (seed included).

    Training counts follow each domain's profile with ``zero_pairs`` forced
    to zero; val/test stay balanced over every pair regardless.
    """
    rng = make_rng(spec.seed)
    protos = _class_prototypes(spec)
    per_domain = [profile_counts(p, spec.num_classes) for p in spec.profiles]

    counts = {}
    for d in range(spec.num_domains):
        for c in range(spec.num_classes):
            n = 0 if (d, c) in spec.zero_pairs else per_domain[d][c]
            counts[(d, c)] = n

    def draw_split(n_of_pair):
        xs, ds, cs = [], [], []
        for d in range(spec.num_domains):
            for c in range(spec.num_classes):
                n = n_of_pair(d, c)
                if n == 0:
                    continue
                center = _shifted_prototype(protos[c], spec.domain_shift[d])
                pts = center + spec.noise_std * rng.standard_normal(
                    (n, spec.input_dim)
                )
                xs.append(pts)
                ds.append(np.full(n, d, dtype=np.int64))
                cs.append(np.full(n, c, dtype=np.int64))
        if not xs:
            raise ValidationError("dataset has no training samples")
        return Split(np.vstack(xs), np.concatenate(ds), np.concatenate(cs))

    train = draw_split(lambda d, c: counts[(d, c)])
    val = draw_split(lambda d, c: spec.val_per_pair)
    test = draw_split(lambda d, c: spec.test_per_pair)
    return Dataset(
        train=train,
        val=val,
        test=test,
        counts=counts,
        num_domains=spec.num_domains,
        num_classes=spec.num_classes,
        input_dim=spec.input_dim,
    )


def label_divergence(ds: Dataset) -> dict:
    """KL diagnostics of per-domain training label distributions.

    Uses add-one smoothing on the counts so that zero-shot pairs do not
    produce infinite divergences. Returns per-domain KL to the uniform
    distribution and all ordered pairwise KLs.
    """
    c_count = ds.num_classes
    probs = {}
    for d in range(ds.num_domains):
        n_d = sum(ds.counts[(d, c)] for c in range(c_count))
        if n_d == 0:
            raise ValidationError(f"domain {d} has no training samples")
        p = np.array(
            [(ds.counts[(d, c)] + 1.0) / (n_d + c_count) for c in range(c_count)]
        )
        probs[d] = p

    to_uniform = {
        d: float(np.sum(p * np.log(p * c_count))) for d, p in probs.items()
    }
    pairwise = {}
    for d in range(ds.num_domains):
        for d2 in range(ds.num_domains):
            if d == d2:
                continue
            pairwise[(d, d2)] = float(
                np.sum(probs[d] * np.log(probs[d] / probs[d2]))
            )
    return {"to_uniform": to_uniform, "pairwise": pairwise}


# ---------------------------------------------------------------------------
# File formats: CSV dataset, JSON spec
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, path) -> None:
    """Write the dataset as CSV: ``split,domain,class,x0,...,x{l-1}``."""
    dim = ds.input_dim
    header = ["split", "domain", "class"] + [f"x{i}" for i in range(dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, split in (("train", ds.train), ("val", ds.val), ("test", ds.test)):
            for i in range(len(split)):
                row = [name, int(split.domain[i]), int(split.label[i])]
                row += [repr(float(v)) for v in split.x[i]]
                writer.writerow(row)


def load_dataset(path) -> Dataset:
    rows = {"train": [], "val": [], "test": []}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["split", "domain", "class"]:
            raise ValidationError("unexpected dataset CSV header")
        dim = len(header) - 3
        try:
            for row in reader:
                if len(row) != len(header):
                    raise ValidationError(f"dataset line {reader.line_num} "
                                          f"has {len(row)} columns")
                split, d, c = row[0], int(row[1]), int(row[2])
                if split not in rows:
                    raise ValidationError(f"unknown split {split!r}")
                if d < 0 or c < 0:
                    raise ValidationError(f"dataset line {reader.line_num} "
                                          f"has a negative id ({d},{c})")
                rows[split].append((d, c, [float(v) for v in row[3:]],
                                    reader.line_num))
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed dataset row: {exc}")

    def to_split(items):
        if not items:
            return Split(
                np.zeros((0, dim)), np.zeros(0, np.int64), np.zeros(0, np.int64)
            )
        ds_ = np.array([it[0] for it in items], dtype=np.int64)
        cs_ = np.array([it[1] for it in items], dtype=np.int64)
        xs_ = np.array([it[2] for it in items], dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(xs_).all(axis=1))
        if bad.size:
            raise ValidationError(f"dataset line {items[bad[0]][3]} has a "
                                  "non-finite feature")
        return Split(xs_, ds_, cs_)

    train, val, test = (to_split(rows[k]) for k in ("train", "val", "test"))
    all_d = np.concatenate([train.domain, val.domain, test.domain])
    all_c = np.concatenate([train.label, val.label, test.label])
    num_domains = int(all_d.max()) + 1 if all_d.size else 0
    num_classes = int(all_c.max()) + 1 if all_c.size else 0
    per_pair = np.bincount(train.domain * num_classes + train.label,
                           minlength=num_domains * num_classes).tolist()
    counts = {(d, c): per_pair[d * num_classes + c]
              for d in range(num_domains) for c in range(num_classes)}
    return Dataset(train, val, test, counts, num_domains, num_classes, dim)


def spec_to_dict(spec: DatasetSpec) -> dict:
    return {
        **asdict(spec),
        "profiles": [asdict(p) for p in spec.profiles],
        "domain_shift": [{**asdict(s), "translation": list(s.translation)}
                         for s in spec.domain_shift],
        "zero_pairs": sorted([list(k) for k in spec.zero_pairs]),
    }


def spec_from_dict(data: dict) -> DatasetSpec:
    if not isinstance(data, dict):
        raise ValidationError("dataset spec must be a JSON object")
    for f in fields(DatasetSpec):
        if f.name not in data and f.name != "zero_pairs":
            raise ValidationError(f"dataset spec is missing field {f.name!r}")
    try:
        profiles = tuple(
            LabelProfile(
                kind=p["kind"],
                max_count=int(p["max_count"]),
                imbalance_ratio=float(p.get("imbalance_ratio", 1.0)),
            )
            for p in data["profiles"]
        )
        shifts = tuple(
            DomainShift(
                rotation=float(s.get("rotation", 0.0)),
                translation=tuple(float(v) for v in s["translation"]),
            )
            for s in data["domain_shift"]
        )
        return DatasetSpec(
            num_domains=int(data["num_domains"]),
            num_classes=int(data["num_classes"]),
            input_dim=int(data["input_dim"]),
            profiles=profiles,
            domain_shift=shifts,
            class_separation=float(data["class_separation"]),
            noise_std=float(data["noise_std"]),
            zero_pairs=frozenset(
                (int(d), int(c)) for d, c in data.get("zero_pairs", [])
            ),
            test_per_pair=int(data["test_per_pair"]),
            val_per_pair=int(data["val_per_pair"]),
            seed=int(data["seed"]),
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed dataset spec: {exc}")


def save_spec(spec: DatasetSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_spec(path) -> DatasetSpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec file is not valid JSON: {exc}")
    return spec_from_dict(data)
