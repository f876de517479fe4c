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
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ValidationError
from .fileio import atomic_open, check_json_object, write_json
from .numerics import make_rng

PROFILE_KINDS = ("uniform", "forward_lt", "backward_lt")
MAX_GRID_PAIRS = 100_000  # domain x class grid cap; DomainNet-MLT: 2,070
MAX_ROWS = 10_000_000  # cap on a spec's rows over all three splits
_SPLITS = ("train", "val", "test")


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
        pairs = self.num_domains * self.num_classes
        if pairs > MAX_GRID_PAIRS:
            raise ValidationError(
                f"{pairs} domain-class pairs exceed the cap of {MAX_GRID_PAIRS}")
        # Training rows before zero pairs are removed, so an upper bound.
        rows = sum(sum(profile_counts(p, self.num_classes))
                   for p in self.profiles) \
            + (self.test_per_pair + self.val_per_pair) * pairs
        if rows > MAX_ROWS:
            raise ValidationError(
                f"the spec asks for {rows} rows, above the cap of {MAX_ROWS}")
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
    counts: np.ndarray   # (num_domains, num_classes) int64 training rows

    @property
    def num_domains(self) -> int:
        return self.counts.shape[0]

    @property
    def num_classes(self) -> int:
        return self.counts.shape[1]

    @property
    def input_dim(self) -> int:
        return self.train.x.shape[1]


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


def _centers(spec: DatasetSpec) -> np.ndarray:
    """(D, C, dim) pair means: class prototypes on a circle of radius
    ``class_separation``, moved by each domain's rigid transform."""
    protos = np.zeros((spec.num_classes, spec.input_dim))
    for c in range(spec.num_classes):
        angle = 2.0 * math.pi * c / spec.num_classes
        protos[c, 0] = spec.class_separation * math.cos(angle)
        protos[c, 1] = spec.class_separation * math.sin(angle)
    centers = np.repeat(protos[None], spec.num_domains, axis=0)
    for out, shift in zip(centers, spec.domain_shift):
        cos, sin = math.cos(shift.rotation), math.sin(shift.rotation)
        out[:, 0] = cos * protos[:, 0] - sin * protos[:, 1]
        out[:, 1] = sin * protos[:, 0] + cos * protos[:, 1]
        out += np.asarray(shift.translation, dtype=np.float64)
    return centers


def generate(spec: DatasetSpec) -> Dataset:
    """Generate a dataset deterministically from its spec (seed included).

    Training counts follow each domain's profile with ``zero_pairs`` forced
    to zero; val/test stay balanced over every pair regardless. Each split's
    rows run domain-major, one noise draw per split.
    """
    rng = make_rng(spec.seed)
    centers = _centers(spec)
    counts = np.array([profile_counts(p, spec.num_classes)
                       for p in spec.profiles], dtype=np.int64)
    zero_d, zero_c = np.array(list(spec.zero_pairs),
                              dtype=np.int64).reshape(-1, 2).T
    counts[zero_d, zero_c] = 0
    if not counts.any():
        raise ValidationError("dataset has no training samples")

    def draw_split(n):
        d, c = np.divmod(np.repeat(np.arange(n.size), n.ravel()),
                         spec.num_classes)
        noise = rng.standard_normal((len(d), spec.input_dim))
        return Split(centers[d, c] + spec.noise_std * noise, d, c)

    grid = counts.shape
    train = draw_split(counts)
    val = draw_split(np.full(grid, spec.val_per_pair))
    test = draw_split(np.full(grid, spec.test_per_pair))
    return Dataset(train, val, test, counts)


def label_divergence(ds: Dataset) -> dict:
    """KL diagnostics of per-domain training label distributions.

    Uses add-one smoothing on the counts so that zero-shot pairs do not
    produce infinite divergences. Returns per-domain KL to the uniform
    distribution and all ordered pairwise KLs.
    """
    n_d = ds.counts.sum(axis=1, keepdims=True)
    empty = np.flatnonzero(n_d == 0)
    if empty.size:
        raise ValidationError(f"domain {empty[0]} has no training samples")
    p = (ds.counts + 1.0) / (n_d + ds.num_classes)        # (D, C)
    to_uniform = np.sum(p * np.log(p * ds.num_classes), axis=1)
    kl = np.sum(p[:, None] * np.log(p[:, None] / p[None]), axis=2).tolist()
    return {"to_uniform": dict(enumerate(to_uniform.tolist())),
            "pairwise": {(d, e): kl[d][e] for d, e
                         in itertools.permutations(range(len(kl)), 2)}}


# ---------------------------------------------------------------------------
# File formats: CSV dataset, JSON spec
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, path) -> None:
    """Write the dataset as CSV, ``split,domain,class,x0,...,x{l-1}`` with
    ``\\r\\n`` line ends and ``repr`` floats, atomically."""
    dim = ds.input_dim
    header = ["split", "domain", "class"] + [f"x{i}" for i in range(dim)]
    sep = "," if dim else ""
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for name, split in zip(_SPLITS, (ds.train, ds.val, ds.test)):
            for d, c, x in zip(split.domain.tolist(), split.label.tolist(),
                               split.x.tolist()):
                fh.write(f"{name},{d},{c}{sep}{','.join(map(repr, x))}\r\n")


def load_dataset(path) -> Dataset:
    """Read a dataset CSV. One ``np.loadtxt`` pass parses a file that passes
    bulk checks (known splits, ids >= 0, ``MAX_GRID_PAIRS``, finite features,
    one row per line); any other file goes to the row-by-row ``_load_rows``,
    which accepts it (quoted fields, ``1_0``) or raises a ``ValidationError``
    naming its line. Both give the same arrays, or error, for every file."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:  # _load_rows then raises its own error for it
        text = ""
    train, val, test = _parse_rows(text) or _load_rows(path)
    all_d = np.concatenate([train.domain, val.domain, test.domain])
    all_c = np.concatenate([train.label, val.label, test.label])
    grid = (all_d.max(initial=-1) + 1, all_c.max(initial=-1) + 1)
    counts = np.bincount(train.domain * grid[1] + train.label,
                         minlength=grid[0] * grid[1]).reshape(grid)
    return Dataset(train, val, test, counts)


def _parse_rows(text):
    """``load_dataset``'s one-pass parse: the ``(train, val, test)`` splits,
    or None where only ``_load_rows`` can decide."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].removesuffix("\r").split(",") if lines else []
    dim = len(header) - 3
    # csv unquotes fields and ends a line at a lone CR, and numpy drops a
    # split name's trailing NULs; loadtxt skips blank lines (the row count
    # below sees those) and warns on no rows, which a non-blank last line
    # rules out.
    if dim < 1 or len(lines) < 2 or lines[-1] in ("", "\r") \
            or header[:3] != ["split", "domain", "class"] \
            or '"' in text or "\0" in text or "\r" in lines[0][:-1]:
        return None
    try:
        rows = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=1,
                          dtype=[("split", "U6"), ("domain", "i8"),
                                 ("class", "i8"), ("x", "f8", (dim,))])
    except ValueError:
        return None
    split, d, c, x = rows["split"], rows["domain"], rows["class"], rows["x"]
    masks = [split == name for name in _SPLITS]  # a longer name is cut to 6
    if len(rows) != len(lines) - 1 or not np.any(masks, axis=0).all() \
            or d.min() < 0 or c.min() < 0 \
            or (int(d.max()) + 1) * (int(c.max()) + 1) > MAX_GRID_PAIRS \
            or not np.isfinite(x).all():
        return None
    return [Split(x[m], d[m], c[m]) for m in masks]


def _load_rows(path):
    """The row-by-row reader: the ``(train, val, test)`` splits, or a
    ``ValidationError`` naming the first bad CSV line."""
    rows = {name: [] for name in _SPLITS}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["split", "domain", "class"]:
            raise ValidationError("unexpected dataset CSV header")
        dim = len(header) - 3
        top_d = top_c = 0
        try:
            for row in reader:
                if len(row) != len(header):
                    raise ValidationError(f"dataset line {reader.line_num} "
                                          f"has {len(row)} columns")
                split, d, c = row[0], int(row[1]), int(row[2])
                if split not in rows:
                    raise ValidationError(f"unknown split {split!r}")
                top_d = d + 1 if d >= top_d else top_d
                top_c = c + 1 if c >= top_c else top_c
                if d < 0 or c < 0 or top_d * top_c > MAX_GRID_PAIRS:
                    raise ValidationError(
                        f"dataset line {reader.line_num} has id ({d},{c}): "
                        f"ids must be >= 0 and span <= {MAX_GRID_PAIRS} pairs")
                rows[split].append((d, c, [float(v) for v in row[3:]],
                                    reader.line_num))
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed dataset row: {exc}")

    def to_split(items):
        ds_ = np.array([it[0] for it in items], dtype=np.int64)
        cs_ = np.array([it[1] for it in items], dtype=np.int64)
        xs_ = np.array([it[2] for it in items],
                       dtype=np.float64).reshape(len(items), dim)
        bad = np.flatnonzero(~np.isfinite(xs_).all(axis=1))
        if bad.size:
            raise ValidationError(f"dataset line {items[bad[0]][3]} has a "
                                  "non-finite feature")
        return Split(xs_, ds_, cs_)

    return [to_split(rows[k]) for k in _SPLITS]


def spec_to_dict(spec: DatasetSpec) -> dict:
    return {
        **asdict(spec),
        "profiles": [asdict(p) for p in spec.profiles],
        "domain_shift": [{**asdict(s), "translation": list(s.translation)}
                         for s in spec.domain_shift],
        "zero_pairs": sorted([list(k) for k in spec.zero_pairs]),
    }


_SPEC_KINDS = {
    "num_domains": int, "num_classes": int, "input_dim": int,
    "profiles": [{"kind": str, "max_count": int, "imbalance_ratio": float}],
    "domain_shift": [{"rotation": float, "translation": [float]}],
    "class_separation": float, "noise_std": float, "zero_pairs": [[int]],
    "test_per_pair": int, "val_per_pair": int, "seed": int,
}


def spec_from_dict(data: dict) -> DatasetSpec:
    """A spec from its JSON object, under the config's type rule at every
    level (``fileio.json_type_ok``); float fields are stored as floats."""
    check_json_object(data, _SPEC_KINDS, "dataset spec",
                      [f.name for f in fields(DatasetSpec)
                       if f.name != "zero_pairs"])
    try:
        profiles = tuple(
            LabelProfile(p["kind"], p["max_count"],
                         float(p.get("imbalance_ratio", 1.0)))
            for p in data["profiles"])
        shifts = tuple(
            DomainShift(float(s.get("rotation", 0.0)),
                        tuple(map(float, s["translation"])))
            for s in data["domain_shift"])
        return DatasetSpec(**{
            **data, "profiles": profiles, "domain_shift": shifts,
            "class_separation": float(data["class_separation"]),
            "noise_std": float(data["noise_std"]),
            "zero_pairs": frozenset(map(tuple, data.get("zero_pairs", []))),
        })
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed dataset spec: {exc}")


def save_spec(spec: DatasetSpec, path) -> None:
    write_json(spec_to_dict(spec), path)


def load_spec(path) -> DatasetSpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec file is not valid JSON: {exc}")
    return spec_from_dict(data)
