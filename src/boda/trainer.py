"""Training loop with epoch-boundary momentum statistics, two-stage
classifier retraining, and a small hyperparameter sweep harness.

Mini-batches are drawn uniformly per domain. Centroid statistics are never
computed from the batch being trained on: they are estimated from a full
pass at each epoch boundary and merged into the running store with
momentum, so every step consumes statistics that lag the current epoch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import evaluation, losses, model
from .datagen import Dataset
from .errors import NumericalError, ValidationError
from .fileio import atomic_open, check_json_object
from .numerics import make_rng
from .stats import (_graph_pass, compute_stats, group_by_pair,
                    momentum_update, pair_grouping)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 5000
    batch_per_domain: int = 64
    lr: float = 1e-3
    optimizer: str = "adam"        # "adam" or "sgd" (momentum 0.9)
    omega: float = 0.1             # alignment weight; 0 gives plain ERM
    nu: float = 1.0
    alpha_m: float = 0.9           # statistics momentum
    variant: str = "calibrated_boda"
    decouple: bool = False
    decouple_steps: int = 1000
    seed: int = 0
    hidden: tuple = (64, 64)
    rep_dim: int = 16
    eval_every: int = 250

    def __post_init__(self):
        if self.steps < 1 or self.batch_per_domain < 1:
            raise ValidationError("steps and batch_per_domain must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError("lr must be finite and positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError("optimizer must be 'adam' or 'sgd'")
        if not 0.0 <= self.alpha_m <= 1.0:
            raise ValidationError("alpha_m must be in [0, 1]")
        if not all(math.isfinite(v) and v >= 0 for v in (self.omega, self.nu)):
            raise ValidationError("omega and nu must be finite and nonnegative")
        if self.variant not in losses.VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.decouple_steps < 1 or self.eval_every < 1:
            raise ValidationError("decouple_steps and eval_every must be >= 1")


@dataclass
class LogRow:
    step: int
    ce: float
    boda: float
    joint: float
    val_accuracy: float
    alpha: float
    beta: float
    gamma: float
    bound_gap: float
    stage: int = 1


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)
    step_joint: list = field(default_factory=list)   # per-step joint loss


class _Optimizer:
    """Adam or SGD-with-momentum over one flat parameter buffer.

    Adam: ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``,
    ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``; SGD: ``m = 0.9 m + g``,
    ``p -= lr m``. Each runs in place through preallocated temporaries, one
    operation at a time in the order written, so it rounds exactly as the
    expression does.
    """

    def __init__(self, size: int, kind: str, lr: float):
        self.kind = kind
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._tmp = np.empty(size)
        self._den = np.empty(size)

    def step(self, params, grad):
        self.t += 1
        m, tmp = self.m, self._tmp
        if self.kind == "sgd":
            m *= 0.9
            m += grad
            params -= np.multiply(m, self.lr, out=tmp)
            return
        b1, b2, eps = 0.9, 0.999, 1e-8
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        v, den = self.v, self._den
        m *= b1
        m += np.multiply(grad, 1 - b1, out=tmp)
        v *= b2
        v += np.multiply(np.multiply(grad, 1 - b2, out=tmp), grad, out=tmp)
        np.sqrt(np.divide(v, corr2, out=den), out=den)
        den += eps
        np.multiply(np.divide(m, corr1, out=tmp), self.lr, out=tmp)
        params -= np.divide(tmp, den, out=tmp)


def encode_features(params: model.ModelParams, split):
    """Representations of a split; a non-finite one is an overflow of the
    model (a diverged run), not an input error."""
    with np.errstate(all="ignore"):
        z, _, _ = model.forward(params, split.x)
    if not np.isfinite(z).all():
        raise NumericalError("non-finite representation: the model diverged")
    return z


def _full_pass_stats(params, ds: Dataset, grouping):
    """Statistics of the training rows, grouped by the run's ``grouping``."""
    z = encode_features(params, ds.train)
    return compute_stats(group_by_pair(z, grouping), grouping)


def _diagnostics(params, ds: Dataset):
    """(alpha, beta, gamma, bound_gap) of the current representations.

    The graph comes from the bound check, or is built here when that check
    rejects an incomplete grid.
    """
    z = encode_features(params, ds.train)
    try:
        report = losses.verify_bound(z, ds.train.domain, ds.train.label,
                                     calibrated=False)
        ts, bound_gap = report.stats, report.gap
    except ValidationError:
        bound_gap = float("nan")
        try:
            ts = _graph_pass(
                z, pair_grouping(ds.train.domain, ds.train.label))[3]
        except ValidationError:
            return float("nan"), float("nan"), float("nan"), bound_gap
    return ts.alpha, ts.beta, ts.gamma, bound_gap


def _val_accuracy(params, split) -> float:
    if len(split) == 0:
        return float("nan")
    _, logits, _ = model.forward(params, split.x)
    return float((logits.argmax(axis=1) == split.label).mean() * 100.0)


def train(ds: Dataset, cfg: TrainConfig):
    """Train encoder + classifier; returns (params, TrainLog).

    Deterministic in (dataset, config): the same seed reproduces the same
    checkpoint bit for bit. With ``omega == 0`` the alignment machinery is
    never touched and the run is plain cross-entropy ERM.
    """
    if len(ds.train) == 0:
        raise ValidationError("training set is empty")
    use_alignment = cfg.omega > 0
    train_domains = sorted(np.unique(ds.train.domain))
    if use_alignment:
        if len(train_domains) < 2 or len(np.unique(ds.train.label)) < 2:
            raise ValidationError(
                "alignment training needs >= 2 domains and >= 2 classes"
            )

    params = model.init(ds.input_dim, cfg.hidden, cfg.rep_dim,
                        ds.num_classes, cfg.seed)
    grad = replace(params, flat=None)
    opt = _Optimizer(grad.flat.size, cfg.optimizer, cfg.lr)
    batch_rng = make_rng(cfg.seed, stream=11)
    pools = [np.where(ds.train.domain == d)[0] for d in train_domains]
    zero_grad_z = np.zeros((cfg.batch_per_domain * len(pools), cfg.rep_dim))
    steps_per_epoch = max(
        1, math.ceil(len(ds.train) / (cfg.batch_per_domain * len(train_domains)))
    )

    store = None
    store_refresh_step = -1
    if use_alignment:
        grouping = pair_grouping(ds.train.domain, ds.train.label)
        store = _full_pass_stats(params, ds, grouping)
        store_refresh_step = 0

    log = TrainLog()
    for step in range(cfg.steps):
        if use_alignment and step > 0 and step % steps_per_epoch == 0:
            current = _full_pass_stats(params, ds, grouping)
            store = momentum_update(store, current, cfg.alpha_m)
            store_refresh_step = step
        if use_alignment:
            epoch_start = (step // steps_per_epoch) * steps_per_epoch
            assert store_refresh_step <= epoch_start, \
                "statistics must lag the current epoch"

        batch_idx = np.concatenate([
            pool[batch_rng.integers(0, len(pool), size=cfg.batch_per_domain)]
            for pool in pools
        ])
        cb = ds.train.label[batch_idx]
        with np.errstate(all="ignore"):  # the check below reports overflow
            z, logits, cache = model.forward(params, ds.train.x[batch_idx])
            ce, grad_logits = losses.ce_loss_batch(logits, cb)
            boda_value, grad_z = 0.0, zero_grad_z
            if use_alignment:
                result, g_align = losses.alignment_grad(
                    cfg.variant, z, ds.train.domain[batch_idx], cb, store,
                    nu=cfg.nu, reduction="mean"
                )
                boda_value = result.value
                grad_z = cfg.omega * g_align
            joint = losses.joint_loss(ce, boda_value, cfg.omega)
            log.step_joint.append(joint)

            model.backward(params, cache, grad_z, grad_logits, out=grad)
            if not (math.isfinite(joint) and np.isfinite(grad.flat).all()):
                raise NumericalError(f"training diverged at step {step + 1}: "
                                     "non-finite loss or gradient")
        opt.step(params.flat, grad.flat)

        done = step + 1
        if done % cfg.eval_every == 0 or done == cfg.steps:
            alpha, beta, gamma, bound_gap = _diagnostics(params, ds)
            log.rows.append(LogRow(
                step=done, ce=ce, boda=boda_value, joint=joint,
                val_accuracy=_val_accuracy(params, ds.val),
                alpha=alpha, beta=beta, gamma=gamma,
                bound_gap=bound_gap, stage=1,
            ))
    return params, log


def retrain_classifier(params: model.ModelParams, ds: Dataset,
                       cfg: TrainConfig):
    """Stage two: freeze the encoder, retrain the classifier with sampling
    uniform over the nonzero domain-class pairs. Returns (params, log rows).
    """
    out = params.copy()
    pairs, members, bounds = pair_grouping(ds.train.domain, ds.train.label)
    if not pairs:
        raise ValidationError("no nonzero pairs to sample from")
    pair_sizes, starts = np.diff(bounds), bounds[:-1]
    rng = make_rng(cfg.seed, stream=13)
    batch = cfg.batch_per_domain * max(len(np.unique(ds.train.domain)), 1)
    grad = replace(out, flat=None)
    cls_params = out.flat[out.n_encoder:]
    cls_grad = grad.flat[out.n_encoder:]
    opt = _Optimizer(cls_grad.size, cfg.optimizer, cfg.lr)

    alpha, beta, gamma, bound_gap = _diagnostics(out, ds)
    rows = []
    for step in range(cfg.decouple_steps):
        pick_pair = rng.integers(0, len(pairs), size=batch)
        offsets = np.floor(
            rng.random(batch) * pair_sizes[pick_pair]
        ).astype(np.int64)
        batch_idx = members[starts[pick_pair] + offsets]
        z, logits, _ = model.forward(out, ds.train.x[batch_idx])
        ce, grad_logits = losses.ce_loss_batch(logits,
                                               ds.train.label[batch_idx])
        np.matmul(grad_logits.T, z, out=grad.cls_w)
        grad_logits.sum(axis=0, out=grad.cls_b)
        opt.step(cls_params, cls_grad)

        done = step + 1
        if done % cfg.eval_every == 0 or done == cfg.decouple_steps:
            rows.append(LogRow(
                step=done, ce=ce, boda=0.0, joint=ce,
                val_accuracy=_val_accuracy(out, ds.val),
                alpha=alpha, beta=beta, gamma=gamma,
                bound_gap=bound_gap, stage=2,
            ))
    return out, rows


@dataclass
class TrialRecord:
    trial: int
    lr: float
    hidden: int
    seed: int
    accuracy: float
    alpha: float
    beta: float
    gamma: float

    @property
    def score(self) -> float:
        """Separation-minus-alignment summary, (beta + gamma) - alpha."""
        return (self.beta + self.gamma) - self.alpha


def _run_trial(ds: Dataset, base_cfg: TrainConfig, trial: int, lr: float,
               width: int, trial_seed: int) -> TrialRecord:
    cfg = replace(base_cfg, lr=lr, hidden=(width, width),
                  seed=trial_seed, eval_every=base_cfg.steps)
    params, log = train(ds, cfg)
    report = evaluation.accuracy_report(params, ds)
    last = log.rows[-1]  # eval_every = steps: the final parameters' diagnostics
    return TrialRecord(
        trial=trial, lr=lr, hidden=width, seed=trial_seed,
        accuracy=report.average, alpha=last.alpha, beta=last.beta,
        gamma=last.gamma,
    )


def sweep(ds: Dataset, base_cfg: TrainConfig, n_trials: int, seed: int = 0,
          workers: int = 1):
    """Train ``n_trials`` configs with log-uniform lr / hidden width and
    record balanced-test accuracy alongside the transferability statistics.

    All trial hyperparameters are drawn up front, so the result is the same
    whether trials run sequentially or in parallel.
    """
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")
    ranges = {"lr": (1e-5, 10 ** -3.5), "hidden": (16, 128)}
    rng = make_rng(seed, stream=23)
    plans = []
    for t in range(n_trials):
        lr = 10.0 ** rng.uniform(
            math.log10(ranges["lr"][0]), math.log10(ranges["lr"][1])
        )
        width = int(round(10.0 ** rng.uniform(
            math.log10(ranges["hidden"][0]), math.log10(ranges["hidden"][1])
        )))
        trial_seed = (seed * 1000003 + t) % (2 ** 63)
        plans.append((t, lr, width, trial_seed))

    if workers <= 1 or n_trials == 1:
        return [_run_trial(ds, base_cfg, *plan) for plan in plans]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, n_trials)) as pool:
        futures = [
            pool.submit(_run_trial, ds, base_cfg, *plan) for plan in plans
        ]
        records = [f.result() for f in futures]
    return sorted(records, key=lambda r: r.trial)


# ---------------------------------------------------------------------------
# File formats: config JSON, log CSV, trial CSV
# ---------------------------------------------------------------------------

def config_to_dict(cfg: TrainConfig) -> dict:
    return {**asdict(cfg), "hidden": list(cfg.hidden)}


def config_from_dict(data: dict) -> TrainConfig:
    kinds = {f.name: type(f.default) for f in fields(TrainConfig)}
    check_json_object(data, {**kinds, "hidden": [int]}, "config")
    if "hidden" in data:
        data = {**data, "hidden": tuple(data["hidden"])}
    return TrainConfig(**data)


def _save_records_csv(records, columns, path) -> None:
    """A header row, then ``repr`` of each record's columns (for an int,
    the text ``csv.writer`` writes for it), atomically."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([repr(getattr(r, col)) for col in columns]
                         for r in records)


def save_log_csv(rows, path) -> None:
    _save_records_csv(rows, ("step", "stage", "ce", "boda", "joint",
                             "val_accuracy", "alpha", "beta", "gamma",
                             "bound_gap"), path)


def save_trials_csv(records, path) -> None:
    _save_records_csv(records, ("trial", "lr", "hidden", "seed", "accuracy",
                                "alpha", "beta", "gamma", "score"), path)
