"""Balanced domain-class alignment for multi-domain long-tailed recognition.

A numpy laboratory for studying how feature transferability between
domain-class pairs governs learning under imbalanced, divergent label
distributions: alignment losses with analytic gradients, transferability
graphs and their summary statistics, executable loss lower bounds, a small
MLP training harness, and synthetic dataset generation.
"""

__version__ = "0.1.0"

from .datagen import (
    Dataset,
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
)
from .errors import NumericalError, ValidationError
from .evaluation import (
    AccuracyReport,
    accuracy_report,
    stats_accuracy_correlation,
)
from .losses import (
    BodaGradientDetail,
    BoundReport,
    alignment_grad,
    alignment_loss,
    boda_grad,
    joint_loss,
    theorem1_rhs,
    theorem2_rhs,
    verify_bound,
)
from .model import ModelParams, backward, forward, init
from .numerics import inverse_shrunk, make_rng, sym_eig
from .stats import (
    StatsStore,
    TransferabilityGraph,
    TransferStats,
    build_graph,
    compute_stats,
    mds_2d,
    momentum_update,
    transfer_stats,
)
from .trainer import TrainConfig, retrain_classifier, sweep, train

__all__ = [
    "AccuracyReport", "BodaGradientDetail", "BoundReport", "Dataset",
    "DatasetSpec", "DomainShift", "LabelProfile", "ModelParams",
    "NumericalError", "StatsStore", "TrainConfig", "TransferStats",
    "TransferabilityGraph", "ValidationError", "accuracy_report",
    "alignment_grad", "alignment_loss", "backward", "boda_grad", "build_graph",
    "compute_stats", "forward", "generate", "init", "inverse_shrunk",
    "joint_loss", "label_divergence", "load_dataset", "load_spec", "make_rng",
    "mds_2d", "momentum_update", "profile_counts", "retrain_classifier",
    "save_dataset", "save_spec", "stats_accuracy_correlation", "sweep",
    "sym_eig", "theorem1_rhs", "theorem2_rhs", "train", "transfer_stats",
    "verify_bound",
]
