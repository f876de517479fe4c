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
    feature_discrepancy,
    stats_accuracy_correlation,
)
from .losses import (
    BodaGradientDetail,
    BoundReport,
    alignment_grad,
    alignment_loss,
    balanced_distance,
    boda_grad,
    boda_m_distance,
    calibration_coeff,
    ce_loss,
    joint_loss,
    theorem1_rhs,
    theorem2_rhs,
    verify_bound,
)
from .model import ModelParams, backward, forward, init
from .numerics import inverse_shrunk, make_rng, next_gaussian, sym_eig
from .stats import (
    FeatureStats,
    StatsStore,
    TransferabilityGraph,
    TransferStats,
    build_graph,
    compute_stats,
    mds_2d,
    momentum_update,
    transfer_stats,
    transferability,
)
from .trainer import TrainConfig, retrain_classifier, sweep, train

__all__ = [name for name in dir() if not name.startswith("_")]
