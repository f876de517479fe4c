"""The benchmark's workloads: dataset specs and training configs, all made
from the run's seed, and the commands of one round."""

from __future__ import annotations

from dataclasses import dataclass

DIM = 24
NU = 1.0            # the CLI's default calibration exponent
EVAL_EVERY = 250

# (name, omega, variant) of each `boda train` call in a round; ERM is the
# default variant with the alignment weight at zero.
TRAIN_RUNS = (
    ("erm", 0.0, "calibrated_boda"),
    ("boda", 0.1, "boda"),
    ("calibrated_boda", 0.1, "calibrated_boda"),
    ("boda_m", 0.1, "boda_m"),
)
VARIANTS = ("da", "boda", "calibrated_boda", "boda_m")


def _profile(kind, max_count, ratio=1.0):
    return {"kind": kind, "max_count": max_count, "imbalance_ratio": ratio}


def _spec(seed, num_classes, profiles, shifts, separation, noise,
          test_per_pair, val_per_pair):
    return {
        "num_domains": len(profiles), "num_classes": num_classes,
        "input_dim": DIM, "profiles": profiles,
        "domain_shift": [{"rotation": r, "translation": t} for r, t in shifts],
        "class_separation": separation, "noise_std": noise, "zero_pairs": [],
        "test_per_pair": test_per_pair, "val_per_pair": val_per_pair,
        "seed": seed,
    }


def readme_spec(seed):
    """The README example: 2 domains x 10 classes, opposed long tails at
    ratio 100 (992 training rows), one rotated and translated domain."""
    return _spec(
        seed, 10,
        [_profile("forward_lt", 200, 100.0),
         _profile("backward_lt", 200, 100.0)],
        [(0.0, [0.0] * DIM), (0.9, [1.5, -1.0] + [0.5] * (DIM - 2))],
        separation=3.0, noise=0.7, test_per_pair=100, val_per_pair=20)


def officehome_spec(seed):
    """OfficeHome-MLT's shape: 4 domains x 65 classes (K = 260), every pair
    sampled, with divergent forward-LT, backward-LT, uniform and a milder
    forward-LT profile (6,334 training rows)."""
    shifts = [(0.05 * d,
               [1.0 * d, -0.5 * d] + [0.4 * d * (-1) ** i
                                      for i in range(DIM - 2)])
              for d in range(4)]
    return _spec(
        seed, 65,
        [_profile("forward_lt", 100, 100.0),
         _profile("backward_lt", 100, 100.0),
         _profile("uniform", 30), _profile("forward_lt", 60, 10.0)],
        shifts, separation=12.0, noise=0.5, test_per_pair=20, val_per_pair=5)


def warmup_spec(seed):
    """A 2 x 3 grid that runs every command in well under a second."""
    return _spec(
        seed, 3, [_profile("uniform", 12), _profile("uniform", 12)],
        [(0.0, [0.0] * DIM), (0.5, [1.0] * DIM)],
        separation=3.0, noise=0.7, test_per_pair=4, val_per_pair=4)


@dataclass(frozen=True)
class Workload:
    spec: object          # seed -> dataset spec dict
    steps: int            # training steps per `boda train` call
    lr: float
    gradcheck_trials: int
    repeats: dict         # calls per round of gradcheck, analyze, verify_bound
    setups: int           # set-ups per run; setup_s is their median

    def train_config(self, seed, omega, variant):
        return {"steps": self.steps, "eval_every": EVAL_EVERY, "lr": self.lr,
                "omega": omega, "variant": variant, "seed": seed}


def _repeats(gradcheck, analyze, verify_bound):
    return {"gradcheck": gradcheck, "analyze": analyze,
            "verify_bound": verify_bound}


WORKLOADS = {
    # Small calls: model, optimizer and per-call Python overhead dominate.
    "readme_2x10": Workload(readme_spec, steps=500, lr=1e-3,
                            gradcheck_trials=40, repeats=_repeats(3, 3, 3),
                            setups=5),
    # Array work over K = 260 pairs dominates; few steps, because each
    # `boda train` ends in diagnostics over the whole K x K graph, and one
    # `analyze` per round, because it alone runs for about 15 s.
    "officehome_4x65": Workload(officehome_spec, steps=20, lr=1e-2,
                                gradcheck_trials=40,
                                repeats=_repeats(3, 1, 3), setups=5),
}
WARMUP = Workload(warmup_spec, steps=5, lr=1e-3, gradcheck_trials=2,
                  repeats=_repeats(1, 1, 1), setups=1)
