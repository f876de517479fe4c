"""Benchmark of the boda command line, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload readme_2x10 --seed 0 \
        --seconds 40 --trace 0

Each command is called in-process through ``boda.cli.main``. A run sets up
the dataset several times (``boda gen`` plus the first load of its CSV),
runs one untimed warm-up round on a tiny grid, then repeats whole rounds of
every command while the next round fits in ``--seconds``. Every timing is
taken at a fixed reference host speed (see ``speed.py``) and each
end-to-end metric is the median over the run's calls. With ``--trace 1``
rounds alternate between plain and traced, and the run reports per-layer
self times and call counts from the traced rounds instead. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os
import sys

# BLAS and OpenMP size their thread pools when numpy loads, so pin them
# before any import that pulls numpy in: one thread keeps the timings free
# of contention with whatever else the host runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "BODA_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import spans  # noqa: E402
from workloads import NU, TRAIN_RUNS, VARIANTS, WARMUP, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
# The deterministic outputs of a round; manifests hold wall times.
OUTPUTS = [os.path.join(f"train_{name}", f) for name, _, _ in TRAIN_RUNS
           for f in ("checkpoint.json", "log.csv")] \
    + ["gradcheck.json", "bound.json"] \
    + [os.path.join("analysis", f) for f in
       ("graph.json", "transfer_stats.json", "mds.csv", "stats.json")]


class Runner:
    """Runs the commands of one workload and keeps the tallies."""

    def __init__(self, cli, work, tracer):
        self.cli = cli
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.log = []

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def timed(self, label, fn, traced=False):
        """Runs ``fn`` under the speed meter, and the tracer when
        ``traced``; returns its wall time at the reference speed."""
        if traced:
            self.tracer.install()
        try:
            with speed.SpeedMeter() as meter:
                start = time.perf_counter()
                fn()
                wall = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        normalised = meter.normalise(wall)
        self.log.append({"op": label, "wall_s": wall,
                         "normalised_s": normalised,
                         "samples": len(meter.samples)})
        return normalised

    def run_command(self, argv, count=True):
        """One command; a nonzero exit or an exception counts as a failed
        operation. Returns the exit code, None after an exception."""
        try:
            code = self.cli.main(argv)
        except Exception:  # a traceback is a failed operation
            traceback.print_exc()
            code = None
        if count:
            self.attempted += 1
            if code != 0:
                self.failed += 1
                print(f"failed ({code}): boda {' '.join(argv)}",
                      file=sys.stderr)
        return code

    def call(self, argv, traced=False, count=True):
        return self.timed(argv[0], lambda: self.run_command(argv, count),
                          traced)

    def check(self, fn, *args):
        try:
            fn(*args)
        except Exception as exc:  # any failure to verify is a wrong output
            self.correct = False
            print(f"check failed: {exc!r}", file=sys.stderr)

    def write_json(self, payload, *parts):
        path = self.path(*parts)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def setup(self, workload, seed, traced=False):
        """`boda gen` plus the first load of its CSV; returns the time."""
        from boda import datagen
        spec = self.write_json(workload.spec(seed), "spec.json")
        data = self.path("data.csv")

        def gen_and_load():
            if self.run_command(["gen", "--spec", spec, "--out", data]) == 0:
                datagen.load_dataset(data)

        return self.timed("setup", gen_and_load, traced)

    def round(self, workload, seed, traced=False, count=True):
        """Every `train` variant once, then the other commands, each
        ``workload.repeats[command]`` times, interleaved; returns
        {operation: [seconds at the reference speed]}."""
        data = self.path("data.csv")
        ckpt = self.path("train_calibrated_boda", "checkpoint.json")
        commands = {
            "gradcheck": ["gradcheck", "--seed", str(seed),
                          "--trials", str(workload.gradcheck_trials),
                          "--out", self.path("gradcheck.json")],
            "analyze": ["analyze", "--checkpoint", ckpt, "--data", data,
                        "--out", self.path("analysis"), "--nu", str(NU)],
            "verify_bound": ["verify-bound", "--checkpoint", ckpt,
                             "--data", data, "--out", self.path("bound.json"),
                             "--nu", str(NU), "--calibrated"],
        }
        walls = {}
        for name, omega, variant in TRAIN_RUNS:
            config = self.write_json(
                workload.train_config(seed, omega, variant), f"{name}.json")
            walls[f"train.{name}"] = [self.call(
                ["train", "--data", data, "--config", config,
                 "--out", self.path(f"train_{name}")], traced, count)]
        for i in range(max(workload.repeats.values())):
            for op, argv in commands.items():
                if i < workload.repeats[op]:
                    walls.setdefault(op, []).append(
                        self.call(argv, traced, count))
        return walls

    def check_round(self, workload, data):
        for name, omega, _ in TRAIN_RUNS:
            self.check(checks.check_train, self.path(f"train_{name}"),
                       workload.steps, omega, data)
        self.check(checks.check_gradcheck, self.path("gradcheck.json"),
                   VARIANTS)
        ckpt = self.path("train_calibrated_boda", "checkpoint.json")
        self.check(checks.check_analyze, self.path("analysis"), ckpt, data, NU)
        self.check(checks.check_verify_bound, self.path("bound.json"), ckpt,
                   data, NU)

    def snapshot_outputs(self):
        snap = {}
        for rel in OUTPUTS:
            try:
                with open(self.path(rel), "rb") as fh:
                    snap[rel] = fh.read()
            except OSError:
                snap[rel] = None
        return snap


def end_to_end(workload, setups, rounds):
    """Medians over every call of each operation in the run."""
    walls = {op: [w for r in rounds for w in r[op]] for op in rounds[0]}
    metrics = {"setup_s": median(setups)}
    for name, _, _ in TRAIN_RUNS:
        metrics[f"train.{name}.steps_per_s"] = \
            workload.steps / median(walls[f"train.{name}"])
    metrics["gradcheck.instances_per_s"] = \
        workload.gradcheck_trials / median(walls["gradcheck"])
    metrics["analyze.wall_s"] = median(walls["analyze"])
    metrics["verify_bound.wall_s"] = median(walls["verify_bound"])
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


CALL_LAYERS = ("model.forward", "trainer.stats_refresh", "trainer.diagnostics",
               "losses.align", "numerics.inverse_shrunk", "stats.build_graph")
SETUP_LAYERS = ("datagen.generate", "datagen.save_dataset")


def per_layer(setup_snaps, round_snaps, plain_walls, traced_walls, csv_bytes):
    """Medians over traced rounds (set-ups for the generator layers)."""
    def med(snaps, kind, key):
        return median([s[kind].get(key, 0) for s in snaps])

    metrics = {}
    for layer in spans.LAYERS:
        name = "cli.self" if layer == "cli" else layer
        snaps = setup_snaps if layer in SETUP_LAYERS else round_snaps
        metrics[f"{name}_s"] = med(snaps, "self_s", layer)
    for layer in CALL_LAYERS:
        metrics[f"{layer}_calls"] = med(round_snaps, "calls", layer)
    metrics["gradcheck.loss_calls"] = med(
        round_snaps, "edges", ("losses.align", "gradcheck.central_difference"))
    metrics["datagen.csv_mb"] = csv_bytes / 1e6
    plain, traced = median(plain_walls), median(traced_walls)
    metrics["tracing.overhead_pct"] = 100.0 * (traced - plain) / plain
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        from boda import cli
    except ImportError as exc:
        print(f"cannot import boda from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"boda was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)

    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "warmup"))
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(cli, work, tracer)

    setups, setup_snaps = [], []
    for _ in range(workload.setups):
        setups.append(runner.setup(workload, args.seed, traced=args.trace))
        if tracer:
            setup_snaps.append(tracer.snapshot())
            tracer.reset()
    data = checks.read_dataset(runner.path("data.csv"))

    warm = Runner(cli, os.path.join(work, "warmup"), None)
    warm.setup(WARMUP, args.seed)
    warm.round(WARMUP, args.seed, count=False)

    # Whole rounds (plain and traced pairs with --trace 1) while the next
    # one is expected to end within --seconds; at least one.
    rounds, traced_rounds, round_snaps, reference = [], [], [], None
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            walls = runner.round(workload, args.seed, traced=traced)
            if traced:
                traced_rounds.append(walls)
                round_snaps.append(tracer.snapshot())
                tracer.reset()
            else:
                rounds.append(walls)
            if reference is None:
                runner.check_round(workload, data)
                reference = runner.snapshot_outputs()
            elif runner.snapshot_outputs() != reference:
                runner.correct = False
                print("outputs differ from the first round's", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    if args.trace:
        metrics = per_layer(setup_snaps, round_snaps,
                            [sum(map(sum, r.values())) for r in rounds],
                            [sum(map(sum, r.values())) for r in traced_rounds],
                            os.path.getsize(runner.path("data.csv")))
        declared_metrics = declared["per_layer"]
        with open(runner.path("trace.json"), "w") as fh:
            json.dump({"metrics": metrics, "rounds": len(round_snaps)},
                      fh, indent=2)
    else:
        metrics = end_to_end(workload, setups, rounds)
        declared_metrics = declared["end_to_end"]

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics},
    }
    with open(runner.path("timings.json"), "w") as fh:
        json.dump(runner.log, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
