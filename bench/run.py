"""Benchmark of the sigarchive command line on seeded workloads.

    python3 bench/run.py --workload flat-holdout --seed 1 --seconds 15 --trace 0

A run generates its workload's inputs from ``--seed`` and sets them up,
then repeats the workload's round trip of ``python -m sigarchive.cli
build|classify|evaluate`` child processes for about ``--seconds`` (at
least twice), with a timed repeat of the set-up after each of the first few,
checking every output.  Within a round trip classify and evaluate run, in
turn, as many times as the workload says.  The last line of
stdout is one JSON object with the end-to-end metrics.  With ``--trace 1``
untraced round trips alternate with round trips run through
``bench/spans.py``, and the object carries the per-layer metrics instead.

Children run in their own working directories under ``.bench_work/``, with
an environment of their own: the absolute ``src`` path on ``PYTHONPATH``
and every BLAS thread pool pinned to one thread.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from spans import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ITERATIONS = 2
SETUPS = 5          # timed set-ups per end-to-end run, the first included
CHILD_TIMEOUT_S = 100.0

BUILD_OUTPUTS = ("archive.json", "archive.report.json")
SCORE_OUTPUTS = ("predictions.csv", "report.json", "report.curve.csv")
PRODUCER = {"archive.json": "build", "archive.report.json": "build",
            "predictions.csv": "classify", "report.json": "evaluate",
            "report.curve.csv": "evaluate"}
SETUP_FILES = (workloads.TRAIN_FEATURES, workloads.TRAIN_LABELS,
               workloads.EVAL_FEATURES, workloads.EVAL_TRUTH, *BUILD_OUTPUTS)


@dataclass
class Op:
    """One operation (a CLI child or a set-up): its time and what went wrong."""

    name: str
    wall_s: float
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    spans: list | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def digests(directory: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest()
            for n in names if (directory / n).is_file()}


def child_env() -> dict[str, str]:
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC),
           "PYTHONHASHSEED": "0", "PYTHONNOUSERSITE": "1", "LC_ALL": "C.UTF-8"}
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(name: str, argv: list[str], cwd: Path, env: dict,
              spans_path: Path | None = None) -> Op:
    """Run one CLI command to completion; record wall time and max RSS."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "sigarchive.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "spans.py"), str(spans_path), *argv]
    with open(cwd / f"{name}.stdout", "wb") as out, open(cwd / f"{name}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(name, wall, usage.ru_maxrss / 1024.0)
    stderr = (cwd / f"{name}.stderr").read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        op.problems.append(f"{name} exited {proc.returncode}: {stderr.strip()[-400:]}")
    elif "error: sample" in stderr:
        op.problems.append(f"{name} reported per-sample failures (BatchFailure)")
    if spans_path is not None and spans_path.is_file():
        op.spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    return op


def describe(values: list[float], higher_is_better: bool = False) -> str:
    """Median, sample count, and the worst-side percentile that has ten
    samples beyond it (the worst sample when none has)."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} of n={n}"
    for tail in (1, 10, 25):
        if n * tail / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            pct = tail if higher_is_better else 100 - tail
            return f"{text}, p{pct} {cuts[pct - 1]:.6g}"
    worst = min(values) if higher_is_better else max(values)
    return (f"{text}, {'min' if higher_is_better else 'max'} {worst:.6g} "
            f"(too few samples for a tail percentile)")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def trip_wall(iteration) -> float:
    """Mean wall time of one round trip over the datasets of an iteration,
    each repeated step counted once, at its mean."""
    return mean(sum(mean(op.wall_s for op in ops) for ops in trip.values())
                for trip in iteration)


def another_iteration(start: float, durations: list[float], seconds: float) -> bool:
    """Whether to run another iteration: always up to the minimum, then
    while at least half of one, at the mean length so far, fits in the
    window, so that a run overshoots ``seconds`` by half an iteration at most."""
    if len(durations) < MIN_ITERATIONS:
        return True
    return time.perf_counter() - start + mean(durations) / 2 <= seconds


def trip_ok(trip: dict[str, list[Op]]) -> bool:
    return all(op.ok for ops in trip.values() for op in ops)


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, seconds: float, work: Path):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = child_env()
        self.workers = min(workload.workers, len(os.sched_getaffinity(0)))
        self.ops: list[Op] = []
        self.setup_dir: Path | None = None
        self.setup_files: list[dict[str, str]] = []
        self.n_eval: list[int] = []
        self.setup_builds: list[Op] = []
        self.baseline: dict[int, dict[str, str]] = {}   # first round trip's digests
        self.first_trips: dict[int, Path] = {}
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work / f"{stem}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def dataset_dir(self, i: int) -> Path:
        return self.setup_dir / f"ds{i}"

    def run(self, name: str, argv: list[str], cwd: Path, traced: bool = False) -> Op:
        op = run_child(name, argv, cwd, self.env,
                       cwd / f"{name}.spans.json" if traced else None)
        self.ops.append(op)
        return op

    def build_argv(self, ds: Path, workers: int) -> list[str]:
        return ["build", "--features", str(ds / workloads.TRAIN_FEATURES),
                "--labels", str(ds / workloads.TRAIN_LABELS), "--archive", "archive.json",
                *self.wl.build_flags, "--workers", str(workers), "--seed", "0"]

    def check_build(self, op: Op, cwd: Path, i: int) -> None:
        if op.ok:
            op.problems += checks.check_build(
                cwd / "archive.json", cwd / "archive.report.json",
                self.dataset_dir(i) / workloads.TRAIN_LABELS, self.wl.min_depth)

    # --------------------------------------------------------------- set-up

    def setup(self, index: int) -> tuple[Path, Op]:
        """Generate and write every dataset, and build where the workload does."""
        start = time.perf_counter()
        root = self.work / f"setup{index}"
        datasets = self.wl.datasets(self.seed)
        self.n_eval = [len(d.eval_ids) for d in datasets]
        for i, data in enumerate(datasets):
            ds = root / f"ds{i}"
            ds.mkdir(parents=True)
            data.write(ds)
            if self.wl.build_in_setup:
                self.setup_builds.append(
                    self.run("build", self.build_argv(ds, self.workers), ds))
        op = Op("setup", time.perf_counter() - start)
        self.ops.append(op)
        return root, op

    def setup_digests(self, root: Path) -> list[dict[str, str]]:
        return [digests(root / f"ds{i}", SETUP_FILES) for i in range(self.wl.n_datasets)]

    def first_setup(self) -> float:
        """The set-up every round trip reads from."""
        self.setup_dir, op = self.setup(0)
        self.setup_files = self.setup_digests(self.setup_dir)
        for i in range(self.wl.n_datasets if self.wl.build_in_setup else 0):
            self.check_build(self.setup_builds[i], self.dataset_dir(i), i)
        return op.wall_s

    def repeat_setup(self, index: int) -> float:
        """A further set-up, timed, which must write the first one's bytes."""
        root, op = self.setup(index)
        if self.setup_digests(root) != self.setup_files:
            op.problems.append(f"set-up {index} wrote different bytes than set-up 0")
        shutil.rmtree(root)
        return op.wall_s

    # ----------------------------------------------------------- round trip

    def round_trip(self, i: int, traced: bool, repeat: bool) -> dict[str, list[Op]]:
        """Every step of one round trip on dataset ``i``; with ``repeat``,
        classify and evaluate run in turn as often as the workload says, and
        each repeat must rewrite its outputs byte for byte."""
        ds = self.dataset_dir(i)
        cwd = self.fresh_dir("trip")
        trip: dict[str, list[Op]] = {}
        if self.wl.build_in_setup:
            archive = ds / "archive.json"
        else:
            archive = cwd / "archive.json"
            trip["build"] = [self.run("build", self.build_argv(ds, self.workers), cwd, traced)]
        steps = {
            "classify": ["classify", "--archive", str(archive),
                         "--features", str(ds / workloads.EVAL_FEATURES),
                         "--output", "predictions.csv", "--threshold", workloads.THRESHOLD],
            "evaluate": ["evaluate", "--predictions", "predictions.csv",
                         "--truth", str(ds / workloads.EVAL_TRUTH), "--report", "report.json"],
        }
        trip.update({name: [] for name in steps})
        for _ in range(self.wl.score_repeats if repeat else 1):
            for name, argv in steps.items():
                if not trip_ok(trip):
                    op = Op(name, 0.0, problems=[f"{name} not run: an earlier step failed"])
                    self.ops.append(op)
                    trip[name].append(op)
                    continue
                outputs = [n for n, step in PRODUCER.items() if step == name]
                before = digests(cwd, outputs) if trip[name] else None
                op = self.run(name, argv, cwd, traced)
                if op.ok and before is not None and digests(cwd, outputs) != before:
                    op.problems.append(f"repeated {name} wrote different bytes")
                trip[name].append(op)
        if trip_ok(trip):
            self.check_outputs(i, cwd, trip)
        return trip

    def check_outputs(self, i: int, cwd: Path, ops: dict[str, list[Op]]) -> None:
        """Full checks on the first round trip; byte identity with it afterwards."""
        names = SCORE_OUTPUTS if self.wl.build_in_setup else BUILD_OUTPUTS + SCORE_OUTPUTS
        found = digests(cwd, names)
        if i not in self.baseline:
            self.baseline[i], self.first_trips[i] = found, cwd
            if "build" in ops:
                self.check_build(ops["build"][0], cwd, i)
            ops["evaluate"][-1].problems += checks.check_aurc(
                cwd / "predictions.csv", self.dataset_dir(i) / workloads.EVAL_TRUTH,
                cwd / "report.json")
            return
        for name in names:
            if found.get(name) != self.baseline[i].get(name):
                ops[PRODUCER[name]][-1].problems.append(
                    f"{name} differs from the first round trip's")

    def iteration(self, traced: bool, repeat: bool) -> list[dict[str, list[Op]]]:
        return [self.round_trip(i, traced, repeat) for i in range(self.wl.n_datasets)]

    # ---------------------------------------------------------------- modes

    def quality(self) -> dict[str, float]:
        """Figures from the evaluate reports, averaged over the datasets."""
        reports = [json.loads((cwd / "report.json").read_text(encoding="utf-8"))
                   for cwd in self.first_trips.values()]
        return {
            "aurc": mean(r["aurc"] for r in reports),
            "macro_f1": mean(r["macro_f1"] or 0.0 for r in reports),
            "novel_rejection": mean(r["rejection_novel"] or 0.0 for r in reports),
        }

    def end_to_end(self) -> dict[str, float]:
        # set-ups alternate with the first iterations, so that set-up is
        # timed several times without taking much of the run
        setup_times = [self.first_setup()]
        iterations, durations = [], []
        start = time.perf_counter()
        while another_iteration(start, durations, self.seconds):
            began = time.perf_counter()
            iterations.append(self.iteration(traced=False, repeat=True))
            if len(setup_times) < SETUPS:
                setup_times.append(self.repeat_setup(len(setup_times)))
            durations.append(time.perf_counter() - began)

        roundtrip = [trip_wall(it) for it in iterations]
        if self.wl.build_in_setup:
            build = [op.wall_s for op in self.setup_builds]
        else:
            build = [mean(trip["build"][0].wall_s for trip in it) for it in iterations]
        # (samples, seconds) of every call; the rate reported is over the
        # whole run, so that it weighs the host's fast and slow spells by
        # how long each lasted
        calls = {name: [(n, op.wall_s) for it in iterations
                        for n, trip in zip(self.n_eval, it) for op in trip[name]]
                 for name in ("classify", "evaluate")}
        throughput = {name: rate(sum(n for n, _ in c), sum(s for _, s in c))
                      for name, c in calls.items()}
        rss = [max(op.rss_mb for trip in it for ops in trip.values() for op in ops)
               for it in iterations]

        print(f"# {len(iterations)} iterations x {self.wl.n_datasets} dataset(s), "
              f"{sum(self.n_eval)} samples classified and evaluated "
              f"{self.wl.score_repeats}x per iteration")
        for name, values in (("setup_s", setup_times), ("roundtrip_s", roundtrip),
                             ("build_s", build)):
            print(f"# {name}: {describe(values)}")
        for name, c in calls.items():
            print(f"# {name}_samples_per_s: {throughput[name]:.6g} over the run; per call "
                  f"{describe([rate(n, s) for n, s in c], higher_is_better=True)}")
        return {
            "setup_s": median(setup_times),
            "roundtrip_s": median(roundtrip),
            "build_s": median(build),
            "classify_samples_per_s": throughput["classify"],
            "evaluate_samples_per_s": throughput["evaluate"],
            "peak_rss_mb": median(rss),
            **self.quality(),
        }

    def traced_build(self, i: int, workers: int, expected: dict[str, str],
                     mismatch: str) -> Op:
        """Traced build of dataset ``i`` that must write the ``expected`` bytes."""
        cwd = self.fresh_dir("traced-build")
        op = self.run("build", self.build_argv(self.dataset_dir(i), workers), cwd, traced=True)
        if op.ok and digests(cwd, BUILD_OUTPUTS) != expected:
            op.problems.append(mismatch)
        return op

    def per_layer(self) -> dict[str, float]:
        self.first_setup()
        # where the archive is built in set-up, that build, traced, stands
        # for the build layers
        setup_builds = [
            self.traced_build(i, self.workers, digests(self.dataset_dir(i), BUILD_OUTPUTS),
                              "traced set-up build wrote different bytes")
            for i in range(self.wl.n_datasets if self.wl.build_in_setup else 0)]

        untraced, traced, durations = [], [], []
        start = time.perf_counter()
        # untraced first, then alternate; the minimum of two gives one of each
        while another_iteration(start, durations, self.seconds):
            began = time.perf_counter()
            is_traced = len(untraced) > len(traced)
            (traced if is_traced else untraced).append(
                self.iteration(traced=is_traced, repeat=False))
            durations.append(time.perf_counter() - began)

        if not self.wl.build_in_setup and self.workers > 1:
            # outputs must not depend on the worker count, traced or not
            for i, found in self.baseline.items():
                self.traced_build(i, 1, {n: found[n] for n in BUILD_OUTPUTS},
                                  "--workers 1 traced build differs from the "
                                  f"--workers {self.workers} untraced build")

        rows = []
        for it in traced:
            per_ds = [layer_metrics([(op.wall_s, op.spans or []) for op in setup_builds[i:i + 1]
                                     + [op for ops in trip.values() for op in ops]])
                      for i, trip in enumerate(it)]
            rows.append({k: mean(d[k] for d in per_ds) for k in per_ds[0]})
        metrics = {k: median(r[k] for r in rows) for k in rows[0]}
        metrics["trace.overhead_s"] = (median(map(trip_wall, traced))
                                       - median(map(trip_wall, untraced)))
        print(f"# {len(untraced)} untraced and {len(traced)} traced iterations x "
              f"{self.wl.n_datasets} dataset(s)")
        self.print_shares(metrics, traced)
        return metrics

    @staticmethod
    def print_shares(m: dict[str, float], traced) -> None:
        """The two shares that say whether the trace matches the known profile."""
        if m["archive.build_archive_s"]:
            share = m["rank.select_rank_s"] / m["archive.build_archive_s"]
            print(f"# select_rank share of the build_archive span: {share:.1%}")
        scoring = median(mean(trip["classify"][0].wall_s + trip["evaluate"][0].wall_s
                              for trip in it) for it in traced)
        hot = m["linalg.nnls_s"] + m["evaluation.rc_curve_s"] + m["dataio.ingest_s"]
        print(f"# nnls + rc_curve + ingest (build ingest included) over classify+evaluate "
              f"wall {scoring:.3f} s: {rate(hot, scoring):.1%}")


def environment(seed: int, workload: str, workers: int) -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')}-{blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_text = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"# workload={workload} seed={seed} nproc={len(os.sched_getaffinity(0))} "
            f"workers={workers} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas_text} {threads}")


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sigarchive" / "cli.py").is_file():
        print(f"error: no sigarchive sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    bench = Bench(workload, args.seed, args.seconds, work)
    print(environment(args.seed, workload.name, bench.workers))
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:   # another run is still using it
            pass

    failed = [op for op in bench.ops if not op.ok]
    for op in failed:
        for problem in op.problems:
            print(f"# FAILED {problem}")
    print(f"# failed_ops: {len(failed)}/{len(bench.ops)}")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} are measured "
                           "or declared in BENCHMARK.json, not both")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(bench.ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
