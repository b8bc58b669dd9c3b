"""Acceptance suite: the eight shipping criteria, one test per criterion.

Each test prints one ``[PASS]``/``[FAIL]`` line with the measured numbers
(run with ``-s`` to stream them; failures always show them) and then
asserts, so a plain ``pytest -v`` gives one verdict per criterion.
"""

import json
import subprocess
import sys
from fractions import Fraction
from itertools import compress

import numpy as np
import pytest

from conftest import aurc_bruteforce, cli_env, fm, nnls_exhaustive
from sigarchive import (
    BuildConfig,
    EnsembleConfig,
    InferenceConfig,
    aurc,
    build_archive,
    classify_batch,
    nmf_factorize,
    nnls_solve,
    relative_error,
    risk_coverage_curve,
    select_rank,
)
from sigarchive.dataio import SynthSpec, generate_synthetic, split_holdout

BENCH = dict(n_features=40, n_classes=4, samples_per_class=250,
             signature_overlap=0.1, noise_sigma=0.02)
BUILD = BuildConfig(
    ensemble=EnsembleConfig(k_min=1, k_max=6, n_perturbations=10, base_seed=0),
    min_cluster_size=10)


def verdict(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def curve_for(scores, correct):
    predicted = ["x"] * len(scores)
    truth = ["x" if flag else "y" for flag in correct]
    return risk_coverage_curve(scores, predicted, truth, [False] * len(scores))


def test_criterion_1_nmf_solver():
    worst_step = -np.inf
    for trial in range(200):
        rng = np.random.default_rng(trial)
        x = fm(rng.random((20, 50)))
        pair = nmf_factorize(x, 1 + trial % 5, seed=trial)
        trace = pair.objective_trace
        steps = [b - a for a, b in zip(trace, trace[1:])]
        worst_step = max(worst_step, max(steps, default=-np.inf))
        assert (pair.w >= 0).all() and (pair.h >= 0).all()
    worst_rank1 = 0.0
    for s in range(20):
        rng = np.random.default_rng(1000 + s)
        x = fm(np.outer(rng.random(20) + 0.1, rng.random(50) + 0.1))
        worst_rank1 = max(worst_rank1, relative_error(x, nmf_factorize(x, 1, seed=s)))
    ok = worst_step <= 1e-12 and worst_rank1 <= 1e-6
    verdict(1, ok, f"200 runs monotone within {worst_step:.2e}, nonnegative; "
                   f"rank-1 max relative error {worst_rank1:.2e} (<= 1e-6)")


def test_criterion_2_nnls_oracle_equivalence():
    worst = 0.0
    for trial in range(500):
        rng = np.random.default_rng(trial)
        n, p = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        a = rng.standard_normal((n, p))
        if trial % 2:
            a = np.abs(a)
        b = rng.standard_normal(n)
        x = nnls_solve(a, b)
        _, best = nnls_exhaustive(a, b)
        worst = max(worst, abs(float(np.linalg.norm(a @ x - b)) - best))
    ok = worst <= 1e-8
    verdict(2, ok, f"500 problems (n<=6, p<=4); worst objective gap vs "
                   f"exhaustive enumeration {worst:.2e} (<= 1e-8)")


def test_criterion_3_rank_recovery():
    hits = 0
    for seed in range(20):
        data, _ = generate_synthetic(SynthSpec(seed=seed, **BENCH))
        report = select_rank(data.features, BUILD.ensemble)
        hits += report.selected_k == 4
    ok = hits >= 19
    verdict(3, ok, f"selected k=4 on {hits}/20 generator seeds (need >= 19)")


def test_criterion_4_archive_purity_and_conservation():
    clean = 0
    for seed in range(20):
        data, _ = generate_synthetic(SynthSpec(seed=seed, **BENCH))
        archive, _ = build_archive(data.features, data.labels, BUILD)
        pure = all(e.purity == 1.0 for e in archive.entries)
        covered = sum(e.support for e in archive.entries)
        conserved = covered + len(archive.unresolved) == data.features.n_samples
        clean += pure and conserved
    ok = clean == 20
    verdict(4, ok, f"purity exactly 1.0 and support conservation on "
                   f"{clean}/20 seeds (need 20)")


def test_criterion_5_novel_class_rejection():
    good_seeds = 0
    for seed in range(20):
        data, truth = generate_synthetic(
            SynthSpec(holdout_class="class3", seed=seed, **BENCH))
        gram = truth.signatures.T @ truth.signatures
        hold = list(truth.class_labels).index("class3")
        assert max(gram[hold, j] for j in range(4) if j != hold) <= 0.3
        split = split_holdout(data, "class3", 0.2, seed=seed)
        archive, _ = build_archive(split.train.features, split.train.labels, BUILD)
        preds, failures = classify_batch(split.test.features, archive,
                                         InferenceConfig(t=0.98))
        assert not failures
        truth = np.array(split.test.labels)
        novel = truth == "class3"
        labels = np.array(archive.labels())[preds.attributed]
        rejected = int((~preds.classified[novel]).sum())
        correct = int((preds.classified & (labels == truth))[~novel].sum())
        good_seeds += (rejected >= 0.99 * novel.sum()
                       and correct >= 0.90 * (~novel).sum())
    ok = good_seeds >= 18
    verdict(5, ok, f">=99% novel rejection and >=90% seen accuracy at t=0.98 "
                   f"on {good_seeds}/20 seeds (need >= 18)")


def test_criterion_6a_aurc_endpoints():
    perfect = aurc(curve_for([0.9, 0.5, 0.1], [True, True, True]))
    hopeless = aurc(curve_for([0.9, 0.5, 0.1], [False, False, False]))
    ok = perfect == 0.0 and hopeless == 1.0
    verdict("6a", ok, f"all-correct AURC {perfect!r} (need exactly 0.0), "
                      f"all-wrong {hopeless!r} (need exactly 1.0)")


def test_criterion_6b_hand_case_curve():
    curve = curve_for([0.9, 0.8, 0.7, 0.6], [True, True, False, True])
    coverages = [p.coverage for p in curve]
    risks = [p.risk for p in curve]
    ok = (coverages == [0.0, 0.25, 0.5, 0.75, 1.0, 1.0]
          and risks[:3] == [0.0, 0.0, 0.0]
          and risks[3] == pytest.approx(1 / 3, abs=1e-15)
          and risks[4] == risks[5] == 0.25)
    verdict("6b", ok, f"4-sample hand case sweeps coverages {coverages} with "
                      f"risks (0, 0, 0, 1/3, 1/4, 1/4)")


def test_criterion_6c_hand_case_aurc_value():
    # Required value for this hand case: 0.151 +/- 0.001.  Direct trapezoid
    # arithmetic over the case's exact points (risks 0, 0, 1/3, 1/4 at
    # coverages 1/4, 1/2, 3/4, 1, with the flat strip left of coverage 1/4)
    # gives 11/96 ~ 0.11458, and no continuation rule consistent with the
    # exact 0/1 endpoint requirements in 6a reaches 0.151, so this check
    # fails by construction; it is kept as stated rather than adjusted.
    value = aurc(curve_for([0.9, 0.8, 0.7, 0.6], [True, True, False, True]))
    ok = abs(value - 0.151) <= 0.001
    verdict("6c", ok, f"hand-case AURC {value:.5f} vs required 0.151 +/- 0.001 "
                      f"(exact integral of these points is 11/96 ~ 0.11458)")


def test_criterion_6d_aurc_matches_brute_force():
    import random
    worst = 0.0
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 12)
        scores = [round(rng.random(), 2) for _ in range(n)]
        correct = [rng.random() < 0.5 for _ in range(n)]
        got = aurc(curve_for(scores, correct))
        worst = max(worst, abs(got - float(aurc_bruteforce(scores, correct))))
    ok = worst <= 1e-12
    verdict("6d", ok, f"300 instances (n <= 12); worst AURC gap vs exact "
                      f"rational recomputation {worst:.2e} (<= 1e-12)")


CLI = [sys.executable, "-m", "sigarchive.cli"]
PIPELINE = [
    ("synth", "--n-features", "30", "--n-classes", "3",
     "--samples-per-class", "40", "--overlap", "0.1", "--noise", "0.02",
     "--seed", "11"),
    ("build", "--features", "features.csv", "--labels", "labels.csv",
     "--archive", "arc.json", "--k-min", "1", "--k-max", "5",
     "--n-perturbations", "8", "--min-cluster-size", "10", "--seed", "0"),
    ("classify", "--archive", "arc.json", "--features", "features.csv",
     "--output", "predictions.csv", "--threshold", "0.95"),
    ("evaluate", "--predictions", "predictions.csv", "--truth", "truth.csv",
     "--report", "report.json"),
]
OUTPUTS = ("features.csv", "labels.csv", "truth.json", "arc.json",
           "arc.report.json", "predictions.csv", "report.json",
           "report.curve.csv")


def run_pipeline(root, extra=()):
    for args in PIPELINE:
        if args[0] == "evaluate":  # truth table: every training label, not novel
            lines = (root / "labels.csv").read_text().splitlines()[1:]
            (root / "truth.csv").write_text(
                "sample_id,label,novel\n"
                + "".join(f"{line},0\n" for line in lines))
        if args[0] == "build":
            args = args + tuple(extra)
        proc = subprocess.run([*CLI, *args], capture_output=True, text=True,
                              cwd=root, env=cli_env())
        assert proc.returncode == 0, (args[0], proc.stderr)


def test_criterion_7_end_to_end_determinism(tmp_path):
    first, second, threaded = (tmp_path / n for n in ("a", "b", "w"))
    for root in (first, second):
        root.mkdir()
        run_pipeline(root)
    identical = [n for n in OUTPUTS
                 if (first / n).read_bytes() == (second / n).read_bytes()]
    threaded.mkdir()
    run_pipeline(threaded, extra=("--workers", "8"))
    unchanged = [n for n in OUTPUTS
                 if (first / n).read_bytes() == (threaded / n).read_bytes()]
    ok = len(identical) == len(OUTPUTS) and len(unchanged) == len(OUTPUTS)
    verdict(7, ok, f"repeat run byte-identical on {len(identical)}/{len(OUTPUTS)} "
                   f"outputs; --workers 8 unchanged on {len(unchanged)}/{len(OUTPUTS)}")


def test_criterion_8_threshold_monotonicity():
    # mixed evaluation set: three archived families plus one unseen family,
    # so the sweep crosses both the low and the high score bands
    data, _ = generate_synthetic(SynthSpec(
        n_features=24, n_classes=4, samples_per_class=20,
        signature_overlap=0.1, noise_sigma=0.05, seed=3))
    split = split_holdout(data, "class3", 0.25, seed=3)
    cfg = BuildConfig(ensemble=EnsembleConfig(k_min=1, k_max=4,
                                              n_perturbations=6, base_seed=0),
                      min_cluster_size=5)
    archive, _ = build_archive(split.train.features, split.train.labels, cfg)
    previous_cover = None
    previous_set = None
    nested = True
    coverages = []
    for t in np.linspace(0.0, 1.0, 21):
        preds, _ = classify_batch(data.features, archive,
                                  InferenceConfig(t=float(t)))
        covered = set(compress(preds.sample_ids, preds.classified))
        coverages.append(len(covered))
        if previous_set is not None:
            nested &= covered <= previous_set
            nested &= len(covered) <= previous_cover
        previous_set, previous_cover = covered, len(covered)
    ok = nested and coverages[0] == data.features.n_samples
    verdict(8, ok, f"coverage counts over t in [0, 1]: {coverages} "
                   f"(non-increasing, classified sets nested)")
