"""Shared test helpers: independent oracles and small constructors.

The oracles here deliberately re-derive results from first principles
(exhaustive subset enumeration, exact rational arithmetic) so the package
implementations are checked against a second, structurally different route.
"""

import itertools
import math
import os
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from sigarchive import (ArchiveEntry, FeatureMatrix, RiskCoveragePoint, SignatureArchive,
                        SolverOptions)
from sigarchive import linalg
from sigarchive.seeding import STREAM_NMF_INIT, generator


def cli_env() -> dict[str, str]:
    """Environment for CLI subprocesses: the inherited one, with the
    absolute ``src`` directory prepended to PYTHONPATH.

    The children run in temporary directories, where a relative
    ``PYTHONPATH=src`` would not find the package.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


def fm(values, prefix="s") -> FeatureMatrix:
    """FeatureMatrix with generated sample ids for an array-like."""
    arr = np.asarray(values, dtype=np.float64)
    return FeatureMatrix(arr, tuple(f"{prefix}{j}" for j in range(arr.shape[1])))


def toy_archive(signatures, labels) -> SignatureArchive:
    """Archive built directly from unit-norm signature columns."""
    sigs = np.asarray(signatures, dtype=np.float64)
    entries = tuple(
        ArchiveEntry(
            signature=sigs[:, j] / np.linalg.norm(sigs[:, j]),
            label=labels[j],
            purity=1.0,
            support=1,
            path=f"root/k{sigs.shape[1]}/c{j}",
            depth=0,
        )
        for j in range(sigs.shape[1])
    )
    names = tuple(f"f{i}" for i in range(sigs.shape[0]))
    return SignatureArchive(entries, names, {"toy": True})


def nnls_exhaustive(a, b):
    """Brute-force nonnegative least squares by subset enumeration.

    Solves unconstrained least squares on every support set and keeps the
    best feasible (elementwise nonnegative) candidate.  The optimum of the
    constrained problem is feasible on its own support, so the minimum over
    candidates is the global optimum.  Exponential in p; test-scale only.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, p = a.shape
    best = np.zeros(p)
    best_obj = float(np.linalg.norm(b))
    for r in range(1, p + 1):
        for cols in itertools.combinations(range(p), r):
            sol = np.linalg.lstsq(a[:, list(cols)], b, rcond=None)[0]
            if np.all(sol >= -1e-12):
                x = np.zeros(p)
                x[list(cols)] = np.clip(sol, 0.0, None)
                obj = float(np.linalg.norm(a @ x - b))
                if obj < best_obj:
                    best, best_obj = x, obj
    return best, best_obj


def nmf_every_sweep(x: FeatureMatrix, k: int, seed: int,
                    opts: SolverOptions = SolverOptions()) -> SimpleNamespace:
    """Reference NMF that evaluates the residual after every sweep.

    The same multiplicative updates as ``nmf_factorize``, but the uphill
    guard compares each sweep with the one before, the stop test runs at
    every ``check_every``-th sweep, and ``trace[i]`` is the residual after
    sweep ``i``.  The residual is the package's own ``linalg._frobenius``,
    looked up at call time.  Returns ``w``, ``h``, ``trace``, ``sweeps`` and
    ``stop``.
    """
    values = x.values
    n, m = values.shape
    rng = generator(seed, STREAM_NMF_INIT)
    scale = math.sqrt(float(values.mean()) / k)
    w = (1.0 - rng.random((n, k))) * scale
    h = (1.0 - rng.random((k, m))) * scale
    trace = [linalg._frobenius(values, w, h)]
    stop = "capped"
    for sweep in range(1, opts.max_iter + 1):
        h_new = h * ((w.T @ values) / ((w.T @ w) @ h + linalg._UPDATE_EPS))
        np.maximum(h_new, 0.0, out=h_new)
        w_new = w * ((values @ h_new.T) / (w @ (h_new @ h_new.T) + linalg._UPDATE_EPS))
        np.maximum(w_new, 0.0, out=w_new)
        objective = linalg._frobenius(values, w_new, h_new)
        if objective > trace[-1] + linalg.TRACE_TOLERANCE:
            stop = "uphill"
            break
        w, h = w_new, h_new
        trace.append(objective)
        if sweep % opts.check_every == 0:
            prev, cur = trace[-2], trace[-1]
            if prev == 0.0 or (prev - cur) / prev < opts.tol:
                stop = "converged"
                break
    return SimpleNamespace(w=w, h=h, trace=tuple(trace), sweeps=sweep, stop=stop)


def rc_points_exact(scores, correct):
    """Risk-coverage points as exact rationals, re-derived from raw scores.

    One point per distinct score, swept descending: coverage = fraction of
    samples at or above the threshold, risk = error fraction among them.
    """
    n = len(scores)
    pts = []
    for th in sorted(set(scores), reverse=True):
        covered = [i for i, s in enumerate(scores) if s >= th]
        cov = Fraction(len(covered), n)
        risk = (Fraction(sum(1 for i in covered if not correct[i]), len(covered))
                if covered else Fraction(0))
        pts.append((cov, risk))
    pts.sort()
    return pts


def aurc_bruteforce(scores, correct) -> Fraction:
    """Exact-rational area under the risk-coverage curve.

    Trapezoids between consecutive points, the risk of the smallest positive
    coverage extended flat down to coverage 0, and the last risk extended
    flat up to coverage 1.
    """
    pts = [p for p in rc_points_exact(scores, correct) if p[0] > 0]
    c1, r1 = pts[0]
    total = c1 * r1
    for (ca, ra), (cb, rb) in zip(pts, pts[1:]):
        total += (cb - ca) * (ra + rb) / 2
    cl, rl = pts[-1]
    total += (1 - cl) * rl
    return total


def risk_coverage_curve_numpy(scores, predicted, truth, novel):
    """The numpy risk-coverage sweep that the pure-Python one replaced.

    A stable argsort of the negated scores, a cumulative error count, and one
    point per run of tied scores that keeps the run's first value.
    """
    score_arr = np.array([float(s) for s in scores])
    m = len(score_arr)
    order = np.argsort(-score_arr, kind="stable")
    ranked = score_arr[order]
    wrong = np.cumsum(np.array([bool(nv) or p != t for p, t, nv
                                in zip(predicted, truth, novel)])[order])
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tops = ranked[np.append(0, last[:-1] + 1)].tolist()
    thresholds = [tops[0] + 1.0, *tops, tops[-1] - 1.0]
    counts = [0, *(last + 1).tolist(), m]
    errors = [0, *wrong[last].tolist(), int(wrong[-1])]
    return tuple(RiskCoveragePoint(t, c / m, e / c if c else 0.0)
                 for t, c, e in zip(thresholds, counts, errors))
