"""Shared test helpers: independent oracles and small constructors.

The oracles here deliberately re-derive results from first principles
(exhaustive subset enumeration, exact rational arithmetic) so the package
implementations are checked against a second, structurally different route.
"""

import itertools
import json
import math
import os
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from sigarchive import (ArchiveEntry, FeatureMatrix, Predictions, RiskCoveragePoint,
                        SignatureArchive, SolverOptions)
from sigarchive.dataio import LabeledDataset
from sigarchive import docio, linalg
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


def has_children() -> bool:
    """Whether this process has a child process, running or not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def processes(field: int, value: int) -> list[int]:
    """Pids of the live (not zombie) processes whose ``/proc/<pid>/stat``
    field ``field``, counted from the state (0), is ``value``: 1 the parent,
    3 the session."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if entry.name.isdigit() and fields[0] != "Z" and int(fields[field]) == value:
            found.append(int(entry.name))
    return found


def fm(values, prefix="s") -> FeatureMatrix:
    """FeatureMatrix with generated sample ids for an array-like."""
    arr = np.asarray(values, dtype=np.float64)
    return FeatureMatrix(arr, tuple(f"{prefix}{j}" for j in range(arr.shape[1])))


def families(n_families: int = 3, per_subfamily: int = 15, seed: int = 0) -> LabeledDataset:
    """Families of two sub-families each, labelled ``f<i>.s<j>``.

    A family owns four shared features, and each of its sub-families one
    private feature more.  Built with ``--k-max 3`` and ``--min-cluster-size
    5``, three families split at the root into three mixed clusters, one per
    family, and each of those splits into its two sub-families: the root has
    three sibling subtrees.
    """
    rng = np.random.default_rng(seed)
    n = 6 * n_families
    columns, labels = [], []
    for f in range(n_families):
        shared = np.zeros(n)
        shared[6 * f:6 * f + 4] = rng.uniform(0.5, 1.0, 4)
        for s in range(2):
            signature = shared.copy()
            signature[6 * f + 4 + s] = 0.8
            columns += [signature * rng.uniform(0.75, 1.5) + rng.uniform(0.0, 0.02, n)
                        for _ in range(per_subfamily)]
            labels += [f"f{f}.s{s}"] * per_subfamily
    values = np.column_stack(columns)
    return LabeledDataset(fm(values), tuple(labels))


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


def stack_predictions(predictions) -> Predictions:
    """One-row ``Predictions`` (what ``classify`` returns) stacked in order,
    column by column."""
    return Predictions(tuple(sid for p in predictions for sid in p.sample_ids),
                       *(np.concatenate([getattr(p, name) for p in predictions])
                         for name in ("scores", "attributed", "classified", "coefficients")))


def take_rows(predictions: Predictions, rows) -> Predictions:
    """The given rows of a batch's columns, in the given order."""
    rows = np.asarray(rows, dtype=np.intp)
    return Predictions(tuple(predictions.sample_ids[i] for i in rows), predictions.scores[rows],
                       predictions.attributed[rows], predictions.classified[rows],
                       predictions.coefficients[rows])


def assert_same_bits(got: Predictions, want: Predictions) -> None:
    """Equal ids, and every column with the same dtype, shape and bytes."""
    assert got.sample_ids == want.sample_ids
    for name in ("scores", "attributed", "classified", "coefficients"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got == want


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


def solve_on_sets_per_group(gram, c, passive):
    """``linalg._solve_on_sets`` as one stacked solve per distinct passive
    set: rows sharing a set share one broadcast gesv call, and a singular
    set's rows all get the minimum-norm solution from one ``pinv``."""
    z = np.zeros(c.shape)
    sets, which = np.unique(passive, axis=0, return_inverse=True)
    which = which.ravel()
    for i, in_set in enumerate(sets):
        rows, cols = np.flatnonzero(which == i)[:, None], np.flatnonzero(in_set)
        g, rhs = gram[cols[:, None], cols], c[rows, cols]
        try:
            sol = np.linalg.solve(np.broadcast_to(g, (rows.size,) + g.shape),
                                  rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            sol = linalg._rowdot(rhs[:, None, :], np.linalg.pinv(g))
        z[rows, cols] = sol
    return z


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


def nmf_one_member(x: FeatureMatrix, k: int, seed: int,
                   opts: SolverOptions = SolverOptions()) -> SimpleNamespace:
    """Reference NMF of one matrix: ``nmf_factorize``'s loop before it ran
    stacks, on 2-d ``ndarray.dot`` products.

    Residuals are evaluated at the sweeps just before and at each
    checkpoint, and at the last sweep, as in ``nmf_factorize``, each one a
    numpy pairwise sum over one C-order buffer.  Returns ``w``, ``h``,
    ``trace``, ``sweeps`` and ``stop``.
    """
    values = x.values
    n, m = values.shape
    rng = generator(seed, STREAM_NMF_INIT)
    scale = math.sqrt(float(values.mean()) / k)
    w = (1.0 - rng.random((n, k))) * scale
    h = (1.0 - rng.random((k, m))) * scale

    def update(factor, num, den):
        den += linalg._UPDATE_EPS
        num /= den
        return np.multiply(num, factor, out=num)

    def residual(w, h):
        r = w.dot(h)
        np.subtract(values, r, out=r)
        np.square(r, out=r)
        return math.sqrt(np.add.reduce(r.ravel()))

    trace = [residual(w, h)]
    kept = w, h
    stop = "capped"
    for sweep in range(1, opts.max_iter + 1):
        h = update(h, w.T.dot(values), w.T.dot(w).dot(h))
        w = update(w, values.dot(h.T), w.dot(h.dot(h.T)))
        phase = sweep % opts.check_every
        if phase not in (0, opts.check_every - 1) and sweep != opts.max_iter:
            continue
        objective = residual(w, h)
        if objective > trace[-1] + linalg.TRACE_TOLERANCE:
            w, h = kept
            stop = "uphill"
            break
        kept = w, h
        trace.append(objective)
        if phase == 0:
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


def silhouette_scores_loop(clusters):
    """``rank.silhouette_scores`` one point at a time: the mean distance to
    the point's own cluster (itself left out) and to each other cluster, as
    1-d copies picked by label masks."""
    pts = [np.asarray(c, dtype=np.float64) for c in clusters]
    labels = np.concatenate([np.full(len(c), i) for i, c in enumerate(pts)])
    stacked = np.vstack(pts)
    dist = np.clip(1.0 - stacked @ stacked.T, 0.0, 2.0)

    scores = np.zeros(len(stacked))
    for idx in range(len(stacked)):
        own = labels[idx]
        same = labels == own
        if same.sum() == 1:
            continue
        mask = same.copy()
        mask[idx] = False
        a = dist[idx, mask].mean()
        b = min(dist[idx, labels == other].mean()
                for other in range(len(pts)) if other != own)
        denom = max(a, b)
        scores[idx] = (b - a) / denom if denom > 0 else 0.0
    np.clip(scores, -1.0, 1.0, out=scores)
    per_cluster = tuple(scores[labels == i] for i in range(len(pts)))
    return per_cluster, np.array([c.min() for c in per_cluster])


def dumps_document_recursive(value) -> str:
    """``docio.dumps_document`` with no ``Records`` path: one recursion for
    mappings and lists, ``json.dumps`` per key.  Only a ``Records`` built by
    the caller takes the template, and it must write these bytes too."""
    def emit(value, indent):
        if isinstance(value, dict):
            brackets = "{}"
            items = [f"{json.dumps(str(key))}: {emit(item, indent + 1)}"
                     for key, item in value.items()]
        elif isinstance(value, (list, tuple)):
            if all(isinstance(v, (int, float, str, bool)) or v is None for v in value):
                return "[" + ", ".join(docio._scalar(v) for v in value) + "]"
            brackets = "[]"
            items = [emit(item, indent + 1) for item in value]
        else:
            return docio._scalar(value)
        if not items:
            return brackets
        pad = "\n" + "  " * indent
        return brackets[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + brackets[1]

    return emit(value, 0) + "\n"
