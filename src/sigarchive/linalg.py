"""Nonnegative matrix factorization and nonnegative least squares.

Implements the two numeric workhorses of the package: Frobenius-norm NMF via
multiplicative updates, and an active-set NNLS solver.  Both are written for
dense float64 data and are deterministic given their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, SigArchiveError, ValidationError
from .seeding import STREAM_NMF_INIT, generator

TRACE_TOLERANCE = 1e-12  # absolute slack for float round-off in objective traces
_UPDATE_EPS = 1e-12      # denominator guard in multiplicative updates

STOP_CONVERGED = "converged"
STOP_CAPPED = "capped"
STOP_UPHILL = "uphill"
STOP_REASONS = (STOP_CONVERGED, STOP_CAPPED, STOP_UPHILL)


def _readonly_array(values, *, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Nonnegative observation matrix with features as rows, samples as columns.

    Parameters
    ----------
    values : array-like of shape (n_features, n_samples)
        Finite, nonnegative entries.  Copied and frozen on construction.
    sample_ids : sequence of str
        One unique identifier per column.
    feature_names : sequence of str, optional
        One name per row.
    """

    values: np.ndarray
    sample_ids: tuple[str, ...]
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = _readonly_array(self.values)
        if values.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-d, got shape {values.shape}")
        n, m = values.shape
        if n < 1 or m < 1:
            raise ValidationError(f"feature matrix must be at least 1x1, got {n}x{m}")
        if not np.isfinite(values).all():
            raise ValidationError("feature matrix contains non-finite entries")
        if (values < 0).any():
            raise ValidationError("feature matrix contains negative entries")
        sample_ids = tuple(str(s) for s in self.sample_ids)
        if len(sample_ids) != m:
            raise ValidationError(
                f"expected {m} sample ids, got {len(sample_ids)}")
        if len(set(sample_ids)) != m:
            raise ValidationError("sample ids must be unique")
        feature_names = self.feature_names
        if feature_names is not None:
            feature_names = tuple(str(f) for f in feature_names)
            if len(feature_names) != n:
                raise ValidationError(
                    f"expected {n} feature names, got {len(feature_names)}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample_ids", sample_ids)
        object.__setattr__(self, "feature_names", feature_names)

    def __eq__(self, other):
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        return (np.array_equal(self.values, other.values)
                and self.sample_ids == other.sample_ids
                and self.feature_names == other.feature_names)

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def select_samples(self, indices: Sequence[int]) -> "FeatureMatrix":
        """Column-subset copy preserving ids and feature names."""
        idx = list(indices)
        return FeatureMatrix(
            self.values[:, idx],
            tuple(self.sample_ids[i] for i in idx),
            self.feature_names,
        )


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`nmf_factorize`.

    ``tol`` is the relative objective change below which iteration stops.
    It is tested at every ``check_every``-th sweep, between the residuals of
    that sweep and the one before; those two sweeps and sweep ``max_iter``
    are the only ones whose residual is evaluated.
    """

    tol: float = 1e-6
    max_iter: int = 1000
    check_every: int = 10

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValidationError("tol must be a positive finite number")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        if self.check_every < 1:
            raise ValidationError("check_every must be >= 1")


@dataclass(frozen=True, eq=False)
class FactorPair:
    """Result of one NMF run: nonnegative factors plus the objective trace.

    ``objective_trace[0]`` is the Frobenius residual of the initial random
    factors; every later entry is the residual after one evaluated sweep,
    that is a sweep ``s`` with ``s % check_every`` equal to 0 or
    ``check_every - 1``, or ``s == max_iter`` (see :class:`SolverOptions`).
    The trace never increases by more than ``TRACE_TOLERANCE`` from one
    entry to the next.  Its last entry is the residual ``||x - w @ h||`` of
    the returned ``w`` and ``h``, also when the uphill guard stops the run:
    the factors of the last evaluated sweep are returned, and the rejected
    sweep is not recorded.  Rank selection reads member errors from it.

    ``sweeps`` counts the update sweeps run, rejected ones included, and
    ``stop`` says why the run ended: ``"converged"`` (the stop test
    passed), ``"capped"`` (``max_iter`` sweeps ran) or ``"uphill"`` (the
    guard fired).
    """

    w: np.ndarray
    h: np.ndarray
    objective_trace: tuple[float, ...]
    seed: int
    sweeps: int = 0
    stop: str = STOP_CONVERGED

    def __post_init__(self):
        w = _readonly_array(self.w)
        h = _readonly_array(self.h)
        if w.ndim != 2 or h.ndim != 2:
            raise ValidationError("factors must be 2-d arrays")
        n, k = w.shape
        k2, m = h.shape
        if k != k2:
            raise ValidationError(f"inner dimensions disagree: w is {w.shape}, h is {h.shape}")
        if k < 1 or k > min(n, m):
            raise ValidationError(f"rank {k} outside [1, min({n}, {m})]")
        if not (np.isfinite(w).all() and np.isfinite(h).all()):
            raise ValidationError("factors contain non-finite entries")
        if (w < 0).any() or (h < 0).any():
            raise ValidationError("factors contain negative entries")
        trace = tuple(float(v) for v in self.objective_trace)
        if not trace:
            raise ValidationError("objective trace must not be empty")
        if any(not math.isfinite(v) or v < 0 for v in trace):
            raise ValidationError("objective trace entries must be finite and >= 0")
        for prev, cur in zip(trace, trace[1:]):
            if cur > prev + TRACE_TOLERANCE:
                raise ValidationError(
                    f"objective trace increases from {prev!r} to {cur!r}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "objective_trace", trace)
        if self.stop not in STOP_REASONS:
            raise ValidationError(f"unknown stop reason {self.stop!r}")
        if self.sweeps < 0:
            raise ValidationError("sweeps must be >= 0")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "sweeps", int(self.sweeps))

    @property
    def rank(self) -> int:
        return self.w.shape[1]


def frobenius_norm(a: np.ndarray) -> float:
    """``||a||_F``, summed in one fixed order whatever the BLAS thread count.

    ``np.linalg.norm`` of a 2-d array is a BLAS dot product, which OpenBLAS
    splits across its threads; numpy's own pairwise sum over the C-order
    entries is the same with any number of threads.
    """
    return math.sqrt(np.add.reduce(np.square(a).ravel()))


def _frobenius(x: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    return frobenius_norm(x - w @ h)


def nmf_factorize(
    x: FeatureMatrix,
    k: int,
    seed: int,
    opts: SolverOptions = SolverOptions(),
) -> FactorPair:
    """Factorize ``x`` into nonnegative ``w @ h`` of rank ``k``.

    Multiplicative updates for the Frobenius objective, with factors drawn
    i.i.d. uniform on (0, 1] and scaled by ``sqrt(mean(x) / k)``.  The run is
    bitwise reproducible for identical ``(x, k, seed, opts)``.

    Raises
    ------
    ValidationError
        If ``k`` is outside ``[1, min(n_features, n_samples)]``.
    DegenerateInputError
        If ``x`` is entirely zero.
    """
    values = x.values
    n, m = values.shape
    if k < 1 or k > min(n, m):
        raise ValidationError(
            f"rank k={k} must lie in [1, min(n={n}, m={m})]")
    mean = float(values.mean())
    if mean == 0.0:
        raise DegenerateInputError("cannot factorize an all-zero matrix")

    rng = generator(seed, STREAM_NMF_INIT)
    scale = math.sqrt(mean / k)
    # 1 - U[0, 1) lands in (0, 1], keeping every initial entry strictly positive.
    w = (1.0 - rng.random((n, k))) * scale
    h = (1.0 - rng.random((k, m))) * scale

    trace = [_frobenius(values, w, h)]
    kept = w, h  # factors of the last evaluated sweep; each sweep allocates anew
    stop = STOP_CAPPED
    for sweep in range(1, opts.max_iter + 1):
        h = h * ((w.T @ values) / ((w.T @ w) @ h + _UPDATE_EPS))
        np.maximum(h, 0.0, out=h)
        w = w * ((values @ h.T) / (w @ (h @ h.T) + _UPDATE_EPS))
        np.maximum(w, 0.0, out=w)
        # Only the sweeps just before and at a checkpoint, and the last one,
        # are read by a decision, so only they pay for a residual.
        phase = sweep % opts.check_every
        if phase not in (0, opts.check_every - 1) and sweep != opts.max_iter:
            continue
        objective = _frobenius(values, w, h)
        if objective > trace[-1] + TRACE_TOLERANCE:
            # Round-off pushed the objective uphill; keep the last evaluated factors.
            w, h = kept
            stop = STOP_UPHILL
            break
        kept = w, h
        trace.append(objective)
        if phase == 0:
            prev, cur = trace[-2], trace[-1]
            if prev == 0.0 or (prev - cur) / prev < opts.tol:
                stop = STOP_CONVERGED
                break
    return FactorPair(w, h, tuple(trace), seed, sweep, stop)


def nnls_solve(a: np.ndarray, b: np.ndarray, *, kkt_tol: float = 1e-8) -> np.ndarray:
    """Solve ``min_h ||a @ h - b||`` subject to ``h >= 0``.

    Lawson-Hanson active-set iteration.  The returned vector is exactly
    nonnegative and satisfies the KKT conditions to within ``kkt_tol``
    relative to ``max(|a.T @ b|)``.

    Parameters
    ----------
    a : ndarray of shape (n, p)
        Dense matrix; every column must have nonzero norm.
    b : ndarray of shape (n,)
        Target vector (entries may be negative).

    Returns
    -------
    ndarray of shape (p,)
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValidationError(f"matrix must be 2-d, got shape {a.shape}")
    n, p = a.shape
    if b.shape != (n,):
        raise ValidationError(f"target must have shape ({n},), got {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("nnls inputs must be finite")
    col_norms = np.linalg.norm(a, axis=0)
    if (col_norms == 0).any():
        dead = int(np.argmin(col_norms))
        raise ValidationError(f"matrix column {dead} has zero norm")

    grad0 = a.T @ b
    tol = kkt_tol * float(np.abs(grad0).max())

    x = np.zeros(p)
    passive = np.zeros(p, dtype=bool)
    max_steps = max(3 * p, 30)
    for _ in range(max_steps):
        w = a.T @ (b - a @ x)
        w_free = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_free))
        if passive.all() or w_free[j] <= tol:
            break
        passive[j] = True
        for _ in range(p + 1):
            cols = np.flatnonzero(passive)
            z = np.zeros(p)
            z[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if z[cols].min() > 0:
                x = z
                break
            # Step toward z only as far as feasibility allows, then drop
            # the variables pinned at zero from the passive set.
            blocking = np.flatnonzero(passive & (z <= 0))
            ratios = x[blocking] / (x[blocking] - z[blocking])
            alpha = float(ratios.min())
            x = x + alpha * (z - x)
            pinned = passive & (x <= 1e-14)
            # Round-off can leave the blocking minimizer slightly above zero.
            pinned[blocking[int(np.argmin(ratios))]] = True
            x[pinned] = 0.0
            passive &= ~pinned
            if not passive.any():
                x[:] = 0.0
                break
    else:
        raise SigArchiveError("nnls failed to converge within the step limit")

    x[~passive] = 0.0
    np.maximum(x, 0.0, out=x)
    return x


def relative_error(x: FeatureMatrix, pair: FactorPair) -> float:
    """Frobenius reconstruction error of ``pair`` on ``x``, relative to ``||x||``."""
    if pair.w.shape[0] != x.n_features or pair.h.shape[1] != x.n_samples:
        raise ValidationError(
            f"factor shapes {pair.w.shape} x {pair.h.shape} do not match "
            f"matrix shape {x.values.shape}")
    denom = frobenius_norm(x.values)
    if denom == 0.0:
        raise DegenerateInputError("relative error is undefined for an all-zero matrix")
    return _frobenius(x.values, pair.w, pair.h) / denom
