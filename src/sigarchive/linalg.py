"""Nonnegative matrix factorization and nonnegative least squares.

Implements the two numeric workhorses of the package: Frobenius-norm NMF via
multiplicative updates, and an active-set NNLS solver (:func:`nnls_solve`),
with a batched form that returns its bits for many targets at once.  All
are written for dense float64 data and are deterministic given their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, SigArchiveError, ValidationError
from .seeding import STREAM_NMF_INIT, generator

TRACE_TOLERANCE = 1e-12  # absolute slack for float round-off in objective traces
_UPDATE_EPS = 1e-12      # denominator guard in multiplicative updates
_KKT_TOL = 1e-8          # NNLS stopping tolerance, relative to max |a.T @ b|

STOP_CONVERGED = "converged"
STOP_CAPPED = "capped"
STOP_UPHILL = "uphill"
STOP_REASONS = (STOP_CONVERGED, STOP_CAPPED, STOP_UPHILL)


def _readonly_array(values, *, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _fields_equal(self, other):
    """``==`` for the array-holding value types: every field with
    ``compare=True`` equal, ndarrays compared by value."""
    if not isinstance(other, type(self)):
        return NotImplemented
    for f in fields(self):
        if f.compare:
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
    return True


def _fields_reduce(self):
    """Pickle through the constructor, so that copies get read-only arrays too."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


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
            if len(set(feature_names)) != n:
                raise ValidationError("feature names must be unique")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample_ids", sample_ids)
        object.__setattr__(self, "feature_names", feature_names)

    __eq__ = _fields_equal
    __reduce__ = _fields_reduce

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        """``feature_names``, or ``f0``, ``f1``, ... when none were given."""
        return self.feature_names or tuple(f"f{i}" for i in range(self.n_features))

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

    __eq__ = _fields_equal
    __reduce__ = _fields_reduce

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


def unit_columns(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``w`` with each column scaled to unit norm, and the divisors used;
    an all-zero column keeps divisor 1 and stays as it is."""
    norms = np.linalg.norm(w, axis=0)
    divisors = np.where(norms > 0, norms, 1.0)
    return w / divisors, divisors


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


def nnls_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``min_h ||a @ h - b||`` subject to ``h >= 0``.

    Lawson-Hanson active-set iteration.  The returned vector is exactly
    nonnegative and satisfies the KKT conditions to within ``_KKT_TOL``
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
    a, b = _nnls_inputs(a, b, 1)
    p = a.shape[1]
    grad0 = a.T @ b
    tol = _KKT_TOL * float(np.abs(grad0).max())

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
        # Each pass that does not break pins a passive variable: at most p passes.
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


def _nnls_inputs(a, b, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated float64 ``a`` of shape (n, p) and ``b`` of shape (n,) or,
    with ``ndim`` 2, (n, m)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValidationError(f"matrix must be 2-d, got shape {a.shape}")
    n = a.shape[0]
    if b.ndim != ndim or b.shape[0] != n:
        want = f"({n},)" if ndim == 1 else f"({n}, m)"
        raise ValidationError(f"target must have shape {want}, got {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("nnls inputs must be finite")
    col_norms = np.linalg.norm(a, axis=0)
    if (col_norms == 0).any():
        dead = int(np.argmin(col_norms))
        raise ValidationError(f"matrix column {dead} has zero norm")
    return a, b


def _groups(passive: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The distinct columns of a boolean matrix, each with the indices of
    the columns equal to it."""
    order = np.lexsort(passive[::-1])
    cuts = np.flatnonzero((passive[:, order[1:]] != passive[:, order[:-1]]).any(axis=0))
    return [(passive[:, cols[0]], cols) for cols in np.split(order, cuts + 1) if cols.size]


def _solve_on_sets(gram: np.ndarray, c: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Least-squares solution of every column of ``c`` on its passive set,
    zero elsewhere: one normal-equations solve per distinct passive set."""
    z = np.zeros(c.shape)
    for in_set, cols in _groups(passive):
        rows = np.flatnonzero(in_set)
        try:
            z[np.ix_(rows, cols)] = np.linalg.solve(gram[np.ix_(rows, rows)],
                                                    c[np.ix_(rows, cols)])
        except np.linalg.LinAlgError:   # singular: leave the set to be refused
            z[:, cols] = np.nan
    return z


def _nnls_passive_sets(gram: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The active-set search of :func:`nnls_solve`, for all columns of
    ``c = a.T @ b`` at once (FCNNLS: Van Benthem & Keenan, J. Chemometrics
    2004).

    Same entering rule, step and pin rule and step limit, but on the normal
    equations, so a column may end on another set than ``nnls_solve`` would.
    Returns the final passive sets as the columns of a (p, m) boolean array,
    and which columns stopped within the step limit.
    """
    p, m = c.shape
    tol = _KKT_TOL * np.abs(c).max(axis=0)
    x = np.zeros((p, m))
    passive = np.zeros((p, m), dtype=bool)
    todo = np.arange(m)
    for _ in range(max(3 * p, 30)):
        w = np.where(passive[:, todo], -np.inf, c[:, todo] - gram @ x[:, todo])
        enter = np.argmax(w, axis=0)
        go = w[enter, np.arange(todo.size)] > tol[todo]
        todo, enter = todo[go], enter[go]
        if not todo.size:
            break
        passive[enter, todo] = True
        inner = todo
        for _ in range(p + 1):
            z = _solve_on_sets(gram, c[:, inner], passive[:, inner])
            ps = passive[:, inner]
            done = np.where(ps, z, np.inf).min(axis=0) > 0
            x[:, inner[done]] = z[:, done]
            inner, z, ps, xs = inner[~done], z[:, ~done], ps[:, ~done], x[:, inner[~done]]
            if not inner.size:
                break
            ratios = np.where(ps & (z <= 0), xs / (xs - z), np.inf)
            block = np.argmin(ratios, axis=0)
            span = np.arange(inner.size)
            xs = xs + ratios[block, span] * (z - xs)
            pinned = ps & (xs <= 1e-14)
            pinned[block, span] = True
            xs[pinned] = 0.0
            x[:, inner] = xs
            passive[:, inner] = ps & ~pinned
            inner = inner[passive[:, inner].any(axis=0)]
    stopped = np.ones(m, dtype=bool)
    stopped[todo] = False   # still searching when the step limit ran out
    return passive, stopped


def _margins(gram: np.ndarray, cols: np.ndarray,
             off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per passive column j, ``2 * sum_k max(inv(G_P)_jk, 0)``; per off-set
    column i, ``1 + 2 * sum_k max(r_ik, 0)`` with ``r_i = inv(G_P) G_Pi``.
    Infinite (nothing certified) if ``G_P`` is singular."""
    try:
        inv = np.linalg.inv(gram[np.ix_(cols, cols)])
    except np.linalg.LinAlgError:
        return np.full(cols.size, np.inf), np.full(off.size, np.inf)
    reach = np.maximum(gram[np.ix_(off, cols)] @ inv, 0.0).sum(axis=1)
    return 2.0 * np.maximum(inv, 0.0).sum(axis=1), 1.0 + 2.0 * reach


def _finish(a: np.ndarray, b: np.ndarray, cols: np.ndarray, off: np.ndarray,
            on_margin: np.ndarray, off_margin: np.ndarray) -> np.ndarray | None:
    """:func:`nnls_solve`'s result for ``b`` if it ends on passive set
    ``cols`` (the other columns being ``off``), computed by the call it
    returns from; None unless the set clears the :func:`_margins`."""
    tol = _KKT_TOL * float(np.abs(a.T @ b).max())
    x = np.zeros(a.shape[1])
    if cols.size:
        x[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
    gradient = a.T @ (b - a @ x)
    if (gradient[off] < -tol * off_margin).all() and (x[cols] > tol * on_margin).all():
        return x
    return None


def _nnls_batch(a: np.ndarray, b: np.ndarray) -> list[np.ndarray | None]:
    """:func:`nnls_solve` for every column of ``b``, bit for bit, where that
    can be certified without running it; None where the caller must run it.

    Discovery runs the Lawson-Hanson search on all columns at once through
    ``G = a.T @ a`` and ``a.T @ b``, grouping the columns that share a
    passive set; it proposes a set P per column and fixes no output bit.
    The finish solves each column on P with the exact ``lstsq`` call that
    ``nnls_solve`` returns from, on a fresh contiguous copy of the column,
    so the bits agree whenever ``nnls_solve`` ends on P.

    ``nnls_solve`` ends on a set Q with ``y = lstsq`` on Q positive and
    every gradient ``w_i = (a.T @ (b - a @ y))_i`` off Q at most ``tol``.
    Such a y exactly minimizes ``||a @ h - b||^2 / 2 + e @ h`` over
    ``h >= 0`` for ``e = max(w, 0)`` off Q, 0 on Q: one e in ``[0, tol]^p``.
    P is certified when, for every such e, ``x_P - inv(G_P) e_P`` stays
    positive and every gradient off P stays negative; then that point is
    the minimizer for each e, so y is that point (``a[:, P]`` has full
    rank) and Q = P.  Worst cases over the box give the two tests made:
    ``x_j > tol * sum_k max(inv(G_P)_jk, 0)`` on P and
    ``w_i < -tol * sum_k max(r_ik, 0)`` off P, where ``r_i`` solves
    ``G_P r_i = G_Pi``.  Both are doubled, and every off-set gradient also
    kept below ``-tol``, as slack for the rounding of both solvers.  This
    rules out every Q other than P, whatever it drops or adds; it assumes
    ``nnls_solve`` stops within its step limit.

    Returns one entry per column of ``b``: ndarray of shape (p,), or None
    where the set was not certified (for instance an all-zero column).
    """
    a, b = _nnls_inputs(a, b, 2)
    gram = a.T @ a
    with np.errstate(divide="ignore", invalid="ignore"):
        passive, stopped = _nnls_passive_sets(gram, a.T @ b)
    solved = [None] * b.shape[1]
    for in_set, members in _groups(passive):
        cols, off = np.flatnonzero(in_set), np.flatnonzero(~in_set)
        on_margin, off_margin = _margins(gram, cols, off)
        for j in members[stopped[members]]:
            solved[j] = _finish(a, np.array(b[:, j]), cols, off, on_margin, off_margin)
    return solved


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
