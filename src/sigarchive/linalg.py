"""Nonnegative matrix factorization and nonnegative least squares.

Implements the two numeric workhorses of the package: Frobenius-norm NMF via
multiplicative updates, and an active-set NNLS solver that solves one target
(:func:`nnls_solve`) or many at once, each with the same bits.  All are
written for dense float64 data and are deterministic given their inputs.
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
NNLS_STEP_LIMIT = "nnls failed to converge within the step limit"

STOP_CONVERGED = "converged"
STOP_CAPPED = "capped"
STOP_UPHILL = "uphill"
STOP_REASONS = (STOP_CONVERGED, STOP_CAPPED, STOP_UPHILL)


def _readonly_array(values) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:  # not numbers, or a ragged nesting
        raise ValidationError(f"values are not a numeric array: {exc}") from None
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


def _frobenius(x: np.ndarray, w: np.ndarray, h: np.ndarray):
    """``frobenius_norm(x - w @ h)``, bit for bit, in one buffer; for a stack
    of matrices, an array of each one's, with the bits it has alone."""
    r = np.matmul(w, h)
    np.subtract(x, r, out=r)
    np.square(r, out=r)
    return np.sqrt(np.add.reduce(r.reshape(*r.shape[:-2], -1), axis=-1))


def _update(factor: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``factor * (num / (den + _UPDATE_EPS))``, in the fresh ``num`` and ``den``."""
    den += _UPDATE_EPS
    num /= den
    return np.multiply(num, factor, out=num)


def nmf_factorize(
    x: FeatureMatrix,
    k: int,
    seed: int,
    opts: SolverOptions = SolverOptions(),
) -> FactorPair:
    """Factorize ``x`` into nonnegative ``w @ h`` of rank ``k``.

    Multiplicative updates for the Frobenius objective, with factors drawn
    i.i.d. uniform on (0, 1] and scaled by ``sqrt(mean(x) / k)``.  The run is
    bitwise reproducible for identical ``(x, k, seed, opts)``.  It is the
    stack of one of :func:`nmf_stack`.

    Raises
    ------
    ValidationError
        If ``k`` is outside ``[1, min(n_features, n_samples)]``.
    DegenerateInputError
        If ``x`` is entirely zero.
    """
    pair, = nmf_stack(x.values[None], k, (seed,), opts)
    if isinstance(pair, SigArchiveError):
        raise pair
    return pair


def nmf_stack(
    xs: np.ndarray,
    k: int,
    seeds: Sequence[int],
    opts: SolverOptions = SolverOptions(),
) -> list[FactorPair | SigArchiveError]:
    """:func:`nmf_factorize` of each matrix ``xs[i]`` with ``seeds[i]``, as one
    multiplicative update of (members, n, k) and (members, k, m) stacks.

    ``np.matmul`` makes each member's BLAS call (gemm, or syrk for ``wᵀw``)
    as the member alone makes it, and every other step is elementwise or
    sums over one member, so each member has the bits it has alone.  A
    member keeps its own trace, uphill guard and stop test, and leaves the
    stack when it stops; one that fails comes back as its ``SigArchiveError``.
    No update clamps the factors, as none can make them negative: ``xs`` is
    nonnegative, the initial factors positive, every denominator at least
    ``_UPDATE_EPS``.  Raises ``ValidationError`` for ``k`` outside
    ``[1, min(n, m)]``.
    """
    _, n, m = xs.shape
    if k < 1 or k > min(n, m):
        raise ValidationError(
            f"rank k={k} must lie in [1, min(n={n}, m={m})]")
    means = [float(values.mean()) for values in xs]
    results: list = [None if mean else DegenerateInputError(
        "cannot factorize an all-zero matrix") for mean in means]
    live = [i for i, mean in enumerate(means) if mean]
    if not live:
        return results
    inits = [(generator(seeds[i], STREAM_NMF_INIT), math.sqrt(means[i] / k)) for i in live]
    # 1 - U[0, 1) lands in (0, 1], keeping every initial entry strictly positive.
    w = np.stack([(1.0 - rng.random((n, k))) * scale for rng, scale in inits])
    h = np.stack([(1.0 - rng.random((k, m))) * scale for rng, scale in inits])
    x = xs if len(live) == len(xs) else xs[live]
    traces = [[t] for t in _frobenius(x, w, h).tolist()]
    kept = w, h  # factors of the last evaluated sweep; each sweep allocates anew
    for sweep in range(1, opts.max_iter + 1):
        wt = w.transpose(0, 2, 1)
        h = _update(h, np.matmul(wt, x), np.matmul(np.matmul(wt, w), h))
        ht = h.transpose(0, 2, 1)
        w = _update(w, np.matmul(x, ht), np.matmul(w, np.matmul(h, ht)))
        # Only the sweeps just before and at a checkpoint, and the last one,
        # are read by a decision, so only they pay for a residual.
        phase = sweep % opts.check_every
        if phase not in (0, opts.check_every - 1) and sweep != opts.max_iter:
            continue
        stay = []
        for j, objective in enumerate(_frobenius(x, w, h).tolist()):
            trace = traces[j]
            if objective > trace[-1] + TRACE_TOLERANCE:
                # Round-off pushed the objective uphill; keep the last evaluated factors.
                stop, (ws, hs) = STOP_UPHILL, kept
            else:
                trace.append(objective)
                prev = trace[-2]
                if phase == 0 and (prev == 0.0 or (prev - objective) / prev < opts.tol):
                    stop = STOP_CONVERGED
                elif sweep == opts.max_iter:
                    stop = STOP_CAPPED
                else:
                    stay.append(j)
                    continue
                ws, hs = w, h
            try:
                results[live[j]] = FactorPair(ws[j], hs[j], tuple(trace), seeds[live[j]],
                                              sweep, stop)
            except SigArchiveError as exc:
                results[live[j]] = exc
        if not stay:
            break
        if len(stay) < len(live):
            x, w, h = x[stay], w[stay], h[stay]
            traces, live = [traces[j] for j in stay], [live[j] for j in stay]
        kept = w, h
    return results


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``sum(u * v)`` along the last axis, each row one numpy pairwise sum
    over the contiguous entries of a C-order product.  A row's bits depend on
    that row alone: not on the row count, the inputs' memory order or the
    BLAS thread count, as those of a BLAS dot product or matmul can."""
    return np.add.reduce(np.multiply(u, v, order="C"), axis=-1)


def _combine(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``x @ a.T`` for (m, p) coefficient rows ``x``, summed over the p
    columns of ``a`` in order, so that each row depends on that row alone."""
    out = np.zeros((x.shape[0], a.shape[0]))
    for j in range(a.shape[1]):
        out += x[:, j, None] * a[:, j]
    return out


def _solve_on_sets(gram: np.ndarray, c: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Least-squares solution of every row of ``c`` on its passive set (the
    same row of ``passive``), zero elsewhere.  Rows whose sets have the same
    size share one stacked LAPACK call, one gesv per row on that row's own
    Gram block, so no row's bits depend on which rows share it.  If a block
    of that size is singular, the size's rows are solved one at a time, and
    each singular one gets the minimum-norm solution."""
    z = np.zeros(c.shape)
    sizes = passive.sum(axis=1)
    # the nonzero sizes; np.unique would import numpy.ma into every classify
    for s in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        rows = np.flatnonzero(sizes == s)
        cols = np.nonzero(passive[rows])[1].reshape(rows.size, s)
        g, rhs = gram[cols[:, :, None], cols[:, None, :]], c[rows[:, None], cols, None]
        try:
            sol = np.linalg.solve(g, rhs)
        except np.linalg.LinAlgError:
            sol = np.empty(rhs.shape)
            for i in range(rows.size):
                try:
                    sol[i] = np.linalg.solve(g[i:i + 1], rhs[i:i + 1])[0]
                except np.linalg.LinAlgError:
                    sol[i, :, 0] = _rowdot(rhs[i, None, :, 0], np.linalg.pinv(g[i]))
        z[rows[:, None], cols] = sol[..., 0]
    return z


def _nnls_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`nnls_solve` for every row of the (m, n) ``b`` at once.

    Lawson-Hanson active-set iteration (1974) on the normal equations
    ``G = a.T @ a`` and ``c_i = a.T @ b_i``, run for all rows together as in
    FCNNLS (Van Benthem & Keenan, J. Chemometrics 2004).  A row stops once
    no free gradient ``(c_i - G x)_j`` exceeds ``_KKT_TOL * max|c_i|``.
    Every sum is a :func:`_rowdot` and every solve one gesv per row, so a
    row gets the same bits alone as in any batch, whatever the BLAS thread
    count.

    Returns the (m, p) solutions, exactly nonnegative, and which rows
    stopped within the step limit.
    """
    at = a.T
    gram = np.stack([_rowdot(at, s) for s in at], axis=-1)
    c = np.stack([_rowdot(b, s) for s in at], axis=-1)
    m, p = c.shape
    tol = _KKT_TOL * np.abs(c).max(axis=1)
    x = np.zeros((m, p))
    passive = np.zeros((m, p), dtype=bool)
    todo = np.arange(m)
    for _ in range(max(3 * p, 30)):
        free = np.where(passive[todo], -np.inf, c[todo] - _rowdot(x[todo, None, :], gram))
        enter = np.argmax(free, axis=1)
        go = free[np.arange(todo.size), enter] > tol[todo]
        todo, enter = todo[go], enter[go]
        if not todo.size:
            break
        passive[todo, enter] = True
        inner = todo
        # Each pass that does not finish a row pins one of its variables:
        # at most p passes.
        for _ in range(p + 1):
            ps, xs = passive[inner], x[inner]
            z = _solve_on_sets(gram, c[inner], ps)
            done = np.where(ps, z, np.inf).min(axis=1) > 0
            x[inner[done]] = z[done]
            inner, ps, xs, z = inner[~done], ps[~done], xs[~done], z[~done]
            if not inner.size:
                break
            # Step toward z only as far as feasibility allows, then drop
            # the variables pinned at zero from the passive set.
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(ps & (z <= 0), xs / (xs - z), np.inf)
            block = np.argmin(ratios, axis=1)
            span = np.arange(inner.size)
            xs += ratios[span, block, None] * (z - xs)
            pinned = ps & (xs <= 1e-14)
            # Round-off can leave the blocking minimizer slightly above zero.
            pinned[span, block] = True
            xs[pinned] = 0.0
            x[inner] = xs
            passive[inner] = ps & ~pinned
            inner = inner[passive[inner].any(axis=1)]
    stopped = np.ones(m, dtype=bool)
    stopped[todo] = False   # still searching when the step limit ran out
    return x, stopped


def nnls_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``min_h ||a @ h - b||`` subject to ``h >= 0``, for an (n, p)
    ``a`` with no zero column and an (n,) ``b`` whose entries may be negative.

    Lawson-Hanson active-set iteration, as the batch of one of
    :func:`_nnls_rows`.  The returned (p,) vector is exactly nonnegative and
    satisfies the KKT conditions to within ``_KKT_TOL`` relative to
    ``max(|a.T @ b|)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.shape != a.shape[:1]:
        raise ValidationError(f"need an (n, p) matrix and an (n,) target, got shapes "
                              f"{a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("nnls inputs must be finite")
    dead = np.flatnonzero(np.linalg.norm(a, axis=0) == 0)
    if dead.size:
        raise ValidationError(f"matrix column {dead[0]} has zero norm")
    x, stopped = _nnls_rows(a, b[None])
    if not stopped[0]:
        raise SigArchiveError(NNLS_STEP_LIMIT)
    return x[0]


def relative_error(x: FeatureMatrix, pair: FactorPair) -> float:
    """Frobenius reconstruction error of ``pair`` on ``x``, relative to ``||x||``."""
    if pair.w.shape[0] != x.n_features or pair.h.shape[1] != x.n_samples:
        raise ValidationError(
            f"factor shapes {pair.w.shape} x {pair.h.shape} do not match "
            f"matrix shape {x.values.shape}")
    denom = frobenius_norm(x.values)
    if denom == 0.0:
        raise DegenerateInputError("relative error is undefined for an all-zero matrix")
    return float(_frobenius(x.values, pair.w, pair.h)) / denom
