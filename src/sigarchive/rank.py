"""Automatic rank selection for NMF via perturbation ensembles.

For each candidate rank, a batch of multiplicatively perturbed copies of the
input is factorized, the resulting signature columns are matched across
ensemble members, and the stability of the matched clusters is summarized
with cosine-distance silhouettes.  A rank is stable when its least stable
cluster clears the silhouette threshold.  Ranks are scanned upward, one at a
time; once some rank k >= 2 is stable, the scan stops at the next unstable
rank, so the ranks above it are never factorized.  The selected rank is the
largest stable rank scanned.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .linalg import (STOP_REASONS, FactorPair, FeatureMatrix, SolverOptions,
                     frobenius_norm, nmf_stack, unit_columns)
from .linalg import nmf_factorize  # noqa: F401  bench/spans.py traces rank.nmf_factorize
from .seeding import STREAM_PERTURB, generator

logger = logging.getLogger(__name__)

RULE_THRESHOLD = "threshold"
RULE_FALLBACK = "fallback_best_silhouette"
RULE_FORCED = "forced_single_candidate"

_ERROR_SLACK = 0.02  # ensemble-noise allowance for the error-monotonicity diagnostic

# Matrix bytes per stacked NMF run.  On 2 cores at one BLAS thread, one stack
# of s members against s runs of one: 75 x 90 (54 kB a member) ran 1.4-1.6x
# faster at 10-30 members; 75 x 360 and 40 x 600 (about 200 kB) ran 0.84-1.37x
# at 2-6 members but 0.67-0.97x at 10-30.  1 MiB holds 4 or 5 of those.
_STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class EnsembleConfig:
    """Configuration of one rank-selection sweep."""

    k_min: int
    k_max: int
    n_perturbations: int = 30
    noise_epsilon: float = 0.03
    silhouette_threshold: float = 0.75
    base_seed: int = 0

    def __post_init__(self):
        if self.k_min < 1 or self.k_max < self.k_min:
            raise ValidationError(
                f"need 1 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if self.n_perturbations < 2:
            raise ValidationError("n_perturbations must be >= 2")
        if not (0 <= self.noise_epsilon < 1):
            raise ValidationError("noise_epsilon must lie in [0, 1)")
        if not (-1 < self.silhouette_threshold <= 1):
            raise ValidationError("silhouette_threshold must lie in (-1, 1]")


@dataclass(frozen=True)
class RankStats:
    """Stability and fit summary for one candidate rank.

    The ``members_*`` counts say how the ensemble's factorizations ended:
    by stop reason, in ``STOP_REASONS`` order, and how many failed.
    """

    k: int
    min_silhouette: float
    mean_silhouette: float
    mean_relative_error: float
    members_converged: int
    members_capped: int
    members_uphill: int
    members_failed: int


@dataclass(frozen=True)
class RankSelectionReport:
    per_k: tuple[RankStats, ...]
    selected_k: int
    selection_rule_fired: str

    def __post_init__(self):
        ks = [s.k for s in self.per_k]
        if not ks or ks != list(range(ks[0], ks[-1] + 1)):
            raise ValidationError("per_k must cover a contiguous rank range exactly once")
        if self.selected_k not in ks:
            raise ValidationError(f"selected_k={self.selected_k} not among scanned ranks {ks}")
        for s in self.per_k:
            if not (-1 - 1e-9 <= s.min_silhouette <= 1 + 1e-9):
                raise ValidationError(f"silhouette out of range at k={s.k}")
        if self.selection_rule_fired not in (RULE_THRESHOLD, RULE_FALLBACK, RULE_FORCED):
            raise ValidationError(f"unknown selection rule {self.selection_rule_fired!r}")


def perturb(x: FeatureMatrix, epsilon: float, seed: int) -> FeatureMatrix:
    """Entrywise multiplicative noise: ``x * (1 + epsilon * u)``, u ~ U[-1, 1].

    Zero entries stay exactly zero and ``epsilon = 0`` returns an identical
    copy.  Deterministic for a given ``seed``.
    """
    if not (0 <= epsilon < 1) or not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must lie in [0, 1), got {epsilon}")
    if epsilon == 0:
        return FeatureMatrix(x.values, x.sample_ids, x.feature_names)
    u = generator(seed, STREAM_PERTURB).uniform(-1.0, 1.0, size=x.values.shape)
    return FeatureMatrix(x.values * (1.0 + epsilon * u), x.sample_ids, x.feature_names)


def cluster_ensemble_signatures(signature_sets: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Group ensemble signature columns into k clusters by greedy matching.

    The first member's columns anchor the clusters.  Each later member's
    columns are matched to anchors one pair at a time, taking the highest
    cosine similarity among the still-unmatched pairs (ties resolved by the
    lowest column index, then the lowest anchor index), so every member
    contributes exactly one column to every cluster.  Cluster ``c`` is an
    ``(members, n)`` array holding one unit vector per member, in member
    order.
    """
    members = [np.asarray(s, dtype=np.float64) for s in signature_sets]
    if not members:
        raise ValidationError("need at least one signature set")
    n, k = members[0].shape
    for s in members:
        if s.shape != (n, k):
            raise ValidationError("signature sets must share one shape")
    units = np.stack([unit_columns(s)[0] for s in members])

    picks = np.tile(np.arange(k), (len(units), 1))  # picks[i, c]: member i's column in cluster c
    for i in range(1, len(units)):
        free = (units[0].T @ units[i]).T.copy()  # free[j, c]: member column j vs anchor c
        for _ in range(k):
            # The first maximum in row-major order has the lowest column, then anchor.
            j, c = divmod(int(np.argmax(free)), k)
            picks[i, c] = j
            free[j, :] = free[:, c] = -np.inf
    rows = np.arange(len(units))
    return tuple(units[rows, :, picks[:, c]] for c in range(k))


def silhouette_scores(clusters: Sequence[np.ndarray]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Cosine-distance silhouettes for clustered unit vectors.

    Parameters
    ----------
    clusters : sequence of ndarray
        At least two clusters, each an ``(m_c, n)`` array of row vectors.

    Returns
    -------
    (per_point, per_cluster_min)
        Per-point silhouette arrays aligned with ``clusters``, and the
        minimum silhouette within each cluster.  Points in singleton
        clusters score 0 by convention, as does a point whose separation
        and cohesion are both zero.
    """
    pts = [np.asarray(c, dtype=np.float64) for c in clusters]
    if len(pts) < 2:
        raise ValidationError("silhouettes require at least two clusters")
    if any(c.ndim != 2 or c.shape[0] == 0 for c in pts):
        raise ValidationError("every cluster must be a nonempty 2-d array")

    stacked = np.vstack(pts)
    dist = np.clip(1.0 - stacked @ stacked.T, 0.0, 2.0)
    ends = np.cumsum([len(c) for c in pts]).tolist()
    blocks = list(zip([0, *ends], ends))  # cluster c's rows of ``dist``, contiguous

    per_cluster = []
    for lo, hi in blocks:
        size, rows = hi - lo, dist[lo:hi]
        if size == 1:
            per_cluster.append(np.zeros(1))
            continue
        # means over slices; a column fancy index copies to a layout that sums in another order
        a = rows[:, lo:hi][~np.eye(size, dtype=bool)].reshape(size, -1).mean(axis=1)
        b = np.min([rows[:, s:e].mean(axis=1) for s, e in blocks if s != lo], axis=0)
        denom = np.maximum(a, b)
        scores = np.divide(b - a, denom, out=np.zeros(size), where=denom > 0)
        per_cluster.append(np.clip(scores, -1.0, 1.0))
    return tuple(per_cluster), np.array([c.min() for c in per_cluster])


def ensemble_stability(clusters: Sequence[np.ndarray]) -> tuple[float, float]:
    """(min, mean) silhouette of a matched ensemble; a single cluster scores 1."""
    if len(clusters) == 1:
        return 1.0, 1.0
    per_cluster, cluster_min = silhouette_scores(clusters)
    pooled = np.concatenate(per_cluster)
    return float(cluster_min.min()), float(pooled.mean())


def select_rank(
    x: FeatureMatrix,
    cfg: EnsembleConfig,
    *,
    solver: SolverOptions = SolverOptions(),
) -> RankSelectionReport:
    """Scan ranks upward from ``cfg.k_min`` and pick the largest stable rank.

    A rank is stable when the minimum cluster silhouette of its matched
    ensemble reaches ``cfg.silhouette_threshold`` (rank 1 scores 1 by
    convention).  Once some rank k >= 2 is stable, the scan stops at the next
    unstable rank; rank 1 alone never stops it.  So ``per_k`` runs from
    ``cfg.k_min`` to ``cfg.k_max`` or to that stopping rank, and a scan that
    ends below ``cfg.k_max`` ended on an unstable rank after a stable k >= 2.
    If no rank qualifies the best-silhouette rank is returned with the
    fallback rule flagged; a single-candidate scan is flagged as forced.

    One rank's members are factorized by :func:`nmf_stack`, in stacks of at
    most ``_STACK_BYTES`` of matrix, each member with the bits it has alone.
    """
    n, m = x.values.shape
    if cfg.k_max > min(n, m):
        raise ValidationError(
            f"k_max={cfg.k_max} exceeds min(n={n}, m={m})")

    seeds = [cfg.base_seed + i for i in range(cfg.n_perturbations)]
    perturbed = np.stack([perturb(x, cfg.noise_epsilon, s).values for s in seeds])
    norms = [frobenius_norm(v) for v in perturbed]
    step = max(1, _STACK_BYTES // perturbed[0].nbytes)
    stats: list[RankStats] = []
    stable_above_one = False
    for k in range(cfg.k_min, cfg.k_max + 1):
        results = [fp for lo in range(0, len(seeds), step)
                   for fp in nmf_stack(perturbed[lo:lo + step], k, seeds[lo:lo + step], solver)]
        pairs = [(i, fp) for i, fp in enumerate(results) if isinstance(fp, FactorPair)]
        failed = cfg.n_perturbations - len(pairs)
        if len(pairs) < 2:
            raise DegenerateInputError(
                f"ensemble degenerate at k={k}: {len(pairs)} of "
                f"{cfg.n_perturbations} factorizations succeeded")
        if failed:
            logger.warning("k=%d: %d ensemble member(s) failed and were skipped",
                           k, failed)
        clusters = cluster_ensemble_signatures([fp.w for _, fp in pairs])
        min_sil, mean_sil = ensemble_stability(clusters)
        # The trace ends at the residual of the returned factors (see FactorPair).
        mean_err = float(np.mean([fp.objective_trace[-1] / norms[i] for i, fp in pairs]))
        stops = Counter(fp.stop for _, fp in pairs)
        stats.append(RankStats(k, min_sil, mean_sil, mean_err,
                               *(stops[r] for r in STOP_REASONS), failed))
        if min_sil >= cfg.silhouette_threshold:
            stable_above_one |= k >= 2
        elif stable_above_one:
            break

    for prev, cur in zip(stats, stats[1:]):
        if cur.mean_relative_error > prev.mean_relative_error * (1 + _ERROR_SLACK):
            logger.warning(
                "mean relative error rose from %.4g (k=%d) to %.4g (k=%d)",
                prev.mean_relative_error, prev.k, cur.mean_relative_error, cur.k)

    if cfg.k_min == cfg.k_max:
        return RankSelectionReport(tuple(stats), cfg.k_min, RULE_FORCED)
    qualifying = [s.k for s in stats if s.min_silhouette >= cfg.silhouette_threshold]
    if qualifying:
        return RankSelectionReport(tuple(stats), max(qualifying), RULE_THRESHOLD)
    best = max(stats, key=lambda s: (s.min_silhouette, -s.k))
    return RankSelectionReport(tuple(stats), best.k, RULE_FALLBACK)
