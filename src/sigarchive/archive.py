"""Hierarchical construction of labeled signature archives.

Each node of the hierarchy runs rank selection on its submatrix (a
label-uniform node takes rank 1 without one), factorizes at the chosen rank,
and groups samples by their dominant latent signature.  Label-uniform groups
are archived as one signature each; mixed groups are factorized again one
level deeper.  Samples that can never be archived are returned in an explicit
unresolved bucket, so every training sample is accounted for exactly once.
"""

from __future__ import annotations

import logging
import math
import os
import signal
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import docio
from .dataio import NormalizationParams
from .errors import (
    ArchiveFormatError,
    DegenerateBuildError,
    SigArchiveError,
    ValidationError,
)
from .linalg import (FactorPair, FeatureMatrix, _fields_equal, _fields_reduce,
                     _readonly_array, nmf_factorize, unit_columns)
from .rank import EnsembleConfig, RankSelectionReport, RankStats, select_rank
from .seeding import node_seed

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
ROOT_PATH = "root"

_NODE_K_CAP = 16  # hard ceiling on per-node rank scans

REASON_NODE_TOO_SMALL = "node-below-min-cluster-size"
REASON_MAX_DEPTH = "max-depth-reached"
REASON_ZERO_ACTIVITY = "zero-activity-column"
REASON_SMALL_UNIFORM = "uniform-cluster-below-min-size"
REASON_NOT_SEPARABLE = "cluster-not-separable"
REASON_DEGENERATE = "factorization-degenerate"


@dataclass(frozen=True)
class BuildConfig:
    """Archive-construction settings."""

    ensemble: EnsembleConfig
    purity_threshold: float = 1.0
    min_cluster_size: int = 10
    max_depth: int = 8
    seed: int = 0

    def __post_init__(self):
        if not (0.5 < self.purity_threshold <= 1.0):
            raise ValidationError("purity_threshold must lie in (0.5, 1]")
        if self.min_cluster_size < 1:
            raise ValidationError("min_cluster_size must be >= 1")
        if self.max_depth < 0:
            raise ValidationError("max_depth must be >= 0")

    def to_snapshot(self) -> dict:
        return {
            "purity_threshold": float(self.purity_threshold),
            "min_cluster_size": int(self.min_cluster_size),
            "max_depth": int(self.max_depth),
            "seed": int(self.seed),
            "ensemble": {
                "k_min": int(self.ensemble.k_min),
                "k_max": int(self.ensemble.k_max),
                "n_perturbations": int(self.ensemble.n_perturbations),
                "noise_epsilon": float(self.ensemble.noise_epsilon),
                "silhouette_threshold": float(self.ensemble.silhouette_threshold),
                "base_seed": int(self.ensemble.base_seed),
            },
        }


@dataclass(frozen=True, eq=False)
class ArchiveEntry:
    """One archived latent signature with its label and provenance."""

    signature: np.ndarray
    label: str
    purity: float
    support: int
    path: str
    depth: int

    def __post_init__(self):
        sig = _readonly_array(self.signature)
        if sig.ndim != 1 or sig.size < 1:
            raise ValidationError("signature must be a nonempty 1-d vector")
        if not np.isfinite(sig).all() or (sig < 0).any():
            raise ValidationError("signature entries must be finite and >= 0")
        norm = float(np.linalg.norm(sig))
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"signature norm {norm!r} is not 1 within 1e-9")
        if not (0.0 <= self.purity <= 1.0):
            raise ValidationError("purity must lie in [0, 1]")
        if self.support < 1:
            raise ValidationError("support must be >= 1")
        if self.depth < 0:
            raise ValidationError("depth must be >= 0")
        if not self.label:
            raise ValidationError("label must be a nonempty string")
        object.__setattr__(self, "signature", sig)
        object.__setattr__(self, "purity", float(self.purity))
        object.__setattr__(self, "support", int(self.support))
        object.__setattr__(self, "depth", int(self.depth))

    __eq__ = _fields_equal
    __reduce__ = _fields_reduce


@dataclass(frozen=True)
class UnresolvedGroup:
    path: str
    sample_ids: tuple[str, ...]
    reason: str


@dataclass(frozen=True, eq=False)
class SignatureArchive:
    """Ordered collection of archived signatures plus build provenance."""

    entries: tuple[ArchiveEntry, ...]
    feature_names: tuple[str, ...]
    build_config: dict
    unresolved: tuple[UnresolvedGroup, ...] = ()
    _basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        names = tuple(str(f) for f in self.feature_names)
        n = len(names)
        if n < 1:
            raise ValidationError("archive needs at least one feature name")
        for e in entries:
            if e.signature.shape != (n,):
                raise ValidationError(
                    f"entry {e.path!r} has {e.signature.shape[0]} features, archive has {n}")
        paths = [e.path for e in entries]
        if len(set(paths)) != len(paths):
            raise ValidationError("entry paths must be unique")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "unresolved", tuple(self.unresolved))
        basis = (np.column_stack([e.signature for e in entries]) if entries
                 else np.empty((n, 0)))
        basis.setflags(write=False)
        object.__setattr__(self, "_basis", basis)

    __eq__ = _fields_equal
    __reduce__ = _fields_reduce

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def signature_matrix(self) -> np.ndarray:
        """Signatures stacked as columns, in archive order (read-only)."""
        return self._basis

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)


@dataclass(frozen=True)
class ClusterReport:
    index: int
    size: int
    majority_label: str | None
    purity: float | None
    outcome: str


@dataclass(frozen=True)
class NodeReport:
    path: str
    depth: int
    size: int
    selected_k: int | None
    selection_rule: str
    per_k: tuple[RankStats, ...] | None
    clusters: tuple[ClusterReport, ...]


@dataclass(frozen=True)
class BuildReport:
    """Per-node record of every decision taken during construction."""

    nodes: tuple[NodeReport, ...]
    n_samples: int
    n_archived: int
    n_unresolved: int

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n_samples": self.n_samples,
            "n_archived": self.n_archived,
            "n_unresolved": self.n_unresolved,
            "nodes": [
                {
                    **vars(nd),
                    "per_k": None if nd.per_k is None else [
                        {
                            "k": s.k,
                            "min_silhouette": float(s.min_silhouette),
                            "mean_silhouette": float(s.mean_silhouette),
                            "mean_relative_error": float(s.mean_relative_error),
                            "members": {
                                "converged": s.members_converged,
                                "capped": s.members_capped,
                                "uphill": s.members_uphill,
                                "failed": s.members_failed,
                            },
                        }
                        for s in nd.per_k
                    ],
                    "clusters": [asdict(c) for c in nd.clusters],
                }
                for nd in self.nodes
            ],
        }


@dataclass(frozen=True)
class UniformityResult:
    uniform: bool
    majority_label: str
    purity: float


def uniformity(labels: Sequence[str], threshold: float) -> UniformityResult:
    """Majority label and purity of a group; ties go to the smallest label."""
    items = list(labels)
    if not items:
        raise ValidationError("cannot assess uniformity of an empty group")
    counts = Counter(items)
    top = max(counts.values())
    majority = min(lbl for lbl, c in counts.items() if c == top)
    purity = top / len(items)
    return UniformityResult(purity >= threshold, majority, purity)


def normalize_factor_pair(pair: FactorPair) -> FactorPair:
    """Rescale each signature column to unit norm, compensating in ``h``.

    The product ``w @ h`` is unchanged; all-zero columns are left as is.
    """
    w, divisors = unit_columns(pair.w)
    return replace(pair, w=w, h=pair.h * divisors[:, None])


def assign_clusters(pair: FactorPair) -> np.ndarray:
    """Dominant-signature index per sample, after column normalization.

    Returns an int array with one entry per sample: the row of the rescaled
    mixing matrix with the largest activity (lowest index on ties), or -1
    for samples whose activities are all exactly zero.
    """
    return _dominant_rows(normalize_factor_pair(pair).h)


def _dominant_rows(h: np.ndarray) -> np.ndarray:
    assignment = np.argmax(h, axis=0).astype(np.int64)
    assignment[h.max(axis=0) == 0.0] = -1
    return assignment


def build_archive(
    x: FeatureMatrix,
    labels: Sequence[str],
    cfg: BuildConfig,
    *,
    workers: int = 1,
) -> tuple[SignatureArchive, BuildReport]:
    """Build a labeled signature archive from training data.

    ``workers`` above 1 runs the ensemble members of every rank scan in one
    forked pool of ``min(workers, usable CPUs, members per rank)`` processes,
    stopped however the build ends; no output depends on it.

    Raises
    ------
    ValidationError
        If ``labels`` does not align with the columns of ``x``.
    DegenerateBuildError
        If construction ends with zero archived signatures.
    """
    all_labels = tuple(str(v) for v in labels)
    if len(all_labels) != x.n_samples:
        raise ValidationError(
            f"got {len(all_labels)} labels for {x.n_samples} samples")
    if any(not v for v in all_labels):
        raise ValidationError("labels must be nonempty strings")

    entries: list[ArchiveEntry] = []
    unresolved: list[UnresolvedGroup] = []
    node_reports: list[NodeReport] = []
    pool = None

    def members_mapper():
        nonlocal pool
        # A scan queues one rank's members at a time, so more workers would idle.
        if (pool is None and workers > 1 and (n := min(
                workers, len(os.sched_getaffinity(0)), cfg.ensemble.n_perturbations)) > 1):
            import multiprocessing  # ~15 ms, paid only by builds that fork
            # The workers ignore SIGINT: an interrupt stops the build, which stops them.
            pool = multiprocessing.get_context("fork").Pool(
                n, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
        return map if pool is None else pool.imap

    def park(indices: np.ndarray, path: str, reason: str) -> None:
        ids = tuple(x.sample_ids[i] for i in indices)
        unresolved.append(UnresolvedGroup(path, ids, reason))

    def visit(indices: np.ndarray, path: str, depth: int) -> None:
        size = len(indices)
        node_labels = [all_labels[i] for i in indices]

        def stop(reason: str) -> None:
            park(indices, path, reason)
            node_reports.append(NodeReport(path, depth, size, None,
                                           "stopped:" + reason, None, ()))

        if size < cfg.min_cluster_size:
            return stop(REASON_NODE_TOO_SMALL)

        sub = x.select_samples(indices)
        seed = node_seed(cfg.seed, path)

        if len(set(node_labels)) == 1:
            # a pure node needs no rank scan: it is the k = 1 node
            ens, k, rule, per_k = None, 1, "single-label", None
        elif depth >= cfg.max_depth:
            return stop(REASON_MAX_DEPTH)
        else:
            k_max = min(cfg.ensemble.k_max, x.n_features, size - 1, _NODE_K_CAP)
            k_min = min(cfg.ensemble.k_min, k_max)
            ens = replace(cfg.ensemble, k_min=k_min, k_max=k_max, base_seed=seed)
        try:
            if ens is not None:
                report = select_rank(sub, ens, mapper=members_mapper())
                k, rule, per_k = report.selected_k, report.selection_rule_fired, report.per_k
            pair = normalize_factor_pair(nmf_factorize(sub, k, seed))
        except SigArchiveError:
            return stop(REASON_DEGENERATE)

        assignment = _dominant_rows(pair.h)  # pair is normalized already
        cluster_reports: list[ClusterReport] = []
        recursions: list[tuple[np.ndarray, str]] = []

        orphans = indices[assignment == -1]
        if len(orphans):
            park(orphans, path, REASON_ZERO_ACTIVITY)

        for c in range(k):
            members = indices[assignment == c]
            cpath = f"{path}/k{k}/c{c}"
            if len(members) == 0:
                cluster_reports.append(ClusterReport(c, 0, None, None, "empty"))
                continue
            verdict = uniformity([all_labels[i] for i in members], cfg.purity_threshold)
            if verdict.uniform and len(members) >= cfg.min_cluster_size:
                entries.append(ArchiveEntry(pair.w[:, c], verdict.majority_label,
                                            verdict.purity, len(members), cpath, depth))
                outcome = "archived"
            elif verdict.uniform:
                park(members, cpath, REASON_SMALL_UNIFORM)
                outcome = "unresolved:" + REASON_SMALL_UNIFORM
            elif len(members) == size:
                # Factorization failed to split the node; recursing would loop.
                park(members, cpath, REASON_NOT_SEPARABLE)
                outcome = "unresolved:" + REASON_NOT_SEPARABLE
            else:
                recursions.append((members, cpath))
                outcome = "recursed"
            cluster_reports.append(ClusterReport(c, len(members), verdict.majority_label,
                                                 verdict.purity, outcome))

        node_reports.append(NodeReport(path, depth, size, k, rule, per_k,
                                       tuple(cluster_reports)))
        for members, cpath in recursions:
            visit(members, cpath, depth + 1)

    try:
        visit(np.arange(x.n_samples), ROOT_PATH, 0)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    if not entries:
        raise DegenerateBuildError(
            "no signature could be archived; every sample is unresolved")

    archived = sum(e.support for e in entries)
    parked = sum(len(u.sample_ids) for u in unresolved)
    if archived + parked != x.n_samples:
        raise SigArchiveError(
            f"sample conservation violated: {archived} archived + {parked} "
            f"unresolved != {x.n_samples}")

    archive = SignatureArchive(tuple(entries), x.names,
                               cfg.to_snapshot(), tuple(unresolved))
    report = BuildReport(tuple(node_reports), x.n_samples, archived, parked)
    return archive, report


def save_archive(archive: SignatureArchive, path) -> None:
    """Write ``archive`` as a self-describing text document."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "feature_names": list(archive.feature_names),
        "build_config": archive.build_config,
        "entries": [
            {
                "path": e.path,
                "label": e.label,
                "purity": float(e.purity),
                "support": int(e.support),
                "depth": int(e.depth),
                "signature": [float(v) for v in e.signature],
            }
            for e in archive.entries
        ],
        "unresolved": [asdict(u) for u in archive.unresolved],
    }
    docio.write_document(doc, path)


def load_archive(path) -> SignatureArchive:
    """Read an archive document, verifying its schema version, structure and
    normalization parameters."""
    doc = docio.read_document(path)
    if not isinstance(doc, dict):
        raise ArchiveFormatError("archive document must be a mapping")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArchiveFormatError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    try:
        entries = tuple(
            ArchiveEntry(
                signature=np.array(e["signature"], dtype=np.float64),
                label=str(e["label"]),
                purity=float(e["purity"]),
                support=int(e["support"]),
                path=str(e["path"]),
                depth=int(e["depth"]),
            )
            for e in doc["entries"]
        )
        unresolved = tuple(
            UnresolvedGroup(str(u["path"]), tuple(str(s) for s in u["sample_ids"]),
                            str(u["reason"]))
            for u in doc["unresolved"]
        )
        archive = SignatureArchive(
            entries=entries,
            feature_names=tuple(str(f) for f in doc["feature_names"]),
            build_config=doc["build_config"],
            unresolved=unresolved,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ArchiveFormatError):
            raise
        raise ArchiveFormatError(f"malformed archive document: {exc}") from exc
    if not isinstance(archive.build_config, dict):
        raise ArchiveFormatError("archive build_config must be a mapping")
    if archive.build_config.get("normalization") is not None:
        NormalizationParams.from_snapshot(archive.build_config["normalization"])
    return archive
