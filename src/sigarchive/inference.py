"""Classification against a signature archive with a reject option.

A sample is projected onto the full set of archived signatures by
nonnegative least squares; the cosine similarity between the sample and its
reconstruction is the confidence score.  Samples scoring below the decision
threshold are rejected as unrecognized rather than forced into a class.
A batch finds its projections together, with the same bits as one
:func:`~sigarchive.linalg.nnls_solve` per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .archive import SignatureArchive
from .docio import DECISION_CLASSIFIED, DECISION_REJECTED
from .errors import SigArchiveError, ValidationError
from .linalg import (FeatureMatrix, _fields_equal, _fields_reduce, _nnls_batch,
                     _readonly_array, nnls_solve)


@dataclass(frozen=True)
class InferenceConfig:
    """Decision threshold ``t`` and the numeric slack applied below it."""

    t: float = 1.0
    score_tolerance: float = 1e-9

    def __post_init__(self):
        if not (0.0 <= self.t <= 1.0):
            raise ValidationError("threshold t must lie in [0, 1]")
        if not (self.score_tolerance >= 0 and math.isfinite(self.score_tolerance)):
            raise ValidationError("score_tolerance must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class Prediction:
    """Outcome of classifying one sample.

    ``label`` is present exactly when ``decision`` is ``classified``;
    ``attribution`` always names the archive path of the signature with the
    largest projection coefficient (earliest entry on ties).
    """

    sample_id: str
    decision: str
    label: str | None
    score: float
    attribution: str
    coefficients: np.ndarray

    def __post_init__(self):
        if self.decision not in (DECISION_CLASSIFIED, DECISION_REJECTED):
            raise ValidationError(f"unknown decision {self.decision!r}")
        if (self.label is not None) != (self.decision == DECISION_CLASSIFIED):
            raise ValidationError("label must be present iff the sample was classified")
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"score {self.score!r} outside [0, 1]")
        coeff = _readonly_array(self.coefficients)
        if coeff.ndim != 1 or (coeff < 0).any():
            raise ValidationError("coefficients must form a nonnegative vector")
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "score", float(self.score))

    __eq__ = _fields_equal
    __reduce__ = _fields_reduce


@dataclass(frozen=True)
class BatchFailure:
    """A sample skipped during batch classification, with the cause."""

    index: int
    sample_id: str
    message: str


def _check_sample(sample, n: int) -> np.ndarray:
    # fresh contiguous buffer: strided views of the same numbers must not
    # reach BLAS through different kernels and round differently
    vec = np.array(sample, dtype=np.float64)
    if vec.shape != (n,):
        raise ValidationError(
            f"sample has shape {vec.shape}, archive expects ({n},)")
    if not np.isfinite(vec).all():
        raise ValidationError("sample contains non-finite entries")
    if (vec < 0).any():
        raise ValidationError("sample contains negative entries")
    return vec


def project(sample, archive: SignatureArchive) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative projection of ``sample`` onto all archived signatures.

    Returns ``(coefficients, reconstruction)`` where ``reconstruction`` is
    the nonnegative combination of archive signatures closest to the sample
    in the least-squares sense.
    """
    if not archive.entries:
        raise ValidationError("archive has no entries to project onto")
    vec = _check_sample(sample, archive.n_features)
    basis = archive.signature_matrix()
    coefficients = nnls_solve(basis, vec)
    return coefficients, basis @ coefficients


def score(sample, reconstruction) -> float:
    """Cosine similarity between a sample and its reconstruction.

    A zero reconstruction scores 0; a zero sample is rejected as an error
    because its direction is undefined.
    """
    s = np.array(sample, dtype=np.float64)
    r = np.array(reconstruction, dtype=np.float64)
    if s.shape != r.shape:
        raise ValidationError(f"shape mismatch: {s.shape} vs {r.shape}")
    s_norm = float(np.linalg.norm(s))
    r_norm = float(np.linalg.norm(r))
    if s_norm == 0.0:
        raise ValidationError("cannot score an all-zero sample")
    if r_norm == 0.0:
        return 0.0
    value = float(s @ r) / (s_norm * r_norm)
    return min(max(value, 0.0), 1.0)


def classify(
    sample,
    archive: SignatureArchive,
    cfg: InferenceConfig = InferenceConfig(),
    *,
    sample_id: str = "",
) -> Prediction:
    """Score one sample and apply the reject-option decision rule.

    The sample is classified iff ``score >= cfg.t - cfg.score_tolerance``;
    its label is the label of the attributed signature.  Decisions are
    invariant under positive rescaling of the sample.
    """
    coefficients, reconstruction = project(sample, archive)
    return _decide(sample, coefficients, reconstruction, archive, cfg, sample_id)


def _decide(sample, coefficients: np.ndarray, reconstruction: np.ndarray,
            archive: SignatureArchive, cfg: InferenceConfig, sample_id: str) -> Prediction:
    value = score(sample, reconstruction)
    attributed = int(np.argmax(coefficients))
    accepted = value >= cfg.t - cfg.score_tolerance
    return Prediction(
        sample_id=sample_id,
        decision=DECISION_CLASSIFIED if accepted else DECISION_REJECTED,
        label=archive.entries[attributed].label if accepted else None,
        score=value,
        attribution=archive.entries[attributed].path,
        coefficients=coefficients,
    )


def classify_batch(
    samples: FeatureMatrix,
    archive: SignatureArchive,
    cfg: InferenceConfig = InferenceConfig(),
) -> tuple[list[Prediction], list[BatchFailure]]:
    """Classify every column of ``samples`` in order, as :func:`classify`
    would, one column at a time.

    The projections are found for the whole batch at once: the passive sets
    in one batched search, then each sample by the exact call ``nnls_solve``
    ends on.  A sample whose set is not certified, such as an all-zero one,
    goes through :func:`classify`.
    Per-sample errors (e.g. all-zero vectors) are collected as
    :class:`BatchFailure` records instead of aborting the batch.

    Raises ``ValidationError`` unless ``samples`` has the archive's feature
    count and, where it names its features, the archive's names in order.
    """
    if samples.n_features != archive.n_features:
        raise ValidationError(
            f"samples have {samples.n_features} features, archive expects "
            f"{archive.n_features}")
    if samples.feature_names not in (None, archive.feature_names):
        raise ValidationError("sample feature names differ from the archive's "
                              "(names or order)")
    basis = archive.signature_matrix()
    solved = (_nnls_batch(basis, samples.values) if archive.entries
              else [None] * samples.n_samples)
    predictions, failures = [], []
    for j, (sample_id, coefficients) in enumerate(zip(samples.sample_ids, solved)):
        sample = samples.values[:, j]
        try:
            predictions.append(
                classify(sample, archive, cfg, sample_id=sample_id) if coefficients is None
                else _decide(sample, coefficients, basis @ coefficients, archive, cfg,
                             sample_id))
        except SigArchiveError as exc:
            failures.append(BatchFailure(j, sample_id, str(exc)))
    return predictions, failures
