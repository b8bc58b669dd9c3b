"""Classification against a signature archive with a reject option.

A sample is projected onto the full set of archived signatures by
nonnegative least squares; the cosine similarity between the sample and its
reconstruction, clipped to [0, 1], is the confidence score.  A zero
reconstruction scores 0; an all-zero sample is an error, as its direction is
undefined.  Samples scoring below the decision threshold are rejected as
unrecognized rather than forced into a class.  A batch's outcome is one set
of columns (:class:`Predictions`), and :func:`classify` is the batch of one:
the same NNLS kernel and row-wise sums give a sample's score the same bits
alone as in any batch, whatever the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .archive import SignatureArchive
from .docio import DECISION_CLASSIFIED, DECISION_REJECTED
from .errors import SigArchiveError, ValidationError
from .linalg import (NNLS_STEP_LIMIT, FeatureMatrix, _combine, _fields_equal,
                     _fields_reduce, _nnls_rows, _readonly_array, _rowdot)
from .linalg import nnls_solve  # noqa: F401  bench/spans.py traces inference.nnls_solve

_BLOCK = 1024   # samples per kernel call in classify_batch: bounds memory, moves no bit
_ZERO_SAMPLE = "cannot score an all-zero sample"


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


@dataclass(frozen=True, eq=False)
class Predictions:
    """A batch's outcome as columns, one row per sample that scored.  Row ``i``
    is what :func:`classify` returns for ``sample_ids[i]``, with the same
    bits; ``attributed[i]`` indexes ``archive.entries``."""

    sample_ids: tuple[str, ...]
    scores: np.ndarray
    attributed: np.ndarray
    classified: np.ndarray
    coefficients: np.ndarray

    __eq__ = _fields_equal


@dataclass(frozen=True)
class BatchFailure:
    """A sample skipped during batch classification, with the cause."""

    index: int
    sample_id: str
    message: str


def _check_sample(sample, n: int) -> np.ndarray:
    vec = np.array(sample, dtype=np.float64)
    if vec.shape != (n,):
        raise ValidationError(
            f"sample has shape {vec.shape}, archive expects ({n},)")
    if not np.isfinite(vec).all():
        raise ValidationError("sample contains non-finite entries")
    if (vec < 0).any():
        raise ValidationError("sample contains negative entries")
    return vec


def _cosines(s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Cosine of each row of ``s`` with the same row of ``r``, clipped to
    [0, 1]: 0 where ``r`` is zero, NaN where ``s`` is zero.  Every row's
    bits depend on that row alone."""
    s_norm, r_norm = np.sqrt(_rowdot(s, s)), np.sqrt(_rowdot(r, r))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.clip(_rowdot(s, r) / (s_norm * r_norm), 0.0, 1.0)
    value[r_norm == 0] = 0.0
    value[s_norm == 0] = np.nan
    return value


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
    columns, errors = _classify_rows((sample_id,), _check_sample(sample, archive.n_features)[None],
                                     archive, cfg)
    if errors:
        raise errors[0][1]
    _, (score,), (attributed,), (accept,), (coefficients,) = columns
    entry = archive.entries[attributed]
    return Prediction(sample_id, DECISION_CLASSIFIED if accept else DECISION_REJECTED,
                      entry.label if accept else None, score, entry.path, coefficients)


def _classify_rows(sample_ids, rows: np.ndarray, archive: SignatureArchive, cfg: InferenceConfig):
    """:class:`Predictions`' columns, as a tuple, for the rows of the (m, n)
    ``rows`` that score, and ``(row, error)`` for each row that fails: an
    all-zero sample, or a solve past the step limit."""
    basis = archive.signature_matrix()
    x, stopped = _nnls_rows(basis, rows)
    scores = _cosines(rows, _combine(x, basis))
    ok = stopped & ~np.isnan(scores)
    errors = [(i, ValidationError(_ZERO_SAMPLE) if stopped[i] else
               SigArchiveError(NNLS_STEP_LIMIT)) for i in np.flatnonzero(~ok).tolist()]
    x, scores = x[ok], scores[ok]
    return (tuple(compress(sample_ids, ok.tolist())), scores, np.argmax(x, axis=1),
            scores >= cfg.t - cfg.score_tolerance, x), errors


def classify_batch(
    samples: FeatureMatrix,
    archive: SignatureArchive,
    cfg: InferenceConfig = InferenceConfig(),
) -> tuple[Predictions, list[BatchFailure]]:
    """Classify every column of ``samples`` in order, as :func:`classify`
    would, one column at a time, with the same bits.

    The samples go ``_BLOCK`` at a time through the decision path that
    :func:`classify` runs on one, into one :class:`Predictions`.  Per-sample
    errors (an all-zero sample, a solve past the step limit) are collected
    as :class:`BatchFailure` records instead of aborting the batch.

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
    blocks, failures = [], []
    for start in range(0, samples.n_samples, _BLOCK):
        ids = samples.sample_ids[start:start + _BLOCK]
        columns, errors = _classify_rows(ids, samples.values[:, start:start + _BLOCK].T,
                                         archive, cfg)
        blocks.append(columns)
        failures += [BatchFailure(start + i, ids[i], str(exc)) for i, exc in errors]
    sample_ids, *arrays = zip(*blocks)
    return Predictions(tuple(chain(*sample_ids)), *map(np.concatenate, arrays)), failures
