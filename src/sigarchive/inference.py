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

from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .archive import SignatureArchive
from .errors import SigArchiveError, ValidationError
from .linalg import (NNLS_STEP_LIMIT, FeatureMatrix, _combine, _fields_equal, _nnls_rows,
                     _rowdot)
from .linalg import nnls_solve  # noqa: F401  bench/spans.py traces inference.nnls_solve

_BLOCK = 1024   # samples per kernel call in classify_batch: bounds memory, moves no bit
_SCORE_TOLERANCE = 1e-9   # numeric slack below the threshold t
_ZERO_SAMPLE = "cannot score an all-zero sample"
_ROW_ERRORS = {_ZERO_SAMPLE: ValidationError, NNLS_STEP_LIMIT: SigArchiveError}


@dataclass(frozen=True)
class InferenceConfig:
    """Decision threshold ``t``: a sample is classified iff its score is at
    least ``t`` less the numeric slack ``_SCORE_TOLERANCE``."""

    t: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.t <= 1.0):
            raise ValidationError("threshold t must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class Predictions:
    """A batch's outcome as columns, one row per sample that scored.  Row
    ``i``'s bits depend on ``sample_ids[i]``'s column alone, so they are
    :func:`classify`'s one row for it; ``attributed[i]`` indexes
    ``archive.entries``, the entry with the largest coefficient (earliest on
    ties), whose label the sample gets where ``classified[i]``."""

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


def classify(sample, archive: SignatureArchive, cfg: InferenceConfig = InferenceConfig(), *,
             sample_id: str = "") -> Predictions:
    """Score one sample, a vector of the archive's feature count, as the
    batch of one: :func:`classify_batch`'s one-row :class:`Predictions`.

    Decisions are invariant under positive rescaling of the sample.  Raises
    the row's own error: ``ValidationError`` for an all-zero sample,
    ``SigArchiveError`` for a solve past the step limit.
    """
    samples = FeatureMatrix(np.expand_dims(sample, -1), (sample_id,))
    predictions, failures = classify_batch(samples, archive, cfg)
    if failures:
        raise _ROW_ERRORS[failures[0].message](failures[0].message)
    return predictions


def _classify_rows(sample_ids, rows: np.ndarray, archive: SignatureArchive, cfg: InferenceConfig):
    """:class:`Predictions`' columns, as a tuple, for the rows of the (m, n)
    ``rows`` that score, and ``(row, message)`` for each row that fails: an
    all-zero sample, or a solve past the step limit."""
    basis = archive.signature_matrix()
    x, stopped = _nnls_rows(basis, rows)
    scores = _cosines(rows, _combine(x, basis))
    ok = stopped & ~np.isnan(scores)
    errors = [(i, _ZERO_SAMPLE if stopped[i] else NNLS_STEP_LIMIT)
              for i in np.flatnonzero(~ok).tolist()]
    x, scores = x[ok], scores[ok]
    return (tuple(compress(sample_ids, ok.tolist())), scores, np.argmax(x, axis=1),
            scores >= cfg.t - _SCORE_TOLERANCE, x), errors


def classify_batch(
    samples: FeatureMatrix,
    archive: SignatureArchive,
    cfg: InferenceConfig = InferenceConfig(),
) -> tuple[Predictions, list[BatchFailure]]:
    """Classify every column of ``samples`` in order, into one :class:`Predictions`.

    The samples go ``_BLOCK`` at a time through one decision path, and each
    row's bits depend on its own column alone.  Per-sample errors (an
    all-zero sample, a solve past the step limit) are collected as
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
    blocks, failures = [], []
    for start in range(0, samples.n_samples, _BLOCK):
        ids = samples.sample_ids[start:start + _BLOCK]
        columns, errors = _classify_rows(ids, samples.values[:, start:start + _BLOCK].T,
                                         archive, cfg)
        blocks.append(columns)
        failures += [BatchFailure(start + i, ids[i], message) for i, message in errors]
    sample_ids, *arrays = zip(*blocks)
    return Predictions(tuple(chain(*sample_ids)), *map(np.concatenate, arrays)), failures
