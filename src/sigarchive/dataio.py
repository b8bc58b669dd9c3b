"""Dataset loading, normalization, splitting, and synthetic generation.

The on-disk layout is two CSV files: a feature table whose header row names
the samples and whose first column names the features, and a label table
with one ``sample_id,label`` row per sample.  Saving is canonical (floats at
17 significant digits, newline-terminated rows), so a load/save cycle of a
canonical file is byte-identical.  A plain feature table (no quote, CR
or empty line, ASCII ``0-9.eE+-`` data cells, all finite and >= 0, rows at
the header's width) is read by numpy's C reader, which converts as
``float()`` does; any other by ``csv.reader`` and ``float()``, which name
its first bad cell.  Both give the same values and messages.  A plain body
is cut at line starts into one byte range per whole MiB, one per usable CPU at
most; forked readers read two or more, joined in file order, with the same bits.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .docio import (MODE_NONE, MODE_PER_FEATURE_MAX, _rows, format_float, read_table,
                    same_ids, write_rows)
from .errors import ArchiveFormatError, DegenerateInputError, ValidationError
from .forks import fork_map
from .linalg import FeatureMatrix, _fields_equal
from .seeding import STREAM_SPLIT, STREAM_SYNTH, generator

_FEATURE_CORNER = "feature"
_LABEL_HEADER = ("sample_id", "label")
_RANGE_BYTES = 1 << 20  # a plain table's body is read in one byte range per whole one


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix plus one class label per sample."""

    features: FeatureMatrix
    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(v) for v in self.labels)
        if len(labels) != self.features.n_samples:
            raise ValidationError(
                f"got {len(labels)} labels for {self.features.n_samples} samples")
        if any(not v for v in labels):
            raise ValidationError("labels must be nonempty strings")
        object.__setattr__(self, "labels", labels)

    __eq__ = _fields_equal

    @property
    def label_set(self) -> tuple[str, ...]:
        """Distinct labels in sorted order."""
        return tuple(sorted(set(self.labels)))

    def select(self, indices: Sequence[int]) -> "LabeledDataset":
        idx = list(indices)
        return LabeledDataset(self.features.select_samples(idx),
                              tuple(self.labels[i] for i in idx))


def _feature_row(path, name: str, cells: list[str], sample_ids) -> np.ndarray:
    """One feature row as floats; a bad row has its first bad cell named."""
    try:
        row = np.fromiter(map(float, cells), np.float64, len(cells))
        if 0 <= row.min() <= row.max() < math.inf:
            return row
    except ValueError:
        pass
    for sid, cell in zip(sample_ids, cells):  # raises at the first bad cell
        try:
            value = float(cell)
        except ValueError:
            raise ValidationError(
                f"{path}: cell (feature {name!r}, sample {sid!r}) "
                f"is not a number: {cell!r}") from None
        if not 0 <= value < math.inf:
            raise ValidationError(
                f"{path}: cell (feature {name!r}, sample {sid!r}) "
                f"must be finite and >= 0, got {cell!r}")


def _plain_line(line: bytes) -> bool:
    """Whether ``csv.reader`` splits a line at every comma and nowhere else."""
    limit, start, end = csv.field_size_limit(), 0, len(line) - line.endswith(b"\n")
    while end - start > limit:  # a field longer than the csv field limit is an error
        start = line.rfind(b",", start, start + limit + 1) + 1
        if not start:
            return False
    return b'"' not in line and b"\r" not in line


def _plain_range(path, width: int, start: int, end: int) -> tuple | None:
    """Names and values of the lines in bytes ``[start, end)`` of ``path``, line start to
    line start, if each is plain and holds ``width`` finite values >= 0; else None."""
    names = []

    def data_lines(fh):
        while fh.tell() < end:
            name, _, data = (line := fh.readline()).partition(b",")
            if not (_plain_line(line) and data.strip(b"\n")) or data.translate(
                    None, b"0123456789.eE+-,\n"):
                raise ValueError("not a plain line")
            names.append(name.decode())
            yield data

    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            values = np.loadtxt(data_lines(fh), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a UnicodeDecodeError is a ValueError
        return None
    plain = values.shape == (len(names), width) and 0 <= values.min() <= values.max() < math.inf
    return (names, values) if plain else None


def _plain_features(path) -> tuple | None:
    """Values, sample ids and names of a plain table read by numpy's C reader, else None."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            if not (_plain_line(header) and fh.peek(1)):
                return None
            sample_ids = header.rstrip(b"\n").decode().split(",")[1:]
            start, size = fh.tell(), os.fstat(fh.fileno()).st_size
            n = min((size - start) // _RANGE_BYTES, len(os.sched_getaffinity(0)))
            cuts = [start]
            for i in range(1, n):  # the first line start at or after each 1/n of the body
                fh.seek(start + i * (size - start) // n - 1)
                fh.readline()
                cuts.append(fh.tell())
        jobs = [(path, len(sample_ids), a, b) for a, b in zip(cuts, [*cuts[1:], size]) if a < b]
        pieces = (fork_map(_plain_range, jobs, len(jobs), f"{path}: a reader ended without "
                           "its result") if len(jobs) > 1 else [_plain_range(*jobs[0])])
    except (OSError, ValueError):
        return None
    if None in pieces:
        return None
    values = np.concatenate([v for _, v in pieces]) if len(pieces) > 1 else pieces[0][1]
    return values, sample_ids, [name for names, _ in pieces for name in names]


def load_features_csv(path) -> FeatureMatrix:
    """Read a feature table: header row of sample ids, feature rows below."""
    if (plain := _plain_features(path)) is not None:
        values, sample_ids, names = plain
    else:
        rows = _rows(path)
        _, header = next(rows, (1, []))
        if len(header) < 2:
            raise ValidationError(f"{path}: expected a header row with at least one sample id")
        sample_ids = tuple(header[1:])
        body = [(name, _feature_row(path, name, cells, sample_ids)) for _, (name, *cells) in rows]
        if not body:
            raise ValidationError(f"{path}: no feature rows found")
        names, values = zip(*body)
    for kind, items in (("sample id", sample_ids), ("feature name", names)):
        first = {}  # item -> index of its first occurrence
        for i, item in enumerate(items):
            if first.setdefault(item, i) != i:
                raise ValidationError(f"{path}: {kind}s must be unique; {item!r} repeats")
    return FeatureMatrix(values, sample_ids, names)


def load_labels_csv(path) -> dict[str, str]:
    """Read a ``sample_id,label`` table into an ordered mapping."""
    return {sid: label for sid, (_, label) in read_table(path, _LABEL_HEADER).items()}


def load_csv(features_path, labels_path) -> LabeledDataset:
    """Load a dataset, requiring the two files to cover identical sample ids."""
    features = load_features_csv(features_path)
    labels = load_labels_csv(labels_path)
    same_ids(dict.fromkeys(features.sample_ids), labels, features_path, labels_path)
    return LabeledDataset(features, tuple(labels[s] for s in features.sample_ids))


def save_features_csv(features: FeatureMatrix, path) -> None:
    rows = [[_FEATURE_CORNER, *features.sample_ids]]
    for i, name in enumerate(features.names):
        rows.append([name, *(format_float(v) for v in features.values[i])])
    write_rows(path, rows)


def save_labels_csv(dataset: LabeledDataset, path) -> None:
    write_rows(path, [_LABEL_HEADER, *zip(dataset.features.sample_ids, dataset.labels)])


def save_csv(dataset: LabeledDataset, features_path, labels_path) -> None:
    save_features_csv(dataset.features, features_path)
    save_labels_csv(dataset, labels_path)


@dataclass(frozen=True)
class NormalizationParams:
    """Feature scaling fitted on training data, reusable on test data."""

    mode: str
    feature_names: tuple[str, ...]
    maxima: tuple[float, ...] | None
    dropped_features: tuple[str, ...]

    def to_snapshot(self) -> dict:
        return {
            "mode": self.mode,
            "feature_names": list(self.feature_names),
            "maxima": None if self.maxima is None else [float(v) for v in self.maxima],
            "dropped_features": list(self.dropped_features),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "NormalizationParams":
        """Parse and check a :meth:`to_snapshot` document.

        Raises ``ArchiveFormatError`` unless the mode is known, ``maxima``
        is null exactly for mode ``none`` and otherwise holds one positive
        finite divisor per kept feature, and every dropped feature is named.
        """
        try:
            maxima = snapshot["maxima"]
            params = cls(
                mode=str(snapshot["mode"]),
                feature_names=tuple(str(f) for f in snapshot["feature_names"]),
                maxima=None if maxima is None else tuple(float(v) for v in maxima),
                dropped_features=tuple(str(f) for f in snapshot["dropped_features"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ArchiveFormatError(f"malformed normalization parameters: {exc}") from exc
        dropped = set(params.dropped_features)
        n_kept = sum(1 for n in params.feature_names if n not in dropped)
        if params.mode == MODE_NONE:
            valid = params.maxima is None
        else:
            valid = (params.mode == MODE_PER_FEATURE_MAX and params.maxima is not None
                     and len(params.maxima) == n_kept
                     and all(v > 0 and math.isfinite(v) for v in params.maxima))
        if not (valid and dropped <= set(params.feature_names)):
            raise ArchiveFormatError(
                f"malformed normalization parameters: mode {params.mode!r}, "
                f"{len(params.feature_names)} features, {len(dropped)} dropped, "
                f"{'no' if params.maxima is None else len(params.maxima)} maxima")
        return params


def normalize(dataset: LabeledDataset, mode: str = MODE_PER_FEATURE_MAX,
              ) -> tuple[LabeledDataset, NormalizationParams]:
    """Scale features and return the parameters needed to repeat the scaling.

    ``per_feature_max`` divides each feature row by its training maximum;
    rows whose maximum is zero are dropped and recorded.  ``none`` is the
    identity.
    """
    features = dataset.features
    names = features.names
    if mode == MODE_NONE:
        params = NormalizationParams(MODE_NONE, names, None, ())
        return dataset, params
    if mode != MODE_PER_FEATURE_MAX:
        raise ValidationError(f"unknown normalization mode {mode!r}")

    maxima = features.values.max(axis=1)
    keep = maxima > 0
    dropped = tuple(n for n, k in zip(names, keep) if not k)
    if not keep.any():
        raise DegenerateInputError("every feature is zero; nothing to normalize")
    if dropped:
        import logging  # loaded only where a warning is logged: classify never logs
        logging.getLogger(__name__).warning(
            "dropping %d all-zero feature(s): %s", len(dropped),
            ", ".join(dropped[:5]) + ("..." if len(dropped) > 5 else ""))
    params = NormalizationParams(
        MODE_PER_FEATURE_MAX,
        names,
        tuple(float(v) for v in maxima[keep]),
        dropped,
    )
    return LabeledDataset(apply_normalization(features, params), dataset.labels), params


def apply_normalization(features: FeatureMatrix, params: NormalizationParams) -> FeatureMatrix:
    """Apply training-time scaling to new data with the same feature layout."""
    if features.feature_names is not None and features.feature_names != params.feature_names:
        raise ValidationError(
            "feature names do not match the normalization parameters")
    if features.n_features != len(params.feature_names):
        raise ValidationError(
            f"data has {features.n_features} features, parameters describe "
            f"{len(params.feature_names)}")
    if params.mode == MODE_NONE:
        return features
    dropped = set(params.dropped_features)
    keep = [i for i, n in enumerate(params.feature_names) if n not in dropped]
    kept_names = tuple(params.feature_names[i] for i in keep)
    values = features.values[keep, :] / np.array(params.maxima)[:, None]
    return FeatureMatrix(values, features.sample_ids, kept_names)


@dataclass(frozen=True)
class SplitResult:
    """Holdout split: the train side never contains the holdout class."""

    train: LabeledDataset
    test: LabeledDataset
    novel_flags: tuple[bool, ...]


def split_holdout(dataset: LabeledDataset, holdout_class: str,
                  test_fraction: float, seed: int) -> SplitResult:
    """Remove one class entirely and carve a stratified test set.

    Every holdout-class sample goes to the test side (flagged novel), along
    with ``floor(test_fraction * class size)`` samples of each remaining
    class.  Sample order within each side follows the input dataset.
    """
    if holdout_class not in dataset.label_set:
        raise ValidationError(f"holdout class {holdout_class!r} not present in dataset")
    if not (0.0 < test_fraction < 1.0):
        raise ValidationError("test_fraction must lie strictly between 0 and 1")

    rng = generator(seed, STREAM_SPLIT)
    labels = dataset.labels
    test_idx = set()
    for cls in dataset.label_set:
        members = [i for i, lbl in enumerate(labels) if lbl == cls]
        if cls == holdout_class:
            test_idx.update(members)
            continue
        n_test = int(test_fraction * len(members))
        order = rng.permutation(len(members))
        test_idx.update(members[j] for j in order[:n_test])

    train_indices = [i for i, lbl in enumerate(labels)
                     if lbl != holdout_class and i not in test_idx]
    test_indices = sorted(test_idx)
    if not train_indices:
        raise DegenerateInputError("split left the training side empty")
    emptied = [cls for cls in dataset.label_set
               if cls != holdout_class
               and not any(labels[i] == cls for i in train_indices)]
    if emptied:
        raise DegenerateInputError(f"split emptied training class(es): {emptied}")

    return SplitResult(
        train=dataset.select(train_indices),
        test=dataset.select(test_indices),
        novel_flags=tuple(labels[i] == holdout_class for i in test_indices),
    )


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic dataset with known latent signatures."""

    n_features: int
    n_classes: int
    samples_per_class: int
    signature_overlap: float = 0.0
    noise_sigma: float = 0.0
    holdout_class: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_features < 1 or self.n_classes < 1 or self.samples_per_class < 1:
            raise ValidationError("n_features, n_classes, samples_per_class must be >= 1")
        if not (0.0 <= self.signature_overlap < 1.0):
            raise ValidationError("signature_overlap must lie in [0, 1)")
        if not (self.noise_sigma >= 0.0 and math.isfinite(self.noise_sigma)):
            raise ValidationError("noise_sigma must be finite and >= 0")
        if (self.holdout_class is not None
                and self.holdout_class not in self.class_labels):
            raise ValidationError(
                f"holdout_class {self.holdout_class!r} is not one of the "
                f"generated labels {self.class_labels}")

    @property
    def class_labels(self) -> tuple[str, ...]:
        return tuple(f"class{c}" for c in range(self.n_classes))


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Generating signatures and per-sample mixing weights of a synthetic set."""

    signatures: np.ndarray
    mixing: np.ndarray
    class_labels: tuple[str, ...]
    holdout_class: str | None

    __eq__ = _fields_equal

    def to_document(self) -> dict:
        return {
            "schema_version": 1,
            "class_labels": list(self.class_labels),
            "holdout_class": self.holdout_class,
            "signatures": {
                label: [float(v) for v in self.signatures[:, c]]
                for c, label in enumerate(self.class_labels)
            },
            "mixing": [[float(v) for v in row] for row in self.mixing],
        }


_MAX_BLEED_HALVINGS = 200


def generate_synthetic(spec: SynthSpec) -> tuple[LabeledDataset, GroundTruth]:
    """Draw a dataset of noisy positive multiples of per-class signatures.

    Signatures are unit vectors on disjoint feature blocks; with a positive
    ``signature_overlap`` a shared bleed component is added and scaled down
    until every pairwise cosine is at or below the requested overlap.  Each
    sample is its class signature times an amplitude drawn from U[0.75, 1.5),
    plus Gaussian noise truncated at zero.  Bit-for-bit deterministic for a
    given spec.
    """
    n, c_count = spec.n_features, spec.n_classes
    if n < c_count:
        raise DegenerateInputError(
            f"cannot give {c_count} classes disjoint support on {n} features")
    if n < 2 * c_count:
        import logging
        logging.getLogger(__name__).warning(
            "only %d features for %d classes; signatures will be thin", n, c_count)

    rng = generator(spec.seed, STREAM_SYNTH)
    block_sizes = [n // c_count + (1 if c < n % c_count else 0) for c in range(c_count)]
    bounds = np.concatenate([[0], np.cumsum(block_sizes)])
    block_values = rng.uniform(0.5, 1.0, size=n)

    base = np.zeros((n, c_count))
    for c in range(c_count):
        lo, hi = bounds[c], bounds[c + 1]
        base[lo:hi, c] = block_values[lo:hi]

    if spec.signature_overlap > 0:
        bleed = rng.uniform(0.25, 0.75, size=(n, c_count))
        beta = spec.signature_overlap
        for _ in range(_MAX_BLEED_HALVINGS):
            sigs = base + beta * bleed
            sigs = sigs / np.linalg.norm(sigs, axis=0)
            gram = sigs.T @ sigs
            off_diag = gram[~np.eye(c_count, dtype=bool)]
            if c_count == 1 or off_diag.max() <= spec.signature_overlap:
                break
            beta *= 0.5
        else:
            raise DegenerateInputError("could not satisfy the overlap bound")
    else:
        sigs = base / np.linalg.norm(base, axis=0)

    m = c_count * spec.samples_per_class
    amplitudes = rng.uniform(0.75, 1.5, size=m)
    classes = np.repeat(np.arange(c_count), spec.samples_per_class)
    values = sigs[:, classes] * amplitudes
    if spec.noise_sigma > 0:
        values += rng.normal(0.0, spec.noise_sigma, size=(n, m))
        np.maximum(values, 0.0, out=values)

    labels = tuple(spec.class_labels[c] for c in classes)
    sample_ids = tuple(f"s{j:04d}" for j in range(m))
    feature_names = tuple(f"f{i}" for i in range(n))
    mixing = np.zeros((c_count, m))
    mixing[classes, np.arange(m)] = amplitudes

    dataset = LabeledDataset(FeatureMatrix(values, sample_ids, feature_names), labels)
    truth = GroundTruth(sigs, mixing, spec.class_labels, spec.holdout_class)
    return dataset, truth
