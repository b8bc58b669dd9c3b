"""Seeded inputs and command lines for the benchmark workloads.

Every input file is a pure function of the benchmark seed.  ``flat-holdout``
and ``wide-score`` draw from the package's synthetic generator (the
acceptance spec, and a wide variant of it with a novel class).
``hier-subfamilies`` needs classes made of sub-families on nested feature
blocks, which that generator cannot express, so it is drawn here with numpy
alone.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRAIN_FEATURES = "train.csv"
TRAIN_LABELS = "train_labels.csv"
EVAL_FEATURES = "eval.csv"
EVAL_TRUTH = "truth.csv"

# Classify threshold.  Over 30+ seeds of every workload, seen samples score
# at least 0.75 and novel ones at most 0.53, so 0.65 separates them.
THRESHOLD = "0.65"


@dataclass(frozen=True)
class Dataset:
    """One training set and one evaluation set over the same feature rows."""

    feature_names: tuple[str, ...]
    train_values: np.ndarray          # (n_features, n_train)
    train_ids: tuple[str, ...]
    train_labels: tuple[str, ...]
    eval_values: np.ndarray           # (n_features, n_eval)
    eval_ids: tuple[str, ...]
    eval_labels: tuple[str, ...]
    eval_novel: tuple[bool, ...]

    def write(self, directory: Path) -> None:
        _write_features(directory / TRAIN_FEATURES, self.feature_names,
                        self.train_ids, self.train_values)
        _write_lines(directory / TRAIN_LABELS, "sample_id,label",
                     (f"{s},{lbl}" for s, lbl in zip(self.train_ids, self.train_labels)))
        _write_features(directory / EVAL_FEATURES, self.feature_names,
                        self.eval_ids, self.eval_values)
        _write_lines(directory / EVAL_TRUTH, "sample_id,label,novel",
                     (f"{s},{lbl},{int(nv)}" for s, lbl, nv
                      in zip(self.eval_ids, self.eval_labels, self.eval_novel)))


def _write_lines(path: Path, header: str, lines) -> None:
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def _write_features(path: Path, names, ids, values: np.ndarray) -> None:
    # repr gives the shortest text that parses back to the same float
    rows = (name + "," + ",".join(map(repr, row.tolist()))
            for name, row in zip(names, values))
    _write_lines(path, ",".join(["feature", *ids]), rows)


def sub_seed(seed: int, workload: str, index: int) -> int:
    """Independent 63-bit generator seed for dataset ``index`` of a workload."""
    digest = hashlib.blake2b(f"{seed}:{workload}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _from_synth(n_features: int, n_classes: int, per_class: int,
                test_fraction: float, seed: int) -> Dataset:
    """Package generator with the last class held out as the novel one."""
    # imported here so that a checkout without the package fails cleanly
    from sigarchive.dataio import SynthSpec, generate_synthetic, split_holdout

    novel = f"class{n_classes - 1}"
    data, _ = generate_synthetic(SynthSpec(
        n_features=n_features, n_classes=n_classes, samples_per_class=per_class,
        signature_overlap=0.1, noise_sigma=0.02, holdout_class=novel, seed=seed))
    split = split_holdout(data, novel, test_fraction, seed=seed)
    return Dataset(
        feature_names=data.features.feature_names,
        train_values=split.train.features.values,
        train_ids=split.train.features.sample_ids,
        train_labels=split.train.labels,
        eval_values=split.test.features.values,
        eval_ids=split.test.features.sample_ids,
        eval_labels=split.test.labels,
        eval_novel=split.novel_flags,
    )


def flat_holdout(seed: int) -> Dataset:
    """Acceptance spec: 40 features, 4 x 250 samples, class3 novel, 20% test."""
    return _from_synth(40, 4, 250, 0.2, seed)


def wide_score(seed: int) -> Dataset:
    """200 features, 5 x 1,600 samples; 2% of each seen class trains."""
    return _from_synth(200, 5, 1600, 0.98, seed)


@dataclass(frozen=True)
class HierSpec:
    """Families on disjoint feature blocks, sub-families with private features.

    Each family owns ``family_width`` shared features followed by one
    ``private_width`` block per sub-family.  A sub-family's signature is its
    family's shared pattern plus its own private pattern, scaled to
    ``private_weight`` of the shared pattern's norm, plus a small positive
    ``bleed`` on every feature.  The evaluation set holds the training set,
    ``fresh_per_subfamily`` further draws of each sub-family, and one extra
    family, with a single sub-family, as the novel class.
    """

    n_families: int = 4
    n_subfamilies: int = 3
    per_subfamily: int = 30
    fresh_per_subfamily: int = 200
    novel_samples: int = 240
    family_width: int = 6
    private_width: int = 3
    private_weight: float = 0.35
    bleed: float = 0.05
    noise: float = 0.02


NOVEL_LABEL = "novel"


def hierarchical_signatures(spec: HierSpec, rng: np.random.Generator,
                            ) -> tuple[np.ndarray, list[str]]:
    """Unit-norm signature columns and their labels; the novel one is last."""
    block = spec.family_width + spec.n_subfamilies * spec.private_width
    n = (spec.n_families + 1) * block
    columns, labels = [], []
    for f in range(spec.n_families + 1):
        start = f * block
        shared = np.zeros(n)
        shared[start:start + spec.family_width] = rng.uniform(0.5, 1.0, spec.family_width)
        novel = f == spec.n_families
        for s in range(1 if novel else spec.n_subfamilies):
            lo = start + spec.family_width + s * spec.private_width
            private = np.zeros(n)
            private[lo:lo + spec.private_width] = rng.uniform(0.5, 1.0, spec.private_width)
            private *= spec.private_weight * np.linalg.norm(shared) / np.linalg.norm(private)
            columns.append(shared + private)
            labels.append(NOVEL_LABEL if novel else f"fam{f}.sub{s}")
    sigs = np.column_stack(columns)
    sigs += spec.bleed * rng.uniform(0.25, 0.75, sigs.shape)
    return sigs / np.linalg.norm(sigs, axis=0), labels


def hier_subfamilies(seed: int, spec: HierSpec = HierSpec()) -> Dataset:
    """Training set of every sub-family; evaluation set adds fresh draws and
    the novel family."""
    rng = np.random.default_rng(seed)
    sigs, labels = hierarchical_signatures(spec, rng)
    counts = np.array([spec.per_subfamily + spec.fresh_per_subfamily] * (len(labels) - 1)
                      + [spec.novel_samples])
    classes = np.repeat(np.arange(len(labels)), counts)
    m = len(classes)
    values = sigs[:, classes] * rng.uniform(0.75, 1.5, m)
    values += rng.normal(0.0, spec.noise, values.shape)
    np.maximum(values, 0.0, out=values)

    ids = tuple(f"s{j:04d}" for j in range(m))
    sample_labels = tuple(labels[c] for c in classes)
    novel = tuple(lbl == NOVEL_LABEL for lbl in sample_labels)
    # the first per_subfamily draws of each sub-family train
    within = np.arange(m) - np.repeat(np.cumsum(counts) - counts, counts)
    seen = [j for j in range(m) if not novel[j] and within[j] < spec.per_subfamily]
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(sigs.shape[0])),
        train_values=values[:, seen],
        train_ids=tuple(ids[j] for j in seen),
        train_labels=tuple(sample_labels[j] for j in seen),
        eval_values=values,
        eval_ids=ids,
        eval_labels=sample_labels,
        eval_novel=novel,
    )


@dataclass(frozen=True)
class Workload:
    """How one workload generates its inputs and drives the CLI.

    ``build_in_setup`` workloads build their archive once per set-up and time
    only classify and evaluate; the others time build, classify and evaluate
    in every round trip.  In an end-to-end run each round trip runs classify
    and evaluate, in turn, ``score_repeats`` times, so that the scoring
    rates are sampled all through the run.
    """

    name: str
    make: Callable[[int], Dataset]
    n_datasets: int
    build_flags: tuple[str, ...]
    workers: int
    build_in_setup: bool = False
    min_depth: int = 0               # deepest build-report node must reach this
    score_repeats: int = 1

    def datasets(self, seed: int) -> list[Dataset]:
        return [self.make(sub_seed(seed, self.name, i)) for i in range(self.n_datasets)]


WORKLOADS = {
    w.name: w for w in (
        # One rank scan per build, so NMF and rank selection dominate.  Four
        # independent datasets per round trip average out how long NMF takes
        # to converge on any single draw.
        Workload("flat-holdout", flat_holdout, 4,
                 ("--k-min", "1", "--k-max", "6", "--n-perturbations", "10"), workers=1),
        # More labels than k-max, so the root must recurse: the only workload
        # that times per-node overhead, the refit NMF and ensemble threads.
        # Its evaluation set is large enough that classify and evaluate time
        # their work rather than interpreter start-up.
        Workload("hier-subfamilies", hier_subfamilies, 1,
                 ("--k-min", "1", "--k-max", "6", "--n-perturbations", "6"),
                 workers=2, min_depth=1, score_repeats=3),
        # Archive built in set-up from a small split, at the known rank so
        # that its size, and the NNLS work per sample, is the same for every
        # seed; the timed loop is CSV ingest, per-sample NNLS and the
        # risk-coverage sweep.
        Workload("wide-score", wide_score, 1,
                 ("--k-min", "4", "--k-max", "4", "--n-perturbations", "10"),
                 workers=1, build_in_setup=True),
    )
}
