"""Selective-classification metrics: risk-coverage curves, AURC, and rates.

All functions take flat per-sample sequences so they can score output from
this package or from hand-built fixtures.  A sample counts as an error when
its predicted label differs from its truth label, or when its truth is a
novel class that the archive could never have named.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .docio import DECISION_CLASSIFIED, DECISION_REJECTED
from .errors import ValidationError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RiskCoveragePoint:
    """Selective risk at one decision threshold."""

    threshold: float
    coverage: float
    risk: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.threshold, self.coverage, self.risk))):
            raise ValidationError("curve points must be finite")
        if not (0.0 <= self.coverage <= 1.0):
            raise ValidationError(f"coverage {self.coverage!r} outside [0, 1]")
        if not (0.0 <= self.risk <= 1.0):
            raise ValidationError(f"risk {self.risk!r} outside [0, 1]")
        if self.coverage == 0.0 and self.risk != 0.0:
            raise ValidationError("risk is 0 by definition when nothing is covered")


def _checked(name: str, values: Sequence, length: int | None = None) -> list:
    items = list(values)
    if not items:
        raise ValidationError(f"{name} must not be empty")
    if length is not None and len(items) != length:
        raise ValidationError(f"{name} has {len(items)} entries, expected {length}")
    return items


def risk_coverage_curve(
    scores: Sequence[float],
    predicted_labels: Sequence[str],
    truth_labels: Sequence[str],
    novel_flags: Sequence[bool],
) -> tuple[RiskCoveragePoint, ...]:
    """Sweep the decision threshold over every distinct observed score.

    Thresholds run from one sentinel above the highest score (nothing
    covered) down to one below the lowest (everything covered).  At each
    threshold, coverage is the fraction of samples scoring at or above it
    and risk is the 0/1 error rate among those samples; covered novel
    samples always count as errors.  Points come back in ascending coverage
    order.
    """
    scores = [float(s) for s in _checked("scores", scores)]
    m = len(scores)
    predicted = _checked("predicted_labels", predicted_labels, m)
    truth = _checked("truth_labels", truth_labels, m)
    novel = _checked("novel_flags", novel_flags, m)
    if not all(map(math.isfinite, scores)):
        raise ValidationError("scores must be finite")

    wrong = [bool(nv) or p != t for p, t, nv in zip(predicted, truth, novel)]
    order = sorted(range(m), key=scores.__getitem__, reverse=True)  # stable
    # one point per run of tied scores; a run's first sample records the
    # counts that close the run before it, so counts[j + 1] closes tops[j].
    # Like set(), a run keeps its first value, so a 0.0 / -0.0 tie takes the
    # sign of whichever comes first
    tops, counts, errors = [], [], []
    n_wrong = 0
    for covered, i in enumerate(order):
        if not tops or scores[i] != tops[-1]:
            tops.append(scores[i])
            counts.append(covered)
            errors.append(n_wrong)
        n_wrong += wrong[i]
    thresholds = [tops[0] + 1.0, *tops, tops[-1] - 1.0]
    counts += [m, m]
    errors += [n_wrong, n_wrong]
    return tuple(RiskCoveragePoint(t, c / m, e / c if c else 0.0)
                 for t, c, e in zip(thresholds, counts, errors))


def aurc(curve: Sequence[RiskCoveragePoint]) -> float:
    """Area under a risk-coverage curve over the full coverage interval.

    Integrates risk against coverage with the trapezoid rule.  Risk is
    extended flat from the smallest positive-coverage point down to
    coverage 0 and, if needed, from the last point up to coverage 1, so a
    uniformly wrong curve integrates to exactly 1 and a uniformly correct
    one to exactly 0.
    """
    points = list(curve)
    if not points:
        raise ValidationError("curve must not be empty")
    coverages = [p.coverage for p in points]
    if any(b < a for a, b in zip(coverages, coverages[1:])):
        raise ValidationError("curve points must be sorted by ascending coverage")

    positive = [(p.coverage, p.risk) for p in points if p.coverage > 0.0]
    if not positive:
        return 0.0
    terms = [positive[0][0] * positive[0][1]]
    for (c0, r0), (c1, r1) in zip(positive, positive[1:]):
        terms.append((c1 - c0) * 0.5 * (r0 + r1))
    last_c, last_r = positive[-1]
    if last_c < 1.0:
        terms.append((1.0 - last_c) * last_r)
    return math.fsum(terms)


@dataclass(frozen=True)
class ClassScore:
    label: str
    precision: float
    recall: float
    f1: float
    covered_truth: int
    predicted: int


@dataclass(frozen=True)
class ClassMetrics:
    """Macro precision/recall/F1 over covered samples only.

    The macro average runs over the truth classes that appear among covered
    samples; a class that is never predicted contributes precision 0.  With
    zero covered samples the macro fields are ``None`` rather than raising.
    """

    covered_count: int
    macro_precision: float | None
    macro_recall: float | None
    macro_f1: float | None
    per_class: tuple[ClassScore, ...]


def classification_metrics(
    decisions: Sequence[str],
    predicted_labels: Sequence[str],
    truth_labels: Sequence[str],
    novel_flags: Sequence[bool],
) -> ClassMetrics:
    decisions = _checked("decisions", decisions)
    m = len(decisions)
    predicted = _checked("predicted_labels", predicted_labels, m)
    truth = _checked("truth_labels", truth_labels, m)
    novel = [bool(v) for v in _checked("novel_flags", novel_flags, m)]
    for d in decisions:
        if d not in (DECISION_CLASSIFIED, DECISION_REJECTED):
            raise ValidationError(f"unknown decision {d!r}")

    covered = [i for i in range(m) if decisions[i] == DECISION_CLASSIFIED]
    if not covered:
        return ClassMetrics(0, None, None, None, ())

    truth_counts = Counter(truth[i] for i in covered if not novel[i])
    pred_counts = Counter(predicted[i] for i in covered)
    hits = Counter(truth[i] for i in covered if not novel[i] and predicted[i] == truth[i])
    scores = []
    for cls in sorted(truth_counts):
        tp, n_pred = hits[cls], pred_counts[cls]
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / truth_counts[cls]
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(ClassScore(cls, precision, recall, f1, truth_counts[cls], n_pred))

    if not scores:
        return ClassMetrics(len(covered), None, None, None, ())
    return ClassMetrics(
        covered_count=len(covered),
        macro_precision=_mean([s.precision for s in scores]),
        macro_recall=_mean([s.recall for s in scores]),
        macro_f1=_mean([s.f1 for s in scores]),
        per_class=tuple(scores),
    )


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


@dataclass(frozen=True)
class RejectionRates:
    """Fraction rejected among seen-class and among novel-class samples.

    Either field is ``None`` when its denominator is empty.
    """

    seen: float | None
    novel: float | None


def rejection_rates(decisions: Sequence[str], novel_flags: Sequence[bool]) -> RejectionRates:
    decisions = _checked("decisions", decisions)
    novel = [bool(v) for v in _checked("novel_flags", novel_flags, len(decisions))]
    rejected = [d == DECISION_REJECTED for d in decisions]
    seen_total = novel.count(False)
    novel_total = novel.count(True)
    seen_rate = (sum(r for r, nv in zip(rejected, novel) if not nv) / seen_total
                 if seen_total else None)
    novel_rate = (sum(r for r, nv in zip(rejected, novel) if nv) / novel_total
                  if novel_total else None)
    return RejectionRates(seen_rate, novel_rate)


@dataclass(frozen=True)
class EvalReport:
    """Full selective-classification summary for one prediction set."""

    rc_curve: tuple[RiskCoveragePoint, ...]
    aurc: float
    operating_coverage: float
    metrics: ClassMetrics
    rejection: RejectionRates
    n_samples: int
    n_novel: int

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n_samples": self.n_samples,
            "n_novel": self.n_novel,
            "operating_coverage": float(self.operating_coverage),
            "aurc": float(self.aurc),
            "metrics_scope": "covered-samples-only",
            "averaging": "macro-over-covered-truth-classes",
            "macro_precision": _opt(self.metrics.macro_precision),
            "macro_recall": _opt(self.metrics.macro_recall),
            "macro_f1": _opt(self.metrics.macro_f1),
            "rejection_seen": _opt(self.rejection.seen),
            "rejection_novel": _opt(self.rejection.novel),
            "per_class": [
                {
                    "label": s.label,
                    "precision": float(s.precision),
                    "recall": float(s.recall),
                    "f1": float(s.f1),
                    "covered_truth": s.covered_truth,
                    "predicted": s.predicted,
                }
                for s in self.metrics.per_class
            ],
            "rc_curve": [
                {
                    "threshold": float(p.threshold),
                    "coverage": float(p.coverage),
                    "risk": float(p.risk),
                }
                for p in self.rc_curve
            ],
        }


def _opt(value):
    return None if value is None else float(value)


def evaluate_predictions(
    decisions: Sequence[str],
    predicted_labels: Sequence[str],
    scores: Sequence[float],
    truth_labels: Sequence[str],
    novel_flags: Sequence[bool],
) -> EvalReport:
    """Assemble the full report from aligned per-sample sequences.

    ``predicted_labels`` must carry the attributed label for every sample,
    including rejected ones, so the curve can sweep thresholds below the
    operating point.
    """
    if any(not str(lbl) for lbl in predicted_labels):
        raise ValidationError(
            "every sample needs an attributed label, including rejected ones")
    curve = risk_coverage_curve(scores, predicted_labels, truth_labels, novel_flags)
    metrics = classification_metrics(decisions, predicted_labels, truth_labels, novel_flags)
    rates = rejection_rates(decisions, novel_flags)
    m = len(decisions)
    return EvalReport(
        rc_curve=curve,
        aurc=aurc(curve),
        operating_coverage=metrics.covered_count / m,
        metrics=metrics,
        rejection=rates,
        n_samples=m,
        n_novel=sum(1 for v in novel_flags if v),
    )
