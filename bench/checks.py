"""Independent checks on the files the CLI writes.

Each function returns a list of problems; an empty list means the check
passed.  Nothing here imports the package, so a defect in it cannot hide
the same defect in the check.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

AURC_TOLERANCE = 1e-12


def exact_aurc(scores, errors) -> Fraction:
    """Area under the risk-coverage curve in exact rationals.

    One sort by descending score, then cumulative counts of covered samples
    and of errors among them at each distinct score.  Trapezoids join
    consecutive points, and the risk of the first point extends flat down to
    coverage 0; the last point covers every sample.
    """
    m = len(scores)
    if m == 0:
        raise ValueError("need at least one score")
    order = sorted(range(m), key=lambda i: -scores[i])
    points = []
    wrong = 0
    for pos, i in enumerate(order):
        wrong += bool(errors[i])
        if pos + 1 == m or scores[order[pos + 1]] != scores[i]:
            points.append((pos + 1, wrong))
    total = Fraction(points[0][1], m)
    for (ca, ea), (cb, eb) in zip(points, points[1:]):
        total += Fraction(cb - ca, 2 * m) * (Fraction(ea, ca) + Fraction(eb, cb))
    return total


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_aurc(predictions: Path, truth: Path, report: Path) -> list[str]:
    """The report's AURC equals the exact recomputation within 1e-12."""
    truth_rows = {r["sample_id"]: r for r in _rows(truth)}
    scores, errors = [], []
    for row in _rows(predictions):
        t = truth_rows[row["sample_id"]]
        scores.append(float(row["score"]))
        errors.append(t["novel"] == "1" or row["label"] != t["label"])
    expected = exact_aurc(scores, errors)
    got = json.loads(report.read_text(encoding="utf-8"))["aurc"]
    if abs(Fraction(got) - expected) > AURC_TOLERANCE:
        return [f"{report.name}: aurc {got!r} differs from exact {float(expected)!r}"]
    return []


def check_build(archive: Path, report: Path, train_labels: Path,
                min_depth: int) -> list[str]:
    """Purity, sample conservation, label coverage and hierarchy depth."""
    arc = json.loads(archive.read_text(encoding="utf-8"))
    rep = json.loads(report.read_text(encoding="utf-8"))
    labels = Counter(r["label"] for r in _rows(train_labels))
    n = sum(labels.values())
    problems = []
    impure = [e["path"] for e in arc["entries"] if e["purity"] != 1.0]
    if impure:
        problems.append(f"entries with purity below 1.0: {impure}")
    support = sum(e["support"] for e in arc["entries"])
    parked = sum(len(u["sample_ids"]) for u in arc["unresolved"])
    if not (support == rep["n_archived"] and parked == rep["n_unresolved"]
            and support + parked == rep["n_samples"] == n):
        problems.append(f"samples not conserved: {support} archived + {parked} "
                        f"unresolved vs {n} training samples")
    missing = sorted(set(labels) - {e["label"] for e in arc["entries"]})
    if missing:
        problems.append(f"training labels without an archived signature: {missing}")
    depth = max(nd["depth"] for nd in rep["nodes"])
    if depth < min_depth:
        problems.append(f"build report reaches depth {depth}, need >= {min_depth}")
    return problems
