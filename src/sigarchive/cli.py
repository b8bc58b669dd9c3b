"""Command-line front end: synthesize data, build archives, classify, evaluate.

Four subcommands wire the pipeline end to end.  Exit codes are stable:
0 success, 1 runtime or numeric failure, 2 usage or validation failure.
Input CSV tables need a header row, one cell per column, unique first-column
ids and the same ids in paired files; the first bad row or cell is named
(exit 2).  All randomness flows from ``--seed``.  ``build --workers N`` runs
rank selection's ensemble members in ``min(N, usable CPUs, members per rank)``
processes (on the calling thread if 1); it never changes any output byte.

Each subcommand imports only what it runs, so ``evaluate`` never loads numpy.
The numpy-backed stages ``build_archive``, ``load_archive``, ``save_archive``
and ``classify_batch`` are module attributes imported on first access.
Handlers look every stage up in ``globals()`` when they call it, so a wrapper
bound to the attribute sees every call, also where no module object holds
them (``runpy`` with ``run_name="__main__"``, as in ``python -m cProfile``).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import _lazy_getattr, docio
from .docio import DECISION_CLASSIFIED, DECISION_REJECTED
from .errors import ArchiveFormatError, SigArchiveError, ValidationError
from .evaluation import evaluate_predictions

__getattr__ = _lazy_getattr(globals(), {
    "build_archive": "archive", "load_archive": "archive", "save_archive": "archive",
    "classify_batch": "inference"})


def _stage(name: str):
    """The value bound to ``name`` in this namespace, imported on first use."""
    return globals().get(name) or __getattr__(name)


_PREDICTION_HEADER = ("sample_id", "decision", "label", "score", "attribution")
_TRUTH_HEADER = ("sample_id", "label", "novel")
_CURVE_HEADER = ("threshold", "coverage", "risk")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return value


def _unit_fraction(text: str) -> float:
    value = _nonneg_float(text)
    if value >= 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1)")
    return value


def _second_path(flag: str, first, second_flag: str, second, suffix: str):
    """``second``, or ``first``'s sibling with ``suffix``; refused if both name one file."""
    path = second or Path(first).with_name(Path(first).stem + suffix)
    if Path(path).resolve() == Path(first).resolve():
        raise ValidationError(f"{flag} {first} and {second_flag} {second} name the same file")
    return path


def _write_outputs(*writes) -> None:
    """Run each ``(path, write)`` in turn; if one fails, unlink every path tried."""
    for i, (path, write) in enumerate(writes):
        try:
            write(path)
        except BaseException:
            for tried, _ in writes[:i + 1]:
                Path(tried).unlink(missing_ok=True)
            raise


def cmd_synth(args: argparse.Namespace) -> int:
    from . import dataio

    if args.n_features < args.n_classes:
        raise ValidationError(
            "--n-features must be >= --n-classes so every class gets its own features")
    spec = dataio.SynthSpec(
        n_features=args.n_features,
        n_classes=args.n_classes,
        samples_per_class=args.samples_per_class,
        signature_overlap=args.overlap,
        noise_sigma=args.noise,
        holdout_class=args.holdout_class,
        seed=args.seed,
    )
    dataset, truth = dataio.generate_synthetic(spec)
    dataio.save_csv(dataset, args.out_features, args.out_labels)
    docio.write_document(truth.to_document(), args.out_truth)
    print(f"wrote {dataset.features.n_samples} samples x "
          f"{dataset.features.n_features} features across "
          f"{len(dataset.label_set)} classes "
          f"({args.out_features}, {args.out_labels}, {args.out_truth})")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from . import dataio
    from .archive import BuildConfig
    from .rank import EnsembleConfig

    report_path = _second_path("--archive", args.archive, "--report", args.report, ".report.json")
    dataset = dataio.load_csv(args.features, args.labels)
    normalized, params = dataio.normalize(dataset, args.normalization)
    cfg = BuildConfig(
        ensemble=EnsembleConfig(
            k_min=args.k_min,
            k_max=args.k_max,
            n_perturbations=args.n_perturbations,
            noise_epsilon=args.noise_epsilon,
            silhouette_threshold=args.silhouette_threshold,
            base_seed=args.seed,
        ),
        purity_threshold=args.purity_threshold,
        min_cluster_size=args.min_cluster_size,
        max_depth=args.max_depth,
        seed=args.seed,
    )
    archive, report = _stage("build_archive")(normalized.features, normalized.labels,
                                              cfg, workers=args.workers)
    # The scaling fitted at build time travels inside the archive so
    # cmd_classify can apply the identical transform to new samples.
    archive = replace(archive, build_config={**archive.build_config,
                                             "normalization": params.to_snapshot()})
    _write_outputs((args.archive, lambda path: _stage("save_archive")(archive, path)),
                   (report_path, lambda path: docio.write_document(report.to_document(), path)))
    print(f"archived {len(archive.entries)} signatures covering "
          f"{report.n_archived}/{report.n_samples} samples; "
          f"{report.n_unresolved} unresolved ({args.archive}, {report_path})")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from . import dataio
    from .inference import InferenceConfig

    archive = _stage("load_archive")(args.archive)
    features = dataio.load_features_csv(args.features)
    cfg = InferenceConfig(t=args.threshold, score_tolerance=args.score_tolerance)
    snapshot = archive.build_config.get("normalization")
    try:
        if snapshot is not None:
            params = dataio.NormalizationParams.from_snapshot(snapshot)
            features = dataio.apply_normalization(features, params)
        predictions, failures = _stage("classify_batch")(features, archive, cfg)
    except ValidationError as exc:
        # A layout disagreement between two well-formed artifacts is a
        # processing failure, not a usage error.
        raise SigArchiveError(str(exc)) from exc

    label_by_path = {e.path: e.label for e in archive.entries}
    rows = [list(_PREDICTION_HEADER)]
    for p in predictions:
        rows.append([p.sample_id, p.decision, label_by_path[p.attribution],
                     docio.format_float(p.score), p.attribution])
    docio.write_rows(args.output, rows)

    for f in failures:
        print(f"error: sample {f.sample_id!r}: {f.message}", file=sys.stderr)
    n_classified = sum(1 for p in predictions if p.decision == DECISION_CLASSIFIED)
    print(f"classified {n_classified}/{features.n_samples} samples "
          f"({len(predictions) - n_classified} rejected) -> {args.output}")
    return 1 if failures else 0


_NOVEL_VALUES = {"0": False, "false": False, "1": True, "true": True}


def cmd_evaluate(args: argparse.Namespace) -> int:
    curve_path = _second_path("--report", args.report, "--curve", args.curve, ".curve.csv")
    preds = docio.read_table(args.predictions, _PREDICTION_HEADER)
    if not preds:
        raise ValidationError(f"{args.predictions}: no prediction rows")
    truth = docio.read_table(args.truth, _TRUTH_HEADER)
    docio.same_ids(preds, truth, args.predictions, args.truth)

    truth_of: dict[str, tuple[str, bool]] = {}
    for sid, (lineno, (_, label, novel_text)) in truth.items():
        flag = _NOVEL_VALUES.get(novel_text.strip().lower())
        if flag is None:
            raise ValidationError(
                f"{args.truth}: row {lineno}: novel must be 0/1/true/false, "
                f"got {novel_text!r}")
        truth_of[sid] = (label, flag)

    decisions, predicted, scores = [], [], []
    for lineno, (_, decision, label, score_text, _attribution) in preds.values():
        if decision not in (DECISION_CLASSIFIED, DECISION_REJECTED):
            raise ValidationError(
                f"{args.predictions}: row {lineno}: unknown decision {decision!r}")
        if not label:
            raise ValidationError(
                f"{args.predictions}: row {lineno}: empty label; rejected rows "
                f"must still carry the attributed label")
        try:
            score = float(score_text)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise ValidationError(
                f"{args.predictions}: row {lineno}: score is not a finite number: "
                f"{score_text!r}")
        decisions.append(decision)
        predicted.append(label)
        scores.append(score)

    report = evaluate_predictions(decisions, predicted, scores,
                                  [truth_of[sid][0] for sid in preds],
                                  [truth_of[sid][1] for sid in preds])
    # each curve value is rendered once, for report.json and the curve table (a
    # number needs no CSV quoting); the document never builds its float rows
    curve = docio.Records(_CURVE_HEADER, [
        tuple(map(docio.format_float, (p.threshold, p.coverage, p.risk)))
        for p in report.rc_curve])
    document = {**replace(report, rc_curve=()).to_document(), "rc_curve": curve}
    table = "".join(",".join(row) + "\n" for row in (curve.keys, *curve.rows))
    _write_outputs((args.report, lambda path: docio.write_document(document, path)),
                   (curve_path, lambda path: docio.write_atomic(path, table)))

    def fmt(value):
        return "n/a" if value is None else f"{value:.4f}"

    print(f"aurc {report.aurc:.6f}, coverage {report.operating_coverage:.4f}, "
          f"macro-f1 {fmt(report.metrics.macro_f1)}, "
          f"rejection seen {fmt(report.rejection.seen)} / "
          f"novel {fmt(report.rejection.novel)} ({args.report}, {curve_path})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigarchive",
        description="Hierarchical latent-signature archives with reject-option "
                    "classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--n-features", type=_positive_int, default=40)
    p.add_argument("--n-classes", type=_positive_int, default=3)
    p.add_argument("--samples-per-class", type=_positive_int, default=50)
    p.add_argument("--overlap", type=_unit_fraction, default=0.1,
                   help="maximum pairwise cosine between class signatures")
    p.add_argument("--noise", type=_nonneg_float, default=0.02,
                   help="additive Gaussian noise sigma (truncated at zero)")
    p.add_argument("--holdout-class", default=None,
                   help="class name recorded as the intended novel class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-features", default="features.csv")
    p.add_argument("--out-labels", default="labels.csv")
    p.add_argument("--out-truth", default="truth.json")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("build", help="build a signature archive from labeled data")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--archive", required=True, help="output archive path")
    p.add_argument("--report", default=None,
                   help="output build-report path (default: <archive>.report.json)")
    p.add_argument("--k-min", type=_positive_int, default=1)
    p.add_argument("--k-max", type=_positive_int, default=8)
    p.add_argument("--n-perturbations", type=_positive_int, default=30)
    p.add_argument("--noise-epsilon", type=_unit_fraction, default=0.03)
    p.add_argument("--silhouette-threshold", type=float, default=0.75)
    p.add_argument("--purity-threshold", type=float, default=1.0)
    p.add_argument("--min-cluster-size", type=_positive_int, default=10)
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--normalization", default=docio.MODE_PER_FEATURE_MAX,
                   choices=[docio.MODE_PER_FEATURE_MAX, docio.MODE_NONE])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1, metavar="N",
                   help="processes for the rank-selection ensemble, at most min(N, "
                        "usable CPUs, members per rank); 1 runs it on the calling "
                        "thread; outputs are identical for any value")
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("classify", help="classify samples against an archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--output", required=True, help="output predictions CSV")
    p.add_argument("--threshold", type=float, default=1.0,
                   help="minimum reconstruction score to classify")
    p.add_argument("--score-tolerance", type=_nonneg_float, default=1e-9)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--predictions", required=True,
                   help="CSV written by the classify subcommand")
    p.add_argument("--truth", required=True,
                   help="CSV with header sample_id,label,novel")
    p.add_argument("--report", required=True, help="output report path")
    p.add_argument("--curve", default=None,
                   help="output risk-coverage CSV (default: <report>.curve.csv)")
    p.set_defaults(handler=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ArchiveFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SigArchiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
