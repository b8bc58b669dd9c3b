"""Command-line front end: synthesize data, build archives, classify, evaluate.

Four subcommands wire the pipeline end to end.  Exit codes are stable:
0 success, 1 runtime or numeric failure, 2 usage or validation failure.
Input CSV tables need a header row, one cell per column, unique first-column
ids and the same ids in paired files; the first bad row or cell is named
(exit 2).  All randomness flows from ``--seed``.  ``build --workers N`` builds
sibling subtrees in ``min(N, usable CPUs, subtrees)`` processes, forked at the
first node with two or more (on the calling thread if 1, and for a build with
no sibling subtrees); it never changes any output byte.  Run through
:func:`run`, SIGINT and SIGTERM end a command with one line and no output.

Each subcommand imports only what it runs: ``evaluate`` never loads numpy,
``classify`` never loads rank selection, the metrics or logging.  The stages
``build_archive``, ``load_archive``, ``save_archive``, ``classify_batch`` and
``evaluate_predictions`` are module attributes imported on first access.
Handlers look every stage up in ``globals()`` when they call it, so a wrapper
bound to the attribute sees every call, also where no module object holds
them (``runpy`` with ``run_name="__main__"``, as in ``python -m cProfile``).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import _lazy_getattr, docio
from .docio import DECISION_CLASSIFIED, DECISION_REJECTED
from .errors import ArchiveFormatError, SigArchiveError, ValidationError

# _stage(name): the value bound to ``name`` in this namespace, imported on first use
_stage = __getattr__ = _lazy_getattr(globals(), {
    "build_archive": "archive", "load_archive": "archive", "save_archive": "archive",
    "classify_batch": "inference", "evaluate_predictions": "evaluation"})


_PREDICTION_HEADER = ("sample_id", "decision", "label", "score", "attribution")
_TRUTH_HEADER = ("sample_id", "label", "novel")


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
    """Run each ``(path, write)`` in turn; if one fails, unlink those written before it."""
    for i, (path, write) in enumerate(writes):
        try:
            write(path)
        except BaseException:
            for written, _ in writes[:i]:
                Path(written).unlink(missing_ok=True)
            raise


def _log_warnings() -> None:
    """Print warnings to stderr as ``LEVEL logger: message``.  Only the
    commands that log (synth and build) import logging and call this."""
    import logging

    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


def cmd_synth(args: argparse.Namespace) -> int:
    from . import dataio

    _log_warnings()
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
    _write_outputs(
        (args.out_features, lambda path: dataio.save_features_csv(dataset.features, path)),
        (args.out_labels, lambda path: dataio.save_labels_csv(dataset, path)),
        (args.out_truth, lambda path: docio.write_document(truth.to_document(), path)))
    print(f"wrote {dataset.features.n_samples} samples x "
          f"{dataset.features.n_features} features across "
          f"{len(dataset.label_set)} classes "
          f"({args.out_features}, {args.out_labels}, {args.out_truth})")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from . import dataio
    from .archive import BuildConfig
    from .rank import EnsembleConfig

    _log_warnings()
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
    import numpy as np

    from . import dataio
    from .inference import InferenceConfig

    archive = _stage("load_archive")(args.archive)
    features = dataio.load_features_csv(args.features)
    cfg = InferenceConfig(t=args.threshold)
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

    entries, decisions = archive.entries, (DECISION_REJECTED, DECISION_CLASSIFIED)
    columns = zip(predictions.sample_ids, predictions.classified.tolist(),
                  predictions.attributed.tolist(), predictions.scores.tolist())
    docio.write_rows(args.output, [_PREDICTION_HEADER, *(
        [sid, decisions[accept], entries[i].label, docio.format_float(score), entries[i].path]
        for sid, accept, i, score in columns)])

    for f in failures:
        print(f"error: sample {f.sample_id!r}: {f.message}", file=sys.stderr)
    n_scored, n_classified = len(predictions.sample_ids), int(predictions.classified.sum())
    print(f"classified {n_classified}/{features.n_samples} samples "
          f"({n_scored - n_classified} rejected) -> {args.output}")
    ranked = np.sort(predictions.scores)
    # numpy's default (linear) quartiles; np.quantile would also import numpy.ma
    quartiles = np.interp(np.linspace(0, n_scored - 1, 5), np.arange(n_scored),
                          ranked) if n_scored else ()
    print("scores: " + (" ".join(f"{name} {q:.4f}" for name, q in zip(
        ("min", "p25", "median", "p75", "max"), quartiles)) or "none"))
    counts = np.bincount(predictions.attributed, minlength=len(entries)).tolist()
    print("attributed: " + ", ".join(f"{e.path} {n}" for e, n in zip(entries, counts)))
    return 1 if failures else 0


_NOVEL_VALUES = {"0": False, "false": False, "1": True, "true": True}
_DECISIONS = {DECISION_CLASSIFIED, DECISION_REJECTED}


def cmd_evaluate(args: argparse.Namespace) -> int:
    curve_path = _second_path("--report", args.report, "--curve", args.curve, ".curve.csv")
    preds = docio.read_table(args.predictions, _PREDICTION_HEADER)
    if not preds:
        raise ValidationError(f"{args.predictions}: no prediction rows")
    truth = docio.read_table(args.truth, _TRUTH_HEADER)
    docio.same_ids(preds, truth, args.predictions, args.truth)

    novel = [_NOVEL_VALUES.get(cells[2].strip().lower()) for cells in truth.values()]
    if None in novel:
        i = novel.index(None)
        raise ValidationError(
            f"{args.truth}: row {i + 2}: novel must be 0/1/true/false, "
            f"got {list(truth.values())[i][2]!r}")
    novel_of = dict(zip(truth, novel))

    decisions, predicted, scores = [], [], []  # the first row at fault is named
    for row, (_, decision, label, text, _) in enumerate(preds.values(), 2):
        if decision not in _DECISIONS:
            raise ValidationError(f"{args.predictions}: row {row}: unknown decision {decision!r}")
        if not label:
            raise ValidationError(
                f"{args.predictions}: row {row}: empty label; rejected rows "
                f"must still carry the attributed label")
        try:
            score = float(text)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise ValidationError(
                f"{args.predictions}: row {row}: score is not a finite number: {text!r}")
        decisions.append(decision)
        predicted.append(label)
        scores.append(score)

    report = _stage("evaluate_predictions")(decisions, predicted, scores,
                                            [truth[sid][1] for sid in preds],
                                            [novel_of[sid] for sid in preds])
    document = report.to_document()
    curve = document["rc_curve"]  # rendered cells; a number needs no CSV quoting
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
                   help="processes that build sibling subtrees, at most min(N, "
                        "usable CPUs, subtrees); 1, or a build with no sibling "
                        "subtrees, runs on the calling thread; outputs are "
                        "identical for any value")
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("classify", help="classify samples against an archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--output", required=True, help="output predictions CSV")
    p.add_argument("--threshold", type=float, default=1.0,
                   help="minimum reconstruction score to classify")
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
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ArchiveFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SigArchiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The console entry point: exit with ``main()``'s code, skipping the
    interpreter's last garbage collection of a heap the exit frees anyway.

    ``gc.freeze`` runs after the exit hooks registered later (logging's),
    and the streams are still flushed.  ``main`` changes no process-wide
    state, since tests and library callers run it in theirs.  SIGINT and
    SIGTERM raise ``KeyboardInterrupt`` in ``main``, so that every cleanup
    runs; then one ``error: interrupted`` line is printed, and the process
    dies by that signal's default action.
    """
    import atexit
    import gc
    import signal

    received = []

    def interrupted(signum, frame):
        received.append(signum)
        raise KeyboardInterrupt

    handlers = {sig: signal.signal(sig, interrupted) for sig in (signal.SIGINT, signal.SIGTERM)}
    atexit.register(gc.freeze)
    try:
        code = main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr, flush=True)
        signum = received[0] if received else signal.SIGINT
        signal.signal(signum, signal.SIG_DFL)
        signal.raise_signal(signum)
        raise
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    sys.exit(code)


if __name__ == "__main__":
    run()
