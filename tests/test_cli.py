"""End-to-end command line tests, driven through subprocesses unless noted."""

import csv
import json
import os
import runpy
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from conftest import cli_env, families, has_children, processes

from sigarchive import (BuildConfig, EnsembleConfig, build_archive, cli, docio, load_csv,
                        rank, save_archive, save_csv)
from sigarchive.archive import ROOT_PATH
from sigarchive.seeding import node_seed

SYNTH_ARGS = ("synth", "--n-features", "24", "--n-classes", "3",
              "--samples-per-class", "20", "--overlap", "0.1",
              "--noise", "0.02", "--seed", "11")
BUILD_ARGS = ("build", "--features", "features.csv", "--labels", "labels.csv",
              "--archive", "arc.json", "--k-min", "1", "--k-max", "4",
              "--n-perturbations", "6", "--min-cluster-size", "5", "--seed", "0")


def run(args, cwd, **env):
    return subprocess.run([sys.executable, "-m", "sigarchive.cli", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env={**cli_env(), **env})


def small_synth(root):
    """12 features x 90 samples over three classes, rows f0..f11."""
    result = run(("synth", "--n-features", "12", "--n-classes", "3",
                  "--samples-per-class", "30", "--seed", "3"), root)
    assert result.returncode == 0, result.stderr
    return (root / "features.csv").read_text().splitlines()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def families_workspace(tmp_path_factory):
    """``conftest.families()`` built at ``--workers 1``: the root has three
    sibling subtrees."""
    ws = tmp_path_factory.mktemp("families")
    save_csv(families(), ws / "features.csv", ws / "labels.csv")
    result = run(BUILD_ARGS, ws)
    assert result.returncode == 0, result.stderr
    return ws


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + build + classify pipeline shared by the read-only tests."""
    ws = tmp_path_factory.mktemp("cli")
    for args in (SYNTH_ARGS, BUILD_ARGS,
                 ("classify", "--archive", "arc.json", "--features", "features.csv",
                  "--output", "predictions.csv", "--threshold", "0.95")):
        result = run(args, ws)
        assert result.returncode == 0, result.stderr
    return ws


class TestSynth:
    def test_writes_dataset_and_truth(self, tmp_path):
        result = run(SYNTH_ARGS, tmp_path)
        assert result.returncode == 0
        assert "60 samples" in result.stdout
        header = (tmp_path / "features.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "feature" and len(header) == 61
        assert len(read_rows(tmp_path / "labels.csv")) == 60
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert set(truth["signatures"]) == {"class0", "class1", "class2"}

    def test_same_seed_writes_identical_bytes(self, tmp_path, workspace):
        result = run(SYNTH_ARGS, tmp_path)
        assert result.returncode == 0
        for name in ("features.csv", "labels.csv", "truth.json"):
            assert (tmp_path / name).read_bytes() == (workspace / name).read_bytes()

    def test_overlap_out_of_range_exits_2(self, tmp_path):
        result = run(("synth", "--overlap", "1.5"), tmp_path)
        assert result.returncode == 2
        assert "--overlap" in result.stderr

    def test_fewer_features_than_classes_exits_2(self, tmp_path):
        result = run(("synth", "--n-features", "2", "--n-classes", "3"), tmp_path)
        assert result.returncode == 2

    def test_unwritable_truth_leaves_no_output(self, tmp_path):
        # all-or-nothing: the tables written before the truth file are removed,
        # and the error names the path asked for, not a temporary file
        result = run(("synth", "--out-truth", "nodir/truth.json"), tmp_path)
        assert result.returncode == 1
        assert result.stderr == "error: [Errno 2] No such file or directory: 'nodir/truth.json'\n"
        assert list(tmp_path.iterdir()) == []

    def test_truth_path_on_a_directory_raises_the_writes_own_error(self, tmp_path,
                                                                  monkeypatch):
        # the cleanup leaves the failed path alone, so its error is not replaced
        (tmp_path / "d").mkdir()
        monkeypatch.chdir(tmp_path)
        raised, write = [], docio.write_document

        def recording(value, path):
            try:
                write(value, path)
            except OSError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(docio, "write_document", recording)
        args = cli.build_parser().parse_args([*SYNTH_ARGS, "--out-truth", "d"])
        with pytest.raises(IsADirectoryError) as info:
            args.handler(args)
        assert [info.value] == raised
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]


class TestBuild:
    def test_reports_archive_summary(self, workspace):
        # workspace already built; rebuild to capture the summary line
        args = tuple("arc2.json" if a == "arc.json" else a for a in BUILD_ARGS)
        result = run(args, workspace)
        assert result.returncode == 0
        assert "archived 3 signatures covering 60/60 samples" in result.stdout
        report = json.loads((workspace / "arc2.report.json").read_text())
        assert report["n_archived"] == 60 and report["n_unresolved"] == 0
        archive = json.loads((workspace / "arc2.json").read_text())
        assert archive["build_config"]["normalization"]["mode"] == "per_feature_max"

    def test_mismatched_label_file_exits_2(self, workspace, tmp_path):
        (tmp_path / "bad.csv").write_text("sample_id,label\nnope,x\n")
        result = run(("build", "--features", workspace / "features.csv",
                      "--labels", tmp_path / "bad.csv",
                      "--archive", tmp_path / "a.json"), tmp_path)
        assert result.returncode == 2
        assert "disagree" in result.stderr

    def test_all_zero_feature_is_dropped_with_a_logged_warning(self, tmp_path):
        header, *rows = small_synth(tmp_path)
        rows[4] = ",".join(["f4"] + ["0.0"] * (len(header.split(",")) - 1))
        (tmp_path / "features.csv").write_text("\n".join([header, *rows]) + "\n")
        result = run(("build", "--features", "features.csv", "--labels", "labels.csv",
                      "--archive", "a.json", "--k-max", "3", "--n-perturbations", "4",
                      "--min-cluster-size", "5"), tmp_path)
        assert result.returncode == 0, result.stderr
        assert "WARNING sigarchive.dataio: dropping 1 all-zero feature(s): f4\n" in result.stderr
        archive = json.loads((tmp_path / "a.json").read_text())
        assert archive["build_config"]["normalization"]["dropped_features"] == ["f4"]

    def test_duplicate_feature_names_exit_2(self, tmp_path):
        header, *rows = small_synth(tmp_path)
        # rename row f1 to f0 and zero the first f0 row: normalization
        # drops features by name, so it must never see two rows named f0
        rows[0] = ",".join(["f0"] + ["0.0"] * (len(header.split(",")) - 1))
        rows[1] = "f0" + rows[1][len("f1"):]
        (tmp_path / "features.csv").write_text("\n".join([header, *rows]) + "\n")
        result = run(("build", "--features", "features.csv", "--labels", "labels.csv",
                      "--archive", "a.json"), tmp_path)
        assert result.returncode == 2
        assert "error:" in result.stderr and "feature names" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "a.json").exists()

    def test_degenerate_build_exits_1_without_partial_files(self, tmp_path):
        # one shared rank-1 signature split across two labels can never
        # produce a label-uniform cluster
        ids = [f"s{j}" for j in range(8)]
        lines = ["feature," + ",".join(ids)]
        for i in range(4):
            lines.append(f"g{i}," + ",".join(
                f"{(i + 1) * 0.2 * (1 + 0.01 * j):.6f}" for j in range(8)))
        (tmp_path / "flat.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "flat_labels.csv").write_text(
            "sample_id,label\n"
            + "\n".join(f"{sid},{'x' if j % 2 else 'y'}" for j, sid in enumerate(ids))
            + "\n")
        result = run(("build", "--features", "flat.csv", "--labels",
                      "flat_labels.csv", "--archive", "flat.json",
                      "--k-min", "1", "--k-max", "3", "--n-perturbations", "6",
                      "--min-cluster-size", "4"), tmp_path)
        assert result.returncode == 1
        assert "unresolved" in result.stderr
        assert not (tmp_path / "flat.json").exists()
        assert not (tmp_path / "flat.report.json").exists()

    def test_archive_and_report_on_one_path_exit_2(self, workspace, tmp_path):
        (tmp_path / "sub").mkdir()
        result = run(("build", "--features", workspace / "features.csv",
                      "--labels", workspace / "labels.csv", "--archive", "a.json",
                      "--report", "sub/../a.json"), tmp_path)
        assert result.returncode == 2, result.stderr
        assert "--archive a.json and --report sub/../a.json name the same file" \
            in result.stderr
        assert not (tmp_path / "a.json").exists()


class TestClassify:
    def test_training_samples_come_back_correct(self, workspace):
        rows = read_rows(workspace / "predictions.csv")
        assert list(rows[0]) == ["sample_id", "decision", "label", "score",
                                 "attribution"]
        labels = {r["sample_id"]: r["label"]
                  for r in read_rows(workspace / "labels.csv")}
        classified = [r for r in rows if r["decision"] == "classified"]
        correct = sum(1 for r in classified if labels[r["sample_id"]] == r["label"])
        assert len(rows) == 60
        assert len(classified) >= 54  # >= 90% coverage on the training set
        assert correct == len(classified)

    def test_strict_threshold_only_shrinks_coverage(self, workspace):
        result = run(("classify", "--archive", "arc.json", "--features",
                      "features.csv", "--output", "strict.csv",
                      "--threshold", "1.0"), workspace)
        assert result.returncode == 0
        loose = {r["sample_id"] for r in read_rows(workspace / "predictions.csv")
                 if r["decision"] == "classified"}
        strict = {r["sample_id"] for r in read_rows(workspace / "strict.csv")
                  if r["decision"] == "classified"}
        assert strict <= loose and len(strict) < len(loose)

    def test_summarises_scores_and_attributions(self, workspace, tmp_path):
        result = run(("classify", "--archive", workspace / "arc.json", "--features",
                      workspace / "features.csv", "--output", tmp_path / "p.csv",
                      "--threshold", "0.95"), tmp_path)
        assert result.returncode == 0
        assert (tmp_path / "p.csv").read_bytes() == (workspace / "predictions.csv").read_bytes()
        rows = read_rows(tmp_path / "p.csv")
        scores = sorted(float(r["score"]) for r in rows)  # 60: quartiles fall on 1/4 steps
        quartiles = (scores[0], 0.25 * scores[14] + 0.75 * scores[15],
                     0.5 * (scores[29] + scores[30]), 0.75 * scores[44] + 0.25 * scores[45],
                     scores[-1])
        paths = [e["path"] for e in json.loads((workspace / "arc.json").read_text())["entries"]]
        counts = [sum(r["attribution"] == path for r in rows) for path in paths]
        assert sum(counts) == 60
        classified, scored, attributed = result.stdout.splitlines()
        assert classified.startswith("classified ")
        assert scored == "scores: " + " ".join(
            f"{name} {q:.4f}" for name, q in zip(("min", "p25", "median", "p75", "max"),
                                                 quartiles))
        assert attributed == "attributed: " + ", ".join(
            f"{path} {n}" for path, n in zip(paths, counts))

    def test_summary_of_a_run_without_scores(self, workspace, tmp_path):
        names = [line.split(",")[0] for line in
                 (workspace / "features.csv").read_text().splitlines()[1:]]
        (tmp_path / "zeros.csv").write_text(
            "feature,a,b\n" + "".join(f"{name},0,0\n" for name in names))
        result = run(("classify", "--archive", workspace / "arc.json", "--features",
                      "zeros.csv", "--output", "p.csv"), tmp_path)
        assert result.returncode == 1 and result.stderr.count("all-zero sample") == 2
        assert result.stdout.splitlines()[1:] == [
            "scores: none", "attributed: " + ", ".join(
                f"{e['path']} 0"
                for e in json.loads((workspace / "arc.json").read_text())["entries"])]

    def test_no_prediction_object_on_the_cli_path(self, workspace, tmp_path):
        # in-process: classify writes the subprocess's bytes from the batch's columns
        assert cli.main(["classify", "--archive", str(workspace / "arc.json"), "--features",
                         str(workspace / "features.csv"), "--output", str(tmp_path / "p.csv"),
                         "--threshold", "0.95"]) == 0
        assert (tmp_path / "p.csv").read_bytes() == (workspace / "predictions.csv").read_bytes()

    def test_archive_without_entries_exits_2(self, workspace, tmp_path):
        archive = json.loads((workspace / "arc.json").read_text())
        archive["entries"] = []
        (tmp_path / "arc.json").write_text(json.dumps(archive))
        result = run(("classify", "--archive", "arc.json", "--features",
                      workspace / "features.csv", "--output", "p.csv"), tmp_path)
        assert result.returncode == 2
        assert result.stderr == ("error: malformed archive document: "
                                 "archive needs at least one entry\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["arc.json"]

    def test_empty_features_file_exits_2(self, workspace, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = run(("classify", "--archive", workspace / "arc.json",
                      "--features", empty, "--output", tmp_path / "p.csv"),
                     tmp_path)
        assert result.returncode == 2

    @pytest.mark.parametrize("breakage", ["empty-normalization", "list-config",
                                          "one-maximum"])
    def test_malformed_build_config_exits_2(self, workspace, tmp_path, breakage):
        archive = json.loads((workspace / "arc.json").read_text())
        if breakage == "empty-normalization":
            archive["build_config"]["normalization"] = {}
        elif breakage == "list-config":
            archive["build_config"] = list(archive["build_config"])
        else:
            archive["build_config"]["normalization"]["maxima"] = [1.0]
        (tmp_path / "arc.json").write_text(json.dumps(archive))
        result = run(("classify", "--archive", tmp_path / "arc.json",
                      "--features", workspace / "features.csv",
                      "--output", tmp_path / "p.csv"), tmp_path)
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_workers_flag_is_a_usage_error(self, workspace, tmp_path):
        result = run(("classify", "--archive", workspace / "arc.json",
                      "--features", workspace / "features.csv",
                      "--output", tmp_path / "p.csv", "--workers", "2"), tmp_path)
        assert result.returncode == 2
        assert not (tmp_path / "p.csv").exists()

    def test_feature_layout_mismatch_exits_1(self, workspace, tmp_path):
        (tmp_path / "small.csv").write_text("feature,a\nf0,1\nf1,2\nf2,1\n")
        result = run(("classify", "--archive", workspace / "arc.json",
                      "--features", tmp_path / "small.csv",
                      "--output", tmp_path / "p.csv"), tmp_path)
        assert result.returncode == 1


    def test_reordered_feature_rows_exit_1(self, tmp_path):
        # An archive saved from a library build has no normalization block,
        # so only classify's own name check can catch the reordered rows.
        header, *rows = small_synth(tmp_path)
        data = load_csv(tmp_path / "features.csv", tmp_path / "labels.csv")
        archive, _ = build_archive(data.features, data.labels, BuildConfig(
            EnsembleConfig(k_min=1, k_max=3, n_perturbations=4)))
        save_archive(archive, tmp_path / "lib.json")
        (tmp_path / "reversed.csv").write_text("\n".join([header, *rows[::-1]]) + "\n")
        args = ("classify", "--archive", "lib.json", "--threshold", "0.9", "--features")
        assert run(args + ("features.csv", "--output", "p.csv"), tmp_path).returncode == 0
        result = run(args + ("reversed.csv", "--output", "q.csv"), tmp_path)
        assert result.returncode == 1
        assert "error:" in result.stderr and "feature names" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "q.csv").exists()

@pytest.mark.parametrize("case", [
    "features-utf8", "predictions-utf8", "archive-utf8", "long-csv-field",
    "support-infinity", "purity-401-digits", "maxima-401-digits", "deep-json"])
def test_malformed_bytes_exit_2(workspace, tmp_path, case):
    broken = tmp_path / "broken"
    archive, features = workspace / "arc.json", workspace / "features.csv"
    doc = json.loads(archive.read_text())
    if case in ("features-utf8", "predictions-utf8", "archive-utf8"):
        source = {"features-utf8": features, "archive-utf8": archive,
                  "predictions-utf8": workspace / "predictions.csv"}[case]
        data = source.read_bytes()
        broken.write_bytes(data[:12] + b"\xff" + data[12:])
    elif case == "long-csv-field":
        broken.write_bytes(features.read_bytes() + b'"' + b"9" * 200_000 + b'"\n')
    elif case == "deep-json":
        broken.write_text("[" * 100_000)
    else:
        if case == "support-infinity":
            doc["entries"][0]["support"] = float("inf")
        elif case == "purity-401-digits":
            doc["entries"][0]["purity"] = 10 ** 400
        else:
            doc["build_config"]["normalization"]["maxima"][0] = 10 ** 400
        broken.write_text(json.dumps(doc))
    if case == "predictions-utf8":
        args = ("evaluate", "--predictions", broken, "--truth", broken,
                "--report", tmp_path / "r.json")
    elif case in ("features-utf8", "long-csv-field"):
        args = ("classify", "--archive", archive, "--features", broken,
                "--output", tmp_path / "p.csv")
    else:
        args = ("classify", "--archive", broken, "--features", features,
                "--output", tmp_path / "p.csv")
    result = run(args, tmp_path)
    assert result.returncode == 2, result.stderr
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


class TestEvaluate:
    def write_pair(self, root, truth_lines):
        (root / "p.csv").write_text(
            "sample_id,decision,label,score,attribution\n"
            "a,classified,x,0.99,root/k2/c0\n"
            "b,classified,y,0.98,root/k2/c1\n"
            "c,rejected,x,0.3,root/k2/c0\n")
        (root / "t.csv").write_text(truth_lines)

    def test_writes_report_and_curve(self, tmp_path):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        # flat strip to coverage 1/3 is free, one trapezoid reaches risk 1/3
        assert doc["aurc"] == pytest.approx(1 / 18, abs=1e-12)
        assert doc["macro_f1"] == 1.0 and doc["rejection_novel"] == 1.0
        curve = (tmp_path / "rep.curve.csv").read_text().splitlines()
        assert curve[0] == "threshold,coverage,risk"
        assert len(curve) == 1 + len(doc["rc_curve"])

    def test_tables_with_a_byte_order_mark_read_as_without(self, tmp_path):
        self.write_pair(tmp_path, "\ufeffsample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n")
        (tmp_path / "p.csv").write_text("\ufeff" + (tmp_path / "p.csv").read_text())
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "bom.json"), tmp_path)
        assert result.returncode == 0, result.stderr
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n")
        assert run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                    "--report", "plain.json"), tmp_path).returncode == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_all_correct_run_scores_zero_aurc(self, tmp_path):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nc,x,0\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 0
        assert json.loads((tmp_path / "rep.json").read_text())["aurc"] == 0.0

    def test_four_sample_hand_case_aurc(self, tmp_path):
        # exact rational integral of this case's risk-coverage points is 11/96
        (tmp_path / "p.csv").write_text(
            "sample_id,decision,label,score,attribution\n"
            "a,classified,x,0.9,root/k2/c0\n"
            "b,classified,x,0.8,root/k2/c0\n"
            "c,classified,x,0.7,root/k2/c0\n"
            "d,classified,x,0.6,root/k2/c0\n")
        (tmp_path / "t.csv").write_text(
            "sample_id,label,novel\na,x,0\nb,x,0\nc,y,0\nd,x,0\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["aurc"] == pytest.approx(11 / 96, abs=1e-12)

    def test_missing_novel_column_exits_2(self, tmp_path):
        self.write_pair(tmp_path, "sample_id,label\na,x\nb,y\nc,z\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 2
        assert "novel" in result.stderr

    def test_truth_id_mismatch_exits_2(self, tmp_path):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nq,z,1\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 2
        assert "disagree" in result.stderr

    def test_repeated_prediction_id_exits_2(self, tmp_path):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n")
        with open(tmp_path / "p.csv", "a") as fh:
            fh.write("b,classified,y,0.5,root/k2/c1\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 2
        assert "duplicate sample id 'b' at row 5" in result.stderr

    def test_repeated_truth_id_exits_2(self, tmp_path):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\na,x,0\nb,y,0\nc,z,1\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 2
        assert "duplicate sample id 'a' at row 3" in result.stderr

    def test_unknown_decision_value_exits_2(self, tmp_path):
        (tmp_path / "p.csv").write_text(
            "sample_id,decision,label,score,attribution\na,maybe,x,0.9,root\n")
        (tmp_path / "t.csv").write_text("sample_id,label,novel\na,x,0\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 2

    def test_empty_label_exits_2(self, tmp_path):
        (tmp_path / "p.csv").write_text(
            "sample_id,decision,label,score,attribution\na,rejected,,0.3,root\n")
        (tmp_path / "t.csv").write_text("sample_id,label,novel\na,x,0\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 2
        assert "empty label" in result.stderr

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "0.9x"])
    def test_unusable_score_names_its_row(self, tmp_path, text):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n")
        preds = tmp_path / "p.csv"
        preds.write_text(preds.read_text().replace(",0.98,", f",{text},"))
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 2
        assert f"p.csv: row 3: score is not a finite number: {text!r}" in result.stderr
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("edits,truth,message", [
        ((("0.98,", "x,"), (",rejected,", ",maybe,")), "a,x,0\nb,y,0\nc,z,1\n",
         "p.csv: row 3: score is not a finite number: 'x'"),
        (((",classified,y", ",maybe,y"), (",rejected,x", ",rejected,")), "a,x,0\nb,y,0\nc,z,1\n",
         "p.csv: row 3: unknown decision 'maybe'"),
        (((",rejected,x", ",rejected,"), ("0.3", "inf")), "a,x,0\nb,y,0\nc,z,1\n",
         "p.csv: row 4: empty label"),
        (((",classified,y", ",maybe,y"),), "a,x,0\nb,y,yes\nc,z,2\n",
         "t.csv: row 3: novel must be 0/1/true/false, got 'yes'"),
        # two faults in one row: the decision, then the label, then the score
        (((",classified,y,0.98", ",maybe,y,inf"),), "a,x,0\nb,y,0\nc,z,1\n",
         "p.csv: row 3: unknown decision 'maybe'"),
        (((",classified,y,0.98", ",maybe,,0.98"),), "a,x,0\nb,y,0\nc,z,1\n",
         "p.csv: row 3: unknown decision 'maybe'"),
        (((",rejected,x,0.3", ",rejected,,x"),), "a,x,0\nb,y,0\nc,z,1\n",
         "p.csv: row 4: empty label"),
    ])
    def test_first_faulty_row_is_named(self, tmp_path, edits, truth, message):
        # one pass checks each row's decision, label and score in that order;
        # the message names the first faulty row, and its first faulty cell,
        # truth before predictions
        self.write_pair(tmp_path, "sample_id,label,novel\n" + truth)
        preds = tmp_path / "p.csv"
        text = preds.read_text()
        for old, new in edits:
            text = text.replace(old, new)
        preds.write_text(text)
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 2
        assert message in result.stderr, result.stderr

    def test_report_and_curve_on_one_path_exit_2(self, tmp_path):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "s.json", "--curve", "./s.json"), tmp_path)
        assert result.returncode == 2, result.stderr
        assert "--report s.json and --curve ./s.json name the same file" in result.stderr
        assert not (tmp_path / "s.json").exists()

    def test_unwritable_curve_leaves_no_report(self, tmp_path):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n")
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json", "--curve", "missing/c.csv"), tmp_path)
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "t.csv"]

    def test_failed_curve_replace_keeps_the_file_already_there(self, tmp_path,
                                                               monkeypatch, capsys):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n")
        (tmp_path / "keep.curve.csv").write_text("earlier run\n")
        replace = os.replace

        def failing(src, dst):
            if str(dst).endswith("keep.curve.csv"):
                raise OSError(28, "No space left on device", str(dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                         "--report", "rep.json", "--curve", "keep.curve.csv"]) == 1
        assert capsys.readouterr().err == (
            "error: [Errno 28] No space left on device: 'keep.curve.csv'\n")
        assert (tmp_path / "keep.curve.csv").read_text() == "earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.curve.csv", "p.csv",
                                                              "t.csv"]

    def test_report_curve_cells_are_the_curve_tables_text(self, tmp_path):
        self.write_pair(tmp_path, "sample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n")
        preds = tmp_path / "p.csv"
        preds.write_text(preds.read_text().replace(",0.3,", ",-0.0,"))
        result = run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
                      "--report", "rep.json"), tmp_path)
        assert result.returncode == 0, result.stderr
        doc = json.loads((tmp_path / "rep.json").read_text(), parse_float=str)
        table = read_rows(tmp_path / "rep.curve.csv")
        assert doc["rc_curve"] == table
        assert [row["threshold"] for row in table] == ["1.99", "0.98999999999999999",
                                                       "0.97999999999999998", "-0.0", "-1.0"]


class TestDeterminism:
    def pipeline(self, root):
        for args in (
            SYNTH_ARGS,
            BUILD_ARGS,
            ("classify", "--archive", "arc.json", "--features", "features.csv",
             "--output", "predictions.csv", "--threshold", "0.95"),
        ):
            assert run(args, root).returncode == 0
        truth = "sample_id,label,novel\n" + "".join(
            f"{r['sample_id']},{r['label']},0\n"
            for r in read_rows(root / "labels.csv"))
        (root / "truth.csv").write_text(truth)
        assert run(("evaluate", "--predictions", "predictions.csv",
                    "--truth", "truth.csv", "--report", "report.json"),
                   root).returncode == 0

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for root in (a, b):
            root.mkdir()
            self.pipeline(root)
        for name in ("arc.json", "arc.report.json", "predictions.csv",
                     "report.json", "report.curve.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_worker_count_never_changes_outputs(self, workspace, tmp_path):
        for name in ("features.csv", "labels.csv"):
            (tmp_path / name).write_bytes((workspace / name).read_bytes())
        assert run(BUILD_ARGS + ("--workers", "4"), tmp_path).returncode == 0
        assert ((tmp_path / "arc.json").read_bytes()
                == (workspace / "arc.json").read_bytes())
        result = run(("classify", "--archive", "arc.json", "--features",
                      "features.csv", "--output", "predictions.csv",
                      "--threshold", "0.95"), tmp_path)
        assert result.returncode == 0
        assert ((tmp_path / "predictions.csv").read_bytes()
                == (workspace / "predictions.csv").read_bytes())

    def watched_build(self, inputs, root, workers, monkeypatch, **patches):
        """Build ``inputs``' features and labels in-process in ``root``, with
        the named ``rank`` attributes replaced (the forked pool workers inherit
        them) and two usable CPUs."""
        root.mkdir()
        for name in ("features.csv", "labels.csv"):
            (root / name).write_bytes((inputs / name).read_bytes())
        for name, value in patches.items():
            monkeypatch.setattr(rank, name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.chdir(root)
        assert cli.main(list(BUILD_ARGS) + ["--workers", str(workers)]) == 0
        assert not has_children()

    def test_workers_1_runs_every_member_on_the_calling_thread(self, families_workspace,
                                                               tmp_path, monkeypatch):
        threads = []
        stack = rank.nmf_stack

        def recording(*args):
            threads.append((os.getpid(), threading.get_ident()))
            return stack(*args)

        self.watched_build(families_workspace, tmp_path / "w1", 1, monkeypatch,
                           nmf_stack=recording)
        assert threads and set(threads) == {(os.getpid(), threading.get_ident())}
        for name in ("arc.json", "arc.report.json"):
            assert ((tmp_path / "w1" / name).read_bytes()
                    == (families_workspace / name).read_bytes())

    def test_workers_2_runs_child_subtrees_in_other_processes(self, families_workspace,
                                                              tmp_path, monkeypatch):
        log, stack = tmp_path / "pids.txt", rank.nmf_stack

        def recording(xs, k, seeds, *rest):  # one stack holds each node's members
            with open(log, "a") as fh:
                fh.write(f"{seeds[0]} {os.getpid()}\n")
            return stack(xs, k, seeds, *rest)

        self.watched_build(families_workspace, tmp_path / "w2", 2, monkeypatch,
                           nmf_stack=recording)
        nodes = json.loads((tmp_path / "w2" / "arc.report.json").read_text())["nodes"]
        paths = {node_seed(0, nd["path"]): nd["path"] for nd in nodes if nd["per_k"]}
        pids = {}
        for seed, pid in (line.split() for line in log.read_text().splitlines()):
            pids.setdefault(paths[int(seed)], set()).add(int(pid))
        assert pids.pop(ROOT_PATH) == {os.getpid()}
        assert len(pids) == 3 and os.getpid() not in set.union(*pids.values())
        for name in ("arc.json", "arc.report.json"):
            assert ((tmp_path / "w2" / name).read_bytes()
                    == (families_workspace / name).read_bytes())

    def test_member_failures_count_the_same_at_any_worker_count(self, families_workspace,
                                                               tmp_path, monkeypatch):
        nodes = json.loads((families_workspace / "arc.report.json").read_text())["nodes"]
        failing = {node_seed(0, nd["path"]) + 2 for nd in nodes}  # --seed 0; member 2
        perturb = rank.perturb

        def failing_perturb(x, epsilon, seed):
            # an all-zero member fails inside the stacked kernel
            p = perturb(x, epsilon, seed)
            return type(p)(p.values * 0.0, p.sample_ids) if seed in failing else p

        for workers in (1, 2):
            self.watched_build(families_workspace, tmp_path / str(workers), workers,
                               monkeypatch, perturb=failing_perturb)
        nodes = json.loads((tmp_path / "1" / "arc.report.json").read_text())["nodes"]
        assert [s["members"]["failed"] for s in nodes[0]["per_k"]] == [1, 1, 1, 1]
        assert len(nodes) == 4 and all(
            s["members"]["failed"] == 1 for nd in nodes for s in nd["per_k"])
        for name in ("arc.json", "arc.report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_pool_forked_under_live_blas_threads_writes_the_serial_bytes(self, tmp_path):
        # three families of 160 samples: with two usable CPUs the build forks
        # its pool for them, and at two threads OpenBLAS starts its second
        # thread when numpy loads, so the pool forks under it
        data = families(per_subfamily=80)
        for threads, workers in (("1", "1"), ("2", "2")):
            root = tmp_path / workers
            root.mkdir()
            save_csv(data, root / "features.csv", root / "labels.csv")
            result = run(("build", "--features", "features.csv", "--labels", "labels.csv",
                          "--archive", "arc.json", "--k-max", "6", "--n-perturbations", "10",
                          "--workers", workers), root, OPENBLAS_NUM_THREADS=threads)
            assert result.returncode == 0, result.stderr
        for name in ("arc.json", "arc.report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_runpy_as_main_writes_the_bytes_of_python_m(self, workspace, tmp_path,
                                                        monkeypatch):
        # ``python -m cProfile -m sigarchive.cli`` runs the module this way,
        # with the profiler's own module left as sys.modules["__main__"]
        for name in ("features.csv", "labels.csv"):
            (tmp_path / name).write_bytes((workspace / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        for args in (BUILD_ARGS, ("classify", "--archive", "arc.json", "--features",
                                  "features.csv", "--output", "predictions.csv",
                                  "--threshold", "0.95")):
            monkeypatch.setattr(sys, "argv", ["sigarchive", *args])
            with warnings.catch_warnings(), pytest.raises(SystemExit) as stop:
                # this session imported sigarchive.cli already, which runpy warns of
                warnings.simplefilter("ignore", RuntimeWarning)
                runpy.run_module("sigarchive.cli", run_name="__main__")
            assert stop.value.code == 0
        for name in ("arc.json", "arc.report.json", "predictions.csv"):
            assert (tmp_path / name).read_bytes() == (workspace / name).read_bytes(), name

    def test_blas_thread_count_never_changes_outputs(self, tmp_path):
        # 40 x 1,000 samples: the whole-matrix residual norms are long enough
        # for OpenBLAS to split a dot product across threads.  12,000 x 30:
        # so are each sample's score sums and projection
        inputs = {
            "long": (("--n-classes", "4", "--samples-per-class", "250"),
                     ("--k-max", "6", "--n-perturbations", "10"), "0.95"),
            "wide": (("--n-features", "12000", "--n-classes", "3",
                      "--samples-per-class", "10"),
                     ("--k-max", "3", "--n-perturbations", "4"), "0.5"),
        }
        for data, (synth, build, threshold) in inputs.items():
            steps = (
                ("synth", *synth, "--seed", "7"),
                ("build", "--features", "features.csv", "--labels", "labels.csv",
                 "--archive", "arc.json", *build),
                ("classify", "--archive", "arc.json", "--features", "features.csv",
                 "--output", "predictions.csv", "--threshold", threshold),
                ("evaluate", "--predictions", "predictions.csv", "--truth", "truth.csv",
                 "--report", "report.json"),
            )
            for threads in ("1", "2"):
                root = tmp_path / data / threads
                root.mkdir(parents=True)
                for args in steps:
                    if args[0] == "evaluate":
                        (root / "truth.csv").write_text("sample_id,label,novel\n" + "".join(
                            f"{r['sample_id']},{r['label']},0\n"
                            for r in read_rows(root / "labels.csv")))
                    result = run(args, root, OPENBLAS_NUM_THREADS=threads)
                    assert result.returncode == 0, result.stderr
            for name in ("features.csv", "labels.csv", "truth.json", "arc.json",
                         "arc.report.json", "predictions.csv", "report.json",
                         "report.curve.csv"):
                one, two = (tmp_path / data / t / name for t in ("1", "2"))
                assert one.read_bytes() == two.read_bytes(), (data, name)


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads /proc")
class TestInterruptedBuild:
    """A build signalled mid-scan prints one line and leaves nothing behind."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("kill")
        save_csv(families(per_subfamily=80), root / "features.csv", root / "labels.csv")
        return root

    def start(self, inputs, root, workers):
        """A build of ``inputs`` in ``root``, in a session of its own, once it
        is in mid-scan: at ``--workers 2``, in the pool that builds the root's
        three subtrees."""
        for name in ("features.csv", "labels.csv"):
            (root / name).write_bytes((inputs / name).read_bytes())
        build = subprocess.Popen(
            [sys.executable, "-m", "sigarchive.cli", "build", "--features", "features.csv",
             "--labels", "labels.csv", "--archive", "arc.json", "--k-max", "6",
             "--workers", str(workers)],
            cwd=root, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        if workers == 1:
            time.sleep(0.6)  # in the root's scan, of about 2 s
        else:
            while not processes(1, build.pid) and build.poll() is None:
                time.sleep(0.01)
            time.sleep(0.1)
        return build

    @pytest.mark.parametrize("workers,signum,group", [
        (1, signal.SIGINT, False), (1, signal.SIGTERM, False), (2, signal.SIGINT, False),
        (2, signal.SIGTERM, False), (2, signal.SIGINT, True), (2, signal.SIGTERM, True)],
        ids=["1-INT", "1-TERM", "2-INT", "2-TERM", "2-INT-group", "2-TERM-group"])
    def test_signal_mid_scan_ends_cleanly(self, inputs, tmp_path, workers, signum, group):
        # a group signal reaches the workers as well, as a terminal's or a
        # service manager's does
        if workers > 1 and len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: the build forks no pool")
        build = self.start(inputs, tmp_path, workers)
        try:
            (os.killpg if group else os.kill)(build.pid, signum)
            out, err = build.communicate(timeout=60)
        finally:
            build.kill()
        assert build.returncode == -signum, err
        assert (out, err) == ("", "error: interrupted\n")
        assert sorted(os.listdir(tmp_path)) == ["features.csv", "labels.csv"]
        assert processes(3, build.pid) == []

    def test_pool_workers_die_with_their_parent(self, inputs, tmp_path):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: the build forks no pool")
        build = self.start(inputs, tmp_path, 2)
        assert len(processes(1, build.pid)) == 2
        build.kill()  # SIGKILL: no cleanup runs in the parent
        out, err = build.communicate(timeout=60)
        deadline = time.monotonic() + 10
        while processes(3, build.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert processes(3, build.pid) == []
        assert (out, err) == ("", "")

    def test_a_killed_worker_fails_the_build(self, inputs, tmp_path):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: the build forks no pool")
        build = self.start(inputs, tmp_path, 2)
        os.kill(processes(1, build.pid)[0], signal.SIGKILL)
        try:
            out, err = build.communicate(timeout=60)
        finally:
            build.kill()
        assert build.returncode == 1
        assert (out, err) == ("", "error: a build worker ended without its result\n")
        assert sorted(os.listdir(tmp_path)) == ["features.csv", "labels.csv"]
        assert processes(3, build.pid) == []
