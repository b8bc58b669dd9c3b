"""End-to-end command line tests, driven through subprocesses unless noted."""

import csv
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import cli_env

from sigarchive import (BuildConfig, EnsembleConfig, SigArchiveError, build_archive, cli,
                        load_csv, rank, save_archive)
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

    def watched_build(self, workspace, root, workers, monkeypatch, factorize):
        """Build the workspace's inputs in-process in ``root``, with
        ``rank.nmf_factorize`` replaced by ``factorize`` (inherited by the
        forked pool workers) and two usable CPUs."""
        root.mkdir()
        for name in ("features.csv", "labels.csv"):
            (root / name).write_bytes((workspace / name).read_bytes())
        monkeypatch.setattr(rank, "nmf_factorize", factorize)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.chdir(root)
        assert cli.main(list(BUILD_ARGS) + ["--workers", str(workers)]) == 0
        assert not multiprocessing.active_children()

    def test_workers_1_runs_every_member_on_the_calling_thread(self, workspace, tmp_path,
                                                               monkeypatch):
        threads = []
        factorize = rank.nmf_factorize

        def recording(*args):
            threads.append((os.getpid(), threading.get_ident()))
            return factorize(*args)

        self.watched_build(workspace, tmp_path / "w1", 1, monkeypatch, recording)
        assert threads and set(threads) == {(os.getpid(), threading.get_ident())}
        for name in ("arc.json", "arc.report.json"):
            assert (tmp_path / "w1" / name).read_bytes() == (workspace / name).read_bytes()

    def test_workers_2_runs_members_in_other_processes(self, workspace, tmp_path,
                                                       monkeypatch):
        pids = tmp_path / "pids.txt"
        factorize = rank.nmf_factorize

        def recording(*args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return factorize(*args)

        self.watched_build(workspace, tmp_path / "w2", 2, monkeypatch, recording)
        seen = set(pids.read_text().split())
        assert seen and str(os.getpid()) not in seen
        for name in ("arc.json", "arc.report.json"):
            assert (tmp_path / "w2" / name).read_bytes() == (workspace / name).read_bytes()

    def test_member_failures_count_the_same_at_any_worker_count(self, workspace, tmp_path,
                                                               monkeypatch):
        failing_seed = node_seed(0, ROOT_PATH) + 2   # --seed 0; member 2 of the root
        factorize = rank.nmf_factorize

        def failing(x, k, seed, *rest):
            if seed == failing_seed:
                raise SigArchiveError("injected member failure")
            return factorize(x, k, seed, *rest)

        for workers in (1, 2):
            self.watched_build(workspace, tmp_path / str(workers), workers, monkeypatch,
                               failing)
        root = json.loads((tmp_path / "1" / "arc.report.json").read_text())["nodes"][0]
        assert [s["members"]["failed"] for s in root["per_k"]] == [1, 1, 1, 1]
        for name in ("arc.json", "arc.report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_pool_forked_under_live_blas_threads_writes_the_serial_bytes(self, tmp_path):
        # the acceptance spec, 40 x 1,000; with two usable CPUs the build
        # forks its pool after OpenBLAS has started its second thread
        steps = (
            ("synth", "--n-classes", "4", "--samples-per-class", "250", "--seed", "7"),
            ("build", "--features", "features.csv", "--labels", "labels.csv",
             "--archive", "arc.json", "--k-max", "6", "--n-perturbations", "10"),
        )
        for threads, workers in (("1", "1"), ("2", "2")):
            root = tmp_path / workers
            root.mkdir()
            for args in steps:
                if args[0] == "build":
                    args += ("--workers", workers)
                result = run(args, root, OPENBLAS_NUM_THREADS=threads)
                assert result.returncode == 0, result.stderr
        for name in ("features.csv", "labels.csv", "arc.json", "arc.report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_blas_thread_count_never_changes_outputs(self, tmp_path):
        # 40 x 1,000 samples: the whole-matrix residual norms are long enough
        # for OpenBLAS to split a dot product across threads
        steps = (
            ("synth", "--n-classes", "4", "--samples-per-class", "250", "--seed", "7"),
            ("build", "--features", "features.csv", "--labels", "labels.csv",
             "--archive", "arc.json", "--k-max", "6", "--n-perturbations", "10"),
            ("classify", "--archive", "arc.json", "--features", "features.csv",
             "--output", "predictions.csv", "--threshold", "0.95"),
            ("evaluate", "--predictions", "predictions.csv", "--truth", "truth.csv",
             "--report", "report.json"),
        )
        for threads in ("1", "2"):
            root = tmp_path / threads
            root.mkdir()
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
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
