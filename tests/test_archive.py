"""Hierarchical archive construction, persistence, and supporting helpers."""

import multiprocessing
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fm
from sigarchive import (
    ArchiveEntry,
    ArchiveFormatError,
    BuildConfig,
    DegenerateBuildError,
    EnsembleConfig,
    FeatureMatrix,
    InferenceConfig,
    SignatureArchive,
    ValidationError,
    build_archive,
    classify_batch,
    load_archive,
    nmf_factorize,
    save_archive,
)
from sigarchive.archive import (
    _NODE_K_CAP,
    REASON_NODE_TOO_SMALL,
    REASON_ZERO_ACTIVITY,
    assign_clusters,
    normalize_factor_pair,
    uniformity,
)
from sigarchive import rank
from sigarchive.dataio import SynthSpec, generate_synthetic
from sigarchive.linalg import FactorPair


def small_build_config(k_max=5, min_cluster_size=10, **kwargs) -> BuildConfig:
    return BuildConfig(
        ensemble=EnsembleConfig(k_min=1, k_max=k_max, n_perturbations=8, base_seed=0),
        min_cluster_size=min_cluster_size,
        **kwargs,
    )


class TestUniformity:
    def test_pure_group(self):
        got = uniformity(["A", "A", "A"], 1.0)
        assert got.uniform and got.majority_label == "A" and got.purity == 1.0

    def test_impure_at_strict_threshold(self):
        got = uniformity(["A", "A", "B"], 1.0)
        assert not got.uniform
        assert got.purity == pytest.approx(2 / 3, abs=1e-15)

    def test_impure_group_passes_loose_threshold(self):
        got = uniformity(["A", "A", "B"], 0.6)
        assert got.uniform and got.majority_label == "A"
        assert got.purity == pytest.approx(0.667, abs=1e-3)

    def test_count_tie_goes_to_smallest_label(self):
        got = uniformity(["B", "A"], 0.5)
        assert got.majority_label == "A" and got.purity == 0.5

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            uniformity([], 1.0)


class TestAssignClusters:
    def test_identity_activities(self):
        pair = FactorPair(np.eye(2), np.eye(2), (1.0,), seed=0)
        assert assign_clusters(pair).tolist() == [0, 1]

    def test_tie_takes_lowest_index(self):
        pair = FactorPair(np.eye(2), np.array([[0.5, 0.2], [0.5, 0.9]]), (1.0,), seed=0)
        assert assign_clusters(pair).tolist() == [0, 1]

    def test_zero_activity_column_unassigned(self):
        pair = FactorPair(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), (1.0,), seed=0)
        assert assign_clusters(pair).tolist() == [0, -1]

    def test_column_scaling_is_compensated(self):
        # doubling a signature column while halving its activity row must
        # not change any assignment
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        h = np.array([[0.6, 0.3], [0.5, 0.4]])
        base = assign_clusters(FactorPair(w, h, (1.0,), seed=0))
        scaled_w = w * np.array([2.0, 1.0])
        scaled_h = h * np.array([[0.5], [1.0]])
        scaled = assign_clusters(FactorPair(scaled_w, scaled_h, (1.0,), seed=0))
        assert np.array_equal(base, scaled)

    def test_normalize_factor_pair_preserves_product(self):
        rng = np.random.default_rng(0)
        pair = FactorPair(rng.random((4, 2)) + 0.1, rng.random((2, 5)) + 0.1,
                          (9.0,), seed=0)
        normed = normalize_factor_pair(pair)
        assert np.allclose(np.linalg.norm(normed.w, axis=0), 1.0, atol=1e-12)
        assert np.allclose(normed.w @ normed.h, pair.w @ pair.h, atol=1e-12)

    def test_normalize_factor_pair_keeps_run_record(self):
        pair = FactorPair(np.full((2, 1), 2.0), np.ones((1, 3)), (9.0, 4.0), 5, 17, "capped")
        normed = normalize_factor_pair(pair)
        assert ((normed.objective_trace, normed.seed, normed.sweeps, normed.stop)
                == ((9.0, 4.0), 5, 17, "capped"))

    def test_recovers_disjoint_generating_signatures(self):
        data, _ = generate_synthetic(SynthSpec(
            n_features=30, n_classes=3, samples_per_class=100,
            signature_overlap=0.0, noise_sigma=0.0, seed=3))
        pair = nmf_factorize(data.features, 3, seed=0)
        assignment = assign_clusters(pair)
        truth = np.repeat(np.arange(3), 100)
        # map each cluster to its majority class, then count agreement
        agree = 0
        for c in range(3):
            members = truth[assignment == c]
            if len(members):
                agree += int((members == np.bincount(members).argmax()).sum())
        assert agree >= 0.99 * data.features.n_samples


class TestBuildArchive:
    def test_single_label_short_circuits(self):
        data, _ = generate_synthetic(SynthSpec(
            n_features=10, n_classes=1, samples_per_class=40,
            noise_sigma=0.02, seed=1))
        archive, report = build_archive(data.features, data.labels,
                                        small_build_config())
        assert len(archive.entries) == 1
        entry = archive.entries[0]
        assert entry.label == "class0" and entry.depth == 0 and entry.purity == 1.0
        assert entry.support == 40 and not archive.unresolved
        assert report.n_archived == 40 and report.n_unresolved == 0

    def test_single_label_node_parks_all_zero_sample(self):
        # a pure node runs the k = 1 node path, so an all-zero sample is
        # parked at the node, as a mixed node parks one, not archived
        data, _ = generate_synthetic(SynthSpec(
            n_features=10, n_classes=1, samples_per_class=40,
            noise_sigma=0.02, seed=1))
        values = data.features.values.copy()
        values[:, 7] = 0.0
        x = FeatureMatrix(values, data.features.sample_ids)
        archive, report = build_archive(x, data.labels, small_build_config())
        entry, = archive.entries
        assert entry.support == 39 and entry.path == "root/k1/c0"
        group, = archive.unresolved
        assert group.path == "root" and group.reason == REASON_ZERO_ACTIVITY
        assert group.sample_ids == (x.sample_ids[7],)
        assert report.n_archived + report.n_unresolved == x.n_samples == 40
        node, = report.nodes
        assert (node.selected_k, node.selection_rule) == (1, "single-label")
        assert node.clusters[0].size == 39

    def test_three_class_build(self):
        data, _ = generate_synthetic(SynthSpec(
            n_features=30, n_classes=3, samples_per_class=100,
            signature_overlap=0.1, noise_sigma=0.02, seed=2))
        archive, report = build_archive(data.features, data.labels,
                                        small_build_config())
        assert len(archive.entries) >= 3
        assert set(archive.labels()) == {"class0", "class1", "class2"}
        assert all(e.purity == 1.0 for e in archive.entries)
        covered = sum(e.support for e in archive.entries)
        parked = sum(len(u.sample_ids) for u in archive.unresolved)
        assert covered + parked == data.features.n_samples

    def test_shared_signature_forces_recursion(self):
        # classes A and B mix a common component with small distinguishing
        # blocks, so the root can only separate class C; the A/B split must
        # happen one level down
        rng = np.random.default_rng(0)
        n = 16

        def block(lo):
            v = np.zeros(n)
            v[lo:lo + 4] = rng.uniform(0.5, 1.0, 4)
            return v / np.linalg.norm(v)

        shared, da, db, dc = block(0), block(4), block(8), block(12)
        cols, labels = [], []
        for _ in range(60):
            cols.append(rng.uniform(0.95, 1.05) * shared
                        + 0.25 * rng.uniform(0.95, 1.05) * da)
            labels.append("A")
        for _ in range(60):
            cols.append(rng.uniform(0.95, 1.05) * shared
                        + 0.25 * rng.uniform(0.95, 1.05) * db)
            labels.append("B")
        for _ in range(60):
            cols.append(rng.uniform(1.6, 2.4) * dc)
            labels.append("C")
        x = fm(np.column_stack(cols))

        archive, report = build_archive(x, labels, small_build_config(k_max=2))
        by_label = {e.label: e for e in archive.entries}
        assert set(by_label) == {"A", "B", "C"}
        assert by_label["C"].depth == 0
        assert by_label["A"].depth >= 1 and by_label["B"].depth >= 1
        assert all(e.purity == 1.0 for e in archive.entries)
        assert report.n_unresolved == 0

    def test_label_count_mismatch_rejected(self):
        x = fm(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            build_archive(x, ["A", "B"], small_build_config())

    def test_inseparable_two_label_data_fails_explicitly(self):
        # exact rank-1 data carrying two labels can never produce a uniform
        # cluster, so the build must fail rather than emit impure entries
        x = fm(np.outer([1.0, 2.0, 0.5], np.linspace(1.0, 2.0, 30)))
        labels = ["A", "B"] * 15
        with pytest.raises(DegenerateBuildError):
            build_archive(x, labels, small_build_config(k_max=3, min_cluster_size=5))

    def test_node_below_min_cluster_size_is_parked(self):
        data, _ = generate_synthetic(SynthSpec(
            n_features=10, n_classes=2, samples_per_class=8,
            noise_sigma=0.01, seed=4))
        with pytest.raises(DegenerateBuildError):
            # the whole root is smaller than min_cluster_size
            build_archive(data.features, data.labels,
                          small_build_config(min_cluster_size=100))

    def test_conservation_with_unresolved_groups(self):
        data, _ = generate_synthetic(SynthSpec(
            n_features=20, n_classes=2, samples_per_class=30,
            signature_overlap=0.1, noise_sigma=0.02, seed=5))
        archive, report = build_archive(data.features, data.labels,
                                        small_build_config(min_cluster_size=25))
        covered = sum(e.support for e in archive.entries)
        parked = sum(len(u.sample_ids) for u in archive.unresolved)
        assert covered + parked == 60
        assert report.n_archived == covered and report.n_unresolved == parked

    def test_report_lists_selected_k_per_node(self):
        data, _ = generate_synthetic(SynthSpec(
            n_features=30, n_classes=3, samples_per_class=100,
            signature_overlap=0.1, noise_sigma=0.02, seed=2))
        _, report = build_archive(data.features, data.labels, small_build_config())
        root = next(nd for nd in report.nodes if nd.path == "root")
        assert root.selected_k is not None and root.per_k is not None
        doc = report.to_document()
        assert doc["nodes"][0]["selected_k"] == root.selected_k
        for entry, stats in zip(doc["nodes"][0]["per_k"], root.per_k):
            members = entry["members"]
            assert list(members) == ["converged", "capped", "uphill", "failed"]
            assert members["converged"] == stats.members_converged
            assert sum(members.values()) == 8  # n_perturbations

    def test_report_says_where_and_why_a_scan_stopped(self):
        # A scan that stopped lists ranks from k_min up to one below its k_max;
        # the last is unstable, an earlier k >= 2 is stable, and the build
        # config holds the threshold that decides both.
        data, _ = generate_synthetic(SynthSpec(
            n_features=24, n_classes=3, samples_per_class=20,
            signature_overlap=0.1, noise_sigma=0.02, seed=11))
        archive, report = build_archive(data.features, data.labels,
                                        small_build_config(min_cluster_size=5))
        ens = archive.build_config["ensemble"]
        stopped = 0
        for node in report.to_document()["nodes"]:
            if node["per_k"] is None:
                continue
            k_max = min(ens["k_max"], archive.n_features, node["size"] - 1, _NODE_K_CAP)
            ks = [s["k"] for s in node["per_k"]]
            assert ks == list(range(min(ens["k_min"], k_max), ks[-1] + 1))
            stable = [s["min_silhouette"] >= ens["silhouette_threshold"]
                      for s in node["per_k"]]
            if ks[-1] < k_max:
                stopped += 1
                assert not stable[-1]
                assert any(ok and k >= 2 for k, ok in zip(ks, stable))
                assert node["selection_rule"] == "threshold"
                assert node["selected_k"] == max(k for k, ok in zip(ks, stable) if ok)
        assert stopped


class TestBuildWorkers:
    """``build_archive(workers=N)`` runs ensemble members in one process pool."""

    DATA, _ = generate_synthetic(SynthSpec(n_features=12, n_classes=3,
                                           samples_per_class=20, seed=5))
    CFG = BuildConfig(ensemble=EnsembleConfig(k_min=1, k_max=3, n_perturbations=4),
                      min_cluster_size=5)   # root scan: up to 3 ranks x 4 members

    def build(self, workers):
        return build_archive(self.DATA.features, self.DATA.labels, self.CFG,
                             workers=workers)

    def test_pool_size_is_bounded_by_cpus_and_jobs(self, monkeypatch):
        # A stand-in pool that runs jobs in-process, so no process is started
        made = []

        class Pool:
            def __init__(self, processes, **kwargs):
                made.append(processes)

            imap = staticmethod(map)

            def terminate(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(multiprocessing, "get_context",
                            {"fork": SimpleNamespace(Pool=Pool)}.__getitem__)
        serial = self.build(1)
        # a scan queues one rank's 4 members at a time, so the pool never needs more
        for cpus, workers, pool in ((3, 100_000, [3]), (64, 100_000, [4]),
                                    (64, 2, [2]), (1, 8, []), (64, 1, [])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            made.clear()
            assert self.build(workers) == serial
            assert made == pool, (cpus, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_member_runs_above_the_stop(self, workers, monkeypatch, tmp_path):
        # every scan sees rank 2 stable and rank 3 not, so none may reach rank 4
        log, real = tmp_path / "ranks", rank.nmf_factorize

        def logged(x, k, seed, opts):  # appends from the pool's processes too
            with open(log, "a") as fh:
                fh.write(f"{k}\n")
            return real(x, k, seed, opts)

        monkeypatch.setattr(rank, "nmf_factorize", logged)
        monkeypatch.setattr(rank, "ensemble_stability", lambda clusters: (
            {1: 1.0, 2: 0.9, 3: 0.2}.get(len(clusters), 0.9),) * 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = replace(self.CFG, ensemble=replace(self.CFG.ensemble, k_max=5))
        _, report = build_archive(self.DATA.features, self.DATA.labels, cfg, workers=workers)
        scans = [nd.per_k for nd in report.nodes if nd.per_k is not None]
        assert scans and all([s.k for s in per_k] == [1, 2, 3] for per_k in scans)
        assert sorted(map(int, log.read_text().split())) == sorted(
            s.k for per_k in scans for s in per_k for _ in range(4))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_other_member_errors_propagate_with_their_type(self, workers, monkeypatch):
        def failing(*args):
            raise ArithmeticError("not a SigArchiveError")

        monkeypatch.setattr(rank, "nmf_factorize", failing)
        with pytest.raises(ArithmeticError, match="not a SigArchiveError"):
            self.build(workers)
        assert not multiprocessing.active_children()

    def test_no_worker_outlives_the_build(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert self.build(2) == self.build(1)
        assert not multiprocessing.active_children()

        x = fm(np.outer([1.0, 2.0, 0.5], np.linspace(1.0, 2.0, 30)))
        with pytest.raises(DegenerateBuildError):
            build_archive(x, ["A", "B"] * 15, self.CFG, workers=2)
        assert not multiprocessing.active_children()

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(rank, "cluster_ensemble_signatures", interrupt)
        with pytest.raises(KeyboardInterrupt):
            self.build(2)
        assert not multiprocessing.active_children()


class TestArchiveTypes:
    def test_entry_requires_unit_signature(self):
        with pytest.raises(ValidationError):
            ArchiveEntry(np.array([1.0, 1.0]), "A", 1.0, 1, "root/k1/c0", 0)

    def test_entry_rejects_bad_purity_and_support(self):
        sig = np.array([1.0, 0.0])
        with pytest.raises(ValidationError):
            ArchiveEntry(sig, "A", 1.5, 1, "p", 0)
        with pytest.raises(ValidationError):
            ArchiveEntry(sig, "A", 1.0, 0, "p", 0)

    def test_archive_rejects_wrong_signature_length(self):
        entry = ArchiveEntry(np.array([1.0, 0.0]), "A", 1.0, 1, "p", 0)
        with pytest.raises(ValidationError):
            SignatureArchive((entry,), ("f0", "f1", "f2"), {})

    def test_archive_rejects_duplicate_paths(self):
        entry = ArchiveEntry(np.array([1.0, 0.0]), "A", 1.0, 1, "p", 0)
        with pytest.raises(ValidationError):
            SignatureArchive((entry, entry), ("f0", "f1"), {})

    def test_signature_matrix_is_one_read_only_stack(self):
        entries = (ArchiveEntry(np.array([0.6, 0.8, 0.0]), "A", 1.0, 1, "a", 0),
                   ArchiveEntry(np.array([0.0, 0.0, 1.0]), "B", 1.0, 1, "b", 0))
        archive = SignatureArchive(entries, ("f0", "f1", "f2"), {})
        basis = archive.signature_matrix()
        assert archive.signature_matrix() is basis
        assert not basis.flags.writeable and basis.flags.c_contiguous
        assert np.array_equal(basis, np.column_stack([e.signature for e in entries]))
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_build_config_rejects_low_purity(self):
        with pytest.raises(ValidationError):
            BuildConfig(ensemble=EnsembleConfig(k_min=1, k_max=2),
                        purity_threshold=0.5)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    data, _ = generate_synthetic(SynthSpec(
        n_features=30, n_classes=3, samples_per_class=100,
        signature_overlap=0.1, noise_sigma=0.02, seed=6))
    archive, _ = build_archive(data.features, data.labels, small_build_config())
    return data, archive


class TestPersistence:
    def test_round_trip_equality(self, built, tmp_path):
        _, archive = built
        path = tmp_path / "archive.json"
        save_archive(archive, path)
        assert load_archive(path) == archive

    def test_mutated_schema_version_rejected(self, built, tmp_path):
        _, archive = built
        path = tmp_path / "archive.json"
        save_archive(archive, path)
        text = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
        path.write_text(text)
        with pytest.raises(ArchiveFormatError):
            load_archive(path)

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "archive.json"
        path.write_text("not a document")
        with pytest.raises(ArchiveFormatError):
            load_archive(path)
        path.write_text('{"schema_version": 1}')
        with pytest.raises(ArchiveFormatError):
            load_archive(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArchiveFormatError):
            load_archive(tmp_path / "nope.json")

    def test_reloaded_archive_classifies_identically(self, built, tmp_path):
        data, archive = built
        path = tmp_path / "archive.json"
        save_archive(archive, path)
        reloaded = load_archive(path)
        cfg = InferenceConfig(t=0.9)
        before, _ = classify_batch(data.features, archive, cfg)
        after, _ = classify_batch(data.features, reloaded, cfg)
        assert before == after

    def test_save_is_deterministic(self, built, tmp_path):
        _, archive = built
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_archive(archive, a)
        save_archive(archive, b)
        assert a.read_bytes() == b.read_bytes()
