"""CSV loading, normalization, holdout splitting, and synthetic data."""

import logging

import numpy as np
import pytest

from sigarchive import (
    ArchiveFormatError,
    DegenerateInputError,
    FeatureMatrix,
    ValidationError,
    build_archive,
    BuildConfig,
    EnsembleConfig,
)
from sigarchive.dataio import (
    MODE_NONE,
    LabeledDataset,
    NormalizationParams,
    SynthSpec,
    apply_normalization,
    generate_synthetic,
    load_csv,
    load_features_csv,
    load_labels_csv,
    normalize,
    save_csv,
    split_holdout,
)
from sigarchive.linalg import nnls_solve


def small_dataset():
    features = FeatureMatrix(np.array([[0.1, 2.5, 3.0], [1.0, 0.0, 0.7]]),
                             ("a", "b", "c"), ("f0", "f1"))
    return LabeledDataset(features, ("x", "y", "x"))


class TestCsvRoundTrip:
    def test_load_well_formed(self, tmp_path):
        (tmp_path / "f.csv").write_text(
            "feature,a,b,c\nf0,0.1,2.5,3\nf1,1,0,0.7\n")
        (tmp_path / "l.csv").write_text(
            "sample_id,label\na,x\nb,y\nc,x\n")
        data = load_csv(tmp_path / "f.csv", tmp_path / "l.csv")
        assert data.features.sample_ids == ("a", "b", "c")
        assert data.features.feature_names == ("f0", "f1")
        assert data.labels == ("x", "y", "x")
        assert data.features.values[1].tolist() == [1.0, 0.0, 0.7]

    def test_save_load_save_is_a_byte_fixpoint(self, tmp_path):
        data = small_dataset()
        save_csv(data, tmp_path / "f.csv", tmp_path / "l.csv")
        reloaded = load_csv(tmp_path / "f.csv", tmp_path / "l.csv")
        assert reloaded == data
        save_csv(reloaded, tmp_path / "f2.csv", tmp_path / "l2.csv")
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()
        assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "l2.csv").read_bytes()

    def test_negative_cell_is_named(self, tmp_path):
        (tmp_path / "f.csv").write_text("feature,a,b\nf0,0.5,-2\n")
        with pytest.raises(ValidationError, match=r"feature 'f0', sample 'b'"):
            load_features_csv(tmp_path / "f.csv")

    def test_non_numeric_cell_is_named(self, tmp_path):
        (tmp_path / "f.csv").write_text("feature,a\nweight,many\n")
        with pytest.raises(ValidationError, match=r"feature 'weight', sample 'a'"):
            load_features_csv(tmp_path / "f.csv")

    def test_ragged_row_rejected(self, tmp_path):
        (tmp_path / "f.csv").write_text("feature,a,b\nf0,1\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_features_csv(tmp_path / "f.csv")

    def test_bad_cell_above_a_ragged_row_is_named(self, tmp_path):
        # rows are checked in file order, so the first bad row wins
        (tmp_path / "f.csv").write_text("feature,a,b\nf0,1,x\nf1,1\n")
        with pytest.raises(ValidationError, match=r"feature 'f0', sample 'b'"):
            load_features_csv(tmp_path / "f.csv")

    @pytest.mark.filterwarnings("error")  # numpy's "input contained no data" included
    def test_missing_feature_rows_rejected(self, tmp_path):
        for text in ("feature,a,b\n", "feature,a,b"):
            (tmp_path / "f.csv").write_text(text)
            with pytest.raises(ValidationError, match="no feature rows found"):
                load_features_csv(tmp_path / "f.csv")

    def test_label_header_enforced(self, tmp_path):
        (tmp_path / "l.csv").write_text("id,label\na,x\n")
        with pytest.raises(ValidationError, match="sample_id,label"):
            load_labels_csv(tmp_path / "l.csv")

    def test_duplicate_label_row_rejected(self, tmp_path):
        (tmp_path / "l.csv").write_text("sample_id,label\na,x\na,y\n")
        with pytest.raises(ValidationError, match="duplicate sample id 'a'"):
            load_labels_csv(tmp_path / "l.csv")

    def test_id_mismatch_between_files(self, tmp_path):
        (tmp_path / "f.csv").write_text("feature,a,b\nf0,1,2\n")
        (tmp_path / "l.csv").write_text("sample_id,label\na,x\nc,y\n")
        with pytest.raises(ValidationError, match="disagree"):
            load_csv(tmp_path / "f.csv", tmp_path / "l.csv")


class TestNormalize:
    def test_per_feature_max_hand_case(self):
        features = FeatureMatrix(np.array([[2.0, 4.0, 8.0], [1.0, 1.0, 0.5]]),
                                 ("a", "b", "c"), ("f0", "f1"))
        normed, params = normalize(LabeledDataset(features, ("x", "x", "y")))
        assert normed.features.values[0].tolist() == [0.25, 0.5, 1.0]
        assert normed.features.values[1].tolist() == [1.0, 1.0, 0.5]
        assert params.maxima == (8.0, 1.0)
        assert params.dropped_features == ()

    def test_none_mode_is_identity(self):
        data = small_dataset()
        normed, params = normalize(data, MODE_NONE)
        assert normed == data
        assert params.mode == MODE_NONE and params.maxima is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            normalize(small_dataset(), "zscore")

    def test_training_maxima_transfer_to_new_data(self):
        train = FeatureMatrix(np.array([[2.0, 4.0], [10.0, 5.0]]),
                              ("a", "b"), ("f0", "f1"))
        _, params = normalize(LabeledDataset(train, ("x", "x")))
        test = FeatureMatrix(np.array([[8.0], [5.0]]), ("q",), ("f0", "f1"))
        out = apply_normalization(test, params)
        # scaled by the training maxima 4 and 10, not by the test data's own
        assert out.values[:, 0].tolist() == [2.0, 0.5]

    def test_zero_max_feature_dropped_with_warning(self, caplog):
        features = FeatureMatrix(np.array([[1.0, 2.0], [0.0, 0.0]]),
                                 ("a", "b"), ("keep", "dead"))
        with caplog.at_level(logging.WARNING, logger="sigarchive.dataio"):
            normed, params = normalize(LabeledDataset(features, ("x", "y")))
        assert params.dropped_features == ("dead",)
        assert normed.features.feature_names == ("keep",)
        assert normed.features.n_features == 1
        assert any("dead" in rec.getMessage() for rec in caplog.records)

    def test_all_zero_matrix_is_degenerate(self):
        features = FeatureMatrix(np.zeros((2, 2)), ("a", "b"), ("f0", "f1"))
        with pytest.raises(DegenerateInputError):
            normalize(LabeledDataset(features, ("x", "y")))

    def test_apply_rejects_renamed_features(self):
        _, params = normalize(small_dataset())
        other = FeatureMatrix(np.ones((2, 1)), ("q",), ("f0", "renamed"))
        with pytest.raises(ValidationError, match="feature names"):
            apply_normalization(other, params)

    def test_apply_rejects_wrong_feature_count(self):
        _, params = normalize(small_dataset())
        other = FeatureMatrix(np.ones((3, 1)), ("q",))
        with pytest.raises(ValidationError, match="3 features"):
            apply_normalization(other, params)

    def test_snapshot_round_trip(self):
        _, params = normalize(small_dataset())
        assert NormalizationParams.from_snapshot(params.to_snapshot()) == params

    @pytest.mark.parametrize("change", [
        {"mode": "log"},
        {"mode": MODE_NONE},                      # maxima left in place
        {"maxima": None},
        {"maxima": [1.0]},
        {"maxima": [2.0, 0.0]},
        {"maxima": [2.0, float("inf")]},
        {"dropped_features": ["nope"]},
        {"feature_names": 3},
    ])
    def test_snapshot_checks_reject_malformed(self, change):
        _, params = normalize(small_dataset())
        with pytest.raises(ArchiveFormatError, match="normalization"):
            NormalizationParams.from_snapshot({**params.to_snapshot(), **change})


@pytest.fixture(scope="module")
def four_class():
    data, _ = generate_synthetic(SynthSpec(
        n_features=10, n_classes=4, samples_per_class=100, seed=1))
    return data


class TestSplitHoldout:
    def test_counts_and_novel_flags(self, four_class):
        split = split_holdout(four_class, "class3", 0.2, seed=3)
        assert split.train.features.n_samples == 240
        assert split.test.features.n_samples == 160
        assert sum(split.novel_flags) == 100
        assert "class3" not in split.train.label_set
        # flags align with the test set's own labels
        for flag, label in zip(split.novel_flags, split.test.labels):
            assert flag == (label == "class3")

    def test_fraction_floors_per_class(self):
        features = FeatureMatrix(np.ones((2, 5)), tuple("abcde"))
        data = LabeledDataset(features, ("x", "x", "y", "y", "z"))
        split = split_holdout(data, "z", 0.5, seed=0)
        # floor(0.5 * 2) leaves one test sample for each retained class
        assert split.train.features.n_samples == 2
        assert split.test.features.n_samples == 3
        assert split.train.label_set == ("x", "y")

    def test_seed_changes_membership_not_counts(self, four_class):
        a = split_holdout(four_class, "class3", 0.2, seed=3)
        b = split_holdout(four_class, "class3", 0.2, seed=4)
        assert a.test.features.n_samples == b.test.features.n_samples
        assert set(a.test.features.sample_ids) != set(b.test.features.sample_ids)

    def test_same_seed_is_deterministic(self, four_class):
        a = split_holdout(four_class, "class3", 0.2, seed=3)
        b = split_holdout(four_class, "class3", 0.2, seed=3)
        assert a.train == b.train and a.test == b.test
        assert a.novel_flags == b.novel_flags

    def test_sample_order_follows_input(self, four_class):
        split = split_holdout(four_class, "class3", 0.2, seed=3)
        ids = list(four_class.features.sample_ids)
        pos = {s: i for i, s in enumerate(ids)}
        test_pos = [pos[s] for s in split.test.features.sample_ids]
        train_pos = [pos[s] for s in split.train.features.sample_ids]
        assert test_pos == sorted(test_pos)
        assert train_pos == sorted(train_pos)

    def test_missing_holdout_class_rejected(self, four_class):
        with pytest.raises(ValidationError, match="class9"):
            split_holdout(four_class, "class9", 0.2, seed=0)

    def test_fraction_bounds(self, four_class):
        with pytest.raises(ValidationError):
            split_holdout(four_class, "class3", 0.0, seed=0)
        with pytest.raises(ValidationError):
            split_holdout(four_class, "class3", 1.0, seed=0)


class TestGenerateSynthetic:
    def test_shapes_ids_and_labels(self):
        data, truth = generate_synthetic(SynthSpec(
            n_features=12, n_classes=3, samples_per_class=5, seed=2))
        assert data.features.values.shape == (12, 15)
        assert data.features.sample_ids[0] == "s0000"
        assert data.features.feature_names == tuple(f"f{i}" for i in range(12))
        assert data.label_set == ("class0", "class1", "class2")
        assert truth.signatures.shape == (12, 3)
        assert truth.mixing.shape == (3, 15)

    def test_zero_overlap_gives_disjoint_signatures(self):
        _, truth = generate_synthetic(SynthSpec(
            n_features=12, n_classes=3, samples_per_class=5, seed=2))
        gram = truth.signatures.T @ truth.signatures
        off = gram[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)  # disjoint support: dot products are exact zeros
        assert np.allclose(np.diag(gram), 1.0, atol=1e-12)

    def test_noiseless_samples_are_recovered_one_hot(self):
        data, truth = generate_synthetic(SynthSpec(
            n_features=12, n_classes=3, samples_per_class=4, seed=5))
        for j in range(data.features.n_samples):
            coeff = nnls_solve(truth.signatures, data.features.values[:, j])
            c = int(np.argmax(truth.mixing[:, j]))
            assert coeff[c] == pytest.approx(truth.mixing[c, j], abs=1e-10)
            assert np.all(np.delete(coeff, c) < 1e-10)

    def test_overlap_bound_is_honored(self):
        _, truth = generate_synthetic(SynthSpec(
            n_features=40, n_classes=4, samples_per_class=2,
            signature_overlap=0.1, seed=7))
        gram = truth.signatures.T @ truth.signatures
        off = gram[~np.eye(4, dtype=bool)]
        assert off.max() <= 0.1
        assert off.min() > 0.0  # bleed makes signatures genuinely overlap

    def test_deterministic_for_a_given_spec(self):
        spec = SynthSpec(n_features=20, n_classes=2, samples_per_class=10,
                         signature_overlap=0.1, noise_sigma=0.02, seed=11)
        a_data, a_truth = generate_synthetic(spec)
        b_data, b_truth = generate_synthetic(spec)
        assert a_data == b_data
        assert np.array_equal(a_truth.signatures, b_truth.signatures)
        assert np.array_equal(a_truth.mixing, b_truth.mixing)

    def test_too_few_features_is_degenerate(self):
        with pytest.raises(DegenerateInputError, match="disjoint support"):
            generate_synthetic(SynthSpec(n_features=2, n_classes=3,
                                         samples_per_class=5))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_features=0, n_classes=1, samples_per_class=1)
        with pytest.raises(ValidationError):
            SynthSpec(n_features=4, n_classes=2, samples_per_class=2,
                      signature_overlap=1.0)
        with pytest.raises(ValidationError):
            SynthSpec(n_features=4, n_classes=2, samples_per_class=2,
                      holdout_class="classZ")

    def test_truth_document_lists_signatures_by_label(self):
        _, truth = generate_synthetic(SynthSpec(
            n_features=6, n_classes=2, samples_per_class=3,
            holdout_class="class1", seed=0))
        doc = truth.to_document()
        assert doc["schema_version"] == 1
        assert doc["holdout_class"] == "class1"
        assert set(doc["signatures"]) == {"class0", "class1"}
        assert len(doc["signatures"]["class0"]) == 6


class TestSyntheticEndToEnd:
    def test_generated_families_build_a_pure_archive(self):
        data, _ = generate_synthetic(SynthSpec(
            n_features=40, n_classes=4, samples_per_class=60,
            signature_overlap=0.1, noise_sigma=0.02, seed=7))
        cfg = BuildConfig(
            ensemble=EnsembleConfig(k_min=1, k_max=6, n_perturbations=8,
                                    base_seed=0),
            min_cluster_size=10)
        archive, report = build_archive(data.features, data.labels, cfg)
        assert set(archive.labels()) == set(data.label_set)
        assert all(e.purity == 1.0 for e in archive.entries)
        covered = sum(e.support for e in archive.entries)
        assert covered + len(archive.unresolved) == data.features.n_samples
