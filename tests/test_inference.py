"""Projection, confidence scoring, and reject-option classification."""

import math

import numpy as np
import pytest

from conftest import assert_same_bits, fm, take_rows, toy_archive
from sigarchive import (
    FeatureMatrix,
    InferenceConfig,
    SigArchiveError,
    ValidationError,
    classify,
    classify_batch,
    inference,
)
from sigarchive.dataio import SynthSpec, generate_synthetic, split_holdout
from sigarchive.inference import BatchFailure, _cosines
from sigarchive.linalg import _combine, _nnls_rows

AXES = np.eye(4)[:, :3]  # e0, e1, e2 as unit signature columns


@pytest.fixture(scope="module")
def axis_archive():
    return toy_archive(AXES, ["alpha", "beta", "gamma"])


class TestInferenceConfig:
    def test_defaults(self):
        assert InferenceConfig().t == 1.0 and inference._SCORE_TOLERANCE == 1e-9

    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
    def test_threshold_range(self, t):
        with pytest.raises(ValidationError):
            InferenceConfig(t=t)


def project(sample, archive):
    """The projection that ``classify`` scores: ``_nnls_rows`` onto the
    archive's signatures, reconstructed by ``_combine``."""
    basis = archive.signature_matrix()
    x, stopped = _nnls_rows(basis, sample[None])
    assert stopped.all()
    return x[0], _combine(x, basis)[0]


class TestProject:
    def test_recovers_scaled_signature(self, axis_archive):
        coeff, recon = project(5.0 * AXES[:, 1], axis_archive)
        assert np.allclose(coeff, [0.0, 5.0, 0.0], atol=1e-8)
        assert np.allclose(recon, 5.0 * AXES[:, 1], atol=1e-8)

    def test_orthogonal_sample_projects_to_zero(self, axis_archive):
        coeff, recon = project(np.array([0.0, 0.0, 0.0, 1.0]), axis_archive)
        assert coeff.tolist() == [0.0, 0.0, 0.0]
        assert recon.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_composite_mixture(self, axis_archive):
        coeff, _ = project(2.0 * AXES[:, 0] + 3.0 * AXES[:, 2], axis_archive)
        assert np.allclose(coeff, [2.0, 0.0, 3.0], atol=1e-8)

    def test_wrong_length_rejected(self, axis_archive):
        with pytest.raises(ValidationError):
            classify(np.ones(5), axis_archive)

    def test_negative_entries_rejected(self, axis_archive):
        with pytest.raises(ValidationError):
            classify(np.array([1.0, -0.5, 0.0, 0.0]), axis_archive)

    def test_non_finite_entries_rejected(self, axis_archive):
        with pytest.raises(ValidationError):
            classify(np.array([1.0, math.inf, 0.0, 0.0]), axis_archive)

    def test_non_numeric_sample_is_a_validation_error(self, axis_archive):
        with pytest.raises(ValidationError, match="not a numeric array"):
            classify("ab", axis_archive)


def test_ragged_feature_matrix_is_a_validation_error():
    with pytest.raises(ValidationError, match="not a numeric array"):
        FeatureMatrix([[1.0, 2.0], [3.0]], ["a", "b"])


class TestScore:
    """The confidence score: the row-wise cosine of a sample with its
    reconstruction, clipped to [0, 1]."""

    def test_parallel_vectors_score_one(self):
        value = _cosines(np.array([[1.0, 2.0, 3.0]]), np.array([[3.0, 6.0, 9.0]]))
        assert value[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_reconstruction_scores_zero(self):
        assert _cosines(np.array([[1.0, 2.0]]), np.zeros((1, 2)))[0] == 0.0

    def test_known_angle(self):
        # cos between [1,0] and [1,1] is 1/sqrt(2)
        value = _cosines(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert value[0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)


class TestClassify:
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_exact_signature_passes_strict_threshold(self, axis_archive, scale):
        p = classify(scale * AXES[:, 1], axis_archive, InferenceConfig(t=1.0))
        assert p.classified[0]
        assert axis_archive.entries[p.attributed[0]].label == "beta"
        assert p.scores[0] >= 1.0 - 1e-9
        assert axis_archive.entries[p.attributed[0]].path == axis_archive.entries[1].path

    def test_orthogonal_sample_rejected(self, axis_archive):
        p = classify(np.array([0.0, 0.0, 0.0, 1.0]), axis_archive)
        assert not p.classified[0] and p.scores[0] == 0.0
        # argmax over all-zero coefficients falls back to the first entry
        assert axis_archive.entries[p.attributed[0]].path == axis_archive.entries[0].path

    def test_known_mixture_straddles_thresholds(self, axis_archive):
        # [1,0,0,1] reconstructs as [1,0,0,0]: score is exactly 1/sqrt(2)
        sample = np.array([1.0, 0.0, 0.0, 1.0])
        low = classify(sample, axis_archive, InferenceConfig(t=0.7))
        high = classify(sample, axis_archive, InferenceConfig(t=0.8))
        assert low.classified[0] and axis_archive.entries[low.attributed[0]].label == "alpha"
        assert not high.classified[0]
        assert low.scores[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_power_of_two_rescaling_is_bitwise_invariant(self, axis_archive):
        v = 1.5 * AXES[:, 0] + 0.5 * AXES[:, 1] + 0.05 * np.array([0, 0, 0, 1.0])
        base = classify(v, axis_archive, InferenceConfig(t=0.9), sample_id="x")
        assert base.sample_ids == ("x",) and base.coefficients.shape == (1, 3)
        for s in (2.0 ** 40, 2.0 ** -40, 8.0):
            scaled = classify(s * v, axis_archive, InferenceConfig(t=0.9), sample_id="x")
            assert scaled.scores[0] == base.scores[0]
            assert scaled.classified[0] == base.classified[0]
            assert scaled.attributed[0] == base.attributed[0]
            assert np.array_equal(scaled.coefficients, base.coefficients * s)

    def test_raising_threshold_only_removes_classifications(self, axis_archive):
        samples = [AXES[:, 0] + (i / 8.0) * np.array([0, 0, 0, 1.0]) for i in range(9)]
        previous = None
        for t in np.linspace(0.0, 1.0, 21):
            cfg = InferenceConfig(t=float(t))
            kept = {i for i, s in enumerate(samples)
                    if classify(s, axis_archive, cfg).classified[0]}
            if previous is not None:
                assert kept <= previous
            previous = kept
        assert previous == {0}  # only the pure signature survives t=1.0

    def test_wrong_length_rejected(self, axis_archive):
        with pytest.raises(ValidationError):
            classify(np.ones(5), axis_archive)

    def test_zero_sample_is_an_error(self, axis_archive):
        with pytest.raises(ValidationError, match="all-zero sample"):
            classify(np.zeros(4), axis_archive)

    def test_step_limit_raises_a_runtime_error(self, axis_archive, monkeypatch):
        solve = inference._nnls_rows

        def stalls(a, b):
            x, stopped = solve(a, b)
            return x, np.zeros_like(stopped)

        monkeypatch.setattr(inference, "_nnls_rows", stalls)
        with pytest.raises(SigArchiveError, match="step limit") as info:
            classify(AXES[:, 0], axis_archive)
        assert type(info.value) is SigArchiveError

    def test_score_within_unit_interval(self, axis_archive):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = classify(rng.random(4) + 1e-3, axis_archive)
            assert 0.0 <= p.scores[0] <= 1.0


@pytest.fixture(scope="module")
def mixtures():
    rng = np.random.default_rng(4)
    return fm(rng.random((4, 6)) + 0.1)


class TestClassifyBatch:
    def test_predictions_follow_input_order(self, axis_archive, mixtures):
        preds, failures = classify_batch(mixtures, axis_archive, InferenceConfig(t=0.5))
        assert not failures
        assert preds.sample_ids == mixtures.sample_ids

    def test_permuting_samples_permutes_predictions(self, axis_archive, mixtures):
        base, _ = classify_batch(mixtures, axis_archive, InferenceConfig(t=0.5))
        order = [4, 2, 0, 5, 1, 3]
        shuffled = FeatureMatrix(mixtures.values[:, order],
                                 tuple(mixtures.sample_ids[i] for i in order))
        perm, _ = classify_batch(shuffled, axis_archive, InferenceConfig(t=0.5))
        assert_same_bits(perm, take_rows(base, order))

    def test_zero_sample_becomes_failure_record(self, axis_archive):
        values = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        preds, failures = classify_batch(fm(values), axis_archive)
        assert preds.sample_ids == ("s0",)
        assert failures == [BatchFailure(1, "s1", failures[0].message)]
        assert "all-zero" in failures[0].message

    def test_feature_count_mismatch_rejected(self, axis_archive):
        with pytest.raises(ValidationError):
            classify_batch(fm(np.ones((5, 2))), axis_archive)

    def test_feature_name_order_mismatch_rejected(self, axis_archive, mixtures):
        names = axis_archive.feature_names
        reordered = FeatureMatrix(mixtures.values, mixtures.sample_ids, names[::-1])
        with pytest.raises(ValidationError, match="feature names"):
            classify_batch(reordered, axis_archive)
        named = FeatureMatrix(mixtures.values, mixtures.sample_ids, names)
        assert classify_batch(named, axis_archive) == classify_batch(mixtures, axis_archive)

    def test_unseen_family_rejected_known_families_recovered(self):
        data, truth = generate_synthetic(SynthSpec(
            n_features=30, n_classes=4, samples_per_class=50,
            signature_overlap=0.1, noise_sigma=0.02,
            holdout_class="class3", seed=9))
        split = split_holdout(data, "class3", 0.2, seed=1)
        keep = [c for c, lab in enumerate(truth.class_labels) if lab != "class3"]
        archive = toy_archive(truth.signatures[:, keep],
                              [truth.class_labels[c] for c in keep])
        preds, failures = classify_batch(split.test.features, archive,
                                         InferenceConfig(t=0.9))
        assert not failures
        truth = np.array(split.test.labels)
        novel = truth == "class3"
        assert preds.sample_ids == split.test.features.sample_ids
        assert novel.sum() == 50 and (~novel).sum() == 30
        assert not preds.classified[novel].any() and preds.classified[~novel].all()
        labels = np.array(archive.labels())[preds.attributed]
        assert (labels[~novel] == truth[~novel]).all()
        assert preds.scores[novel].max() < 0.5 < preds.scores[~novel].min()
