"""Projection, confidence scoring, and reject-option classification."""

import math

import numpy as np
import pytest

from conftest import fm, toy_archive
from sigarchive import (
    DECISION_CLASSIFIED,
    DECISION_REJECTED,
    FeatureMatrix,
    InferenceConfig,
    ValidationError,
    classify,
    classify_batch,
)
from sigarchive.dataio import SynthSpec, generate_synthetic, split_holdout
from sigarchive.inference import BatchFailure, project, score

AXES = np.eye(4)[:, :3]  # e0, e1, e2 as unit signature columns


@pytest.fixture(scope="module")
def axis_archive():
    return toy_archive(AXES, ["alpha", "beta", "gamma"])


class TestInferenceConfig:
    def test_defaults(self):
        cfg = InferenceConfig()
        assert cfg.t == 1.0 and cfg.score_tolerance == 1e-9

    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
    def test_threshold_range(self, t):
        with pytest.raises(ValidationError):
            InferenceConfig(t=t)

    def test_tolerance_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            InferenceConfig(score_tolerance=-1e-9)


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
            project(np.ones(5), axis_archive)

    def test_negative_entries_rejected(self, axis_archive):
        with pytest.raises(ValidationError):
            project(np.array([1.0, -0.5, 0.0, 0.0]), axis_archive)

    def test_non_finite_entries_rejected(self, axis_archive):
        with pytest.raises(ValidationError):
            project(np.array([1.0, math.inf, 0.0, 0.0]), axis_archive)


class TestScore:
    def test_parallel_vectors_score_one(self):
        assert score([1.0, 2.0, 3.0], [3.0, 6.0, 9.0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_reconstruction_scores_zero(self):
        assert score([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_known_angle(self):
        # cos between [1,0] and [1,1] is 1/sqrt(2)
        assert score([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_zero_sample_is_an_error(self):
        with pytest.raises(ValidationError):
            score([0.0, 0.0], [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            score([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_always_within_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.random(6) + 1e-3
            r = rng.random(6)
            assert 0.0 <= score(s, r) <= 1.0


class TestClassify:
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_exact_signature_passes_strict_threshold(self, axis_archive, scale):
        pred = classify(scale * AXES[:, 1], axis_archive, InferenceConfig(t=1.0))
        assert pred.decision == DECISION_CLASSIFIED
        assert pred.label == "beta"
        assert pred.score >= 1.0 - 1e-9
        assert pred.attribution == axis_archive.entries[1].path

    def test_orthogonal_sample_rejected(self, axis_archive):
        pred = classify(np.array([0.0, 0.0, 0.0, 1.0]), axis_archive)
        assert pred.decision == DECISION_REJECTED
        assert pred.label is None and pred.score == 0.0
        # argmax over all-zero coefficients falls back to the first entry
        assert pred.attribution == axis_archive.entries[0].path

    def test_known_mixture_straddles_thresholds(self, axis_archive):
        # [1,0,0,1] reconstructs as [1,0,0,0]: score is exactly 1/sqrt(2)
        sample = np.array([1.0, 0.0, 0.0, 1.0])
        low = classify(sample, axis_archive, InferenceConfig(t=0.7))
        high = classify(sample, axis_archive, InferenceConfig(t=0.8))
        assert low.decision == DECISION_CLASSIFIED and low.label == "alpha"
        assert high.decision == DECISION_REJECTED
        assert low.score == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_power_of_two_rescaling_is_bitwise_invariant(self, axis_archive):
        v = 1.5 * AXES[:, 0] + 0.5 * AXES[:, 1] + 0.05 * np.array([0, 0, 0, 1.0])
        base = classify(v, axis_archive, InferenceConfig(t=0.9), sample_id="x")
        for s in (2.0 ** 40, 2.0 ** -40, 8.0):
            scaled = classify(s * v, axis_archive, InferenceConfig(t=0.9), sample_id="x")
            assert scaled.score == base.score
            assert scaled.decision == base.decision and scaled.label == base.label
            assert np.array_equal(scaled.coefficients, base.coefficients * s)

    def test_raising_threshold_only_removes_classifications(self, axis_archive):
        samples = [AXES[:, 0] + (i / 8.0) * np.array([0, 0, 0, 1.0]) for i in range(9)]
        previous = None
        for t in np.linspace(0.0, 1.0, 21):
            cfg = InferenceConfig(t=float(t))
            kept = {i for i, s in enumerate(samples)
                    if classify(s, axis_archive, cfg).decision == DECISION_CLASSIFIED}
            if previous is not None:
                assert kept <= previous
            previous = kept
        assert previous == {0}  # only the pure signature survives t=1.0


@pytest.fixture(scope="module")
def mixtures():
    rng = np.random.default_rng(4)
    return fm(rng.random((4, 6)) + 0.1)


class TestClassifyBatch:
    def test_predictions_follow_input_order(self, axis_archive, mixtures):
        preds, failures = classify_batch(mixtures, axis_archive, InferenceConfig(t=0.5))
        assert not failures
        assert [p.sample_id for p in preds] == list(mixtures.sample_ids)

    def test_permuting_samples_permutes_predictions(self, axis_archive, mixtures):
        base, _ = classify_batch(mixtures, axis_archive, InferenceConfig(t=0.5))
        order = [4, 2, 0, 5, 1, 3]
        shuffled = FeatureMatrix(mixtures.values[:, order],
                                 tuple(mixtures.sample_ids[i] for i in order))
        perm, _ = classify_batch(shuffled, axis_archive, InferenceConfig(t=0.5))
        assert perm == [base[i] for i in order]

    def test_zero_sample_becomes_failure_record(self, axis_archive):
        values = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        preds, failures = classify_batch(fm(values), axis_archive)
        assert [p.sample_id for p in preds] == ["s0"]
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
        by_id = dict(zip(split.test.features.sample_ids, split.test.labels))
        novel = [p for p in preds if by_id[p.sample_id] == "class3"]
        seen = [p for p in preds if by_id[p.sample_id] != "class3"]
        assert len(novel) == 50 and len(seen) == 30
        assert all(p.decision == DECISION_REJECTED for p in novel)
        assert all(p.label == by_id[p.sample_id] for p in seen)
        assert max(p.score for p in novel) < 0.5 < min(p.score for p in seen)
