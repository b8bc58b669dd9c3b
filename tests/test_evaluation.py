"""Risk-coverage curves, AURC integration, and covered-sample metrics."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import aurc_bruteforce, rc_points_exact, risk_coverage_curve_numpy
from sigarchive import (
    EvalReport,
    RiskCoveragePoint,
    ValidationError,
    aurc,
    classification_metrics,
    evaluate_predictions,
    rejection_rates,
    risk_coverage_curve,
)

C = "classified"
R = "rejected"


def curve_for(scores, correct):
    """Curve for a synthetic run where correctness is prescribed directly."""
    predicted = ["x"] * len(scores)
    truth = ["x" if ok else "y" for ok in correct]
    return risk_coverage_curve(scores, predicted, truth, [False] * len(scores))


class TestRiskCoverageCurve:
    def test_hand_case(self):
        # four samples, the third one wrong; sentinels sit 1.0 outside the
        # observed score range
        curve = curve_for([0.9, 0.8, 0.7, 0.6], [True, True, False, True])
        assert [p.threshold for p in curve] == [1.9, 0.9, 0.8, 0.7, 0.6, -0.4]
        assert [p.coverage for p in curve] == [0.0, 0.25, 0.5, 0.75, 1.0, 1.0]
        assert curve[0].risk == curve[1].risk == curve[2].risk == 0.0
        assert curve[3].risk == pytest.approx(1 / 3, abs=1e-15)
        assert curve[4].risk == curve[5].risk == 0.25

    def test_tied_scores_collapse_to_one_point(self):
        curve = curve_for([0.8, 0.8, 0.5, 0.5], [True, False, True, True])
        assert [p.coverage for p in curve] == [0.0, 0.5, 1.0, 1.0]
        assert [p.risk for p in curve] == [0.0, 0.5, 0.25, 0.25]

    def test_all_correct_has_zero_risk_everywhere(self):
        curve = curve_for([0.9, 0.5, 0.1], [True, True, True])
        assert all(p.risk == 0.0 for p in curve)

    def test_all_wrong_has_unit_risk_once_covered(self):
        curve = curve_for([0.9, 0.5, 0.1], [False, False, False])
        assert all(p.risk == 1.0 for p in curve if p.coverage > 0)

    def test_covered_novel_sample_is_an_error(self):
        curve = risk_coverage_curve([0.9], ["a"], ["a"], [True])
        assert curve[-1].coverage == 1.0 and curve[-1].risk == 1.0

    def test_matches_exact_rational_sweep(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 12)
            scores = [rng.choice([0.1, 0.25, 0.4, 0.7, 0.9]) for _ in range(n)]
            correct = [rng.random() < 0.6 for _ in range(n)]
            got = curve_for(scores, correct)[1:]  # drop the zero-coverage sentinel
            expected = rc_points_exact(scores, correct)
            expected.append(expected[-1])  # bottom sentinel repeats the last point
            assert len(got) == len(expected)
            for point, (cov, risk) in zip(got, expected):
                assert point.coverage == float(cov)
                assert point.risk == float(risk)

    def test_signed_zero_tie_keeps_the_first_sign(self):
        # set() keeps the first of two equal values, so the threshold of a
        # 0.0 / -0.0 tie has the sign of whichever score comes first
        thresholds = [[repr(p.threshold) for p in curve_for(scores, [True] * 3)]
                      for scores in ([0.5, -0.0, 0.0], [0.5, 0.0, -0.0], [-0.0, 0.5, 0.0])]
        assert thresholds == [["1.5", "0.5", "-0.0", "-1.0"],
                              ["1.5", "0.5", "0.0", "-1.0"],
                              ["1.5", "0.5", "-0.0", "-1.0"]]

    def test_thresholds_are_the_distinct_scores_in_first_seen_form(self):
        rng = random.Random(5)
        for _ in range(200):
            scores = [rng.choice([0.0, -0.0, 0.25, 0.5]) for _ in range(rng.randint(1, 8))]
            inner = [p.threshold for p in curve_for(scores, [True] * len(scores))[1:-1]]
            assert list(map(repr, inner)) == list(map(repr, sorted(set(scores), reverse=True)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            risk_coverage_curve([0.9, 0.8], ["a"], ["a", "b"], [False, False])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            risk_coverage_curve([], [], [], [])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValidationError):
            risk_coverage_curve([float("nan")], ["a"], ["a"], [False])

    def test_point_validation(self):
        with pytest.raises(ValidationError):
            RiskCoveragePoint(0.5, 1.5, 0.0)
        with pytest.raises(ValidationError):
            RiskCoveragePoint(0.5, 0.0, 0.3)  # uncovered curve has no risk


_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324, -1.0]),
                    st.floats(allow_nan=False, allow_infinity=False))


class TestAgainstNumpyReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(_SCORES, st.sampled_from("ab"), st.sampled_from("ab"),
                              st.booleans()), min_size=1, max_size=40))
    @example([(0.5, "a", "a", False)])
    @example([(0.0, "a", "b", False), (-0.0, "a", "a", True), (0.0, "b", "b", False)])
    @example([(-0.0, "a", "a", False), (0.0, "a", "b", False)])
    def test_points_and_threshold_bits_match(self, samples):
        columns = [list(c) for c in zip(*samples)]
        curve = risk_coverage_curve(*columns)
        reference = risk_coverage_curve_numpy(*columns)
        assert curve == reference
        assert [repr(p.threshold) for p in curve] == [repr(p.threshold) for p in reference]


class TestAurc:
    def test_all_correct_is_exactly_zero(self):
        assert aurc(curve_for([0.9, 0.5, 0.1], [True] * 3)) == 0.0

    def test_all_wrong_is_exactly_one(self):
        assert aurc(curve_for([0.9, 0.5, 0.1], [False] * 3)) == 1.0

    def test_hand_case_value(self):
        # trapezoid area under coverages (1/4, 1/2, 3/4, 1) with risks
        # (0, 0, 1/3, 1/4) plus the flat strip left of coverage 1/4
        curve = curve_for([0.9, 0.8, 0.7, 0.6], [True, True, False, True])
        assert aurc(curve) == pytest.approx(float(Fraction(11, 96)), abs=1e-12)

    def test_matches_exact_rational_integration(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 12)
            scores = [round(rng.random(), 2) for _ in range(n)]
            correct = [rng.random() < 0.5 for _ in range(n)]
            got = aurc(curve_for(scores, correct))
            assert got == pytest.approx(float(aurc_bruteforce(scores, correct)),
                                        abs=1e-12)

    def test_flat_extension_to_full_coverage(self):
        # a curve stopping at coverage 1/2 carries its last risk to 1
        curve = (RiskCoveragePoint(1.5, 0.0, 0.0), RiskCoveragePoint(0.5, 0.5, 0.2))
        assert aurc(curve) == pytest.approx(0.2, abs=1e-15)

    def test_zero_coverage_curve_integrates_to_zero(self):
        assert aurc((RiskCoveragePoint(2.0, 0.0, 0.0),)) == 0.0

    def test_unsorted_curve_rejected(self):
        points = (RiskCoveragePoint(0.5, 1.0, 0.1), RiskCoveragePoint(1.5, 0.5, 0.0))
        with pytest.raises(ValidationError):
            aurc(points)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValidationError):
            aurc(())


class TestClassificationMetrics:
    def test_perfect_two_class_run(self):
        m = classification_metrics([C] * 4, ["a", "a", "b", "b"],
                                   ["a", "a", "b", "b"], [False] * 4)
        assert m.covered_count == 4
        assert m.macro_precision == m.macro_recall == m.macro_f1 == 1.0
        assert {s.label for s in m.per_class} == {"a", "b"}
        assert all(s.f1 == 1.0 for s in m.per_class)

    def test_macro_f1_hand_case(self):
        # both classes: 2 of 3 right, 3 predictions each, so P = R = F1 = 2/3
        m = classification_metrics([C] * 6, ["a", "a", "b", "b", "b", "a"],
                                   ["a", "a", "a", "b", "b", "b"], [False] * 6)
        assert m.macro_f1 == pytest.approx(2 / 3, abs=1e-12)
        assert m.macro_precision == pytest.approx(2 / 3, abs=1e-12)
        assert m.macro_recall == pytest.approx(2 / 3, abs=1e-12)

    def test_rejected_samples_are_out_of_scope(self):
        m = classification_metrics([C, R, C, R], ["a", "b", "a", "b"],
                                   ["a", "a", "a", "a"], [False] * 4)
        assert m.covered_count == 2
        assert m.macro_recall == 1.0 and m.macro_precision == 1.0

    def test_never_predicted_class_contributes_zero_precision(self):
        m = classification_metrics([C, C], ["a", "a"], ["a", "b"], [False, False])
        assert m.macro_precision == 0.25
        assert m.macro_recall == 0.5
        assert m.macro_f1 == pytest.approx(1 / 3, abs=1e-15)
        by_label = {s.label: s for s in m.per_class}
        assert by_label["b"].precision == 0.0 and by_label["b"].predicted == 0

    def test_nothing_covered_yields_none(self):
        m = classification_metrics([R, R], ["a", "b"], ["a", "b"], [False, False])
        assert m.covered_count == 0
        assert m.macro_precision is None and m.macro_f1 is None
        assert m.per_class == ()

    def test_only_novel_covered_yields_none(self):
        m = classification_metrics([C], ["a"], ["z"], [True])
        assert m.covered_count == 1 and m.macro_f1 is None and m.per_class == ()

    def test_unknown_decision_rejected(self):
        with pytest.raises(ValidationError):
            classification_metrics(["maybe"], ["a"], ["a"], [False])

    def test_sample_order_is_irrelevant(self):
        decisions = [C, C, R, C, C, C]
        predicted = ["a", "b", "a", "b", "a", "c"]
        truth = ["a", "a", "a", "b", "c", "c"]
        novel = [False, False, False, False, False, True]
        base = classification_metrics(decisions, predicted, truth, novel)
        order = [5, 3, 1, 0, 4, 2]
        shuffled = classification_metrics(
            [decisions[i] for i in order], [predicted[i] for i in order],
            [truth[i] for i in order], [novel[i] for i in order])
        assert shuffled == base


class TestRejectionRates:
    def test_ideal_separation(self):
        rates = rejection_rates([C, C, R, R], [False, False, True, True])
        assert rates.seen == 0.0 and rates.novel == 1.0

    def test_everything_accepted(self):
        rates = rejection_rates([C, C], [False, True])
        assert rates.seen == 0.0 and rates.novel == 0.0

    def test_mixed_hand_case(self):
        rates = rejection_rates([C, R, R, C], [False, False, True, True])
        assert rates.seen == 0.5 and rates.novel == 0.5

    def test_no_novel_samples_gives_none(self):
        assert rejection_rates([C, R], [False, False]).novel is None

    def test_no_seen_samples_gives_none(self):
        assert rejection_rates([R, R], [True, True]).seen is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            rejection_rates([C, C], [False])


class TestEvaluatePredictions:
    def build(self):
        decisions = [C, C, C, R, R]
        predicted = ["a", "a", "b", "b", "a"]
        scores = [0.99, 0.95, 0.9, 0.4, 0.2]
        truth = ["a", "b", "b", "a", "z"]
        novel = [False, False, False, False, True]
        return evaluate_predictions(decisions, predicted, scores, truth, novel)

    def test_report_assembly(self):
        report = self.build()
        assert isinstance(report, EvalReport)
        assert report.n_samples == 5 and report.n_novel == 1
        assert report.operating_coverage == 0.6
        assert report.aurc == aurc(report.rc_curve)
        assert report.rejection.novel == 1.0 and report.rejection.seen == 0.25
        # curve: 5 distinct scores plus two sentinels
        assert len(report.rc_curve) == 7

    def test_document_shape(self):
        doc = self.build().to_document()
        assert doc["schema_version"] == 1
        assert doc["metrics_scope"] == "covered-samples-only"
        assert doc["averaging"] == "macro-over-covered-truth-classes"
        assert doc["n_samples"] == 5 and doc["n_novel"] == 1
        assert isinstance(doc["aurc"], float)
        assert len(doc["rc_curve"]) == 7
        assert {p["label"] for p in doc["per_class"]} == {"a", "b"}
        for point in doc["rc_curve"]:
            assert set(point) == {"threshold", "coverage", "risk"}

    def test_none_metrics_serialize_as_null(self):
        report = evaluate_predictions([R], ["a"], [0.1], ["a"], [False])
        doc = report.to_document()
        assert doc["macro_f1"] is None and doc["rejection_novel"] is None

    def test_rejected_rows_still_need_attributed_labels(self):
        with pytest.raises(ValidationError, match="attributed label"):
            evaluate_predictions([R], [""], [0.1], ["a"], [False])

    def test_all_correct_run(self):
        report = evaluate_predictions([C, C], ["a", "b"], [0.9, 0.8],
                                      ["a", "b"], [False, False])
        assert report.aurc == 0.0
        assert report.metrics.macro_f1 == 1.0
        assert report.rejection.seen == 0.0 and report.rejection.novel is None
