"""Batched NNLS (``linalg._nnls_batch``) and the batched ``classify_batch``.

``nnls_solve`` is the reference: every coefficient vector the batch returns
must have its bytes, and a column the batch cannot certify is returned as
None, for the caller to solve with ``nnls_solve``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fm, nnls_exhaustive, toy_archive
from sigarchive import (
    InferenceConfig,
    SigArchiveError,
    ValidationError,
    classify,
    classify_batch,
    inference,
    linalg,
    nnls_solve,
)
from sigarchive.dataio import SynthSpec, generate_synthetic
from sigarchive.inference import BatchFailure
from sigarchive.linalg import _nnls_batch as nnls_batch

KKT_TOL = 1e-8


def reference(a, b):
    """``nnls_solve`` of every column of ``b``, None where it raises."""
    out = []
    for j in range(b.shape[1]):
        try:
            out.append(nnls_solve(a, np.array(b[:, j])))
        except SigArchiveError:
            out.append(None)
    return out


def assert_certified_bits_equal(a, b):
    got, want = nnls_batch(a, b), reference(a, b)
    for j, (x, ref) in enumerate(zip(got, want)):
        if x is not None:
            assert ref is not None, f"column {j}: nnls_solve raises"
            assert x.tobytes() == ref.tobytes(), f"column {j}: {x!r} != {ref!r}"
    return got


def draw_problem(data):
    """A matrix with p in 1..12 columns and n above or below p, and targets
    of every kind the batch must handle."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = data.draw(st.integers(1, 12))
    n = data.draw(st.sampled_from([max(1, p - 2), p, p + 3, 40]))
    a = rng.random((n, p)) if data.draw(st.booleans()) else rng.standard_normal((n, p))
    if p > 1:
        i, k = rng.choice(p, 2, replace=False)
        kind = data.draw(st.sampled_from(["plain", "near-parallel", "duplicate"]))
        if kind == "near-parallel":
            a[:, k] = a[:, i] + 1e-7 * rng.random(n)
        elif kind == "duplicate":
            a[:, k] = a[:, i]
    a[:, np.linalg.norm(a, axis=0) == 0] = 1.0
    cols = []
    for kind in data.draw(st.lists(st.sampled_from(
            ["random", "signature", "face", "zeros", "all-zero"]), min_size=1, max_size=12)):
        if kind == "random":
            cols.append(rng.random(n) if rng.random() < 0.5 else rng.standard_normal(n))
        elif kind == "signature":
            cols.append(a[:, rng.integers(p)] * rng.choice([1.0, 3.0, 1e-3]))
        elif kind == "face":
            face = rng.choice(p, rng.integers(1, p + 1), replace=False)
            cols.append(a[:, face] @ (rng.random(face.size) + 0.1))
        elif kind == "zeros":
            col = rng.random(n)
            col[rng.random(n) < 0.5] = 0.0
            cols.append(col)
        else:
            cols.append(np.zeros(n))
    return a, np.column_stack(cols)


class TestNnlsBatch:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_bits_equal_nnls_solve(self, data):
        a, b = draw_problem(data)
        assert_certified_bits_equal(a, b)

    def test_well_posed_columns_are_all_certified(self):
        rng = np.random.default_rng(3)
        a = rng.random((30, 5))
        b = a @ rng.random((5, 400)) + 0.05 * rng.random((30, 400))
        got = assert_certified_bits_equal(a, b)
        assert all(x is not None for x in got)

    def test_all_zero_column_is_left_to_nnls_solve(self):
        a = np.eye(3)[:, :2]
        got = nnls_batch(a, np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]))
        assert got[0].tobytes() == np.array([1.0, 2.0]).tobytes() and got[1] is None

    def test_matches_exhaustive_oracle(self):
        # criterion 2's problems and tolerance, the batch finishing with
        # nnls_solve where it certifies nothing
        worst = 0.0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            n, p = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            a = rng.standard_normal((n, p))
            if trial % 2:
                a = np.abs(a)
            b = rng.standard_normal((n, 6))
            for j, x in enumerate(nnls_batch(a, b)):
                x = nnls_solve(a, b[:, j]) if x is None else x
                _, best = nnls_exhaustive(a, b[:, j])
                worst = max(worst, abs(float(np.linalg.norm(a @ x - b[:, j])) - best))
        assert worst <= 1e-8

    def test_no_columns(self):
        assert nnls_batch(np.eye(3), np.zeros((3, 0))) == []

    @pytest.mark.parametrize("b", [np.ones(3), np.ones((2, 4))])
    def test_target_shape_checked(self, b):
        with pytest.raises(ValidationError):
            nnls_batch(np.ones((3, 2)), b)

    def test_zero_column_rejected(self):
        with pytest.raises(ValidationError):
            nnls_batch(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones((2, 1)))


def stopping_sets(a, b):
    """Every passive set on which ``nnls_solve`` may stop: its least-squares
    solution is positive and no gradient off it exceeds ``tol``."""
    p = a.shape[1]
    tol = KKT_TOL * np.abs(a.T @ b).max()
    for r in range(p + 1):
        for subset in itertools.combinations(range(p), r):
            cols = list(subset)
            x = np.zeros(p)
            if cols:
                x[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            gradient = a.T @ (b - a @ x)
            if (x[cols] > 0).all() and (np.delete(gradient, cols) <= tol).all():
                yield cols


def within_tolerance_cases():
    """Problems with two sets on which ``nnls_solve`` may stop: the one it
    ends on (``final``) and a trap it does not end on.

    1. Lawson-Hanson stops short of a coefficient so small that the gradient
       it has without it, x_j / inv(G_P)_jj, lies in (0, tol].
    2. The same, but that coefficient entered first and stays.
    3. The trap adds three coefficients of 2.5 * tol * inv(G_P)_jj, whose
       inverse-Gram rows are 1, 0.9, 0.9: each alone would be too large to
       drop, but their joint gradient without them is 2.5 * tol / 2.8.
    4. The trap swaps a column for one ten times its length and nearly
       parallel: off the trap it has gradient -2 * tol, yet the trap's
       column has gradient 0.2 * tol once the other is in.
    """
    c = 0.5
    stops_short = np.array([[1.0, c], [0.0, np.sqrt(1 - c * c)], [0.0, 0.0]])
    tol = KKT_TOL * np.abs(stops_short.T @ stops_short[:, 0]).max()
    yield stops_short, stops_short @ [1.0, 0.5 * tol / (1 - c * c)], [0], [0, 1]

    enters_first = np.zeros((4, 3))
    enters_first[0, 0] = enters_first[1, 1] = 1.0
    enters_first[:3, 2] = np.array([1.0, 1.0, 0.3]) / np.sqrt(2.09)
    tol = KKT_TOL * np.abs(enters_first.T @ enters_first @ [1.0, 1.0, 0.0]).max()
    tiny = 0.5 * tol * np.linalg.inv(enters_first.T @ enters_first)[2, 2]
    yield enters_first, enters_first @ [1.0, 1.0, tiny], [0, 1, 2], [0, 1]

    drops_three = np.eye(4)
    inv_gram = 0.1 * np.eye(3) + 0.9
    drops_three[:3, :3] = np.linalg.cholesky(np.linalg.inv(inv_gram)).T
    yield drops_three, drops_three @ [2.5 * KKT_TOL, 2.5 * KKT_TOL, 2.5 * KKT_TOL, 1.0], \
        [3], [0, 1, 2, 3]

    swaps = np.array([[1.0, 10.0], [0.0, 1e-4]])
    yield swaps, np.array([1.0, -2e-3]), [1], [0]


class TestCertificate:
    """The finish must refuse every set ``nnls_solve`` does not end on."""

    @pytest.mark.parametrize("a,b,final,trap", list(within_tolerance_cases()))
    def test_trap_meets_the_stopping_rule(self, a, b, final, trap):
        assert np.flatnonzero(nnls_solve(a, b)).tolist() == final
        assert trap in list(stopping_sets(a, b))

    @pytest.mark.parametrize("a,b,final,trap", list(within_tolerance_cases()))
    def test_every_candidate_set_is_refused_or_exact(self, monkeypatch, a, b, final, trap):
        want = nnls_solve(a, b)
        p = a.shape[1]
        for r in range(p + 1):
            for subset in itertools.combinations(range(p), r):
                passive = np.zeros((p, 1), dtype=bool)
                passive[list(subset)] = True
                monkeypatch.setattr(linalg, "_nnls_passive_sets",
                                    lambda g, c, s=passive: (s, np.ones(1, bool)))
                x = nnls_batch(a, b[:, None])[0]
                assert x is None or x.tobytes() == want.tobytes(), subset

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_near_tolerance_sets_are_refused_or_exact(self, seed):
        # problems whose optimum has coefficients of a few tol, often with
        # near-parallel or rescaled columns; every candidate set is tried
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 5))
        n = int(rng.integers(p, p + 3))
        a = rng.standard_normal((n, p)) if rng.random() < 0.5 else rng.random((n, p))
        if rng.random() < 0.5:
            i, k = rng.choice(p, 2, replace=False)
            a[:, k] = a[:, i] + rng.choice([0.1, 0.01]) * rng.standard_normal(n)
        a *= rng.choice([0.1, 1.0, 3.0, 10.0], size=p)
        x = rng.random(p) * (rng.random(p) < 0.6)
        scale = KKT_TOL * (np.abs(a.T @ a @ x).max() + 1.0)
        tiny = rng.random(p) < 0.5
        x[tiny] = 6 * scale * rng.uniform(-1, 1, tiny.sum())
        b = a @ x + 5 * scale * rng.random() * rng.standard_normal(n)
        try:
            want = nnls_solve(a, b)
        except SigArchiveError:
            return
        for r in range(p + 1):
            for subset in itertools.combinations(range(p), r):
                passive = np.zeros((p, 1), dtype=bool)
                passive[list(subset)] = True
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(linalg, "_nnls_passive_sets",
                                  lambda g, c, s=passive: (s, np.ones(1, bool)))
                    got = nnls_batch(a, b[:, None])[0]
                assert got is None or got.tobytes() == want.tobytes(), subset

    def test_step_limit_columns_are_not_certified(self, monkeypatch):
        a = np.eye(2)
        monkeypatch.setattr(linalg, "_nnls_passive_sets",
                            lambda g, c: (np.ones((2, 1), bool), np.zeros(1, bool)))
        assert nnls_batch(a, np.ones((2, 1))) == [None]


@pytest.fixture(scope="module")
def synthetic():
    data, truth = generate_synthetic(SynthSpec(
        n_features=30, n_classes=5, samples_per_class=80, signature_overlap=0.2,
        noise_sigma=0.05, holdout_class="class4", seed=11))
    keep = [c for c, lab in enumerate(truth.class_labels) if lab != "class4"]
    archive = toy_archive(truth.signatures[:, keep], [truth.class_labels[c] for c in keep])
    values = data.features.values.copy()
    values[:, [7, 150]] = 0.0        # two all-zero samples fail in place
    return fm(values), archive


class TestClassifyBatchEquivalence:
    def test_equals_classify_per_column(self, synthetic):
        samples, archive = synthetic
        cfg = InferenceConfig(t=0.8)
        preds, failures = classify_batch(samples, archive, cfg)
        want, want_failures = [], []
        for j, sid in enumerate(samples.sample_ids):
            try:
                want.append(classify(samples.values[:, j], archive, cfg, sample_id=sid))
            except SigArchiveError as exc:
                want_failures.append(BatchFailure(j, sid, str(exc)))
        assert preds == want
        assert [p.coefficients.tobytes() for p in preds] == \
            [p.coefficients.tobytes() for p in want]
        assert failures == want_failures and [f.index for f in failures] == [7, 150]

    def test_only_all_zero_samples_fall_back(self, synthetic, monkeypatch):
        samples, archive = synthetic
        calls = []
        monkeypatch.setattr(inference, "nnls_solve",
                            lambda *a, **k: calls.append(1) or nnls_solve(*a, **k))
        classify_batch(samples, archive)
        assert len(calls) == 2

    def test_wrong_sets_fall_back_to_nnls_solve(self, synthetic, monkeypatch):
        samples, archive = synthetic
        base, base_failures = classify_batch(samples, archive)
        discover = linalg._nnls_passive_sets

        def complement(*args):
            passive, stopped = discover(*args)
            return ~passive, stopped

        monkeypatch.setattr(linalg, "_nnls_passive_sets", complement)
        calls = []
        monkeypatch.setattr(inference, "nnls_solve",
                            lambda *a, **k: calls.append(1) or nnls_solve(*a, **k))
        preds, failures = classify_batch(samples, archive)
        assert len(calls) == samples.n_samples
        assert preds == base and failures == base_failures
        assert [p.coefficients.tobytes() for p in preds] == \
            [p.coefficients.tobytes() for p in base]

    def test_empty_archive_fails_every_sample(self, synthetic):
        samples, archive = synthetic
        empty = type(archive)((), archive.feature_names, {})
        preds, failures = classify_batch(samples, empty)
        assert not preds and len(failures) == samples.n_samples
        assert {f.message for f in failures} == {"archive has no entries to project onto"}
