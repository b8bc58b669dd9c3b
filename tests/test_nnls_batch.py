"""The NNLS kernel (``linalg._nnls_rows``) and the batched ``classify_batch``.

A target's solution must have the same bits alone (``nnls_solve``, the batch
of one) as in any batch, and must match exhaustive enumeration; a batch of
samples must classify as one ``classify`` call per sample, bit for bit.  The
solve on passive sets has the bits of one stacked solve per distinct set.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_same_bits, fm, nnls_exhaustive, solve_on_sets_per_group,
                      stack_predictions, take_rows, toy_archive)
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
from sigarchive.linalg import _KKT_TOL, _nnls_rows, _solve_on_sets


def draw_problem(data):
    """A matrix with p in 1..16 columns and n above or below p, in C or
    Fortran order, and targets of every kind the kernel must handle, as the
    columns of ``b``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = data.draw(st.integers(1, 16))
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
    b = np.column_stack(cols)
    if data.draw(st.booleans()):
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    return a, b


def kernel(a, b):
    """The kernel's solutions and stop flags for the columns of ``b``."""
    return _nnls_rows(a, b.T)


class TestNnlsBatch:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_bits_equal_nnls_solve(self, data):
        # nnls_solve is the batch of one: every column gets the bits alone
        # that it gets in the batch, and fails alone iff it fails in it
        a, b = draw_problem(data)
        x, stopped = kernel(a, b)
        for j in range(b.shape[1]):
            alone, alone_stopped = kernel(a, np.array(b[:, j])[:, None])
            assert alone[0].tobytes() == x[j].tobytes(), f"column {j}"
            assert alone_stopped[0] == stopped[j]
            if stopped[j]:
                assert nnls_solve(a, b[:, j]).tobytes() == x[j].tobytes()
            else:
                with pytest.raises(SigArchiveError, match="step limit"):
                    nnls_solve(a, b[:, j])

    def test_well_posed_columns_are_all_certified(self):
        # the KKT conditions certify each solution: nonnegative, gradient
        # at most tol off the passive set and about 0 on it
        rng = np.random.default_rng(3)
        a = rng.random((30, 5))
        b = a @ rng.random((5, 400)) + 0.05 * rng.random((30, 400))
        x, stopped = kernel(a, b)
        assert stopped.all() and (x >= 0).all()
        gradient = (a.T @ (b - a @ x.T)).T
        tol = _KKT_TOL * np.abs(a.T @ b).max(axis=0)[:, None]
        assert (gradient[x == 0] <= np.broadcast_to(tol, x.shape)[x == 0]).all()
        assert np.abs(gradient[x > 0]).max() <= 1e-10

    def test_all_zero_column_solves_to_zero(self):
        a = np.eye(3)[:, :2]
        x, stopped = kernel(a, np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]))
        assert x[0].tobytes() == np.array([1.0, 2.0]).tobytes()
        assert x[1].tobytes() == np.zeros(2).tobytes() and stopped.all()

    def test_matches_exhaustive_oracle(self):
        # criterion 2's problems and tolerance, solved six targets at a time
        worst = 0.0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            n, p = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            a = rng.standard_normal((n, p))
            if trial % 2:
                a = np.abs(a)
            b = rng.standard_normal((n, 6))
            x, stopped = kernel(a, b)
            assert stopped.all()
            for j in range(b.shape[1]):
                _, best = nnls_exhaustive(a, b[:, j])
                worst = max(worst, abs(float(np.linalg.norm(a @ x[j] - b[:, j])) - best))
        assert worst <= 1e-8

    def test_no_columns(self):
        x, stopped = kernel(np.eye(3), np.zeros((3, 0)))
        assert x.shape == (0, 3) and stopped.shape == (0,)

    @pytest.mark.parametrize("b", [np.ones(2), np.ones((3, 1))])
    def test_target_shape_checked(self, b):
        with pytest.raises(ValidationError):
            nnls_solve(np.ones((3, 2)), b)

    def test_zero_column_rejected(self):
        with pytest.raises(ValidationError):
            nnls_solve(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))

    def test_singular_set_gets_the_minimum_norm_solution(self):
        # a passive set holding a column twice has a singular Gram block;
        # only its rows fall back, and the others keep their solve
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        gram, c = a.T @ a, (a.T @ np.array([[2.0, 1.0, 3.0], [1.0, 1.0, 1.0]]).T).T
        passive = np.array([[True, True, False], [False, False, True]])
        z = _solve_on_sets(gram, c, passive)
        np.testing.assert_allclose(z[0], [0.5 * 2.5, 0.5 * 2.5, 0.0])
        assert z[1].tobytes() == np.array([0.0, 0.0, c[1, 2] / gram[2, 2]]).tobytes()


def draw_sets(data):
    """A Gram matrix of p in 1..16 columns, some of them duplicate or
    near-parallel so that some sets are singular, and right-hand sides with
    passive sets of mixed sizes, all-false rows among them, for fewer or
    more rows than a classify block."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = data.draw(st.integers(1, 16))
    a = rng.random((p + 3, p))
    for _ in range(data.draw(st.integers(0, 2)) if p > 1 else 0):
        i, k = rng.choice(p, 2, replace=False)
        a[:, k] = a[:, i] + data.draw(st.sampled_from([0.0, 1e-9, 1e-7])) * rng.random(p + 3)
    m = data.draw(st.sampled_from([1, 7, 100, inference._BLOCK + 37]))
    passive = rng.random((m, p)) < rng.random((m, 1))
    return a.T @ a, rng.standard_normal((m, p)), passive


class TestSolveOnSets:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_bits_equal_one_solve_per_set(self, data):
        gram, c, passive = draw_sets(data)
        assert _solve_on_sets(gram, c, passive).tobytes() == \
            solve_on_sets_per_group(gram, c, passive).tobytes()

    def test_singular_set_among_regular_sets_of_its_size(self):
        # columns 0 and 1 are equal: the set {0, 1} is singular, while
        # {0, 2} and {1, 2} have the same size and regular Gram blocks
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        gram, c = a.T @ a, np.array([[3.0, 3.0, 1.0], [2.0, 2.0, 4.0], [1.0, 1.0, 5.0]])
        passive = np.array([[False, True, True], [True, True, False], [True, False, True]])
        z = _solve_on_sets(gram, c, passive)
        regular = [0, 2]
        assert z[regular].tobytes() == \
            _solve_on_sets(gram, c[regular], passive[regular]).tobytes()
        assert z[1].tobytes() == solve_on_sets_per_group(gram, c, passive)[1].tobytes()
        np.testing.assert_allclose(z[1], [0.5 * 2.0 / 2.0, 0.5 * 2.0 / 2.0, 0.0])

    def test_one_solve_call_per_set_size(self, monkeypatch):
        rng = np.random.default_rng(8)
        a = rng.random((20, 9))
        passive = rng.random((500, 9)) < rng.random((500, 1))
        passive[:3] = False
        calls = []
        solve = np.linalg.solve

        def counted(*args):
            calls.append(args[0].shape)
            return solve(*args)

        monkeypatch.setattr(linalg.np.linalg, "solve", counted)
        _solve_on_sets(a.T @ a, rng.standard_normal((500, 9)), passive)
        sizes = passive.sum(axis=1)
        assert len(calls) == np.unique(sizes[sizes > 0]).size
        assert len(np.unique(passive, axis=0)) > 10 * len(calls)


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


def assert_equals_classify_per_column(samples, archive, cfg):
    preds, failures = classify_batch(samples, archive, cfg)
    want, want_failures = [], []
    for j, sid in enumerate(samples.sample_ids):
        try:
            want.append(classify(samples.values[:, j], archive, cfg, sample_id=sid))
        except SigArchiveError as exc:
            want_failures.append(BatchFailure(j, sid, str(exc)))
    # the stacked single-sample results are the batch's columns, bit for bit
    assert_same_bits(preds, stack_predictions(want))
    assert failures == want_failures
    return failures


class TestClassifyBatchEquivalence:
    def test_equals_classify_per_column(self, synthetic):
        samples, archive = synthetic
        failures = assert_equals_classify_per_column(samples, archive, InferenceConfig(t=0.8))
        assert [f.index for f in failures] == [7, 150]

    def test_batch_larger_than_a_block(self, synthetic):
        # 1,120 samples run as two kernel calls; an all-zero sample in the
        # second block keeps its own index
        samples, archive = synthetic
        values = np.tile(samples.values, 3)[:, :inference._BLOCK + 96]
        values[:, [7, 150, 407, 550, 807, 950]] = 1.0 + np.arange(6)
        values[:, inference._BLOCK + 5] = 0.0
        failures = assert_equals_classify_per_column(fm(values), archive,
                                                     InferenceConfig(t=0.8))
        assert [f.index for f in failures] == [inference._BLOCK + 5]

    def test_wide_samples_equal_classify_per_column(self):
        # 12,000 features: long enough rows for OpenBLAS to split a dot product
        rng = np.random.default_rng(5)
        archive = toy_archive(rng.random((12_000, 6)), [f"c{j}" for j in range(6)])
        samples = fm(archive.signature_matrix() @ rng.random((6, 20))
                     + 0.1 * rng.random((12_000, 20)))
        assert not assert_equals_classify_per_column(samples, archive, InferenceConfig(t=0.9))

    def test_step_limit_fails_only_its_own_sample(self, synthetic, monkeypatch):
        samples, archive = synthetic
        base, _ = classify_batch(samples, archive)
        solve = inference._nnls_rows

        def stalls_on_the_third(a, b):
            x, stopped = solve(a, b)
            stopped[2] = False
            return x, stopped

        monkeypatch.setattr(inference, "_nnls_rows", stalls_on_the_third)
        preds, failures = classify_batch(samples, archive)
        assert failures[0] == BatchFailure(
            2, samples.sample_ids[2], "nnls failed to converge within the step limit")
        assert [f.index for f in failures] == [2, 7, 150]
        assert_same_bits(preds, take_rows(base, [i for i, sid in enumerate(base.sample_ids)
                                                 if sid != samples.sample_ids[2]]))
