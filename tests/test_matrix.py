"""Numeric core: factorization, nonnegative least squares, error measures."""

import hashlib
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import cli_env, fm, nmf_every_sweep, nmf_one_member, nnls_exhaustive
from sigarchive import (
    DegenerateInputError,
    FactorPair,
    FeatureMatrix,
    SolverOptions,
    ValidationError,
    linalg,
    nmf_factorize,
    nnls_solve,
    relative_error,
)
from sigarchive.linalg import frobenius_norm

TIGHT = SolverOptions(tol=1e-9, max_iter=20000)


def evaluated(trace_len: int, opts: SolverOptions) -> list[int]:
    """Indices of a per-sweep trace whose residual ``nmf_factorize`` evaluates."""
    ce = opts.check_every
    return [0] + [s for s in range(1, trace_len)
                  if s % ce in (0, ce - 1) or s == opts.max_iter]


class TestFeatureMatrix:
    def test_shape_and_ids(self):
        x = fm([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert x.n_features == 2 and x.n_samples == 3
        assert x.sample_ids == ("s0", "s1", "s2")

    def test_values_frozen(self):
        x = fm([[1.0]])
        with pytest.raises(ValueError):
            x.values[0, 0] = 2.0

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            fm([[1.0, -0.5]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            fm([[1.0, math.nan]])
        with pytest.raises(ValidationError):
            fm([[math.inf, 1.0]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.ones((1, 2)), ("a", "a"))

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(ValidationError, match="feature names must be unique"):
            FeatureMatrix(np.ones((2, 1)), ("a",), feature_names=("f0", "f0"))

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.ones((1, 2)), ("a",))

    def test_feature_name_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.ones((2, 1)), ("a",), feature_names=("f0",))

    def test_select_samples(self):
        x = fm([[1.0, 2.0, 3.0]])
        sub = x.select_samples([2, 0])
        assert sub.sample_ids == ("s2", "s0")
        assert np.array_equal(sub.values, [[3.0, 1.0]])


class TestNmfFactorize:
    def test_exact_rank_one_matrix(self):
        x = fm([[2.0, 4.0], [1.0, 2.0]])
        pair = nmf_factorize(x, 1, seed=0)
        assert relative_error(x, pair) <= 1e-6

    def test_known_rank_two_construction(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        h = np.array([[3.0, 5.0, 1.0, 2.0], [1.0, 4.0, 2.0, 0.0]])
        x = fm(w @ h)
        for seed in range(3):
            pair = nmf_factorize(x, 2, seed, TIGHT)
            assert relative_error(x, pair) <= 1e-4

    def test_trace_monotone_on_random_input(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            x = fm(rng.random((4, 6)))
            pair = nmf_factorize(x, 3, seed)
            trace = pair.objective_trace
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_factors_exactly_nonnegative(self):
        x = fm(np.random.default_rng(4).random((5, 7)))
        pair = nmf_factorize(x, 2, seed=1)
        assert (pair.w >= 0).all() and (pair.h >= 0).all()

    def test_bitwise_determinism(self):
        x = fm(np.random.default_rng(5).random((6, 9)))
        a = nmf_factorize(x, 3, seed=11)
        b = nmf_factorize(x, 3, seed=11)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.h, b.h)
        assert a.objective_trace == b.objective_trace

    def test_different_seeds_differ(self):
        x = fm(np.random.default_rng(6).random((6, 9)))
        a = nmf_factorize(x, 3, seed=1)
        b = nmf_factorize(x, 3, seed=2)
        assert not np.array_equal(a.w, b.w)

    def test_rank_out_of_range(self):
        x = fm(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            nmf_factorize(x, 0, seed=0)
        with pytest.raises(ValidationError):
            nmf_factorize(x, 3, seed=0)

    def test_zero_matrix_degenerate(self):
        x = fm(np.zeros((2, 2)))
        with pytest.raises(DegenerateInputError):
            nmf_factorize(x, 1, seed=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    def test_trace_monotone_property(self, seed, k):
        x = fm(np.random.default_rng(99).random((4, 6)) + 0.01)
        pair = nmf_factorize(x, k, seed)
        trace = pair.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert (pair.w >= 0).all() and (pair.h >= 0).all()


class TestNmfEvaluatedSweeps:
    """``nmf_factorize`` against the per-sweep reference in ``conftest``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_every_sweep_reference(self, data):
        n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, min(n, m)))
        seed = data.draw(st.integers(0, 10_000))
        ce = data.draw(st.sampled_from([1, 2, 3, 10]))
        max_iter = data.draw(st.integers(1, 300).filter(lambda v: ce == 1 or v % ce))
        # tol 1e-300 runs to the cap; at scale 1e9 round-off exceeds
        # TRACE_TOLERANCE, so the uphill guard fires too
        opts = SolverOptions(tol=data.draw(st.sampled_from([1e-6, 1e-300])),
                             max_iter=max_iter, check_every=ce)
        rng = np.random.default_rng(seed)
        values = rng.random((n, m)) * data.draw(st.sampled_from([1.0, 1e9]))
        # -0.0 passes FeatureMatrix's sign check; the reference clamps it away
        values[rng.random((n, m)) < data.draw(st.sampled_from([0.0, 0.5, 0.9]))] = -0.0
        assume(values.any())
        x = fm(np.asarray(values, order=data.draw(st.sampled_from("CF"))))
        ref = nmf_every_sweep(x, k, seed, opts)
        got = nmf_factorize(x, k, seed, opts)
        assert got.objective_trace[-1] == linalg._frobenius(x.values, got.w, got.h)
        if ref.stop == "uphill" and ce > 2:
            # the guard fired between two evaluated sweeps: it is not seen there
            return
        # bytes, not np.array_equal, which ignores the sign of zero
        assert got.w.tobytes() == ref.w.tobytes() and got.h.tobytes() == ref.h.tobytes()
        assert got.objective_trace == tuple(
            ref.trace[i] for i in evaluated(len(ref.trace), opts))
        assert (got.sweeps, got.stop) == (ref.sweeps, ref.stop)

    def test_every_sweep_run_equals_reference_through_an_uphill_stop(self):
        x = fm(np.random.default_rng(27).random((4, 6)) * 1e9)
        opts = SolverOptions(tol=1e-300, max_iter=300, check_every=1)
        ref = nmf_every_sweep(x, 2, 27, opts)
        got = nmf_factorize(x, 2, 27, opts)
        assert (ref.stop, ref.sweeps) == ("uphill", 180)
        assert np.array_equal(got.w, ref.w) and np.array_equal(got.h, ref.h)
        assert got.objective_trace == ref.trace
        assert (got.sweeps, got.stop) == (180, "uphill")

    def test_uphill_guard_returns_last_evaluated_factors(self, monkeypatch):
        x = fm(np.random.default_rng(7).random((6, 9)))
        opts = SolverOptions(tol=1e-300, max_iter=50, check_every=10)
        real = linalg._frobenius
        calls = []

        def spiked(values, w, h):
            # evaluations: the start, then sweeps 9, 10 and 19
            calls.append(None)
            return real(values, w, h) + (1.0 if len(calls) == 4 else 0.0)

        monkeypatch.setattr(linalg, "_frobenius", spiked)
        got = nmf_factorize(x, 3, 5, opts)
        monkeypatch.undo()
        want = nmf_every_sweep(x, 3, 5, SolverOptions(tol=1e-300, max_iter=10))
        assert (got.stop, got.sweeps) == ("uphill", 19)
        assert np.array_equal(got.w, want.w) and np.array_equal(got.h, want.h)
        assert got.objective_trace == tuple(want.trace[i] for i in (0, 9, 10))
        assert got.objective_trace[-1] == real(x.values, got.w, got.h)

    def test_criterion_1_cases_monotone_at_every_sweep(self):
        # criterion 1's runs, with every sweep evaluated and so checked
        every = SolverOptions(check_every=1)
        worst = -np.inf
        for trial in range(200):
            rng = np.random.default_rng(trial)
            x = fm(rng.random((20, 50)))
            pair = nmf_factorize(x, 1 + trial % 5, trial, every)
            trace = pair.objective_trace
            assert len(trace) == pair.sweeps + (pair.stop != "uphill")
            worst = max(worst, *(b - a for a, b in zip(trace, trace[1:])))
            assert (pair.w >= 0).all() and (pair.h >= 0).all()
        assert worst <= 1e-12

    def test_stop_reasons(self):
        x = fm(np.random.default_rng(9).random((5, 8)))
        capped = nmf_factorize(x, 2, 0, SolverOptions(max_iter=7))
        assert (capped.stop, capped.sweeps, len(capped.objective_trace)) == ("capped", 7, 2)
        done = nmf_factorize(x, 2, 0, SolverOptions(tol=0.5))
        assert (done.stop, done.sweeps, len(done.objective_trace)) == ("converged", 10, 3)


def perturbed_stack(n: int, m: int, members: int, seed: int) -> np.ndarray:
    """``members`` copies of one random (n, m) matrix, each with its own 3% noise."""
    rng = np.random.default_rng(seed)
    base = rng.random((n, m))
    return np.stack([base * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, base.shape))
                     for _ in range(members)])


def assert_member_bits(pair, x, k, seed, opts=SolverOptions()):
    """``pair`` has every bit of ``nmf_one_member(x, k, seed, opts)``."""
    ref = nmf_one_member(fm(x), k, seed, opts)
    assert pair.w.tobytes() == ref.w.tobytes() and pair.h.tobytes() == ref.h.tobytes()
    assert pair.objective_trace == ref.trace
    assert (pair.seed, pair.sweeps, pair.stop) == (seed, ref.sweeps, ref.stop)


def stack_digest(pairs) -> str:
    digest = hashlib.sha256()
    for p in pairs:
        digest.update(p.w.tobytes() + p.h.tobytes()
                      + repr((p.objective_trace, p.sweeps, p.stop)).encode())
    return digest.hexdigest()


class TestNmfStack:
    """``nmf_stack`` against ``nmf_one_member``, the 2-d loop in ``conftest``."""

    @pytest.mark.parametrize("shape", [(75, 90), (75, 360), (40, 600)])
    @pytest.mark.parametrize("members", [1, 2, 6, 30])
    def test_each_member_has_the_bits_it_has_alone(self, shape, members):
        xs, k, seeds = perturbed_stack(*shape, members, members), 2 + members % 3, range(members)
        got = linalg.nmf_stack(xs, k, seeds)
        for pair, x, seed in zip(got, xs, seeds):
            assert_member_bits(pair, x, k, seed)
        if members >= 6:  # members left the stack at different sweeps
            assert len({pair.sweeps for pair in got}) > 1

    def test_capped_and_converged_members_share_a_stack(self):
        # alone, these members converge after 240 to 600 sweeps
        xs, opts = perturbed_stack(75, 90, 6, 3), SolverOptions(max_iter=455)
        got = linalg.nmf_stack(xs, 2, range(6), opts)
        assert [pair.stop for pair in got].count("capped") == 2
        for pair, x, seed in zip(got, xs, range(6)):
            assert_member_bits(pair, x, 2, seed, opts)

    def test_an_uphill_member_leaves_the_others_as_they_are(self, monkeypatch):
        xs, opts = perturbed_stack(30, 40, 3, 7), SolverOptions(tol=1e-300, max_iter=50)
        real, calls = linalg._frobenius, []

        def spiked(x, w, h):
            # evaluations: the start, then sweeps 9, 10 and 19; member 1 goes uphill
            calls.append(None)
            out = real(x, w, h)
            if len(calls) == 4:
                out[1] += 1.0
            return out

        monkeypatch.setattr(linalg, "_frobenius", spiked)
        got = linalg.nmf_stack(xs, 3, (5, 6, 7), opts)
        monkeypatch.undo()
        want = nmf_one_member(fm(xs[1]), 3, 6, SolverOptions(tol=1e-300, max_iter=10))
        assert (got[1].stop, got[1].sweeps) == ("uphill", 19)
        assert got[1].w.tobytes() == want.w.tobytes() and got[1].h.tobytes() == want.h.tobytes()
        assert got[1].objective_trace == want.trace
        for i in (0, 2):
            assert_member_bits(got[i], xs[i], 3, 5 + i, opts)

    def test_a_failed_member_is_a_value(self):
        xs = perturbed_stack(20, 30, 3, 4)
        xs[1] = 0.0
        got = linalg.nmf_stack(xs, 2, (0, 1, 2))
        assert isinstance(got[1], DegenerateInputError)
        for i in (0, 2):
            assert_member_bits(got[i], xs[i], 2, i)
        with pytest.raises(ValidationError):
            linalg.nmf_stack(xs, 21, (0, 1, 2))

    def test_two_blas_threads_give_the_bits_of_one_member_alone(self):
        # 2,000 x 60 at rank 3: OpenBLAS splits these products across threads
        code = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            from test_matrix import assert_member_bits, perturbed_stack, stack_digest
            from sigarchive import SolverOptions, linalg
            xs, opts = perturbed_stack(2000, 60, 4, 9), SolverOptions(max_iter=40)
            got = linalg.nmf_stack(xs, 3, range(4), opts)
            for pair, x, seed in zip(got, xs, range(4)):
                assert_member_bits(pair, x, 3, seed, opts)
            print(stack_digest(got))
            """)
        result = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                                capture_output=True, text=True,
                                env={**cli_env(), "OPENBLAS_NUM_THREADS": "2"})
        assert result.returncode == 0, result.stderr
        here = linalg.nmf_stack(perturbed_stack(2000, 60, 4, 9), 3, range(4),
                                SolverOptions(max_iter=40))
        assert result.stdout.split() == [stack_digest(here)]


class TestFrobeniusNorm:
    def test_agrees_with_numpy_norm(self):
        a = np.random.default_rng(1).random((40, 300))
        assert frobenius_norm(a) == pytest.approx(float(np.linalg.norm(a)), rel=1e-14)
        assert frobenius_norm(np.zeros((2, 3))) == 0.0

    def test_memory_layout_does_not_change_the_sum(self):
        a = np.random.default_rng(2).random((37, 211))
        assert frobenius_norm(np.asfortranarray(a)) == frobenius_norm(a)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_residual_has_the_bits_of_the_plain_expression(self, data):
        n, m = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 200))
        k = data.draw(st.integers(1, min(n, m, 16)))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        scale = data.draw(st.sampled_from([1.0, 1e9]))
        x = np.asarray(rng.random((n, m)) * scale, order=data.draw(st.sampled_from("CF")))
        w, h = rng.random((n, k)) * scale, rng.random((k, m))
        got = linalg._frobenius(x, w, h)
        assert got.hex() == frobenius_norm(x - w @ h).hex()


class TestFactorPair:
    def test_telemetry_defaults_and_checks(self):
        pair = FactorPair(np.ones((2, 1)), np.ones((1, 2)), (1.0,), seed=0)
        assert (pair.sweeps, pair.stop) == (0, "converged")
        with pytest.raises(ValidationError):
            FactorPair(np.ones((2, 1)), np.ones((1, 2)), (1.0,), 0, 3, "stalled")
        with pytest.raises(ValidationError):
            FactorPair(np.ones((2, 1)), np.ones((1, 2)), (1.0,), 0, -1)

    def test_rejects_increasing_trace(self):
        with pytest.raises(ValidationError):
            FactorPair(np.ones((2, 1)), np.ones((1, 2)), (1.0, 2.0), seed=0)

    def test_rejects_negative_factors(self):
        with pytest.raises(ValidationError):
            FactorPair(-np.ones((2, 1)), np.ones((1, 2)), (1.0,), seed=0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            FactorPair(np.ones((2, 2)), np.ones((1, 2)), (1.0,), seed=0)


class TestNnlsSolve:
    def test_identity_case(self):
        got = nnls_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(got, [1.0, 2.0, 3.0], atol=1e-12)

    def test_hand_case_interior_solution(self):
        # normal equations of [[2,1],[1,2]] @ h = [1,1] give h = (1/3, 1/3);
        # the nonnegativity constraint is inactive so both components stay positive
        got = nnls_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]))
        assert got[0] > 0 and got[1] > 0
        assert np.allclose(got, [1 / 3, 1 / 3], atol=1e-10)

    def test_all_negative_target_pins_zero(self):
        got = nnls_solve(np.array([[1.0], [1.0]]), np.array([-1.0, -1.0]))
        assert np.array_equal(got, [0.0])

    def test_output_exactly_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.standard_normal((5, 3))
            b = rng.standard_normal(5)
            assert (nnls_solve(a, b) >= 0).all()

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, 5))
            a = rng.random((n, p)) * 2 - 0.5
            if (np.linalg.norm(a, axis=0) == 0).any():
                continue
            b = rng.random(n) * 2 - 1
            got = float(np.linalg.norm(a @ nnls_solve(a, b) - b))
            _, want = nnls_exhaustive(a, b)
            assert abs(got - want) <= 1e-8

    def test_zero_column_rejected(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            nnls_solve(a, np.array([1.0, 1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            nnls_solve(np.array([[math.nan]]), np.array([1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            nnls_solve(np.ones((3, 2)), np.ones(2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_kkt_conditions_property(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        a = rng.random((n, p)) + 0.05
        b = rng.standard_normal(n)
        x = nnls_solve(a, b)
        grad = a.T @ (b - a @ x)
        tol = 1e-8 * float(np.abs(a.T @ b).max()) + 1e-12
        # active components must have no ascent direction; free components
        # must sit at a stationary point
        assert (grad[x == 0] <= tol).all()
        assert (np.abs(grad[x > 0]) <= max(tol, 1e-6)).all()


class TestRelativeError:
    def test_exact_factorization_is_zero(self):
        w = np.array([[1.0], [2.0]])
        h = np.array([[3.0, 4.0]])
        x = fm(w @ h)
        pair = FactorPair(w, h, (0.0,), seed=0)
        assert relative_error(x, pair) <= 1e-12

    def test_zero_h_gives_one(self):
        x = fm([[2.0, 4.0], [1.0, 2.0]])
        pair = FactorPair(np.ones((2, 1)), np.zeros((1, 2)),
                          (float(np.linalg.norm(x.values)),), seed=0)
        assert relative_error(x, pair) == 1.0

    def test_best_rank_one_fit_small(self):
        x = fm([[2.0, 4.0], [1.0, 2.0]])
        pair = nmf_factorize(x, 1, seed=3)
        assert relative_error(x, pair) <= 1e-6

    def test_zero_matrix_rejected(self):
        pair = FactorPair(np.ones((2, 1)), np.ones((1, 2)), (2.0,), seed=0)
        with pytest.raises(DegenerateInputError):
            relative_error(fm(np.zeros((2, 2))), pair)

    def test_shape_mismatch_rejected(self):
        pair = FactorPair(np.ones((3, 1)), np.ones((1, 2)), (1.0,), seed=0)
        with pytest.raises(ValidationError):
            relative_error(fm(np.ones((2, 2))), pair)
