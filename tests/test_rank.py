"""Rank selection: perturbation, ensemble matching, silhouettes, the scan."""

import numpy as np
import pytest

from conftest import fm
from sigarchive import (
    DegenerateInputError,
    EnsembleConfig,
    FeatureMatrix,
    SolverOptions,
    ValidationError,
    nmf_factorize,
    relative_error,
    select_rank,
)
from sigarchive import rank as rank_module
from sigarchive.dataio import SynthSpec, generate_synthetic
from sigarchive.rank import (
    RULE_FALLBACK,
    RULE_FORCED,
    RULE_THRESHOLD,
    cluster_ensemble_signatures,
    ensemble_stability,
    perturb,
    silhouette_scores,
)

FAST = dict(n_perturbations=8, base_seed=0)


def greedy_match_reference(members):
    """Clusters by the pairwise greedy rule, scanned one pair at a time.

    Among the unmatched (anchor, column) pairs the first strictly highest
    cosine wins, scanning columns in the outer loop and anchors in the inner.
    """
    units = [m / np.where(np.linalg.norm(m, axis=0) > 0,
                          np.linalg.norm(m, axis=0), 1.0) for m in members]
    k = units[0].shape[1]
    clusters = [[units[0][:, c]] for c in range(k)]
    for cols in units[1:]:
        sim = units[0].T @ cols
        open_anchor, open_col = set(range(k)), set(range(k))
        for _ in range(k):
            best, pair = -np.inf, None
            for j in sorted(open_col):
                for c in sorted(open_anchor):
                    if sim[c, j] > best:
                        best, pair = sim[c, j], (c, j)
            c, j = pair
            clusters[c].append(cols[:, j])
            open_anchor.discard(c)
            open_col.discard(j)
    return [np.array(c) for c in clusters]


class TestEnsembleConfig:
    def test_valid_defaults(self):
        cfg = EnsembleConfig(k_min=1, k_max=4)
        assert cfg.n_perturbations == 30 and cfg.noise_epsilon == 0.03
        assert cfg.silhouette_threshold == 0.75

    def test_rejects_bad_range(self):
        with pytest.raises(ValidationError):
            EnsembleConfig(k_min=3, k_max=2)
        with pytest.raises(ValidationError):
            EnsembleConfig(k_min=0, k_max=2)

    def test_rejects_tiny_ensemble(self):
        with pytest.raises(ValidationError):
            EnsembleConfig(k_min=1, k_max=2, n_perturbations=1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            EnsembleConfig(k_min=1, k_max=2, noise_epsilon=1.0)


class TestPerturb:
    def test_zero_epsilon_is_identity(self):
        x = fm([[1.0, 2.0], [3.0, 4.0]])
        assert perturb(x, 0.0, seed=5) == x

    def test_zero_entries_stay_zero(self):
        x = fm([[0.0, 2.0], [3.0, 0.0]])
        out = perturb(x, 0.5, seed=1)
        assert out.values[0, 0] == 0.0 and out.values[1, 1] == 0.0

    def test_bounds_over_many_seeds(self):
        x = fm([[1.0]])
        for seed in range(1000):
            v = perturb(x, 0.03, seed).values[0, 0]
            assert 0.97 <= v <= 1.03

    def test_deterministic(self):
        x = fm(np.random.default_rng(0).random((3, 4)))
        assert perturb(x, 0.1, seed=9) == perturb(x, 0.1, seed=9)
        assert perturb(x, 0.1, seed=9) != perturb(x, 0.1, seed=10)

    def test_epsilon_out_of_range(self):
        x = fm([[1.0]])
        with pytest.raises(ValidationError):
            perturb(x, 1.0, seed=0)
        with pytest.raises(ValidationError):
            perturb(x, -0.1, seed=0)


class TestClusterEnsembleSignatures:
    def test_identical_members_are_tight(self):
        member = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        got = cluster_ensemble_signatures([member] * 4)
        for c in range(2):
            pts = got[c]
            assert pts.shape == (4, 3)
            gram = pts @ pts.T
            assert np.allclose(gram, 1.0, atol=1e-12)  # zero cosine distance
        min_sil, mean_sil = ensemble_stability(got)
        assert min_sil == 1.0 and mean_sil == 1.0

    def test_swapped_member_recovers_permutation(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = a[:, ::-1]
        got = cluster_ensemble_signatures([a, b])
        # cluster c must hold both copies of anchor column c
        assert np.array_equal(got[0], np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(got[1], np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_one_column_per_member_per_cluster(self):
        rng = np.random.default_rng(2)
        members = [rng.random((5, 3)) + 0.01 for _ in range(6)]
        got = cluster_ensemble_signatures(members)
        assert len(got) == 3
        assert all(c.shape == (6, 5) for c in got)
        # across clusters, member i's rows are exactly its own unit columns
        for i, member in enumerate(members):
            units = member / np.linalg.norm(member, axis=0)
            rows = sorted(tuple(got[c][i]) for c in range(3))
            cols = sorted(tuple(units[:, j]) for j in range(3))
            assert np.allclose(rows, cols, atol=1e-12)

    def test_ties_go_to_lowest_column_then_lowest_anchor(self):
        # every entry is exact in binary: the cosines of b0 and b1 to anchor
        # e0, and of b0 to anchor e1, tie at exactly 0.5; b1 vs e1 is 0
        e0, e1 = np.eye(5)[:, :2].T
        b0 = np.array([0.5, 0.5, 0.5, 0.5, 0.0])
        b1 = np.array([0.5, 0.0, 0.5, 0.5, 0.5])
        got = cluster_ensemble_signatures([np.column_stack([e0, e1]),
                                           np.column_stack([b0, b1])])
        # (anchor 0, column 0) wins the three-way tie; anchor 1 takes column 1
        assert np.array_equal(got[0], np.stack([e0, b0]))
        assert np.array_equal(got[1], np.stack([e1, b1]))

    def test_matches_pairwise_greedy_reference(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, 7))
            # even trials use small integers, which give many exact cosine ties
            members = [rng.integers(0, 3, size=(n, k)).astype(float) + (trial % 2)
                       * rng.random((n, k)) for _ in range(int(rng.integers(1, 5)))]
            got = cluster_ensemble_signatures(members)
            want = greedy_match_reference(members)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            cluster_ensemble_signatures([np.ones((3, 2)), np.ones((3, 3))])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cluster_ensemble_signatures([])


class TestSilhouetteScores:
    def test_hand_case(self):
        # cluster 1: (1,0), (4/5,3/5); cluster 2: (0,1), (3/5,4/5)
        # exact cosine distances: d12 = d34 = 1/5, d13 = 1, d14 = d23 = 2/5,
        # d24 = 1/25, giving silhouettes (5/7, 1/11) in each cluster
        c1 = np.array([[1.0, 0.0], [0.8, 0.6]])
        c2 = np.array([[0.0, 1.0], [0.6, 0.8]])
        per_cluster, minima = silhouette_scores([c1, c2])
        assert np.allclose(per_cluster[0], [5 / 7, 1 / 11], atol=1e-12)
        assert np.allclose(per_cluster[1], [5 / 7, 1 / 11], atol=1e-12)
        assert np.allclose(minima, [1 / 11, 1 / 11], atol=1e-12)

    def test_orthogonal_tight_clusters_score_one(self):
        c1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        c2 = np.array([[0.0, 1.0], [0.0, 1.0]])
        per_cluster, _ = silhouette_scores([c1, c2])
        assert all(np.allclose(s, 1.0, atol=1e-12) for s in per_cluster)

    def test_singleton_scores_zero(self):
        c1 = np.array([[1.0, 0.0]])
        c2 = np.array([[0.0, 1.0], [0.6, 0.8]])
        per_cluster, _ = silhouette_scores([c1, c2])
        assert per_cluster[0][0] == 0.0

    def test_equidistant_point_scores_zero(self):
        mid = [2 ** -0.5, 2 ** -0.5]
        c1 = np.array([[1.0, 0.0], [1.0, 0.0], mid])
        c2 = np.array([[0.0, 1.0], [0.0, 1.0]])
        per_cluster, _ = silhouette_scores([c1, c2])
        assert abs(per_cluster[0][2]) <= 1e-12

    def test_values_in_range(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((8, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        per_cluster, _ = silhouette_scores([pts[:3], pts[3:6], pts[6:]])
        for s in per_cluster:
            assert ((-1 <= s) & (s <= 1)).all()

    def test_single_cluster_rejected(self):
        with pytest.raises(ValidationError):
            silhouette_scores([np.ones((3, 2))])


class TestSelectRank:
    def test_exact_rank_one_selects_one(self):
        x = fm(np.outer([1.0, 2.0, 0.5, 1.5], [2.0, 1.0, 3.0, 0.5, 1.0, 2.5]))
        report = select_rank(x, EnsembleConfig(k_min=1, k_max=3, **FAST))
        assert report.selected_k == 1
        assert report.per_k[0].k == 1 and report.per_k[0].min_silhouette == 1.0

    def test_forced_single_candidate(self):
        x = fm(np.random.default_rng(1).random((5, 8)) + 0.1)
        report = select_rank(x, EnsembleConfig(k_min=2, k_max=2, **FAST))
        assert report.selected_k == 2
        assert report.selection_rule_fired == RULE_FORCED

    def test_recovers_three_signatures(self):
        # well-separated generating signatures; requires >= 19/20 seeds
        hits = 0
        for gseed in range(20):
            data, truth = generate_synthetic(SynthSpec(
                n_features=30, n_classes=3, samples_per_class=100,
                signature_overlap=0.05, noise_sigma=0.01, seed=gseed))
            gram = truth.signatures.T @ truth.signatures
            assert gram[~np.eye(3, dtype=bool)].max() < 0.1
            report = select_rank(data.features, EnsembleConfig(
                k_min=1, k_max=6, noise_epsilon=0.01, **FAST))
            hits += report.selected_k == 3
        assert hits >= 19

    def test_deterministic_report(self):
        x = fm(np.random.default_rng(2).random((6, 20)) + 0.05)
        cfg = EnsembleConfig(k_min=1, k_max=3, **FAST)
        assert select_rank(x, cfg) == select_rank(x, cfg)

    def test_scan_covers_range_and_rule_is_known(self):
        cfg = EnsembleConfig(k_min=2, k_max=4, **FAST)
        for seed in range(5):
            x = fm(np.random.default_rng(seed).random((6, 20)) + 0.05)
            report = select_rank(x, cfg)
            ks = [s.k for s in report.per_k]
            assert ks == list(range(2, ks[-1] + 1))
            stable = [s.min_silhouette >= cfg.silhouette_threshold for s in report.per_k]
            if ks[-1] < cfg.k_max:  # stopped: an unstable rank after a stable one
                assert not stable[-1] and any(stable[:-1])
            else:
                assert not any(a and not b for a, b in zip(stable, stable[1:-1]))
            assert report.selection_rule_fired in (RULE_THRESHOLD, RULE_FALLBACK)

    def test_k_max_too_large_rejected(self):
        x = fm(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            select_rank(x, EnsembleConfig(k_min=1, k_max=5, **FAST))

    def test_member_errors_match_recomputed_relative_errors(self):
        x = fm(np.random.default_rng(6).random((6, 20)) + 0.05)
        cfg = EnsembleConfig(k_min=1, k_max=3, **FAST)
        report = select_rank(x, cfg)
        for stats in report.per_k:
            errors = []
            for i in range(cfg.n_perturbations):
                member = perturb(x, cfg.noise_epsilon, cfg.base_seed + i)
                pair = nmf_factorize(member, stats.k, cfg.base_seed + i)
                errors.append(relative_error(member, pair))
            assert stats.mean_relative_error == float(np.mean(errors))

    def test_member_stop_counts_match_recomputed_runs(self):
        x = fm(np.random.default_rng(6).random((6, 20)) + 0.05)
        cfg = EnsembleConfig(k_min=1, k_max=3, **FAST)
        for solver in (SolverOptions(), SolverOptions(max_iter=15)):
            for stats in select_rank(x, cfg, solver=solver).per_k:
                stops = [nmf_factorize(perturb(x, cfg.noise_epsilon, cfg.base_seed + i),
                                       stats.k, cfg.base_seed + i, solver).stop
                         for i in range(cfg.n_perturbations)]
                assert ((stats.members_converged, stats.members_capped,
                         stats.members_uphill, stats.members_failed)
                        == (stops.count("converged"), stops.count("capped"),
                            stops.count("uphill"), 0))

    def test_failed_members_are_counted(self, monkeypatch):
        real = rank_module.nmf_factorize

        def first_member_fails(x, k, seed, opts):
            if seed == 0:
                raise DegenerateInputError("member 0 fails")
            return real(x, k, seed, opts)

        monkeypatch.setattr(rank_module, "nmf_factorize", first_member_fails)
        x = fm(np.random.default_rng(6).random((6, 20)) + 0.05)
        report = select_rank(x, EnsembleConfig(k_min=1, k_max=2, **FAST))
        for stats in report.per_k:
            assert stats.members_failed == 1
            assert (stats.members_converged + stats.members_capped
                    + stats.members_uphill) == FAST["n_perturbations"] - 1

    def test_zero_matrix_degenerate(self):
        x = FeatureMatrix(np.zeros((3, 4)), tuple(f"s{i}" for i in range(4)))
        with pytest.raises(DegenerateInputError):
            select_rank(x, EnsembleConfig(k_min=1, k_max=2, **FAST))


class TestStopRule:
    """Scripted silhouettes: ``ensemble_stability`` returns a set value per rank."""

    X = fm(np.random.default_rng(4).random((8, 20)) + 0.05)

    def scan(self, monkeypatch, silhouettes, k_min=1, k_max=6):
        monkeypatch.setattr(rank_module, "ensemble_stability",
                            lambda clusters: (silhouettes[len(clusters)],) * 2)
        report = select_rank(self.X, EnsembleConfig(k_min=k_min, k_max=k_max,
                                                    n_perturbations=3))
        return [s.k for s in report.per_k], report.selected_k, report.selection_rule_fired

    def test_stable_then_unstable_stops_the_scan(self, monkeypatch):
        got = self.scan(monkeypatch, {1: 1.0, 2: 0.9, 3: 0.8, 4: 0.2, 5: 0.99, 6: 0.99})
        assert got == ([1, 2, 3, 4], 3, RULE_THRESHOLD)

    def test_rank_one_alone_never_stops_it(self, monkeypatch):
        got = self.scan(monkeypatch, {1: 1.0, 2: 0.1, 3: 0.9, 4: 0.3, 5: 0.99, 6: 0.99})
        assert got == ([1, 2, 3, 4], 3, RULE_THRESHOLD)
        got = self.scan(monkeypatch, {1: 1.0, 2: 0.1, 3: 0.2, 4: 0.3, 5: 0.2, 6: 0.1})
        assert got == ([1, 2, 3, 4, 5, 6], 1, RULE_THRESHOLD)

    def test_no_stable_rank_above_one_scans_everything(self, monkeypatch):
        got = self.scan(monkeypatch, {2: 0.1, 3: 0.5, 4: 0.3, 5: 0.5, 6: 0.2}, k_min=2)
        assert got == ([2, 3, 4, 5, 6], 3, RULE_FALLBACK)

    def test_stable_k_min_above_one_starts_the_stop(self, monkeypatch):
        got = self.scan(monkeypatch, {2: 0.9, 3: 0.4, 4: 0.95, 5: 0.95, 6: 0.95}, k_min=2)
        assert got == ([2, 3], 2, RULE_THRESHOLD)

    def test_stable_ranks_up_to_k_max_scan_everything(self, monkeypatch):
        got = self.scan(monkeypatch, {1: 1.0, 2: 0.9, 3: 0.8, 4: 0.9, 5: 0.2, 6: 0.99})
        assert got == ([1, 2, 3, 4, 5], 4, RULE_THRESHOLD)
        got = self.scan(monkeypatch, {1: 1.0, 2: 0.9, 3: 0.8, 4: 0.9, 5: 0.9, 6: 0.99})
        assert got == ([1, 2, 3, 4, 5, 6], 6, RULE_THRESHOLD)

    def test_forced_scan_is_unchanged(self, monkeypatch):
        for sil in (0.1, 0.9):
            got = self.scan(monkeypatch, {3: sil}, k_min=3, k_max=3)
            assert got == ([3], 3, RULE_FORCED)

    def test_no_member_runs_above_the_stop(self, monkeypatch):
        real, ranks = rank_module.nmf_factorize, []

        def counted(x, k, seed, opts):
            ranks.append(k)
            return real(x, k, seed, opts)

        monkeypatch.setattr(rank_module, "nmf_factorize", counted)
        self.scan(monkeypatch, {1: 1.0, 2: 0.9, 3: 0.2, 4: 0.9, 5: 0.9, 6: 0.9})
        assert ranks == [k for k in (1, 2, 3) for _ in range(3)]
