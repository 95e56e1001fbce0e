"""Tests for matrix recovery by singular value thresholding."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradspace import completion
from gradspace.cli import cmd_complete
from gradspace.completion import RevealedEntries, SvtParams, reveal_uniform, svt_complete
from gradspace.config import ExperimentConfig
from gradspace.core import Hyperrectangle, JacobianSamples, detect_subspace, subspace_distance
from gradspace.util import make_rng


def low_rank_matrix(rows, cols, singular_values, seed):
    rng = make_rng(seed)
    rank = len(singular_values)
    U = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    V = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    return (U * np.asarray(singular_values, dtype=float)) @ V.T


def svd_shrink(Y, tau):
    # oracle: soft-threshold of the singular values from a full SVD
    U, S, Vt = np.linalg.svd(Y, full_matrices=False)
    keep = S > tau
    return U[:, keep], S[keep] - tau, Vt[keep]


class TestShrink:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_svd(self, data):
        rows, cols = data.draw(
            st.sampled_from([(12, 30), (30, 12)]).flatmap(
                lambda shape: st.tuples(st.integers(1, shape[0]), st.integers(1, shape[1]))
            ),
            label="shape",
        )
        tau = data.draw(st.floats(1e-3, 1e5), label="tau")
        # singular values on both sides of tau, at log-spread relative distances
        # from 10**-5.9 to 1 below it and to 10**1.99 above it, so none lies
        # within 1e-6 of it and sigma_max**2 / tau**2 stays below 1e4
        ratios = st.one_of(
            st.floats(-5.9, 0.0).map(lambda e: 1.0 - 10.0**e),
            st.floats(-5.9, 1.99).map(lambda e: 1.0 + 10.0**e),
        )
        n = min(rows, cols)
        sv = tau * np.array(data.draw(st.lists(ratios, min_size=n, max_size=n), label="ratios"))
        rng = make_rng(data.draw(st.integers(0, 2**32), label="seed"))
        U0 = np.linalg.qr(rng.standard_normal((rows, sv.size)))[0]
        V0 = np.linalg.qr(rng.standard_normal((cols, sv.size)))[0]
        Y = (U0 * sv) @ V0.T

        U, S, Vt = completion._shrink(Y, tau)
        U_ref, S_ref, Vt_ref = svd_shrink(Y, tau)
        assert S.size == S_ref.size == np.sum(sv > tau)
        sigma_max = max(sv.max(), tau)
        np.testing.assert_allclose(S + tau, S_ref + tau, rtol=1e-10, atol=0)
        np.testing.assert_allclose(
            (U * S) @ Vt, (U_ref * S_ref) @ Vt_ref, rtol=0, atol=1e-10 * sigma_max
        )
        np.testing.assert_allclose(U.T @ U, np.eye(S.size), rtol=0, atol=1e-10)
        np.testing.assert_allclose(Vt @ Vt.T, np.eye(S.size), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(12, 30), (30, 12)])
    def test_ill_conditioned_falls_back_to_svd(self, shape):
        # sigma_max / tau = 1000: squaring would lose six digits at the threshold
        Y = low_rank_matrix(*shape, [1000.0, 50.0, 2.0, 0.5], seed=89)
        for got, expected in zip(completion._shrink(Y, 1.0), svd_shrink(Y, 1.0)):
            np.testing.assert_array_equal(got, expected, strict=True)

    def test_overflowing_gram_raises_without_warning(self):
        Y = 1e200 * make_rng(90).standard_normal((6, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="Gram matrix"):
                completion._shrink(Y, 1.0)


class TestRevealUniform:
    def test_full_reveal(self):
        J = make_rng(60).standard_normal((8, 11))
        observed = reveal_uniform(J, 1.0, make_rng(61))
        assert observed.count == 8 * 11
        dense = np.zeros_like(J)
        dense[observed.rows, observed.cols] = observed.values
        np.testing.assert_array_equal(dense, J)

    def test_binomial_count(self):
        # oracle: binomial statistics for a Bernoulli(0.5) mask over 10^4 entries
        J = np.ones((100, 100))
        observed = reveal_uniform(J, 0.5, make_rng(62))
        n, p = J.size, 0.5
        three_sigma = 3 * np.sqrt(n * p * (1 - p))
        assert abs(observed.count - n * p) <= three_sigma

    def test_deterministic_mask(self):
        J = make_rng(63).standard_normal((20, 30))
        o1 = reveal_uniform(J, 0.3, make_rng(64))
        o2 = reveal_uniform(J, 0.3, make_rng(64))
        np.testing.assert_array_equal(o1.rows, o2.rows)
        np.testing.assert_array_equal(o1.cols, o2.cols)

    def test_rejects_bad_gamma(self):
        J = np.ones((2, 2))
        with pytest.raises(ValueError):
            reveal_uniform(J, 0.0, make_rng(65))
        with pytest.raises(ValueError):
            reveal_uniform(J, 1.1, make_rng(65))

    def test_warns_on_empty_row(self):
        with pytest.warns(RuntimeWarning, match="no revealed entry"):
            RevealedEntries((3, 2), np.array([0, 0]), np.array([0, 1]), np.ones(2))

    def test_rejects_duplicates_and_out_of_range(self):
        with pytest.raises(ValueError, match="duplicate"):
            RevealedEntries((2, 2), np.array([0, 0]), np.array([1, 1]), np.ones(2))
        with pytest.raises(ValueError, match="out of range"):
            RevealedEntries((2, 2), np.array([2]), np.array([0]), np.ones(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        values = np.array([1.0, bad, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            RevealedEntries((2, 2), np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), values)


class TestSvtComplete:
    def test_fully_revealed_rank_one(self):
        # oracle: exact SVD of the complete matrix
        rng = make_rng(66)
        u = 10.0 * rng.standard_normal(40)
        v = 10.0 * rng.standard_normal(60)
        J = np.outer(u, v)  # spectral norm ~ ||u|| ||v|| >> tau
        assert np.linalg.norm(J, 2) > 10 * 100.0
        observed = reveal_uniform(J, 1.0, make_rng(67))
        result = svt_complete(observed, SvtParams())
        u_true = np.linalg.svd(J, full_matrices=False)[0][:, 0]
        err = min(
            np.linalg.norm(result.left_vectors[:, 0] - u_true),
            np.linalg.norm(result.left_vectors[:, 0] + u_true),
        )
        assert err < 1e-3

    def test_all_zero_values(self):
        observed = RevealedEntries((5, 7), np.array([1, 2]), np.array([3, 4]), np.zeros(2))
        result = svt_complete(observed)
        assert result.rank == 0
        assert result.residual == 0.0
        assert result.converged

    def test_recovery_improves_with_reveal_fraction(self):
        J = low_rank_matrix(100, 400, np.linspace(800, 400, 5), seed=68)
        truth = np.linalg.svd(J, full_matrices=False)[0][:, :5]
        rng = make_rng(69)
        errors = {}
        for gamma in (0.1, 0.5, 0.9):
            observed = reveal_uniform(J, gamma, rng)
            result = svt_complete(observed)
            if result.rank >= 5:
                errors[gamma] = subspace_distance(result.left_vectors[:, :5], truth)
            else:
                errors[gamma] = 1.0
        assert errors[0.9] < errors[0.1]
        assert errors[0.9] < 1e-2

    def test_sample_count_economy(self):
        # rank-3 recovery from about 3.8 * rank * (rows + cols) entries; the
        # nuclear-norm weight follows the 5*sqrt(rows*cols) scaling rule so the
        # low-rank bias is strong enough at this reveal budget
        J = low_rank_matrix(60, 200, [500.0, 400.0, 300.0], seed=70)
        observed = reveal_uniform(J, 0.25, make_rng(71))
        budget = 3.8 * 3 * (60 + 200)
        assert observed.count <= 1.2 * budget
        params = SvtParams(tau=3000.0, delta=2.0, tol=1e-3, max_iter=4000)
        result = svt_complete(observed, params)
        assert result.converged
        truth = np.linalg.svd(J, full_matrices=False)[0][:, :3]
        assert result.rank >= 3
        assert subspace_distance(result.left_vectors[:, :3], truth) < 0.05

    def test_residual_matches_independent_recomputation(self):
        J = low_rank_matrix(30, 50, [300.0, 200.0], seed=72)
        observed = reveal_uniform(J, 0.6, make_rng(73))
        result = svt_complete(observed, SvtParams(max_iter=5000))
        assert result.converged
        X = (result.left_vectors * result.singular_values) @ result.right_vectors.T
        recomputed = np.linalg.norm(
            X[observed.rows, observed.cols] - observed.values
        ) / np.linalg.norm(observed.values)
        assert abs(result.residual - recomputed) <= 1e-12

    def test_residual_recomputation_holds_even_unconverged(self):
        J = low_rank_matrix(30, 50, [300.0, 200.0], seed=72)
        observed = reveal_uniform(J, 0.6, make_rng(73))
        with pytest.warns(RuntimeWarning, match="max_iter"):
            result = svt_complete(observed, SvtParams(max_iter=50))
        X = (result.left_vectors * result.singular_values) @ result.right_vectors.T
        recomputed = np.linalg.norm(
            X[observed.rows, observed.cols] - observed.values
        ) / np.linalg.norm(observed.values)
        assert abs(result.residual - recomputed) <= 1e-12

    def test_revealed_entries_reproduced_within_tolerance(self):
        params = SvtParams(max_iter=5000)
        J = low_rank_matrix(40, 80, [400.0, 300.0, 200.0], seed=74)
        observed = reveal_uniform(J, 0.7, make_rng(75))
        result = svt_complete(observed, params)
        assert result.converged
        X = (result.left_vectors * result.singular_values) @ result.right_vectors.T
        max_err = np.max(np.abs(X[observed.rows, observed.cols] - observed.values))
        assert max_err <= params.tol * np.linalg.norm(observed.values)

    def test_factors_orthonormal_and_descending(self):
        J = low_rank_matrix(30, 45, [350.0, 250.0, 150.0], seed=76)
        observed = reveal_uniform(J, 0.8, make_rng(77))
        result = svt_complete(observed)
        r = result.rank
        np.testing.assert_allclose(
            result.left_vectors.T @ result.left_vectors, np.eye(r), atol=1e-8
        )
        np.testing.assert_allclose(
            result.right_vectors.T @ result.right_vectors, np.eye(r), atol=1e-8
        )
        assert np.all(result.singular_values > 0)
        assert np.all(np.diff(result.singular_values) <= 0)

    def test_agreement_with_gradient_subspace_detection(self):
        # fully revealed gradient matrix: the recovered left vectors span the
        # same subspace as the eigenvectors found by the detection path
        rng = make_rng(78)
        d, k = 12, 40
        box = Hyperrectangle.cube(d, 1.0)
        J = low_rank_matrix(d, k, [900.0, 600.0, 300.0], seed=79)
        samples = JacobianSamples(box.sample(rng, k), J)
        sub = detect_subspace(samples, box)
        observed = reveal_uniform(J, 1.0, make_rng(80))
        result = svt_complete(observed)
        assert result.rank >= 3
        dist = subspace_distance(result.left_vectors[:, :3], sub.basis_a[:, :3])
        assert dist < 1e-6

    def test_eps_early_exit(self):
        # with a huge eps, the first iterate already satisfies the noise bound
        J = low_rank_matrix(20, 30, [500.0], seed=81)
        observed = reveal_uniform(J, 1.0, make_rng(82))
        result = svt_complete(observed, SvtParams(eps=1e9))
        assert result.converged
        assert result.iterations == 1

    def test_max_iter_flags_non_convergence(self):
        J = low_rank_matrix(40, 60, [300.0, 200.0], seed=83)
        observed = reveal_uniform(J, 0.5, make_rng(84))
        with pytest.warns(RuntimeWarning, match="max_iter"):
            result = svt_complete(observed, SvtParams(max_iter=2))
        assert not result.converged

    def test_divergence_returns_best_iterate(self):
        # the acceptance c06 matrix at gamma = 0.1 with tau = 5*sqrt(dk) and an
        # uncapped step delta = 1.2/gamma: the iterates blow up
        rng = make_rng(2026, stream=6)
        d, k, rank = 100, 400, 5
        U0 = np.linalg.qr(rng.standard_normal((d, rank)))[0]
        V0 = np.linalg.qr(rng.standard_normal((k, rank)))[0]
        J = (U0 * np.linspace(800.0, 400.0, rank)) @ V0.T
        observed = reveal_uniform(J, 0.1, rng)
        with pytest.warns(RuntimeWarning, match="diverged"):
            result = svt_complete(observed, SvtParams(tau=5.0 * np.sqrt(d * k), delta=12.0))
        assert not result.converged
        assert result.iterations < 1000
        for part in (result.left_vectors, result.singular_values, result.right_vectors):
            assert np.all(np.isfinite(part))
        X = (result.left_vectors * result.singular_values) @ result.right_vectors.T
        rel = np.linalg.norm(X[observed.rows, observed.cols] - observed.values) / np.linalg.norm(
            observed.values
        )
        assert result.residual == pytest.approx(rel, rel=1e-12)
        assert result.residual < 1.0

    @pytest.mark.parametrize(
        "failure, message",
        [("raise", "SVD failed at iteration 3"), ("nan", "non-finite at iteration 3")],
    )
    def test_divergence_keeps_best_iterate(self, monkeypatch, failure, message):
        J = low_rank_matrix(40, 60, [300.0, 200.0], seed=85)
        observed = reveal_uniform(J, 0.5, make_rng(86))
        with pytest.warns(RuntimeWarning, match="max_iter"):
            two_steps = svt_complete(observed, SvtParams(max_iter=2))
        shrink, calls = completion._shrink, []

        def failing_third_call(Y, tau):
            calls.append(1)
            U, S, Vt = shrink(Y, tau)
            if len(calls) == 3:
                if failure == "raise":
                    raise np.linalg.LinAlgError("SVD did not converge")
                S = np.full_like(S, np.nan)
            return U, S, Vt

        monkeypatch.setattr(completion, "_shrink", failing_third_call)
        with pytest.warns(RuntimeWarning, match=message):
            result = svt_complete(observed, SvtParams(max_iter=10))
        assert not result.converged and result.iterations == 3
        np.testing.assert_array_equal(result.left_vectors, two_steps.left_vectors)
        np.testing.assert_array_equal(result.singular_values, two_steps.singular_values)
        assert result.residual == two_steps.residual

    def test_svd_failure_at_first_iteration_gives_rank_zero(self, monkeypatch):
        def failing(Y, tau):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(completion, "_shrink", failing)
        observed = reveal_uniform(low_rank_matrix(10, 12, [50.0], seed=87), 1.0, make_rng(88))
        with pytest.warns(RuntimeWarning, match="diverged"):
            result = svt_complete(observed)
        assert result.rank == 0 and not result.converged
        assert result.left_vectors.shape == (10, 0) and result.right_vectors.shape == (12, 0)
        assert result.residual == 1.0

    def test_rank_zero_iterate_scores_one_and_carries_on(self, monkeypatch):
        # the first thresholded iterate is empty: its dense product is the zero
        # matrix, so its residual is exactly 1, and the next step moves on from it
        J = low_rank_matrix(30, 50, [300.0, 200.0], seed=72)
        observed = reveal_uniform(J, 0.6, make_rng(73))
        shrink, calls = completion._shrink, []

        def empty_first_call(Y, tau):
            calls.append(1)
            U, S, Vt = shrink(Y, tau)
            if len(calls) == 1:
                return U[:, :0], S[:0], Vt[:0]
            return U, S, Vt

        monkeypatch.setattr(completion, "_shrink", empty_first_call)
        with pytest.warns(RuntimeWarning, match="max_iter"):
            first = svt_complete(observed, SvtParams(max_iter=1))
        assert first.rank == 0 and first.residual == 1.0 and first.iterations == 1

        calls.clear()
        result = svt_complete(observed, SvtParams(max_iter=5000))
        assert result.converged and result.iterations > 1 and result.rank > 0
        X = (result.left_vectors * result.singular_values) @ result.right_vectors.T
        recomputed = np.linalg.norm(
            X[observed.rows, observed.cols] - observed.values
        ) / np.linalg.norm(observed.values)
        assert abs(result.residual - recomputed) <= 1e-12

    def test_rejects_empty_observation(self):
        with pytest.warns(RuntimeWarning, match="no revealed entry"):
            observed = RevealedEntries((3, 3), [], [], [])
        with pytest.raises(ValueError):
            svt_complete(observed)


class TestTrajectory:
    # (rank, iterations, converged) per gamma of the svt-sweep benchmark
    # workload, recorded with the SVD shrink: a shrink that moves the path fails here
    @pytest.mark.parametrize(
        "seed, expected",
        [
            (1001, [(39, 103, 1), (50, 149, 1), (6, 16, 1)]),
            (2002, [(37, 103, 1), (50, 176, 1), (10, 211, 1)]),
        ],
    )
    def test_svt_sweep_path_pinned(self, tmp_path, seed, expected):
        cfg = ExperimentConfig(
            model="cos2", svt_synthetic=True, svt_rows=50, svt_cols=200,
            gamma_sweep=(0.1, 0.5, 0.9),
        )
        files, _ = cmd_complete(cfg, tmp_path, seed=seed)
        table = np.loadtxt(files["svt_error.csv"], delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], [0.1, 0.5, 0.9])
        assert [tuple(int(v) for v in row[[2, 3, 5]]) for row in table] == expected


class TestSvtParams:
    def test_defaults(self):
        p = SvtParams()
        assert (p.tau, p.delta, p.tol, p.eps, p.max_iter) == (100.0, 1.0, 1e-4, 1e-6, 1000)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SvtParams(tau=0.0)
        with pytest.raises(ValueError):
            SvtParams(delta=-1.0)
        with pytest.raises(ValueError):
            SvtParams(max_iter=0)
