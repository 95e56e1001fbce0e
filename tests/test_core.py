"""Tests for subspace detection from gradient samples."""

import re

import numpy as np
import pytest

from gradspace.core import (
    ActiveSubspace,
    Hyperrectangle,
    JacobianSamples,
    detect_subspace,
    finite_difference_jacobian,
    subspace_distance,
    suggest_truncation,
    truncate,
)
from gradspace.util import make_rng

SQ2 = np.sqrt(2.0) / 2.0


def cos2_grad(s):
    return -np.sin(s[0] + s[1]) * np.ones(2)


def cos2_domain():
    return Hyperrectangle.cube(2, np.pi)


def volume(box):
    return np.prod(box.upper - box.lower)


def c_hat(samples, box):
    """The estimate (|D|/k) J J^T, rebuilt from the eigenpairs detect_subspace returns."""
    sub = detect_subspace(samples, box)
    return (sub.basis_a * sub.eigenvalues) @ sub.basis_a.T


class TestHyperrectangle:
    def test_rejects_empty_interior(self):
        with pytest.raises(ValueError):
            Hyperrectangle(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Hyperrectangle(np.array([-np.inf]), np.array([1.0]))

    def test_sample_stays_inside(self):
        box = Hyperrectangle.cube(4, 2.0)
        pts = box.sample(make_rng(1), 1000)
        assert np.all(pts >= box.lower) and np.all(pts <= box.upper)

    @pytest.mark.parametrize("point", [[0.5], [0.5, 0.5], np.zeros((4, 2)), np.zeros((2, 4, 3))])
    def test_contains_rejects_a_point_of_the_wrong_shape(self, point):
        message = f"shape {np.shape(point)} given to a box of dimension 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            Hyperrectangle.cube(3, 1.0).contains(point)

    def test_contains_decides_a_stack_by_every_row(self):
        box = Hyperrectangle.cube(3, 1.0)
        stack = np.array([[1.0, -1.0, 0.0], [0.5, 0.5, 0.5], [-1.0, 1.0, 1.0]])
        assert box.contains(stack)
        stack[1, 2] = np.nextafter(1.0, 2.0)
        assert not box.contains(stack)
        assert box.contains(stack, tol=1e-9)


class TestEstimateCHat:
    """The estimate of the derivative matrix, as detect_subspace returns it."""

    def test_single_column_arithmetic(self):
        # one gradient column of the two-dimensional cosine at (pi/2, 0)
        box = cos2_domain()
        samples = JacobianSamples(np.array([[np.pi / 2, 0.0]]), np.array([[-1.0], [-1.0]]))
        C = c_hat(samples, box)
        np.testing.assert_allclose(C, 4 * np.pi**2 * np.ones((2, 2)), rtol=1e-14)

    def test_zero_matrix(self):
        box = Hyperrectangle.cube(3, 1.0)
        samples = JacobianSamples(np.zeros((4, 3)), np.zeros((3, 4)))
        np.testing.assert_array_equal(c_hat(samples, box), np.zeros((3, 3)))

    def test_monte_carlo_cosine(self):
        # 20000 samples land within 5% of the closed-form 2*pi^2 matrix of ones
        box = cos2_domain()
        samples = JacobianSamples.from_gradient(cos2_grad, box, 20000, make_rng(11))
        C = c_hat(samples, box)
        np.testing.assert_allclose(C, 2 * np.pi**2 * np.ones((2, 2)), rtol=0.05)

    def test_rejects_point_outside_domain(self):
        box = Hyperrectangle.cube(2, 1.0)
        samples = JacobianSamples(np.array([[2.0, 0.0]]), np.ones((2, 1)))
        with pytest.raises(ValueError, match="outside"):
            c_hat(samples, box)

    def test_rejects_dimension_mismatch(self):
        box = Hyperrectangle.cube(3, 1.0)
        samples = JacobianSamples(np.zeros((1, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="mismatch"):
            c_hat(samples, box)


class TestDetectSubspace:
    def test_cosine_rank_one(self):
        box = cos2_domain()
        samples = JacobianSamples.from_gradient(cos2_grad, box, 50, make_rng(3))
        sub = detect_subspace(samples, box)
        lam = sub.eigenvalues
        assert lam[1] < 1e-24 * lam[0]
        assert subspace_distance(sub.basis_a[:, :1], np.array([[SQ2], [SQ2]])) < 1e-10

    def test_axis_aligned_ridge(self):
        box = Hyperrectangle.cube(5, 1.0)
        rng = make_rng(4)

        def grad(s):
            return np.cos(s[0]) * np.eye(5)[0]

        samples = JacobianSamples.from_gradient(grad, box, 30, rng)
        sub = detect_subspace(samples, box)
        np.testing.assert_allclose(sub.basis_a[:, 0], np.eye(5)[0], atol=1e-12)

    def test_quadratic_matches_analytic_second_moment(self):
        # oracle: C = A M A with M = (2^d/3) I from the exact second moment of the cube
        rng = make_rng(5)
        d, k = 4, 50000
        A = rng.standard_normal((d, d))
        A = 0.5 * (A + A.T)
        box = Hyperrectangle.cube(d, 1.0)
        pts = box.sample(rng, k)
        samples = JacobianSamples(pts, A @ pts.T)
        sub = detect_subspace(samples, box)
        C_exact = A @ ((2.0**d / 3.0) * np.eye(d)) @ A
        w, V = np.linalg.eigh(C_exact)
        V_top = V[:, np.argsort(w)[::-1][:2]]
        assert subspace_distance(sub.basis_a[:, :2], V_top) < 0.05

    def test_svd_path_matches_explicit_eigenvalues(self):
        rng = make_rng(6)
        for _ in range(10):
            d, k = int(rng.integers(1, 21)), int(rng.integers(1, 51))
            box = Hyperrectangle.cube(d, 1.5)
            samples = JacobianSamples(box.sample(rng, k), rng.standard_normal((d, k)))
            sub = detect_subspace(samples, box)
            C = (volume(box) / k) * (samples.jacobian @ samples.jacobian.T)
            lam_explicit = np.sort(np.linalg.eigvalsh(C))[::-1]
            lam_explicit = np.clip(lam_explicit, 0.0, None)
            scale = max(lam_explicit[0], 1e-300)
            np.testing.assert_allclose(
                sub.eigenvalues, lam_explicit, atol=1e-10 * scale
            )

    def test_fewer_samples_than_dimensions_pads_with_null_space(self):
        rng = make_rng(7)
        box = Hyperrectangle.cube(6, 1.0)
        samples = JacobianSamples(box.sample(rng, 2), rng.standard_normal((6, 2)))
        sub = detect_subspace(samples, box)
        assert sub.basis_a.shape == (6, 6)
        np.testing.assert_array_equal(sub.eigenvalues[2:], np.zeros(4))
        assert np.max(np.abs(sub.basis_a[:, 2:].T @ samples.jacobian)) < 1e-12

    def test_constant_direction_in_null_space(self):
        # with k >= d the flat direction must be annihilated by the estimate
        box = cos2_domain()
        samples = JacobianSamples.from_gradient(cos2_grad, box, 40, make_rng(8))
        C = (volume(box) / 40) * (samples.jacobian @ samples.jacobian.T)
        v_null = np.array([-SQ2, SQ2])
        lam1 = detect_subspace(samples, box).eigenvalues[0]
        assert np.linalg.norm(C @ v_null) <= 1e-10 * lam1

    def test_deterministic_given_samples(self):
        box = cos2_domain()
        samples = JacobianSamples.from_gradient(cos2_grad, box, 25, make_rng(9))
        sub1 = detect_subspace(samples, box)
        sub2 = detect_subspace(samples, box)
        np.testing.assert_array_equal(sub1.basis_a, sub2.basis_a)
        np.testing.assert_array_equal(sub1.eigenvalues, sub2.eigenvalues)

    def test_sign_convention(self):
        rng = make_rng(10)
        box = Hyperrectangle.cube(5, 1.0)
        samples = JacobianSamples(box.sample(rng, 8), rng.standard_normal((5, 8)))
        V = detect_subspace(samples, box).basis_a
        for j in range(V.shape[1]):
            first = V[np.abs(V[:, j]) > 1e-12, j][0]
            assert first > 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            JacobianSamples(np.zeros((1, 2)), np.array([[np.nan], [0.0]]))

    # |D| = 4**600 overflows and 0.2**500 underflows; so do the top eigenvalues
    @pytest.mark.parametrize("d, half_width", [(600, 2.0), (500, 0.1)])
    @pytest.mark.parametrize("estimator", [detect_subspace])
    def test_unrepresentable_spectrum_raises(self, d, half_width, estimator):
        rng = make_rng(12)
        box = Hyperrectangle.cube(d, half_width)
        samples = JacobianSamples(box.sample(rng, 10), rng.standard_normal((d, 10)))
        with pytest.raises(ValueError, match=rf"d={d}\b.*\[-{half_width:g}, {half_width:g}\]\^{d}"):
            estimator(samples, box)

    def test_overflowing_volume_with_representable_spectrum(self):
        # |D| = 4**600 is not a float64, but with gradients of size 1e-200 the
        # scaled spectrum is; it must come out on the |D|/k convention
        rng = make_rng(13)
        d, k = 600, 10
        box = Hyperrectangle.cube(d, 2.0)
        J = 1e-200 * rng.standard_normal((d, k))
        sub = detect_subspace(JacobianSamples(box.sample(rng, k), J), box)
        sv = np.linalg.svd(J, compute_uv=False)
        expected = np.exp(d * np.log(4.0) - np.log(k) + 2.0 * np.log(sv))
        np.testing.assert_allclose(sub.eigenvalues[:k], expected, rtol=1e-12)
        np.testing.assert_array_equal(sub.eigenvalues[k:], 0.0)


class TestRidgeRankOne:
    def test_random_ridges(self):
        # any ridge gradient matrix is exactly rank one up to roundoff
        rng = make_rng(12)
        box = Hyperrectangle.cube(10, 1.0)
        for _ in range(5):
            a = rng.standard_normal(10)
            pts = box.sample(rng, 50)
            J = np.outer(a, np.cos(pts @ a))
            sub = detect_subspace(JacobianSamples(pts, J), box)
            lam = sub.eigenvalues
            assert lam[1] <= 1e-24 * lam[0]
            direction = a / np.linalg.norm(a)
            assert subspace_distance(sub.basis_a[:, :1], direction[:, None]) < 1e-10


class TestTruncate:
    def test_full_truncation_is_identity(self):
        box = cos2_domain()
        samples = JacobianSamples.from_gradient(cos2_grad, box, 10, make_rng(13))
        sub = detect_subspace(samples, box)
        t = truncate(sub, 2)
        np.testing.assert_array_equal(t.basis_a, sub.basis_a)

    def test_cosine_split(self):
        box = cos2_domain()
        samples = JacobianSamples.from_gradient(cos2_grad, box, 10, make_rng(14))
        t = truncate(detect_subspace(samples, box), 1)
        np.testing.assert_allclose(t.basis_a[:, 0], [SQ2, SQ2], atol=1e-10)
        assert t.basis_a.shape == (2, 1)

    def test_out_of_range(self):
        box = cos2_domain()
        samples = JacobianSamples.from_gradient(cos2_grad, box, 5, make_rng(15))
        sub = detect_subspace(samples, box)
        with pytest.raises(ValueError):
            truncate(sub, 0)
        with pytest.raises(ValueError):
            truncate(sub, 3)


class TestSuggestTruncation:
    def test_rank_one_spectrum(self):
        assert suggest_truncation(np.array([4 * np.pi**2, 0.0])) == 1

    def test_dominant_gap(self):
        assert suggest_truncation(np.array([1.0, 0.9, 1e-8, 1e-9])) == 2

    def test_all_zero_warns(self):
        with pytest.warns(RuntimeWarning):
            assert suggest_truncation(np.zeros(4)) == 1

    def test_single_eigenvalue(self):
        assert suggest_truncation(np.array([3.0])) == 1

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            suggest_truncation(np.array([1.0, 2.0]))


class TestSubspaceDistance:
    def test_identical(self):
        V = np.linalg.qr(make_rng(16).standard_normal((6, 3)))[0]
        assert subspace_distance(V, V) == 0.0

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert subspace_distance(e1, e2) == pytest.approx(1.0)

    def test_diagonal_oracle(self):
        # oracle: eigendecomposition of the explicit 2x2 projector difference
        e1 = np.array([[1.0], [0.0]])
        v = np.array([[SQ2], [SQ2]])
        gap = e1 @ e1.T - v @ v.T
        oracle = np.max(np.abs(np.linalg.eigvalsh(gap)))
        assert oracle == pytest.approx(SQ2, abs=1e-14)
        assert subspace_distance(e1, v) == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_symmetry_range_and_rotation_invariance(self):
        rng = make_rng(17)
        for _ in range(10):
            V1 = np.linalg.qr(rng.standard_normal((7, 3)))[0]
            V2 = np.linalg.qr(rng.standard_normal((7, 3)))[0]
            d12 = subspace_distance(V1, V2)
            assert 0.0 <= d12 <= 1.0
            assert d12 == pytest.approx(subspace_distance(V2, V1), abs=1e-13)
            Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            assert subspace_distance(V1 @ Q, V2) == pytest.approx(d12, abs=1e-10)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            subspace_distance(np.eye(3)[:, :1], np.eye(3)[:, :2])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            subspace_distance(2 * np.eye(3)[:, :1], np.eye(3)[:, :1])

    @pytest.mark.parametrize("d", [50, 250])
    def test_agrees_with_projector_form(self, d):
        # oracle: the spectral norm of the d x d projector difference
        rng = make_rng(18)
        V1 = np.linalg.qr(rng.standard_normal((d, 5)))[0]
        near = np.linalg.qr(V1 + 1e-8 / np.sqrt(d) * rng.standard_normal((d, 5)))[0]
        pairs = [(V1, np.linalg.qr(rng.standard_normal((d, 5)))[0]) for _ in range(5)]
        for A, B in pairs + [(V1, near)]:
            oracle = np.linalg.norm(A @ A.T - B @ B.T, 2)
            assert subspace_distance(A, B) == pytest.approx(oracle, rel=0, abs=1e-14)
        assert 5e-9 < subspace_distance(V1, near) < 2e-8


class TestFiniteDifferenceJacobian:
    def test_linear_exact(self):
        box = Hyperrectangle.cube(3, 1.0)
        g = finite_difference_jacobian(lambda s: s[0], box, np.array([0.1, -0.2, 0.5]))
        np.testing.assert_allclose(g, [1.0, 0.0, 0.0], atol=1e-12)

    def test_cosine_against_analytic(self):
        box = cos2_domain()
        s = np.array([0.3, -0.2])
        g = finite_difference_jacobian(lambda x: np.cos(x[0] + x[1]), box, s, step=1e-6)
        np.testing.assert_allclose(g, cos2_grad(s), atol=1e-5)

    def test_backward_fallback_at_boundary(self):
        box = Hyperrectangle.cube(2, 1.0)
        s = np.array([1.0, 0.0])  # forward in the first coordinate would exit
        h = 1e-6
        g = finite_difference_jacobian(lambda x: np.cos(x[0] + x[1]), box, s, step=h)
        np.testing.assert_allclose(g, -np.sin(1.0) * np.ones(2), atol=10 * h)

    def test_evaluation_count(self):
        box = Hyperrectangle.cube(4, 1.0)
        calls = []

        def f(s):
            calls.append(s.copy())
            return float(s.sum())

        finite_difference_jacobian(f, box, np.zeros(4))
        assert len(calls) == 5

    def test_rejects_non_finite_value(self):
        box = Hyperrectangle.cube(1, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            finite_difference_jacobian(lambda s: np.nan, box, np.zeros(1))

    @pytest.mark.parametrize("point", [[0.2], [0.2, 0.2]])
    def test_rejects_a_point_of_the_wrong_length(self, point):
        message = f"shape {(len(point),)} given to a box of dimension 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            finite_difference_jacobian(lambda s: s[0], Hyperrectangle.cube(3, 1.0), point)


class TestEigenvalueIdentity:
    def test_empirical_mean_of_squared_directional_derivative(self):
        # for each eigendirection, the mean over uniform samples of the squared
        # directional derivative converges to eigenvalue / volume
        box = cos2_domain()
        rng = make_rng(23)
        pts = box.sample(rng, 20000)
        grads = -np.sin(pts[:, 0] + pts[:, 1])[:, None] * np.ones(2)
        for v, lam in ((np.array([SQ2, SQ2]), 4 * np.pi**2), (np.array([-SQ2, SQ2]), 0.0)):
            sq = (grads @ v) ** 2
            target = lam / volume(box)
            stderr = sq.std(ddof=1) / np.sqrt(len(sq))
            assert abs(sq.mean() - target) <= 3 * stderr + 1e-30


class TestActiveSubspaceValidation:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            ActiveSubspace(np.ones((2, 1)), np.array([1.0, 0.0]))

    def test_clamps_tiny_negative_eigenvalues(self):
        sub = ActiveSubspace(np.eye(2), np.array([1.0, -1e-13]))
        assert sub.eigenvalues[1] == 0.0

    def test_rejects_large_negative_eigenvalues(self):
        with pytest.raises(ValueError):
            ActiveSubspace(np.eye(2), np.array([1.0, -1e-6]))

    def test_rejects_increasing_eigenvalues(self):
        with pytest.raises(ValueError):
            ActiveSubspace(np.eye(2), np.array([1.0, 2.0]))
