"""Tests for the analytic test-function catalog."""

import numpy as np
import pytest

from gradspace.core import Hyperrectangle, JacobianSamples, detect_subspace, subspace_distance
from gradspace.models.analytic import TestFunction, cosine_pair, quadratic, ridge
from gradspace.util import make_rng


class TestCatalog:
    def test_cos2_gradient_formula(self):
        tf = cosine_pair(1.0, 1.0)
        s = np.array([0.4, -1.1])
        np.testing.assert_allclose(tf.grad(s), -np.sin(s[0] + s[1]) * np.ones(2))
        assert np.prod(tf.domain.upper - tf.domain.lower) == pytest.approx(4 * np.pi**2)

    def test_cos37_gradient_formula(self):
        tf = cosine_pair(0.3, 0.7)
        s = np.array([1.2, 0.5])
        arg = 0.3 * s[0] + 0.7 * s[1]
        np.testing.assert_allclose(tf.grad(s), -np.sin(arg) * np.array([0.3, 0.7]))

    def test_quadratic_diagonal_rank(self):
        # oracle: analytic second-moment matrix of the cube makes the estimate
        # a scalar multiple of A^2, so a diagonal A with one zero entry yields
        # the first axis direction and a vanishing second eigenvalue
        A = np.diag([1.0, 0.0])
        tf = quadratic(A)
        rng = make_rng(110)
        samples = JacobianSamples.from_gradient(tf.grad, tf.domain, 2000, rng)
        sub = detect_subspace(samples, tf.domain)
        assert subspace_distance(sub.basis_a[:, :1], np.eye(2)[:, :1]) < 1e-10
        assert sub.eigenvalues[1] <= 1e-20 * sub.eigenvalues[0]


class TestSelfCheck:
    def test_wrong_gradient_rejected_at_construction(self):
        with pytest.raises(ValueError, match="disagrees"):
            TestFunction(
                name="broken",
                domain=Hyperrectangle.cube(2, 1.0),
                f=lambda s: float(np.sin(s[0])),
                grad=lambda s: np.array([np.cos(s[0]) + 0.1, 0.0]),
            )

    def test_ridge_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            ridge(np.zeros(3))

    def test_ridge_accepts_direction_whose_norm_underflows(self):
        # ||1e-200 e_1|| underflows to 0, yet the direction is nonzero: the
        # failure belongs to detect, whose spectrum float64 cannot hold
        tf = ridge(np.array([1e-200, 0.0, 0.0]))
        samples = JacobianSamples.from_gradient(tf.grad, tf.domain, 10, make_rng(112))
        with pytest.raises(ValueError, match=r"d=3 on a box within \[-1, 1\]\^3"):
            detect_subspace(samples, tf.domain)

    def test_quadratic_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestRidge:
    def test_profile_and_gradient(self):
        a = np.array([2.0, -1.0, 0.5])
        tf = ridge(a, profile=np.tanh, profile_deriv=lambda t: 1.0 / np.cosh(t) ** 2)
        s = np.array([0.1, 0.2, -0.3])
        t = a @ s
        assert tf(s) == pytest.approx(np.tanh(t))
        np.testing.assert_allclose(tf.grad(s), a / np.cosh(t) ** 2)

    def test_detected_direction(self):
        a = np.array([1.0, 2.0, 3.0])
        tf = ridge(a)
        samples = JacobianSamples.from_gradient(tf.grad, tf.domain, 40, make_rng(111))
        sub = detect_subspace(samples, tf.domain)
        direction = (a / np.linalg.norm(a))[:, None]
        assert subspace_distance(sub.basis_a[:, :1], direction) < 1e-10


class TestCosinePair:
    def test_callable_value(self):
        tf = cosine_pair(0.3, 0.7)
        s = np.array([0.25, -0.5])
        assert tf(s) == pytest.approx(np.cos(0.3 * 0.25 - 0.7 * 0.5))

    def test_dimension(self):
        assert cosine_pair().dimension == 2
