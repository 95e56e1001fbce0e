"""Tests for the elliptic demonstration model and its adjoint gradient."""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gradspace.models import pde
from gradspace.models.pde import (
    _assemble,
    build_kl,
    coefficient_field,
    gradient_q,
    make_pde_model,
    qoi,
    solve_adjoint,
    solve_forward,
)
from gradspace.util import make_rng

# reference output for the unit coefficient field on the 17-cell grid,
# computed once with a dense factorization of the assembled system
Q_REFERENCE_N17 = 0.07672098438589123


@pytest.fixture(scope="module")
def small_model():
    return make_pde_model(n=17, d=10, rho=(1.0, 0.05))


def _dense_operator(model, alpha):
    """Dense oracle assembled from the face arrays, independent of the banded layout.

    The contributions are grouped as in the solver's diagonal (both sides of
    the interior faces, then the Dirichlet closures), so the two agree
    exactly rather than to roundoff.
    """
    p, q, dcells = model.face_p, model.face_q, model.dirichlet_cells
    g = 2.0 * alpha[p] * alpha[q] / (alpha[p] + alpha[q])
    N = model.cell_count
    K = np.zeros((N, N))
    for a, b in ((p, q), (q, p)):  # each face enters the rows of both of its cells
        part = np.zeros((N, N))
        np.add.at(part, (a, a), g)
        np.add.at(part, (a, b), -g)
        K += part
    part = np.zeros((N, N))
    np.add.at(part, (dcells, dcells), 2.0 * alpha[dcells])
    return K + part


def _expand_banded(ab):
    n = ab.shape[0] - 1
    K = np.diag(ab[0])
    for k in (1, n):
        off = np.diag(ab[k, :-k], -k)
        K += off + off.T
    return K


@lru_cache(maxsize=None)
def _grid_model(n):
    return make_pde_model(n=n, d=min(6, n * n), rho=(1.0, 0.05))


def _grid(n):
    h = 1.0 / n
    coords = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(coords, coords, indexing="xy")  # flat index = iy * n + ix
    return np.column_stack([X.ravel(), Y.ravel()]), h


def _dense_kl(n, d, rho):
    """Oracle: top-d eigenpairs of the dense N x N Nystrom matrix, N = n^2."""
    pts, h = _grid(n)
    N = n * n
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    B = np.exp(-(dx * dx / rho[0] + dy * dy / rho[1])) * (h * h)
    vals, vecs = scipy.linalg.eigh(B, subset_by_index=[N - d, N - 1])
    return vals[::-1], vecs[:, ::-1] / h


class TestKlExpansion:
    def test_isotropic_kernel_spectrum_symmetric_under_swap(self):
        # on the square grid, swapping the correlation lengths swaps the axes;
        # the isotropic kernel is its own swap
        for rho in ((0.3, 0.3), (1.0, 0.05), (0.2, 0.7)):
            kl_xy = build_kl(12, 20, rho)
            kl_yx = build_kl(12, 20, rho[::-1])
            np.testing.assert_allclose(kl_xy.eigenvalues, kl_yx.eigenvalues, rtol=1e-8)

    def test_short_correlation_decays_slower(self):
        # oracle: direct eigendecomposition under both settings; the short
        # vertical correlation length spreads energy over more modes
        kl_aniso = build_kl(12, 25, (1.0, 0.05))
        kl_iso = build_kl(12, 25, (1.0, 1.0))
        ratio_aniso = kl_aniso.eigenvalues[24] / kl_aniso.eigenvalues[0]
        ratio_iso = kl_iso.eigenvalues[24] / kl_iso.eigenvalues[0]
        assert ratio_aniso > ratio_iso

    def test_spectrum_positive_descending(self):
        kl = build_kl(9, 15, (1.0, 0.05))
        assert np.all(kl.eigenvalues > 0)
        assert np.all(np.diff(kl.eigenvalues) <= 0)

    def test_orthonormal_under_quadrature_weights(self):
        h = 1.0 / 10
        kl = build_kl(10, 12, (1.0, 0.05))
        gram = kl.eigenfunctions.T @ (h * h * kl.eigenfunctions)
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-6)

    def test_rejects_oversized_truncation(self):
        with pytest.raises(ValueError):
            build_kl(4, 17, (1.0, 1.0))

    @pytest.mark.parametrize(
        "n, d, rho",
        [(12, 20, (1.0, 0.05)), (17, 40, (0.3, 0.7)), (20, 100, (0.5, 0.1)), (9, 81, (1.0, 0.05))],
    )
    def test_matches_dense_nystrom(self, n, d, rho):
        kl = build_kl(n, d, rho)
        vals, phi = _dense_kl(n, d, rho)
        lam0 = vals[0]
        np.testing.assert_allclose(kl.eigenvalues, np.clip(vals, 0.0, None), rtol=0, atol=1e-12 * lam0)
        # eigenvectors are defined up to sign, and only where the eigenvalue is
        # separated from its neighbours; compare the unit-norm vectors there
        gaps = np.minimum(
            np.abs(np.diff(vals, prepend=np.inf)), np.abs(np.diff(vals, append=-np.inf))
        )
        separated = gaps > 1e-8 * lam0
        assert separated.sum() >= d // 2
        h = 1.0 / n
        ours, theirs = h * kl.eigenfunctions[:, separated], h * phi[:, separated]
        signs = np.sign(np.sum(ours * theirs, axis=0))
        np.testing.assert_allclose(ours, theirs * signs, rtol=0, atol=1e-7)

    def test_independent_of_eigensolver_signs(self, monkeypatch):
        reference = build_kl(11, 30, (1.0, 0.05))
        eigh = scipy.linalg.eigh

        def flipped(*args, **kwargs):
            vals, vecs = eigh(*args, **kwargs)
            return vals, -vecs

        monkeypatch.setattr(pde.scipy.linalg, "eigh", flipped)
        kl = build_kl(11, 30, (1.0, 0.05))
        np.testing.assert_array_equal(kl.eigenfunctions, reference.eigenfunctions)
        np.testing.assert_array_equal(kl.eigenvalues, reference.eigenvalues)
        assert np.all(kl.eigenfunctions[0] > 0)  # cell (0, 0): both factors' first entries

    def test_large_grid_builds(self):
        model = make_pde_model(n=129, d=50)
        phi = model.kl.eigenfunctions
        assert phi.shape == (129 * 129, 50)
        gram = phi.T @ phi / 129**2
        np.testing.assert_allclose(gram, np.eye(50), atol=1e-10)


class TestCoefficientField:
    def test_zero_parameters_give_unit_field(self, small_model):
        alpha = coefficient_field(small_model, np.zeros(10))
        np.testing.assert_array_equal(alpha, np.ones(17 * 17))

    def test_single_mode_linearity(self, small_model):
        t = 0.75
        s = np.zeros(10)
        s[0] = t
        alpha = coefficient_field(small_model, s)
        expected = t * np.sqrt(small_model.kl.eigenvalues[0]) * small_model.kl.eigenfunctions[:, 0]
        np.testing.assert_allclose(np.log(alpha), expected, atol=1e-12)

    def test_positive_everywhere(self, small_model):
        rng = make_rng(120)
        for _ in range(5):
            s = rng.uniform(-2, 2, 10)
            assert coefficient_field(small_model, s).min() > 0

    def test_rejects_out_of_box(self, small_model):
        s = np.zeros(10)
        s[3] = 2.5
        with pytest.raises(ValueError, match="box"):
            coefficient_field(small_model, s)


class TestForwardSolve:
    def test_constant_coefficient_scaling(self, small_model):
        # doubling a constant field halves the solution exactly
        u1 = solve_forward(small_model, np.zeros(10))
        K2 = _dense_operator(small_model, 2.0 * np.ones(small_model.cell_count))
        u2 = spla.splu(sp.csc_matrix(K2)).solve(small_model.rhs)
        np.testing.assert_allclose(u2, u1 / 2.0, atol=1e-10)

    def test_unit_field_reference_value(self, small_model):
        # regression constant computed once by a dense factorization oracle
        u = solve_forward(small_model, np.zeros(10))
        assert qoi(small_model, u) == pytest.approx(Q_REFERENCE_N17, abs=1e-12)

    def test_dense_oracle_agreement(self, small_model):
        K = _dense_operator(small_model, np.ones(small_model.cell_count))
        u_dense = np.linalg.solve(K, small_model.rhs)
        u_sparse = solve_forward(small_model, np.zeros(10))
        np.testing.assert_allclose(u_sparse, u_dense, atol=1e-12)

    def test_grid_convergence(self):
        values = []
        for n in (17, 33, 65):
            model = make_pde_model(n=n, d=1, rho=(1.0, 0.05))
            values.append(qoi(model, solve_forward(model, np.zeros(1))))
        deltas = np.abs(np.diff(values))
        assert deltas[1] < deltas[0]

    def test_system_matrix_is_spd(self, small_model):
        rng = make_rng(121)
        s = rng.uniform(-2, 2, 10)
        K = _dense_operator(small_model, coefficient_field(small_model, s))
        np.testing.assert_allclose(K, K.T, atol=1e-14)
        np.linalg.cholesky(K)  # raises if not positive definite

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), data=st.data())
    def test_banded_storage_matches_dense_operator(self, n, data):
        model = _grid_model(n)
        d = model.parameter_dimension
        s = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
        alpha = coefficient_field(model, s)
        ab = _assemble(model, alpha)
        K = _dense_operator(model, alpha)
        assert ab.shape == (n + 1, n * n)
        assert not ab[2:n].any()
        np.testing.assert_array_equal(_expand_banded(ab), K)
        u = solve_forward(model, s)
        np.testing.assert_allclose(u, np.linalg.solve(K, model.rhs), rtol=0, atol=1e-12)


class TestSolveFailures:
    @pytest.fixture(scope="class")
    def wide_model(self):
        # exp of the expansion overflows to inf or underflows to 0 at these corners
        return make_pde_model(n=17, d=10, box_half_width=400.0)

    @pytest.mark.parametrize("corner", [400.0, -400.0])
    @pytest.mark.parametrize("solve", [solve_forward, solve_adjoint, gradient_q])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_operator_raises(self, wide_model, corner, solve):
        with pytest.raises(RuntimeError):
            solve(wide_model, np.full(10, corner))

    def test_nan_residual_raises(self, small_model):
        ab = _assemble(small_model, np.ones(small_model.cell_count))
        x = np.full(small_model.cell_count, np.nan)
        with pytest.raises(RuntimeError, match="residual"):
            pde._check_residual(ab, x, small_model.rhs)

    def test_gradient_checks_adjoint_residual(self, small_model, monkeypatch):
        solve = pde._solve

        def corrupt_adjoint(chol, b):
            x = solve(chol, b)
            return x * 1.01 if b is small_model.qoi_weights else x

        monkeypatch.setattr(pde, "_solve", corrupt_adjoint)
        with pytest.raises(RuntimeError, match="residual"):
            gradient_q(small_model, np.zeros(10))


class TestQoi:
    def test_unit_solution_on_outflow_edge(self, small_model):
        u = np.zeros(small_model.cell_count)
        u[small_model.qoi_weights > 0] = 1.0
        assert qoi(small_model, u) == pytest.approx(1.0, abs=1e-12)

    def test_zero_field(self, small_model):
        assert qoi(small_model, np.zeros(small_model.cell_count)) == 0.0

    def test_linearity(self, small_model):
        rng = make_rng(122)
        u1, u2 = rng.standard_normal((2, small_model.cell_count))
        assert qoi(small_model, u1 + u2) == pytest.approx(
            qoi(small_model, u1) + qoi(small_model, u2), abs=1e-14
        )

    def test_weights_sum_to_one(self, small_model):
        c = small_model.qoi_weights
        assert np.all(c >= 0)
        assert c.sum() == pytest.approx(1.0, abs=1e-12)


class TestAdjoint:
    def test_adjoint_residual(self, small_model):
        rng = make_rng(123)
        s = rng.uniform(-2, 2, 10)
        y = solve_adjoint(small_model, s)
        K = _dense_operator(small_model, coefficient_field(small_model, s))
        resid = np.linalg.norm(K @ y - small_model.qoi_weights)
        assert resid <= 1e-10

    def test_deterministic(self, small_model):
        s = make_rng(124).uniform(-2, 2, 10)
        y1 = solve_adjoint(small_model, s)
        y2 = solve_adjoint(small_model, s)
        np.testing.assert_array_equal(y1, y2)

    def test_reciprocity(self, small_model):
        # oracle: both sides equal the same bilinear form in exact arithmetic
        rng = make_rng(125)
        s = rng.uniform(-2, 2, 10)
        u = solve_forward(small_model, s)
        y = solve_adjoint(small_model, s)
        lhs = small_model.qoi_weights @ u
        rhs = small_model.rhs @ y
        assert abs(lhs - rhs) <= 1e-10


class TestGradient:
    def _central_fd(self, model, s, h=1e-5):
        fd = np.empty(model.parameter_dimension)
        for i in range(model.parameter_dimension):
            sp, sm = s.copy(), s.copy()
            sp[i] += h
            sm[i] -= h
            fd[i] = (
                qoi(model, solve_forward(model, sp)) - qoi(model, solve_forward(model, sm))
            ) / (2 * h)
        return fd

    def test_matches_central_differences_at_origin(self, small_model):
        grad = gradient_q(small_model, np.zeros(10))
        fd = self._central_fd(small_model, np.zeros(10))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_matches_central_differences_at_random_points(self, small_model):
        rng = make_rng(126)
        for _ in range(3):
            s = rng.uniform(-1.9, 1.9, 10)
            grad = gradient_q(small_model, s)
            fd = self._central_fd(small_model, s)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_shape_and_finiteness(self, small_model):
        s = make_rng(127).uniform(-2, 2, 10)
        grad, value = gradient_q(small_model, s, return_value=True)
        assert grad.shape == (10,)
        assert np.all(np.isfinite(grad)) and np.isfinite(value)

    def test_single_mode_model(self):
        model = make_pde_model(n=17, d=1, rho=(1.0, 0.05))
        t, h = 0.6, 1e-5
        grad = gradient_q(model, np.array([t]))
        qp = qoi(model, solve_forward(model, np.array([t + h])))
        qm = qoi(model, solve_forward(model, np.array([t - h])))
        fd = (qp - qm) / (2 * h)
        assert grad[0] == pytest.approx(fd, rel=1e-4)
