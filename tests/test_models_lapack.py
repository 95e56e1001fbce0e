"""The LAPACK binding agrees with scipy.linalg and numpy.linalg, through either source.

The binding holds the banded Cholesky factor and solve (dpbtrf, dpbtrs)
and the in-place dgesv. Every case runs twice: on the routines numpy's
LAPACK exports, and on the scipy.linalg.lapack fallback, forced by hiding
those symbol spellings. The KL eigenpairs come from np.linalg.eigh, not
from this binding; test_models_pde checks them against a dense Nystrom
eigenproblem.
"""

import numpy as np
import pytest
import scipy.linalg

from gradspace import _lapack, cli, surrogate
from gradspace.models import pde
from gradspace.util import make_rng


@pytest.fixture(params=["numpy", "scipy"])
def binding(request, monkeypatch):
    fallbacks = []
    if request.param == "scipy":
        scipy_routines = _lapack._scipy_routines

        def recording():
            fallbacks.append(request.node.name)
            return scipy_routines()

        monkeypatch.setattr(_lapack, "_SPELLINGS", ("no_such_{}_",))
        monkeypatch.setattr(_lapack, "_scipy_routines", recording)
    _lapack._routines.cache_clear()
    yield request.param
    _lapack._routines.cache_clear()
    assert len(fallbacks) == (request.param == "scipy")  # the binding under test resolved once


def test_factor_and_solve_agree_with_scipy(binding):
    model = pde.make_pde_model(n=33, d=50)
    rng = make_rng(2026, stream=26)
    for s in model.parameter_box.sample(rng, 20):
        ab = pde._assemble(model, pde.coefficient_field(model, s))
        chol = _lapack.factor(ab)
        reference = scipy.linalg.cholesky_banded(ab, lower=True)
        np.testing.assert_allclose(chol, reference, rtol=1e-13)
        for b in (model.rhs, model.qoi_weights):
            x = scipy.linalg.cho_solve_banded((reference, True), b)
            np.testing.assert_allclose(_lapack.solve(chol, b), x, rtol=1e-13)


def test_band_that_is_not_positive_definite_raises(binding):
    model = pde.make_pde_model(n=6, d=4)
    ab = pde._assemble(model, np.ones(36))
    ab[0, 5] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match="leading minor of order 6 is not positive"):
        _lapack.factor(ab)
    with pytest.raises(RuntimeError, match="system matrix is not positive definite"):
        pde._checked_solves(model, -np.ones(36), model.rhs)


def _augmented_system(n, a, eta):
    """The surrogate's system matrix on n random points in a-D, diagonal loaded with eta."""
    points = make_rng(2026, stream=27).uniform(-1, 1, size=(n, a))
    P = np.hstack([np.ones((n, 1)), points])
    A = np.empty((n + a + 1, n + a + 1))
    surrogate._write_system(A, points, P, surrogate._pair_stats(A, points)[1])
    np.fill_diagonal(A[:n, :n], 1.0 + eta)
    return A, np.concatenate([np.sin(3 * points[:, 0]), np.zeros(a + 1)])


@pytest.mark.parametrize("n, a, eta", [(40, 1, 1e-10), (150, 2, 1e-4), (300, 5, 0.0)])
def test_gesv_bitwise_equal_to_copying_solve(binding, n, a, eta):
    # the same library's dgesv on a column-major copy of A: np.linalg.solve
    # for numpy's LAPACK; scipy bundles another OpenBLAS, so its own dgesv
    A, b = _augmented_system(n, a, eta)
    assert np.array_equal(A, A.T)
    if binding == "numpy":
        expected = np.linalg.solve(A, b)
    else:
        expected = scipy.linalg.lapack.dgesv(np.asfortranarray(A), b)[2]
    assert _lapack.gesv(A, b).tobytes() == expected.tobytes()


def test_gesv_overwrites_its_arguments(binding):
    A, b = _augmented_system(60, 3, 0.1)  # well conditioned: builds agree closely
    A0, b0 = A.copy(), b.copy()
    x = _lapack.gesv(A, b)
    assert np.shares_memory(x, b)
    np.testing.assert_allclose(b, np.linalg.solve(A0, b0), rtol=1e-10)
    lu, piv = scipy.linalg.lu_factor(A0)  # A0 is symmetric, so its LU is A's transposed
    np.testing.assert_allclose(A.T, lu, rtol=1e-10, atol=1e-12)


def test_gesv_singular_matrix_raises(binding):
    A = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _lapack.gesv(A, np.ones(3))
    with pytest.raises(ValueError, match="C-ordered"):
        _lapack.gesv(np.eye(3)[:, :2], np.ones(3))


def test_manifest_names_the_binding_that_served_the_fit(binding):
    assert _lapack.binding() is None  # nothing has run since the fixture cleared the binding
    assert _lapack._routines.cache_info().currsize == 0  # and reading it resolved none
    pts = make_rng(2026, stream=28).uniform(-1, 1, size=(30, 2))
    surrogate.fit(pts, np.sin(3 * pts[:, 0]))
    env = cli._numeric_environment()
    assert env["lapack"] == binding
    if binding == "scipy":  # the fallback loaded scipy, so its BLAS build is on record
        build = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["scipy"] == scipy.__version__
        assert env["blas"]["scipy"] == {"name": build.get("name"), "version": build.get("version")}
