"""The elliptic model's LAPACK binding agrees with scipy.linalg, through either source.

Every case runs twice: on the routines numpy's LAPACK exports, and on the
scipy.linalg.lapack fallback, forced by hiding those symbol spellings.
"""

import numpy as np
import pytest
import scipy.linalg

from gradspace.models import _lapack, pde
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


def _kl_matrix(n, rho):
    h = 1.0 / n
    coords = (np.arange(n) + 0.5) * h
    return h * np.exp(-np.subtract.outer(coords, coords) ** 2 / rho)


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


@pytest.mark.parametrize("n", [6, 33, 129])
@pytest.mark.parametrize("rho", [1.0, 0.05])
def test_eigh_agrees_with_scipy(binding, n, rho):
    a = _kl_matrix(n, rho)
    w, z = _lapack.eigh(a)
    w_ref, z_ref = scipy.linalg.eigh(a)
    np.testing.assert_allclose(w, w_ref, rtol=1e-13, atol=1e-13 * w_ref[-1])
    # eigenvectors of eigenvalues at roundoff level are arbitrary within their cluster
    resolved = w_ref > 1e-10 * w_ref[-1]
    np.testing.assert_allclose(z[:, resolved], z_ref[:, resolved], rtol=1e-13, atol=1e-13)


def test_band_that_is_not_positive_definite_raises(binding):
    model = pde.make_pde_model(n=6, d=4)
    ab = pde._assemble(model, np.ones(36))
    ab[0, 5] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match="leading minor of order 6 is not positive"):
        _lapack.factor(ab)
    with pytest.raises(RuntimeError, match="system matrix is not positive definite"):
        pde._checked_solves(model, -np.ones(36), model.rhs)
