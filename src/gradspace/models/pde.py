"""Desk-scale elliptic demonstration problem with adjoint gradients.

Solves -div(alpha * grad u) = 1 on the unit square with a log-normal-style
coefficient field driven by independent parameters through a truncated
Karhunen-Loeve expansion. Discretization is a cell-centered 5-point finite
volume scheme with harmonic-mean face coefficients: zero Dirichlet data on
the left, top, and bottom edges, zero Neumann flux on the right edge. The
scalar output is the average of the solution over the cells along the right
edge, and its full parameter gradient comes from one extra (adjoint) solve.

Cells are numbered iy*n + ix, so a cell field reshapes to an (n, n) grid
and the faces of each orientation pair two shifted slices of it. Under this
ordering the operator is symmetric positive definite with bandwidth n. It is
assembled from those slices straight into LAPACK lower banded storage and
factored by a banded Cholesky (dpbtrf); the forward and adjoint solves share
one factor, and each solution's residual is checked. The factor and the
solves run in the LAPACK numpy links, through `_lapack`; scipy.linalg.lapack
serves them only where numpy's LAPACK exports none of the symbol spellings
`_lapack` knows (MKL, Accelerate or distro builds). The two n x n KL
eigenproblems go to np.linalg.eigh, so building a model calls no `_lapack`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import _lapack
from ..core import Hyperrectangle, _apply_sign_convention

__all__ = [
    "KlExpansion",
    "PdeModel",
    "build_kl",
    "make_pde_model",
    "coefficient_field",
    "solve_forward",
    "qoi",
    "gradient_q",
]

_RESID_TOL = 1e-10
# (low cell, high cell) slices of the (n, n) cell grid: x faces, then y faces
_FACES = ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1], np.s_[1:]))
# cells with a Dirichlet face: left column, bottom row, top row (right edge is Neumann)
_DIRICHLET = (np.s_[:, 0], np.s_[0], np.s_[-1])


@dataclass(frozen=True)
class KlExpansion:
    """Nystrom eigenpairs of the covariance kernel at the cell centers."""

    eigenfunctions: np.ndarray  # (N, d)
    eigenvalues: np.ndarray  # (d,) descending, nonnegative

    @property
    def truncation(self) -> int:
        return self.eigenvalues.size


def _kl_factor(n: int, rho: float):
    """Eigenpairs of h*exp(-dx^2/rho) on the n cell centers of one axis, ascending."""
    h = 1.0 / n
    coords = (np.arange(n) + 0.5) * h
    diff = coords[:, None] - coords[None, :]
    vals, vecs = np.linalg.eigh(h * np.exp(-diff * diff / rho))
    return vals, _apply_sign_convention(vecs)


def build_kl(n: int, d: int, rho: tuple[float, float]) -> KlExpansion:
    """Top-d Nystrom eigenpairs of exp(-dx^2/rho1 - dy^2/rho2) on the n x n cell centers.

    The kernel separates and the weights are a uniform h^2, so the N x N
    Nystrom matrix is kron(h*C_y, h*C_x) in the ordering iy*n + ix: its
    eigenpairs are products of two n x n ones (ties keep index order), and
    nothing larger than n x n or N x d is formed. Both factors take core's
    sign convention, so the result does not depend on the eigensolver's
    signs. Eigenfunctions are orthonormal under the quadrature weights.
    """
    N = n * n
    if not 1 <= d <= N:
        raise ValueError(f"truncation d={d} must be in 1..{N}")
    rho1, rho2 = float(rho[0]), float(rho[1])
    if rho1 <= 0 or rho2 <= 0:
        raise ValueError("correlation lengths must be positive")
    h = 1.0 / n
    lam_x, u_x = _kl_factor(n, rho1)
    lam_y, v_y = _kl_factor(n, rho2)
    order = np.argsort(-np.outer(lam_y, lam_x).ravel(), kind="stable")[:d]
    iy, ix = np.divmod(order, n)
    vals = lam_y[iy] * lam_x[ix]
    if np.any(vals < -1e-8 * max(vals[0], 1.0)):
        raise RuntimeError("covariance matrix has significantly negative eigenvalues")
    phi = (v_y[:, None, iy] * u_x[None, :, ix]).reshape(N, d) / h
    return KlExpansion(phi, np.clip(vals, 0.0, None))


@dataclass(frozen=True)
class PdeModel:
    n: int  # cells per side; N = n*n unknowns at cell centers
    kl: KlExpansion
    parameter_box: Hyperrectangle
    qoi_weights: np.ndarray  # (N,) zero except the right-edge cells, summing to one
    rhs: np.ndarray  # (N,) source integrated per cell

    @property
    def parameter_dimension(self) -> int:
        return self.kl.truncation


def make_pde_model(
    n: int = 33,
    d: int = 50,
    rho: tuple[float, float] = (1.0, 0.05),
    box_half_width: float = 2.0,
) -> PdeModel:
    """Assemble the demonstration model on an n x n grid with d expansion parameters."""
    if n < 2:
        raise ValueError("need at least 2 cells per side")
    kl = build_kl(n, d, rho)
    h = 1.0 / n
    c = np.zeros((n, n))
    c[:, -1] = 1.0 / n  # right-edge cells, weights sum to one
    return PdeModel(
        n=n,
        kl=kl,
        parameter_box=Hyperrectangle.cube(d, box_half_width),
        qoi_weights=c.ravel(),
        rhs=np.full(n * n, h * h),
    )


def coefficient_field(model: PdeModel, s) -> np.ndarray:
    """exp of the truncated expansion at the cell centers; strictly positive."""
    s = np.asarray(s, dtype=float)
    if s.shape != (model.parameter_dimension,):
        raise ValueError("parameter vector has the wrong length")
    if not model.parameter_box.contains(s, tol=1e-12):
        raise ValueError("parameters outside the admissible box")
    log_alpha = model.kl.eigenfunctions @ (np.sqrt(model.kl.eigenvalues) * s)
    return np.exp(log_alpha)


def _assemble(model: PdeModel, alpha: np.ndarray) -> np.ndarray:
    """Lower banded storage (n+1, N) of the operator: ab[k, j] = K[j+k, j].

    Under the natural ordering an x face couples cells j and j+1 (row 1) and
    a y face couples j and j+n (row n); rows 2..n-1 stay zero. The diagonal
    is (low-cell sums + high-cell sums) + Dirichlet closures.
    """
    n = model.n
    a = alpha.reshape(n, n)
    ab = np.zeros((n + 1, n, n))
    low, high, closure = np.zeros((3, n, n))
    for row, (lo, hi) in zip((1, n), _FACES):
        g = 2.0 * a[lo] * a[hi] / (a[lo] + a[hi])  # harmonic mean per face
        low[lo] += g
        high[hi] += g
        ab[row][lo] = -g
    for edge in _DIRICHLET:
        closure[edge] += 2.0 * a[edge]  # half-cell distance to the Dirichlet face
    ab[0] = low + high + closure
    return ab.reshape(n + 1, n * n)


def _banded_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K @ x from the lower banded storage of the symmetric operator."""
    n = ab.shape[0] - 1
    y = ab[0] * x
    y[:-1] += ab[1, :-1] * x[1:]
    y[1:] += ab[1, :-1] * x[:-1]
    y[:-n] += ab[n, :-n] * x[n:]
    y[n:] += ab[n, :-n] * x[:-n]
    return y


def _check_residual(ab, x, rhs):
    # np.linalg.norm measures the same here (47 ms per gradient at n=129 on
    # 2 CPUs, with the solves in numpy's LAPACK); this form keeps the
    # residual's rounding.
    r = _banded_matvec(ab, x) - rhs
    resid = np.sqrt(np.sum(r * r) / np.sum(rhs * rhs))
    if not resid <= _RESID_TOL:  # also rejects a NaN residual
        raise RuntimeError(f"linear solve residual {resid:.3e} exceeds {_RESID_TOL}")


def _checked_solves(model: PdeModel, alpha: np.ndarray, *rhs: np.ndarray) -> list[np.ndarray]:
    """Factor the operator once and return each right-hand side's checked solution."""
    ab = _assemble(model, alpha)
    try:
        chol = _lapack.factor(ab)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"system matrix is not positive definite: {exc}") from exc
    solutions = [_lapack.solve(chol, b) for b in rhs]
    for x, b in zip(solutions, rhs):
        _check_residual(ab, x, b)
    return solutions


def solve_forward(model: PdeModel, s) -> np.ndarray:
    """Discrete solution at the cell centers for the given parameters."""
    (u,) = _checked_solves(model, coefficient_field(model, s), model.rhs)
    return u


def qoi(model: PdeModel, u) -> float:
    """Average of the solution over the right-edge cells."""
    return float(model.qoi_weights @ u)


def gradient_q(model: PdeModel, s) -> tuple[np.ndarray, float]:
    """(full parameter gradient, output) from one forward and one adjoint solve.

    The derivative of the system matrix with respect to each parameter never
    gets assembled: the face-wise chain rule is accumulated into a single
    per-cell vector psi, and one product with the eigenfunction matrix yields
    all components at once. psi takes the low cells of the x and y faces,
    then their high cells, then the Dirichlet closures: the order fixes the
    rounding, and with it the bytes of every gradient written.
    """
    alpha = coefficient_field(model, s)
    u, y = _checked_solves(model, alpha, model.rhs, model.qoi_weights)

    n = model.n
    a, U, Y = (v.reshape(n, n) for v in (alpha, u, y))
    faces = [
        (lo, hi, (Y[lo] - Y[hi]) * (U[lo] - U[hi]), (a[lo] + a[hi]) ** 2) for lo, hi in _FACES
    ]
    psi = np.zeros((n, n))
    for lo, hi, wf, denom in faces:
        psi[lo] += wf * 2.0 * a[hi] ** 2 / denom
    for lo, hi, wf, denom in faces:
        psi[hi] += wf * 2.0 * a[lo] ** 2 / denom
    for edge in _DIRICHLET:
        psi[edge] += 2.0 * Y[edge] * U[edge]

    # d(alpha)/ds_i = phi_i * sqrt(sigma_i) * alpha, so one matvec covers all i
    grad = -np.sqrt(model.kl.eigenvalues) * (model.kl.eigenfunctions.T @ (psi.ravel() * alpha))
    return grad, qoi(model, u)
