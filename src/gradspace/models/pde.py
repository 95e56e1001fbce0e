"""Desk-scale elliptic demonstration problem with adjoint gradients.

Solves -div(alpha * grad u) = 1 on the unit square with a log-normal-style
coefficient field driven by independent parameters through a truncated
Karhunen-Loeve expansion. Discretization is a cell-centered 5-point finite
volume scheme with harmonic-mean face coefficients: zero Dirichlet data on
the left, top, and bottom edges, zero Neumann flux on the right edge. The
scalar output is the average of the solution over the cells along the right
edge, and its full parameter gradient comes from one extra (adjoint) solve.

Cells are numbered in the natural ordering iy*n + ix, under which the
operator is symmetric positive definite with bandwidth n. It is assembled
straight into LAPACK lower banded storage and factored by a banded Cholesky
(`scipy.linalg.cholesky_banded`); the forward and adjoint solves share one
factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy

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
    vals, vecs = scipy.linalg.eigh(h * np.exp(-diff * diff / rho))
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
    # face bookkeeping: interior faces (pair of cells) and Dirichlet faces (one cell)
    face_p: np.ndarray = field(repr=False, default=None)
    face_q: np.ndarray = field(repr=False, default=None)
    dirichlet_cells: np.ndarray = field(repr=False, default=None)

    @property
    def cell_count(self) -> int:
        return self.n * self.n

    @property
    def parameter_dimension(self) -> int:
        return self.kl.truncation


def _faces(n: int):
    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")

    def flat(i, j):
        return (j * n + i).ravel()

    p = np.concatenate([flat(ix[:, :-1], iy[:, :-1]), flat(ix[:-1, :], iy[:-1, :])])
    q = np.concatenate([flat(ix[:, 1:], iy[:, 1:]), flat(ix[1:, :], iy[1:, :])])
    # Dirichlet closures: left column, bottom row, top row (right edge is Neumann)
    dval = np.concatenate(
        [
            np.arange(n) * n,
            np.arange(n),
            (n - 1) * n + np.arange(n),
        ]
    )
    return p, q, dval


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
    c = np.zeros(n * n)
    c[np.arange(n) * n + (n - 1)] = 1.0 / n  # right-edge cells, weights sum to one
    p, q, dval = _faces(n)
    return PdeModel(
        n=n,
        kl=kl,
        parameter_box=Hyperrectangle.cube(d, box_half_width),
        qoi_weights=c,
        rhs=np.full(n * n, h * h),
        face_p=p,
        face_q=q,
        dirichlet_cells=dval,
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

    Under the natural ordering a horizontal face couples cells j and j+1
    (row 1) and a vertical face couples j and j+n (row n); rows 2..n-1 stay
    zero. The faces from `_faces` list the horizontal ones first.
    """
    p, q, dcells = model.face_p, model.face_q, model.dirichlet_cells
    g = 2.0 * alpha[p] * alpha[q] / (alpha[p] + alpha[q])  # harmonic mean per face
    gd = 2.0 * alpha[dcells]  # half-cell distance to the Dirichlet face
    n, N = model.n, model.cell_count
    horizontal = n * (n - 1)
    ab = np.zeros((n + 1, N))
    ab[0] = np.bincount(p, g, N) + np.bincount(q, g, N) + np.bincount(dcells, gd, N)
    ab[1, p[:horizontal]] = -g[:horizontal]
    ab[n, p[horizontal:]] = -g[horizontal:]
    return ab


def _banded_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K @ x from the lower banded storage of the symmetric operator."""
    n = ab.shape[0] - 1
    y = ab[0] * x
    y[:-1] += ab[1, :-1] * x[1:]
    y[1:] += ab[1, :-1] * x[:-1]
    y[:-n] += ab[n, :-n] * x[n:]
    y[n:] += ab[n, :-n] * x[:-n]
    return y


def _factorize(model: PdeModel, s):
    alpha = coefficient_field(model, s)
    ab = _assemble(model, alpha)
    try:
        chol = scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"system matrix is not positive definite: {exc}") from exc
    return alpha, ab, chol


def _solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve_banded((chol, True), b, check_finite=False)


def _check_residual(ab, x, rhs):
    # Not np.linalg.norm: its dot runs in numpy's own OpenBLAS, threaded on long
    # vectors, and those threads fight scipy's LAPACK threads for the cores
    # (77-112 ms against 38-50 ms per solve at n=129 on 2 CPUs).
    r = _banded_matvec(ab, x) - rhs
    resid = np.sqrt(np.sum(r * r) / np.sum(rhs * rhs))
    if not resid <= _RESID_TOL:  # also rejects a NaN residual
        raise RuntimeError(f"linear solve residual {resid:.3e} exceeds {_RESID_TOL}")


def solve_forward(model: PdeModel, s) -> np.ndarray:
    """Discrete solution at the cell centers for the given parameters."""
    _, ab, chol = _factorize(model, s)
    u = _solve(chol, model.rhs)
    _check_residual(ab, u, model.rhs)
    return u


def qoi(model: PdeModel, u) -> float:
    """Average of the solution over the right-edge cells."""
    return float(model.qoi_weights @ u)


def gradient_q(model: PdeModel, s, return_value: bool = False):
    """Full parameter gradient of the output from one forward and one adjoint solve.

    The derivative of the system matrix with respect to each parameter never
    gets assembled: the face-wise chain rule is accumulated into a single
    per-cell vector, and one product with the eigenfunction matrix yields all
    components at once.
    """
    alpha, ab, chol = _factorize(model, s)
    u = _solve(chol, model.rhs)
    y = _solve(chol, model.qoi_weights)
    _check_residual(ab, u, model.rhs)
    _check_residual(ab, y, model.qoi_weights)

    p, q, dcells = model.face_p, model.face_q, model.dirichlet_cells
    wf = (y[p] - y[q]) * (u[p] - u[q])
    denom = (alpha[p] + alpha[q]) ** 2
    psi = np.zeros(model.cell_count)
    np.add.at(psi, p, wf * 2.0 * alpha[q] ** 2 / denom)
    np.add.at(psi, q, wf * 2.0 * alpha[p] ** 2 / denom)
    np.add.at(psi, dcells, 2.0 * y[dcells] * u[dcells])

    # d(alpha)/ds_i = phi_i * sqrt(sigma_i) * alpha, so one matvec covers all i
    grad = -np.sqrt(model.kl.eigenvalues) * (model.kl.eigenfunctions.T @ (psi * alpha))
    if return_value:
        return grad, qoi(model, u)
    return grad
