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

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from ..core import Hyperrectangle

__all__ = [
    "KlExpansion",
    "PdeModel",
    "build_kl",
    "make_pde_model",
    "coefficient_field",
    "solve_forward",
    "solve_adjoint",
    "qoi",
    "gradient_q",
]

_CACHE_VERSION = 1
_RESID_TOL = 1e-10


@dataclass(frozen=True)
class KlExpansion:
    """Nystrom eigenpairs of the covariance kernel on the grid nodes."""

    points: np.ndarray  # (N, 2) node coordinates
    weights: np.ndarray  # (N,) quadrature weights
    eigenfunctions: np.ndarray  # (N, d)
    eigenvalues: np.ndarray  # (d,) descending, nonnegative
    correlation_lengths: tuple[float, float]

    @property
    def truncation(self) -> int:
        return self.eigenvalues.size


def build_kl(points, weights, d: int, rho: tuple[float, float]) -> KlExpansion:
    """Top-d eigenpairs of the squared-exponential covariance via Nystrom.

    The symmetric weighted eigenproblem sqrt(W) C sqrt(W) is solved densely;
    eigenfunctions are rescaled by 1/sqrt(w) so they are orthonormal under
    the quadrature weights.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    N = points.shape[0]
    if not 1 <= d <= N:
        raise ValueError(f"truncation d={d} must be in 1..{N}")
    rho1, rho2 = float(rho[0]), float(rho[1])
    if rho1 <= 0 or rho2 <= 0:
        raise ValueError("correlation lengths must be positive")
    dx = points[:, 0][:, None] - points[:, 0][None, :]
    dy = points[:, 1][:, None] - points[:, 1][None, :]
    C = np.exp(-(dx * dx / rho1 + dy * dy / rho2))
    sw = np.sqrt(weights)
    B = C * np.outer(sw, sw)
    vals, vecs = scipy.linalg.eigh(B, subset_by_index=[N - d, N - 1])
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if np.any(vals < -1e-8 * max(vals[0], 1.0)):
        raise RuntimeError("covariance matrix has significantly negative eigenvalues")
    vals = np.clip(vals, 0.0, None)
    phi = vecs / sw[:, None]
    return KlExpansion(points, weights, phi, vals, (rho1, rho2))


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


def _grid(n: int):
    h = 1.0 / n
    coords = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(coords, coords, indexing="xy")  # flat index = iy * n + ix
    return np.column_stack([X.ravel(), Y.ravel()]), h


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


def _cache_key(n: int, d: int, rho: tuple[float, float]) -> str:
    text = f"v{_CACHE_VERSION}|n={n}|d={d}|rho={rho[0]:.17g},{rho[1]:.17g}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def make_pde_model(
    n: int = 33,
    d: int = 50,
    rho: tuple[float, float] = (1.0, 0.05),
    box_half_width: float = 2.0,
    cache_dir: str | Path | None = None,
) -> PdeModel:
    """Assemble the demonstration model; eigenpairs are cached when a dir is given."""
    if n < 2:
        raise ValueError("need at least 2 cells per side")
    points, h = _grid(n)
    weights = np.full(points.shape[0], h * h)

    kl = None
    cache_file = None
    if cache_dir is not None:
        cache_file = Path(cache_dir) / f"kl_{_cache_key(n, d, rho)}.npz"
        if cache_file.exists():
            data = np.load(cache_file)
            if int(data["version"]) == _CACHE_VERSION:
                kl = KlExpansion(
                    data["points"], data["weights"], data["eigenfunctions"],
                    data["eigenvalues"], (float(data["rho"][0]), float(data["rho"][1])),
                )
    if kl is None:
        kl = build_kl(points, weights, d, rho)
        if cache_file is not None:
            cache_file.parent.mkdir(parents=True, exist_ok=True)
            tmp = cache_file.with_suffix(".tmp.npz")
            np.savez(
                tmp, version=_CACHE_VERSION, points=kl.points, weights=kl.weights,
                eigenfunctions=kl.eigenfunctions, eigenvalues=kl.eigenvalues,
                rho=np.array(rho),
            )
            tmp.replace(cache_file)

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


def solve_adjoint(model: PdeModel, s) -> np.ndarray:
    """Adjoint solution: the system matrix is symmetric, so the same solve applies."""
    _, ab, chol = _factorize(model, s)
    y = _solve(chol, model.qoi_weights)
    _check_residual(ab, y, model.qoi_weights)
    return y


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
