"""Low-rank recovery of a partially revealed matrix by singular value thresholding.

The iteration alternates a soft-threshold of the dual iterate's singular
values with a gradient step on the revealed-entry residual, and returns the
singular factors of the final thresholded iterate directly, so the caller
never needs the completed matrix itself. Each iteration reads its residual
off the dense iterate at the revealed entries' flat indices, in that one
place. The shrink step takes the singular pairs from an eigendecomposition of
the iterate's smaller Gram matrix, and from an SVD only where squaring would
cost accuracy at the threshold; a non-finite Gram matrix makes the shrink
step fail, which ends the iteration as a divergence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["RevealedEntries", "SvtParams", "SvtResult", "svt_complete", "reveal_uniform"]


@dataclass(frozen=True)
class RevealedEntries:
    """Index set and values of the observed entries of a d x k matrix."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        vals = np.asarray(self.values, dtype=float)
        d, k = self.shape
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, values must be equal-length 1-d arrays")
        if not np.all(np.isfinite(vals)):
            raise ValueError("revealed values contain non-finite entries")
        if rows.size and (rows.min() < 0 or rows.max() >= d or cols.min() < 0 or cols.max() >= k):
            raise ValueError("revealed index out of range")
        flat = rows * k + cols
        if np.unique(flat).size != flat.size:
            raise ValueError("duplicate (row, col) pairs in revealed set")
        if rows.size == 0 or np.unique(rows).size < d or np.unique(cols).size < k:
            warnings.warn(
                "some rows or columns have no revealed entry; recovery may be poor",
                RuntimeWarning,
            )
        object.__setattr__(self, "shape", (int(d), int(k)))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return self.rows.size


@dataclass(frozen=True)
class SvtParams:
    tau: float = 100.0
    delta: float = 1.0
    tol: float = 1e-4
    eps: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if self.tau <= 0 or self.delta <= 0 or self.tol <= 0:
            raise ValueError("tau, delta, tol must be positive")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")


@dataclass(frozen=True)
class SvtResult:
    left_vectors: np.ndarray  # (d, r)
    singular_values: np.ndarray  # (r,), positive descending
    right_vectors: np.ndarray  # (k, r)
    iterations: int
    residual: float  # relative residual on the revealed set
    converged: bool

    @property
    def rank(self) -> int:
        return self.singular_values.size


def reveal_uniform(
    J: np.ndarray, gamma: float, rng: np.random.Generator
) -> RevealedEntries:
    """Bernoulli(gamma) mask over the entries of J; gamma = 1 reveals everything."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    J = np.asarray(J, dtype=float)
    mask = rng.random(J.shape) < gamma
    rows, cols = np.nonzero(mask)
    return RevealedEntries(J.shape, rows, cols, J[rows, cols])


# The shrink squares Y: near the threshold the Gram eigenvalues carry a
# relative error of about n * eps * (sigma_max / tau)**2. Past this value of
# (sigma_max / tau)**2, where that error nears 1e-10, the SVD of Y is used.
_GRAM_RATIO_MAX = 1e4


def _gram(Y: np.ndarray) -> np.ndarray:
    """Gram matrix of Y on its shorter side: Y Y^T when wide, Y^T Y when tall."""
    return Y @ Y.T if Y.shape[0] <= Y.shape[1] else Y.T @ Y


def _shrink(Y: np.ndarray, tau: float):
    """SVD soft-threshold: singular values at or below tau are dropped entirely.

    The singular pairs come from the eigendecomposition of the smaller Gram
    matrix, whose eigenvalues are the squared singular values, or from an SVD
    of Y past _GRAM_RATIO_MAX. A Gram matrix that overflows raises
    LinAlgError, as a failed SVD does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        G = _gram(Y)
    if not np.all(np.isfinite(G)):
        raise np.linalg.LinAlgError("the Gram matrix of the iterate is not finite")
    w, Q = np.linalg.eigh(G)
    tau2 = tau * tau
    if w[-1] > _GRAM_RATIO_MAX * tau2:
        U, S, Vt = np.linalg.svd(Y, full_matrices=False)
        keep = S > tau
        return U[:, keep], S[keep] - tau, Vt[keep]
    keep = w > tau2
    S = np.sqrt(w[keep][::-1])
    Q = Q[:, keep][:, ::-1]
    if Y.shape[0] <= Y.shape[1]:
        return Q, S - tau, (Q.T @ Y) / S[:, None]
    return (Y @ Q) / S, S - tau, Q.T


def svt_complete(observed: RevealedEntries, params: SvtParams | None = None) -> SvtResult:
    """Recover singular factors of a low-rank matrix from its revealed entries.

    Stops when the relative Frobenius residual on the revealed set drops to
    params.tol, or when the absolute residual reaches params.eps (the noise
    level of the revealed values), whichever comes first. If the iteration
    budget runs out the best iterate seen is returned with converged=False,
    and so it is when the iteration diverges (an overlong step delta): the
    residual of the thresholded iterate turns non-finite or the shrink step
    fails, as it does when the iterate's Gram matrix is no longer finite.
    Both cases warn; a divergence at the first iteration returns rank zero.
    """
    if params is None:
        params = SvtParams()
    if observed.count < 1:
        raise ValueError("need at least one revealed entry")
    d, k = observed.shape
    rows, cols, vals = observed.rows, observed.cols, observed.values
    flat = rows * k + cols  # unique, as RevealedEntries rejects duplicate pairs

    norm_obs = float(np.linalg.norm(vals))
    if norm_obs == 0.0:
        return SvtResult(
            np.empty((d, 0)), np.empty(0), np.empty((k, 0)), 0, 0.0, True
        )

    M0 = np.zeros((d, k))
    M0[rows, cols] = vals
    # kick-start: scale the initial dual iterate so thresholding bites immediately;
    # the spectral norm of M0 is the root of its Gram matrix's largest eigenvalue
    spectral_norm = np.sqrt(np.linalg.eigvalsh(_gram(M0))[-1])
    k0 = float(np.ceil(params.tau / (params.delta * spectral_norm)))
    Y = (k0 * params.delta) * M0

    best = (np.empty((d, 0)), np.empty(0), np.empty((0, k)))
    best_rel = np.inf
    converged = False
    diverged = None
    iterations = 0
    for it in range(1, params.max_iter + 1):
        iterations = it
        try:
            U, S, Vt = _shrink(Y, params.tau)
        except np.linalg.LinAlgError as exc:
            diverged = f"the SVD failed at iteration {it} ({exc})"
            break
        resid = ((U * S) @ Vt).ravel().take(flat) - vals
        # a finite residual can overflow its norm; the non-finite check below reports that
        with np.errstate(over="ignore"):
            abs_res = float(np.linalg.norm(resid))
        if not np.isfinite(abs_res):
            diverged = f"the residual became non-finite at iteration {it}"
            break
        rel = abs_res / norm_obs
        if rel < best_rel:
            best_rel = rel
            best = (U, S, Vt)
        if rel <= params.tol or abs_res <= params.eps:
            converged = True
            break
        Y.ravel()[flat] -= params.delta * resid  # Y is C-contiguous: ravel is a view

    U, S, Vt = best
    # no iterate at all leaves the zero matrix, whose relative residual is 1
    final_rel = best_rel if np.isfinite(best_rel) else 1.0
    if not converged:
        why = f"diverged ({diverged})" if diverged else f"stopped at max_iter={params.max_iter}"
        warnings.warn(
            f"singular value thresholding {why} with relative residual {final_rel:.3e}",
            RuntimeWarning,
        )
    return SvtResult(U, S, Vt.T, iterations, final_rel, converged)
