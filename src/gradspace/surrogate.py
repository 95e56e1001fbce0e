"""Scattered-data interpolation on the reduced coordinates.

Gaussian kernel with a linear polynomial tail, solved as the classic
augmented symmetric system. The tail makes linear data exact regardless of
the kernel and pins the far field; the side conditions keep the kernel
weights orthogonal to the polynomial block. Distances are summed one
coordinate at a time in numpy, the order scipy's cdist uses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import read_container, write_container

__all__ = ["RbfConfig", "RbfSurrogate", "fit", "evaluate", "predict", "save", "load"]

_MAGIC = b"GRBF0002"
_MEDIAN_SUBSET = 4096
_REG_FLOOR = 1e-15
_BLOCK = 32  # rows per block of distances and of predict's kernel


@dataclass(frozen=True)
class RbfConfig:
    """Fit options.

    shape: kernel width; None selects the median pairwise distance of the
        training centers (robust default).
    regularization: diagonal loading added to K, whose diagonal is exactly 1.
    smoothing: when False (default) the fit must interpolate, and the
        regularization is walked down decade by decade until the training
        residual meets its bound; when True the given regularization is kept
        as-is and the fit is a smoothing regression (appropriate when the
        values carry scatter the reduced coordinates cannot resolve).
    """

    shape: float | None = None
    regularization: float = 1e-10
    smoothing: bool = False

    def __post_init__(self):
        if self.shape is not None and self.shape <= 0:
            raise ValueError("shape must be positive")
        if self.regularization < 0:
            raise ValueError("regularization must be nonnegative")


@dataclass(frozen=True)
class RbfSurrogate:
    centers: np.ndarray  # (n, a)
    weights: np.ndarray  # (n,)
    poly_coeffs: np.ndarray  # (a + 1,): constant then linear
    shape: float
    regularization: float  # final absolute diagonal value

    @property
    def input_dimension(self) -> int:
        return self.centers.shape[1]


def _distances(X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distance matrix between the rows of X and of Y.

    Squared differences are added one coordinate at a time and then rooted,
    so each entry is bitwise equal to scipy's cdist. Rows of X are taken
    _BLOCK at a time, which keeps the working buffers in cache. out, when
    given, is a zeroed (len(X), len(Y)) array or view that receives D.
    """
    Yt = Y.T.copy()  # contiguous coordinates
    D = np.zeros((X.shape[0], Y.shape[0])) if out is None else out
    diff = np.empty((min(_BLOCK, X.shape[0]), Y.shape[0]))
    for i in range(0, X.shape[0], _BLOCK):
        rows = D[i : i + _BLOCK]
        d = diff[: rows.shape[0]]
        for x, y in zip(X[i : i + _BLOCK].T, Yt):
            np.subtract(x[:, None], y, out=d)
            d *= d
            rows += d
    return np.sqrt(D, out=D)


def _gaussian(D: np.ndarray, shape: float) -> np.ndarray:
    """Turn distances into the kernel exp(-(D / shape)**2) in place.

    Bitwise equal to the out-of-place form, since numpy squares as x * x.
    """
    D /= shape
    D *= D
    np.negative(D, out=D)
    return np.exp(D, out=D)


def _median_distance(D: np.ndarray) -> float:
    """Median pairwise distance over at most _MEDIAN_SUBSET evenly strided points."""
    stride = -(-D.shape[0] // _MEDIAN_SUBSET)
    sub = D[::stride, ::stride]
    pairs = np.concatenate([row[i + 1 :] for i, row in enumerate(sub)])  # pdist's pairs
    return float(np.median(pairs, overwrite_input=True))


def _solve_augmented(A, n, values, eta):
    """Solve the system whose top-left n×n block holds the kernel, loading its
    diagonal with eta (K_ii is exactly 1, so 1 + eta is bitwise K_ii + eta)."""
    np.fill_diagonal(A[:n, :n], 1.0 + eta)
    sol = np.linalg.solve(A, np.concatenate([values, np.zeros(A.shape[0] - n)]))
    return sol[:n], sol[n:]


def fit(points, values, config: RbfConfig | None = None) -> RbfSurrogate:
    """Fit the kernel weights and linear tail to scattered data.

    In the default interpolation mode the training residual is required to
    satisfy max(1e-8, 10 * regularization * ||values||); if the initial
    regularization is too heavy for that, it is reduced decade by decade
    (near-duplicate points leave the system singular and raise instead).
    """
    if config is None:
        config = RbfConfig()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(values))):
        raise ValueError("points and values must be finite")
    n, a = points.shape
    if values.shape != (n,):
        raise ValueError("values must have one entry per point")
    if n < a + 2:
        raise ValueError(f"need at least a+2 = {a + 2} points, got {n}")
    # the distances, then the kernel, live in the system matrix's top-left
    # block, so fit holds only that matrix and the solver's copy of it
    A = np.zeros((n + a + 1, n + a + 1))
    D = _distances(points, points, out=A[:n, :n])
    if np.count_nonzero(D <= 1e-12) > n:  # beyond the zero diagonal
        raise ValueError("points must be pairwise distinct (min distance > 1e-12)")

    sigma = config.shape if config.shape is not None else _median_distance(D)
    K = _gaussian(D, sigma)
    P = np.hstack([np.ones((n, 1)), points])
    A[:n, n:] = P
    A[n:, :n] = P.T
    eta = config.regularization

    try:
        w, beta = _solve_augmented(A, n, values, eta)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular augmented system (near-duplicate points?)") from exc

    if not config.smoothing:
        value_norm = float(np.linalg.norm(values))
        best = (np.inf, w, beta, eta)
        while True:
            np.fill_diagonal(K, 1.0)  # unload the diagonal for the residual
            resid = float(np.max(np.abs(K @ w + P @ beta - values)))
            if resid < best[0]:
                best = (resid, w, beta, eta)
            if resid <= max(1e-8, 10.0 * eta * value_norm):
                break
            if eta <= _REG_FLOOR:
                warnings.warn(
                    f"training residual {best[0]:.3e} exceeds its bound at the "
                    "regularization floor; keeping the best solution",
                    RuntimeWarning,
                )
                _, w, beta, eta = best
                break
            eta /= 10.0
            w, beta = _solve_augmented(A, n, values, eta)

    return RbfSurrogate(
        centers=points,
        weights=w,
        poly_coeffs=beta,
        shape=float(sigma),
        regularization=float(eta),
    )


def predict(model: RbfSurrogate, queries) -> np.ndarray:
    """Vectorized evaluation at an (m, a) array of query points."""
    Y = np.atleast_2d(np.asarray(queries, dtype=float))
    if not np.all(np.isfinite(Y)):
        raise ValueError("query points must be finite")
    if Y.shape[1] != model.input_dimension:
        raise ValueError("query dimension does not match the model")
    out = np.empty(Y.shape[0])
    for i in range(0, Y.shape[0], _BLOCK):
        block = Y[i : i + _BLOCK]
        K = _gaussian(_distances(block, model.centers), model.shape)
        out[i : i + _BLOCK] = K @ model.weights + model.poly_coeffs[0] + block @ model.poly_coeffs[1:]
    return out


def evaluate(model: RbfSurrogate, y) -> float:
    """Surrogate value at a single reduced point."""
    return float(predict(model, np.asarray(y, dtype=float).reshape(1, -1))[0])


def save(model: RbfSurrogate, path: str | Path) -> None:
    """Write the model to a flat versioned binary container."""
    n, a = model.centers.shape
    header = {"n": n, "a": a, "shape": model.shape, "regularization": model.regularization}
    write_container(path, _MAGIC, header, [model.centers, model.weights, model.poly_coeffs])


def load(path: str | Path) -> RbfSurrogate:
    header, (centers, weights, poly) = read_container(
        path,
        _MAGIC,
        "surrogate model",
        lambda h: [(h["n"], h["a"]), (h["n"],), (h["a"] + 1,)],
    )
    try:
        shape, regularization = header["shape"], header["regularization"]
    except KeyError as exc:
        raise ValueError(f"bad surrogate model file {path}: header lacks {exc}") from exc
    return RbfSurrogate(
        centers=centers,
        weights=weights,
        poly_coeffs=poly,
        shape=shape,
        regularization=regularization,
    )
