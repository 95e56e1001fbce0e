"""Scattered-data interpolation on the reduced coordinates.

Gaussian kernel with a linear polynomial tail, solved as the classic
augmented symmetric system. The tail makes linear data exact regardless of
the kernel and pins the far field; the side conditions keep the kernel
weights orthogonal to the polynomial block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from .util import read_container, write_container

__all__ = ["RbfConfig", "RbfSurrogate", "fit", "evaluate", "predict", "save", "load"]

_MAGIC = b"GRBF0001"
_MEDIAN_SUBSET = 4096
_REG_FLOOR = 1e-15


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
    metadata: dict = field(default_factory=dict)

    @property
    def input_dimension(self) -> int:
        return self.centers.shape[1]


def _median_distance(points: np.ndarray) -> float:
    if points.shape[0] > _MEDIAN_SUBSET:
        stride = int(np.ceil(points.shape[0] / _MEDIAN_SUBSET))
        points = points[::stride]
    return float(np.median(pdist(points)))


def _solve_augmented(K, P, values, eta):
    n, q = P.shape
    A = np.zeros((n + q, n + q))
    A[:n, :n] = K
    A[:n, :n] += eta * np.eye(n)
    A[:n, n:] = P
    A[n:, :n] = P.T
    rhs = np.concatenate([values, np.zeros(q)])
    sol = np.linalg.solve(A, rhs)
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
    nn = cKDTree(points).query(points, k=2)[0][:, 1]
    if np.min(nn) <= 1e-12:
        raise ValueError("points must be pairwise distinct (min distance > 1e-12)")

    sigma = config.shape if config.shape is not None else _median_distance(points)
    K = np.exp(-((cdist(points, points) / sigma) ** 2))
    P = np.hstack([np.ones((n, 1)), points])
    eta = config.regularization

    try:
        w, beta = _solve_augmented(K, P, values, eta)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular augmented system (near-duplicate points?)") from exc

    if not config.smoothing:
        value_norm = float(np.linalg.norm(values))
        best = (np.inf, w, beta, eta)
        while True:
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
            w, beta = _solve_augmented(K, P, values, eta)

    return RbfSurrogate(
        centers=points,
        weights=w,
        poly_coeffs=beta,
        shape=float(sigma),
        regularization=float(eta),
        metadata={"kernel": "gaussian", "smoothing": config.smoothing},
    )


def predict(model: RbfSurrogate, queries) -> np.ndarray:
    """Vectorized evaluation at an (m, a) array of query points."""
    Y = np.atleast_2d(np.asarray(queries, dtype=float))
    if not np.all(np.isfinite(Y)):
        raise ValueError("query points must be finite")
    if Y.shape[1] != model.input_dimension:
        raise ValueError("query dimension does not match the model")
    K = np.exp(-((cdist(Y, model.centers) / model.shape) ** 2))
    return K @ model.weights + model.poly_coeffs[0] + Y @ model.poly_coeffs[1:]


def evaluate(model: RbfSurrogate, y) -> float:
    """Surrogate value at a single reduced point."""
    return float(predict(model, np.asarray(y, dtype=float).reshape(1, -1))[0])


def save(model: RbfSurrogate, path: str | Path, extra_metadata: dict | None = None) -> None:
    """Write the model to a flat versioned binary container.

    extra_metadata entries (e.g. the experiment seed) are merged into the
    stored metadata without mutating the in-memory model.
    """
    n, a = model.centers.shape
    header = {
        "n": n,
        "a": a,
        "shape": model.shape,
        "regularization": model.regularization,
        "metadata": {**model.metadata, **(extra_metadata or {})},
    }
    write_container(path, _MAGIC, header, [model.centers, model.weights, model.poly_coeffs])


def load(path: str | Path) -> RbfSurrogate:
    header, (centers, weights, poly) = read_container(
        path,
        _MAGIC,
        "surrogate model",
        lambda h: [(h["n"], h["a"]), (h["n"],), (h["a"] + 1,)],
    )
    return RbfSurrogate(
        centers=centers,
        weights=weights,
        poly_coeffs=poly,
        shape=header["shape"],
        regularization=header["regularization"],
        metadata=header.get("metadata", {}),
    )
