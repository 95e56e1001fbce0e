"""Scattered-data interpolation on the reduced coordinates.

Gaussian kernel with a linear polynomial tail, solved as the classic
augmented symmetric system. The tail makes linear data exact regardless of
the kernel and pins the far field; the side conditions keep the kernel
weights orthogonal to the polynomial block. Distances are summed one
coordinate at a time in numpy, the order scipy's cdist uses. The system is
factored in place by LAPACK's dgesv from the LAPACK numpy links (`_lapack`),
the routine np.linalg.solve calls on a copy, so the fit holds one
(n+a+1)² array; the regularization walk rebuilds it after each solve.
The default kernel width, the median distance over every pair of centers,
is selected from the distances in that array without copying them out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _lapack
from .util import read_container, write_container

__all__ = ["RbfConfig", "RbfSurrogate", "fit", "evaluate", "predict", "save", "load"]

_MAGIC = b"GRBF0002"
_MEDIAN_SAMPLE = 8192  # pairs sampled to bracket the median
_GOLDEN = (5**0.5 - 1) / 2
_SCAN_ROWS = 128  # rows per block of the median's pass and the distinctness count
_REG_FLOOR = 1e-15
_BLOCK = 32  # rows per block of distances and of predict's kernel


@dataclass(frozen=True)
class RbfConfig:
    """Fit options.

    shape: kernel width; None selects the median distance over every pair
        of training centers (robust default), at any number of centers.
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
    """Median over every pair of points of the distance matrix D.

    Bitwise np.median of the strict upper triangle's values, which it does
    not copy: one pass counts the values below a bracket taken from a sample
    of them and keeps those inside it, and the median's ranks are selected
    among the kept. A bracket that misses the ranks is widened to every value.
    """
    m = D.shape[0]
    count = m * (m - 1) // 2
    hi_rank = count // 2
    lo_rank = hi_rank if count % 2 else hi_rank - 1
    for lo, hi in (_bracket(D, lo_rank, hi_rank), (-np.inf, np.inf)):
        below, kept = _scan_pairs(D, lo, hi)
        if below <= lo_rank and hi_rank < below + kept.size:
            break
    kept.partition([lo_rank - below, hi_rank - below])
    return float(kept[lo_rank - below : hi_rank - below + 1].mean())  # as np.median


def _bracket(D: np.ndarray, lo_rank: int, hi_rank: int) -> tuple[float, float]:
    """Values likely to enclose order statistics lo_rank..hi_rank of D's pairs.

    Reads them off a sample of _MEDIAN_SAMPLE pairs (every pair when there
    are fewer), six standard deviations of a sample rank out on either side;
    -inf and inf past the sample's ends. The sample's flat indices into the
    triangle follow the golden ratio's multiples: a fixed stride through the
    rows meets some points far more often than others, and its median
    strayed twice as far as a random sample's.
    """
    m = D.shape[0]
    count = m * (m - 1) // 2
    if count <= _MEDIAN_SAMPLE:
        flat = np.arange(count)
    else:
        flat = (np.arange(_MEDIAN_SAMPLE) * _GOLDEN % 1.0 * count).astype(np.intp)
    rows = np.arange(m)
    starts = rows * (2 * m - rows - 1) // 2  # flat index of each row's first pair
    i = np.searchsorted(starts, flat, side="right") - 1
    sample = np.sort(D[i, flat - starts[i] + i + 1])
    margin = 3.0 * np.sqrt(sample.size)
    a = int(np.floor(lo_rank / count * sample.size - margin))
    b = int(np.ceil(hi_rank / count * sample.size + margin))
    return (sample[a] if a >= 0 else -np.inf), (sample[b] if b < sample.size else np.inf)


def _scan_pairs(D: np.ndarray, lo: float, hi: float) -> tuple[int, np.ndarray]:
    """(number of D's strict-upper-triangle values below lo, those in [lo, hi]).

    Rows are taken _SCAN_ROWS at a time: the upper triangle of the block's
    diagonal square, then the columns right of it.
    """
    m = D.shape[0]
    below, kept = 0, []
    for i in range(0, m, _SCAN_ROWS):
        rows = D[i : i + _SCAN_ROWS]
        b = rows.shape[0]
        for v in (rows[:, i : i + b][np.triu_indices(b, 1)], rows[:, i + b :]):
            inside = v >= lo
            below += v.size - np.count_nonzero(inside)
            inside &= v <= hi
            kept.append(v[inside])
    return below, np.concatenate(kept)


def _write_system(A, points, P, shape):
    """Write the augmented system's matrix into A and return the kernel width.

    The top-left n×n block receives the distances and then, in place, the
    kernel at shape (None selects the median distance); P sits beside it,
    P^T below it, and the corner is zero. The distances are bitwise
    symmetric, so A is exactly symmetric.
    """
    n = len(points)
    A.fill(0.0)
    D = _distances(points, points, out=A[:n, :n])
    close = sum(np.count_nonzero(D[i : i + _SCAN_ROWS] <= 1e-12) for i in range(0, n, _SCAN_ROWS))
    if close > n:  # beyond the zero diagonal
        raise ValueError("points must be pairwise distinct (min distance > 1e-12)")
    sigma = shape if shape is not None else _median_distance(D)
    _gaussian(D, sigma)
    A[:n, n:] = P
    A[n:, :n] = P.T
    return sigma


def _solve_augmented(A, n, values, eta):
    """Solve the system whose top-left n×n block holds the kernel, loading its
    diagonal with eta (K_ii is exactly 1, so 1 + eta is bitwise K_ii + eta).
    The solve overwrites A with its LU factors."""
    np.fill_diagonal(A[:n, :n], 1.0 + eta)
    sol = _lapack.gesv(A, np.concatenate([values, np.zeros(A.shape[0] - n)]))
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
    # block, and the solve factors that matrix in place, so fit holds one
    # (n+a+1)² array
    A = np.empty((n + a + 1, n + a + 1))
    P = np.hstack([np.ones((n, 1)), points])
    sigma = _write_system(A, points, P, config.shape)
    K = A[:n, :n]
    eta = config.regularization

    try:
        w, beta = _solve_augmented(A, n, values, eta)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular augmented system (near-duplicate points?)") from exc

    if not config.smoothing:
        value_norm = float(np.linalg.norm(values))
        best = (np.inf, w, beta, eta)
        while True:
            # the LU factors overwrote A; rebuilt, K's diagonal is exactly 1 again
            _write_system(A, points, P, sigma)
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
    # NaN fails both comparisons; bool and str fail the type test
    if not (type(shape) in (int, float) and 0 < shape < np.inf):
        raise ValueError(f"bad surrogate model file {path}: shape {shape!r} is not finite and > 0")
    if not (type(regularization) in (int, float) and 0 <= regularization < np.inf):
        raise ValueError(
            f"bad surrogate model file {path}: regularization {regularization!r} is not finite and >= 0"
        )
    return RbfSurrogate(
        centers=centers,
        weights=weights,
        poly_coeffs=poly,
        shape=shape,
        regularization=regularization,
    )
