"""Detection of dominant directions of variability from gradient samples.

The central object is the matrix (|domain|/k) * J * J^T built from k sampled
gradients; its leading eigenvectors span the directions along which the
function varies most, and its null space holds the directions along which the
function is flat. The eigendecomposition is obtained from an SVD of the
gradient matrix so the condition number is never squared.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Hyperrectangle",
    "JacobianSamples",
    "ActiveSubspace",
    "estimate_c_hat",
    "detect_subspace",
    "truncate",
    "suggest_truncation",
    "subspace_distance",
    "finite_difference_jacobian",
]

_SIGN_TOL = 1e-12
_ORTHO_TOL = 1e-10
_EIG_CLAMP = 1e-12
# natural logs of the smallest normal and the largest finite float64
_LOG_TINY = float(np.log(np.finfo(float).tiny))
_LOG_HUGE = float(np.log(np.finfo(float).max))


def _as_array(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class Hyperrectangle:
    """Axis-aligned box given by lower/upper bound vectors with nonempty interior."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_array(self.lower, "lower")
        up = _as_array(self.upper, "upper")
        if lo.ndim != 1 or lo.shape != up.shape:
            raise ValueError("lower and upper must be 1-d vectors of equal length")
        if not np.all(lo < up):
            raise ValueError("empty interior: need lower[i] < upper[i] for all i")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def centered(cls, half_widths) -> "Hyperrectangle":
        hw = np.atleast_1d(np.asarray(half_widths, dtype=float))
        return cls(-hw, hw)

    @classmethod
    def cube(cls, dimension: int, half_width: float) -> "Hyperrectangle":
        return cls.centered(np.full(dimension, float(half_width)))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def volume(self) -> float:
        """Lebesgue measure; +inf, with no warning, where it exceeds float64."""
        return math.prod((self.upper - self.lower).tolist(), start=1.0)

    def contains(self, point, tol: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != self.lower.shape:
            raise ValueError(f"point of shape {p.shape} given to a box of dimension {self.dimension}")
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def is_origin_centered(self, tol: float = 1e-9) -> bool:
        return bool(np.all(np.abs(self.lower + self.upper) <= tol))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points uniformly (Lebesgue measure); shape (n, d)."""
        return rng.uniform(self.lower, self.upper, size=(n, self.dimension))


@dataclass(frozen=True)
class JacobianSamples:
    """Sample sites and the d x k matrix whose column i is the gradient at site i."""

    points: np.ndarray  # (k, d)
    jacobian: np.ndarray  # (d, k)

    def __post_init__(self):
        pts = _as_array(self.points, "points")
        jac = _as_array(self.jacobian, "jacobian")
        if pts.ndim != 2 or jac.ndim != 2:
            raise ValueError("points must be (k, d) and jacobian (d, k)")
        if pts.shape[0] != jac.shape[1] or pts.shape[1] != jac.shape[0]:
            raise ValueError(
                f"shape mismatch: points {pts.shape} vs jacobian {jac.shape}"
            )
        if pts.shape[0] < 1:
            raise ValueError("need at least one sample")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "jacobian", jac)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_gradient(
        cls,
        grad: Callable[[np.ndarray], np.ndarray],
        domain: Hyperrectangle,
        k: int,
        rng: np.random.Generator,
    ) -> "JacobianSamples":
        """Sample k sites uniformly from the domain and evaluate the gradient."""
        pts = domain.sample(rng, k)
        cols = [np.asarray(grad(p), dtype=float) for p in pts]
        return cls(pts, np.column_stack(cols))


def _validate_in_domain(samples: JacobianSamples, domain: Hyperrectangle) -> None:
    if samples.dimension != domain.dimension:
        raise ValueError(
            f"dimension mismatch: samples have d={samples.dimension}, "
            f"domain has d={domain.dimension}"
        )
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(domain.lower), np.abs(domain.upper)))
    pts = samples.points
    if np.any(pts < domain.lower - tol) or np.any(pts > domain.upper + tol):
        raise ValueError("sample points fall outside the domain")


def _apply_sign_convention(V: np.ndarray) -> np.ndarray:
    """Flip column signs so the first entry with magnitude > 1e-12 is positive."""
    V = V.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = np.nonzero(np.abs(col) > _SIGN_TOL)[0]
        if idx.size and col[idx[0]] < 0:
            V[:, j] = -col
    return V


@dataclass(frozen=True)
class ActiveSubspace:
    """Orthonormal (d, a) basis of the retained directions, 1 <= a <= d, plus the full spectrum.

    Columns are sign-normalized (first entry of magnitude above 1e-12 made
    positive) so identical inputs always produce the identical basis. The
    complement is not stored: nothing in the pipeline reads it.
    """

    basis_a: np.ndarray  # (d, a)
    eigenvalues: np.ndarray  # (d,), nonincreasing, >= 0

    def __post_init__(self):
        Va = _as_array(self.basis_a, "basis_a")
        lam = _as_array(self.eigenvalues, "eigenvalues")
        if Va.ndim != 2 or not 1 <= Va.shape[1] <= Va.shape[0]:
            raise ValueError("basis_a must be (d, a) with 1 <= a <= d")
        d, a = Va.shape
        if lam.shape != (d,):
            raise ValueError("eigenvalues must have length d")
        if np.any(lam < -_EIG_CLAMP):
            raise ValueError("eigenvalues below the -1e-12 clamp threshold")
        lam = np.where(lam < 0.0, 0.0, lam)
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be nonincreasing")
        if np.max(np.abs(Va.T @ Va - np.eye(a))) > _ORTHO_TOL:
            raise ValueError("basis_a columns are not orthogonal unit vectors to 1e-10")
        object.__setattr__(self, "basis_a", _apply_sign_convention(Va))
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def dimension(self) -> int:
        return self.basis_a.shape[0]

    @property
    def retained(self) -> int:
        return self.basis_a.shape[1]


def _scaled_top(sv_top: float, domain: Hyperrectangle, k: int) -> float:
    """(|domain|/k) * sv_top**2 summed in logs; ValueError if it is not a normal float64.

    |domain| alone over- or underflows long before the spectrum does (4**600
    at d=600 on [-2, 2]). The eigenvalues keep the |domain| scale, which the
    acceptance criteria pin, rather than being normalized to the uniform
    density; a spectrum outside float64 on that scale is an error.
    """
    d = domain.dimension
    log_top = np.sum(np.log(domain.upper - domain.lower)) - np.log(k) + 2.0 * np.log(sv_top)
    if not _LOG_TINY <= log_top <= _LOG_HUGE:
        raise ValueError(
            f"the top eigenvalue exp({log_top:.1f}) for d={d} on a box within "
            f"[{domain.lower.min():g}, {domain.upper.max():g}]^{d} is not a normal float64"
        )
    return float(np.exp(log_top))


def estimate_c_hat(samples: JacobianSamples, domain: Hyperrectangle) -> np.ndarray:
    """Monte Carlo estimate (|domain|/k) * J * J^T of the derivative outer-product matrix.

    Kept for tests and tiny dimensions; the detection path works on the SVD
    of the gradient matrix instead and never forms this product. The scale
    is applied as in `detect_subspace`.
    """
    _validate_in_domain(samples, domain)
    J = samples.jacobian
    sv_top = np.linalg.norm(J, 2)
    if sv_top == 0.0:
        return np.zeros((samples.dimension, samples.dimension))
    C = _scaled_top(sv_top, domain, samples.count) * ((J / sv_top) @ (J / sv_top).T)
    return 0.5 * (C + C.T)


def detect_subspace(samples: JacobianSamples, domain: Hyperrectangle) -> ActiveSubspace:
    """Eigendecomposition of the estimated derivative matrix, via the SVD of J.

    Returns the untruncated subspace: basis_a holds all d eigenvectors
    sorted by descending eigenvalue (a = d). Eigenvalues are
    |domain|/k times the squared singular values, zero-padded when fewer
    samples than dimensions; a top eigenvalue that is not a normal float64
    raises a ValueError naming d and the box.
    """
    _validate_in_domain(samples, domain)
    d, k = samples.dimension, samples.count
    U, sv, _ = np.linalg.svd(samples.jacobian, full_matrices=False)
    if U.shape[1] < d:
        # fewer samples than dimensions: complete the basis with the trailing
        # columns of a full QR of U, which span U's orthogonal complement
        U = np.hstack([U, np.linalg.qr(U, mode="complete")[0][:, U.shape[1] :]])
    lam = np.zeros(d)
    if sv[0] > 0.0:
        lam[: sv.size] = _scaled_top(sv[0], domain, k) * (sv / sv[0]) ** 2
    return ActiveSubspace(U, lam)


def truncate(subspace: ActiveSubspace, a: int) -> ActiveSubspace:
    """Keep the first `a` columns, 1 <= a <= subspace.retained; eigenvalues are unchanged."""
    if not 1 <= a <= subspace.retained:
        raise ValueError(f"truncation a={a} out of range 1..{subspace.retained}")
    return ActiveSubspace(subspace.basis_a[:, :a], subspace.eigenvalues)


def suggest_truncation(eigenvalues) -> int:
    """Index of the largest log-gap in a descending spectrum.

    Advisory only: callers may override. An all-zero spectrum yields 1 with
    a RuntimeWarning since no gap is meaningful.
    """
    lam = _as_array(eigenvalues, "eigenvalues")
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("eigenvalues must be a nonempty vector")
    if np.any(np.diff(lam) > 0) or np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative and nonincreasing")
    if lam[0] == 0.0:
        warnings.warn("all-zero spectrum: no gap to detect, suggesting a=1", RuntimeWarning)
        return 1
    if lam.size == 1:
        return 1
    eps = 1e-16 * lam[0]
    gaps = np.log(lam[:-1] + eps) - np.log(lam[1:] + eps)
    return int(np.argmax(gaps)) + 1


def subspace_distance(V1, V2) -> float:
    """Spectral norm of the projector difference: the sine of the largest principal angle."""
    V1 = _as_array(V1, "V1")
    V2 = _as_array(V2, "V2")
    if V1.ndim == 1:
        V1 = V1[:, None]
    if V2.ndim == 1:
        V2 = V2[:, None]
    if V1.shape != V2.shape:
        raise ValueError(f"shape mismatch: {V1.shape} vs {V2.shape}")
    for name, V in (("V1", V1), ("V2", V2)):
        if np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) > 1e-8:
            raise ValueError(f"{name} is not orthonormal to 1e-8")
    gap = V1 @ V1.T - V2 @ V2.T
    return float(np.clip(np.linalg.norm(gap, 2), 0.0, 1.0))


def finite_difference_jacobian(
    f: Callable[[np.ndarray], float],
    domain: Hyperrectangle,
    s,
    step: float | None = None,
) -> np.ndarray:
    """Forward-difference gradient using exactly d+1 function evaluations.

    Coordinates whose forward perturbation would leave the domain use a
    backward difference instead. The default step is 1e-6 * max(1, |s_i|)
    per coordinate.
    """
    s = _as_array(s, "s")
    if not domain.contains(s, tol=1e-12):
        raise ValueError("base point lies outside the domain")
    if step is None:
        h = 1e-6 * np.maximum(1.0, np.abs(s))
    else:
        if step <= 0:
            raise ValueError("step must be positive")
        h = np.full(s.size, float(step))
    f0 = float(f(s))
    if not np.isfinite(f0):
        raise ValueError("non-finite function value at the base point")
    grad = np.empty(s.size)
    for i in range(s.size):
        sp = s.copy()
        if s[i] + h[i] <= domain.upper[i]:
            sp[i] += h[i]
            fi = float(f(sp))
            grad[i] = (fi - f0) / h[i]
        else:
            sp[i] -= h[i]
            fi = float(f(sp))
            grad[i] = (f0 - fi) / h[i]
        if not np.isfinite(fi):
            raise ValueError("non-finite function value at a perturbed point")
    return grad
