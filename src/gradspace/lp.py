"""Linear programming over box bounds with equality rows, and the fibre solve.

`solve` hands a program to scipy's HiGHS, the dual revised simplex of
Huangfu & Hall, with its primal feasibility tolerance pinned to FEAS_TOL so
points just outside the feasible set are reported infeasible rather than
returned with a residual too large to accept. The vertex is clipped to the
box, stepped onto the rows by least norm on its interior coordinates, and
clipped again, which binds only if no exact point exists. It serves any
objective, and scipy.optimize loads at its first call.

`least_norm_point(box, A, t)` decides the fibre {s in box : A s = t} in
numpy alone: a semismooth Newton method (Qi & Sun, Math. Programming 58,
1993) on the dual of the least-norm problem either lifts t to the fibre's
least-norm point or proves the fibre empty. The sampler decides its draws
this way, with no program object; a fibre that neither proof settles
within _NEWTON_CAP steps goes to `solve` as a zero-objective program.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Hyperrectangle

__all__ = ["LinearProgram", "LpSolution", "LpStatus", "solve"]

FEAS_TOL = 1e-9
_NEWTON_CAP = 50  # steps before least_norm_point hands a fibre to solve


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LinearProgram:
    """min objective^T s subject to eq_matrix s = eq_rhs and box bounds."""

    objective: np.ndarray
    box: Hyperrectangle
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ValueError("objective contains non-finite entries")
        if c.ndim != 1 or c.size != self.box.dimension:
            raise ValueError("objective length must match the box dimension")
        object.__setattr__(self, "objective", c)
        if (self.eq_matrix is None) != (self.eq_rhs is None):
            raise ValueError("eq_matrix and eq_rhs must be given together")
        if self.eq_matrix is not None:
            A = np.asarray(self.eq_matrix, dtype=float)
            r = np.asarray(self.eq_rhs, dtype=float)
            if not (np.all(np.isfinite(A)) and np.all(np.isfinite(r))):
                raise ValueError("equality data contains non-finite entries")
            if A.ndim != 2 or A.shape[1] != self.box.dimension:
                raise ValueError("eq_matrix must be (a, d) with d the box dimension")
            if r.shape != (A.shape[0],):
                raise ValueError("eq_rhs length must match eq_matrix rows")
            if A.shape[0] > A.shape[1]:
                raise ValueError("more equality rows than variables")
            # C order: HiGHS and lstsq give last-bit different points for a
            # transposed view such as V_a^T
            object.__setattr__(self, "eq_matrix", np.ascontiguousarray(A))
            object.__setattr__(self, "eq_rhs", r)


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    point: np.ndarray | None = None
    objective_value: float | None = None


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program; deterministic for fixed input data."""
    box = lp.box
    A, r = lp.eq_matrix, lp.eq_rhs
    if A is None:
        A, r = np.empty((0, box.dimension)), np.empty(0)

    # deferred: after scipy.linalg, importing scipy.optimize (and the sparse,
    # special and spatial subpackages it imports) costs 0.23-0.28 s and 21 MiB on 2 CPUs
    from scipy.optimize import linprog

    bounds = np.column_stack([box.lower, box.upper])
    tol = {"primal_feasibility_tolerance": FEAS_TOL}
    res = linprog(lp.objective, A_eq=A, b_eq=r, bounds=bounds, method="highs", options=tol)
    if res.status not in (0, 2):
        # the dual simplex can end with model status Unknown (4) when eq_rhs
        # lies within a few FEAS_TOL of the feasible set's boundary; one
        # interior-point solve, with crossover to a vertex, settles those
        res = linprog(lp.objective, A_eq=A, b_eq=r, bounds=bounds, method="highs-ipm", options=tol)
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE)
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the LP (status {res.status}: {res.message})")

    point = np.clip(res.x, box.lower, box.upper)
    free = (point > box.lower) & (point < box.upper)
    step = np.linalg.lstsq(A[:, free], r - A @ point, rcond=None)[0]
    point[free] = np.clip(point[free] + step, box.lower[free], box.upper[free])
    resid = np.max(np.abs(A @ point - r), initial=0.0)
    if resid > 1e-8 * (1.0 + np.linalg.norm(r)):
        raise RuntimeError(f"HiGHS returned an inaccurate point (residual {resid:.3e})")
    return LpSolution(LpStatus.OPTIMAL, point, float(lp.objective @ point))


def least_norm_point(box: Hyperrectangle, A: np.ndarray, t: np.ndarray) -> LpSolution:
    """The least-norm point of the fibre {s in box : A s = t}, or INFEASIBLE.

    A must be a C-ordered (a, d) array of finite rows with a <= d and d the
    box dimension, and t a finite vector of length a; neither is checked
    here. Semismooth Newton on the dual, min_u F(u) = sum_j
    phi_j((A^T u)_j) - t^T u with phi_j(z) = z c - c^2 / 2 and
    c = clip(z, lower_j, upper_j): F is convex and piecewise quadratic with
    gradient A clip(A^T u) - t, and where it is minimized s = clip(A^T u)
    is the least-norm point. Each step solves the system of the coordinates
    strictly inside the box. It stops on a proof: OPTIMAL when s meets the
    rows to 1e-12 (1 + ||t||_inf), or INFEASIBLE when u separates t from
    the image of the box by more than that tolerance times ||u||_1. A fibre
    settled by neither within _NEWTON_CAP steps goes to `solve` as a
    zero-objective program and gets its answer. Sampler draws take at most
    15 steps; only points next to the image's boundary reach the cap, such
    as its exact vertices or, at d = 250, a vertex scaled by 1 - 1e-6,
    where the many short rows of A round the vertex off.
    """
    lo, hi = box.lower, box.upper
    tol = 1e-12 * (1.0 + np.max(np.abs(t), initial=0.0))
    ridge = 1e-14 * np.einsum("ij,ij->", A, A) * np.eye(len(t))
    u = np.linalg.solve(A @ A.T + ridge, t)  # u = t for orthonormal rows
    z, s, g, f = _dual(A, t, lo, hi, u)
    for _ in range(_NEWTON_CAP):
        if np.max(np.abs(g), initial=0.0) <= tol:
            return LpSolution(LpStatus.OPTIMAL, s)
        if u @ t - np.sum(np.maximum(lo * z, hi * z)) > tol * np.sum(np.abs(u)):
            return LpSolution(LpStatus.INFEASIBLE)
        free = A[:, (z > lo) & (z < hi)]
        du = -np.linalg.solve(free @ free.T + ridge, g)
        trial = _dual(A, t, lo, hi, u + du)
        if np.linalg.norm(trial[2]) > 0.5 * np.linalg.norm(g):
            # Armijo backtracking on F along du, a descent direction
            step, slope = 1.0, g @ du
            while trial[3] > f + 1e-4 * step * slope and step > 1e-12:
                step *= 0.5
                trial = _dual(A, t, lo, hi, u + step * du)
            du *= step
        u = u + du
        z, s, g, f = trial
    return solve(LinearProgram(np.zeros(lo.size), box, A, t))


def _dual(A, t, lo, hi, u):
    """(A^T u, its clip to the box, the gradient of F at u, F(u))."""
    z = A.T @ u
    s = np.clip(z, lo, hi)
    return z, s, A @ s - t, z @ s - 0.5 * (s @ s) - t @ u
