"""The fibre solve: decide {s in box : A s = t} and lift t to its least-norm point.

`least_norm_point(box, A, t)` works in numpy alone: a semismooth Newton
method (Qi & Sun, Math. Programming 58, 1993) on the dual of the least-norm
problem either lifts t to the fibre's least-norm point or proves the fibre
empty. The sampler, the lift and the membership test decide every reduced
point this way.

A fibre that neither proof settles within _NEWTON_CAP steps goes to scipy's
HiGHS, the dual revised simplex of Huangfu & Hall, as a zero-objective
program with its primal feasibility tolerance pinned to FEAS_TOL, so points
just outside the fibre's image are reported infeasible rather than returned
with a residual too large to accept. The vertex HiGHS returns is clipped to
the box, stepped onto the rows by least norm on its interior coordinates,
and clipped again, which binds only if no exact point exists.
scipy.optimize loads at the first such fibre.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Hyperrectangle

__all__ = ["LpSolution", "LpStatus"]

FEAS_TOL = 1e-9
_NEWTON_CAP = 50  # steps before least_norm_point hands a fibre to HiGHS


def projection_tolerance(t: np.ndarray):
    """How far A s may miss t for s to lift t: 1e-8 (1 + ||t||_inf), per row of t.

    The one test of "t is in Z" that a lifted point must pass, wherever it
    came from: HiGHS's polished vertex, `geometry`'s lift, or a stored
    design row.
    """
    return 1e-8 * (1.0 + np.max(np.abs(t), axis=-1, initial=0.0))


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    point: np.ndarray | None = None


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
    settled by neither within _NEWTON_CAP steps gets HiGHS's answer
    (`_highs_fibre`). Sampler draws take at most 15 steps; only points next
    to the image's boundary reach the cap, such as its exact vertices or,
    at d = 250, a vertex scaled by 1 - 1e-6, where the many short rows of A
    round the vertex off. An A with no nonzero entry is decided before any
    step: the fibre is the whole box, lifted to its least-norm point, when
    ||t||_inf is within the OPTIMAL tolerance, and empty otherwise.
    """
    lo, hi = box.lower, box.upper
    tol = 1e-12 * (1.0 + np.max(np.abs(t), initial=0.0))
    if not A.any():  # every row zero: the fibre is the whole box or empty
        if np.max(np.abs(t), initial=0.0) > tol:
            return LpSolution(LpStatus.INFEASIBLE)
        return LpSolution(LpStatus.OPTIMAL, np.clip(np.zeros_like(lo), lo, hi))
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
    return _highs_fibre(box, A, t)


def _dual(A, t, lo, hi, u):
    """(A^T u, its clip to the box, the gradient of F at u, F(u))."""
    z = A.T @ u
    s = np.clip(z, lo, hi)
    return z, s, A @ s - t, z @ s - 0.5 * (s @ s) - t @ u


def _highs_fibre(box: Hyperrectangle, A: np.ndarray, t: np.ndarray) -> LpSolution:
    """HiGHS's answer for the fibre: a vertex polished onto the rows, or INFEASIBLE.

    Same arguments as least_norm_point; A must be C-ordered, since HiGHS and
    lstsq give last-bit different points for a transposed view such as V_a^T.
    """
    # deferred: after scipy.linalg, importing scipy.optimize (and the sparse,
    # special and spatial subpackages it imports) costs 0.23-0.28 s and 21 MiB on 2 CPUs
    from scipy.optimize import linprog

    c = np.zeros(box.dimension)
    bounds = np.column_stack([box.lower, box.upper])
    tol = {"primal_feasibility_tolerance": FEAS_TOL}
    res = linprog(c, A_eq=A, b_eq=t, bounds=bounds, method="highs", options=tol)
    if res.status not in (0, 2):
        # the dual simplex can end with model status Unknown (4) when t lies
        # within a few FEAS_TOL of the fibre image's boundary; one
        # interior-point solve, with crossover to a vertex, settles those
        res = linprog(c, A_eq=A, b_eq=t, bounds=bounds, method="highs-ipm", options=tol)
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE)
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the fibre (status {res.status}: {res.message})")

    point = np.clip(res.x, box.lower, box.upper)
    free = (point > box.lower) & (point < box.upper)
    step = np.linalg.lstsq(A[:, free], t - A @ point, rcond=None)[0]
    point[free] = np.clip(point[free] + step, box.lower[free], box.upper[free])
    resid = np.max(np.abs(A @ point - t), initial=0.0)
    if resid > projection_tolerance(t):
        raise RuntimeError(f"HiGHS returned an inaccurate point (residual {resid:.3e})")
    return LpSolution(LpStatus.OPTIMAL, point)
