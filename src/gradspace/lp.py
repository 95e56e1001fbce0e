"""Linear programming over box bounds with optional equality rows.

Every program goes to scipy's HiGHS, the dual revised simplex of Huangfu &
Hall, with its primal feasibility tolerance pinned to FEAS_TOL so points
just outside the feasible set are reported infeasible rather than returned
with a residual too large to accept. The vertex is clipped to the box,
stepped onto the rows by least norm on its interior coordinates, and
clipped again, which binds only if no exact point exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Hyperrectangle

__all__ = ["LinearProgram", "LpSolution", "LpStatus", "solve"]

FEAS_TOL = 1e-9


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
