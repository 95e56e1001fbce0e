"""Reduced input domain: bounding box, membership tests, lifting, and sampling.

The reduced domain is the image of the full box under projection onto the
retained basis. It is convex but not a box, so sampling draws uniformly from
an enclosing box and keeps a point t when one routine, `_classify`, finds a
full-space point over it: first the back-projection V_a t if it lies in the
box, otherwise the solution x of a small equality-constrained feasibility LP,
lifted to V_a t + V_b V_b^T x. `membership`, `lift` and both samplers all
decide through that routine.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .core import ActiveSubspace, Hyperrectangle
from .lp import LinearProgram, LpStatus, minimize_linear_over_box
from .lp import solve as lp_solve

__all__ = [
    "MembershipKind",
    "Membership",
    "ReducedDomain",
    "ReducedDesign",
    "SamplerStats",
    "build_reduced_domain",
    "membership",
    "lift",
    "sample_reduced",
    "build_reduced_design",
]

_BOX_TOL = 1e-9
_PROJ_TOL = 1e-8


class MembershipKind(Enum):
    DIRECTLY_INSIDE = "directly_inside"
    LIFTABLE_INSIDE = "liftable_inside"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Membership:
    kind: MembershipKind


@dataclass(frozen=True)
class ReducedDomain:
    subspace: ActiveSubspace
    full_domain: Hyperrectangle
    bounding_box: Hyperrectangle  # encloses the projection of the full domain

    @property
    def reduced_dimension(self) -> int:
        return self.subspace.retained


@dataclass(frozen=True)
class ReducedDesign:
    """Reduced-coordinate design points, their lifted full-space points, and values."""

    reduced_points: np.ndarray  # (n, a)
    lifted_points: np.ndarray  # (n, d)
    values: np.ndarray | None = None  # (n,)

    def validate(self, domain: ReducedDomain) -> None:
        """Re-check the lift invariants for every row; raises on violation."""
        Va = domain.subspace.basis_a
        box = domain.full_domain
        proj = self.lifted_points @ Va
        if np.max(np.abs(proj - self.reduced_points)) > _PROJ_TOL:
            raise ValueError("design row violates projection consistency")
        lo_ok = np.all(self.lifted_points >= box.lower - _BOX_TOL)
        hi_ok = np.all(self.lifted_points <= box.upper + _BOX_TOL)
        if not (lo_ok and hi_ok):
            raise ValueError("design row falls outside the full domain")


@dataclass(frozen=True)
class SamplerStats:
    draws: int
    accepted: int
    rejected: int
    lp_calls: int
    acceptance_rate: float

    def as_dict(self) -> dict:
        return asdict(self)


def build_reduced_domain(
    subspace: ActiveSubspace, full_domain: Hyperrectangle
) -> ReducedDomain:
    """Enclosing box of the projected domain from one linear minimization per direction.

    The full domain must be centered at the origin: the upper bound of each
    interval is the negated minimum, which is only the maximum under symmetry.
    Callers with shifted boxes must recenter their coordinates first.
    """
    if subspace.dimension != full_domain.dimension:
        raise ValueError("subspace and domain dimensions differ")
    if not full_domain.is_origin_centered(tol=_BOX_TOL):
        raise ValueError("full domain must be centered at the origin")
    lows = np.empty(subspace.retained)
    for i in range(subspace.retained):
        value, _ = minimize_linear_over_box(subspace.basis_a[:, i], full_domain)
        lows[i] = value
    return ReducedDomain(subspace, full_domain, Hyperrectangle(lows, -lows))


def _feasibility_lp(domain: ReducedDomain, t: np.ndarray) -> LinearProgram:
    # the objective is irrelevant: any point satisfying the constraints will do
    return LinearProgram(
        objective=np.zeros(domain.full_domain.dimension),
        box=domain.full_domain,
        eq_matrix=domain.subspace.basis_a.T,
        eq_rhs=t,
    )


def _classify(domain: ReducedDomain, t: np.ndarray) -> tuple[MembershipKind, np.ndarray | None]:
    """Decide a reduced point and lift it: (kind, full-space point over t, or None if outside)."""
    Va = domain.subspace.basis_a
    s = Va @ t
    if domain.full_domain.contains(s, tol=_BOX_TOL):
        return MembershipKind.DIRECTLY_INSIDE, s
    sol = lp_solve(_feasibility_lp(domain, t))
    if sol.status is LpStatus.INFEASIBLE:
        return MembershipKind.OUTSIDE, None
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError("feasibility LP reported unbounded on a compact box")
    Vb = domain.subspace.basis_b
    s = s + Vb @ (Vb.T @ sol.point)
    # holds for any LP point when V_a^T V_b = 0; it catches a basis that is not orthogonal
    if np.max(np.abs(Va.T @ s - t)) > _PROJ_TOL:
        raise RuntimeError("lifted point lost projection consistency")
    if not domain.full_domain.contains(s, tol=_BOX_TOL):
        raise RuntimeError("lifted point left the full domain")
    return MembershipKind.LIFTABLE_INSIDE, s


def _checked_point(domain: ReducedDomain, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("reduced point contains non-finite entries")
    if t.shape != (domain.reduced_dimension,):
        raise ValueError("reduced point has the wrong length")
    return t


def membership(domain: ReducedDomain, t) -> Membership:
    """Classify a reduced point: directly inside, inside after lifting, or outside."""
    kind, _ = _classify(domain, _checked_point(domain, t))
    return Membership(kind)


def lift(domain: ReducedDomain, t) -> np.ndarray:
    """Full-space point over t: the back-projection, walked into the domain if needed."""
    kind, s = _classify(domain, _checked_point(domain, t))
    if kind is MembershipKind.OUTSIDE:
        raise ValueError("cannot lift a point outside the reduced domain")
    return s


def _sample(domain: ReducedDomain, n: int, rng: np.random.Generator):
    if n < 1:
        raise ValueError("need n >= 1 samples")
    bb = domain.bounding_box
    accepted: list[np.ndarray] = []
    lifted: list[np.ndarray] = []
    draws = 0
    lp_calls = 0
    while len(accepted) < n:
        t = rng.uniform(bb.lower, bb.upper)
        draws += 1
        kind, s = _classify(domain, t)
        if kind is not MembershipKind.DIRECTLY_INSIDE:
            lp_calls += 1
        if s is not None:
            accepted.append(t)
            lifted.append(s)
        if draws % 1_000_000 == 0 and len(accepted) < 1e-4 * draws:
            raise RuntimeError(
                f"acceptance rate below 1e-4 after {draws} draws: the enclosing box "
                "is far larger than the reduced domain; reduce the truncation"
            )
    stats = SamplerStats(
        draws=draws,
        accepted=n,
        rejected=draws - n,
        lp_calls=lp_calls,
        acceptance_rate=n / draws,
    )
    return ReducedDesign(np.array(accepted), np.array(lifted)), stats


def sample_reduced(
    domain: ReducedDomain, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, SamplerStats]:
    """Accept/reject n reduced points drawn uniformly from the enclosing box.

    The cheap box test on the back-projection runs before any LP; the LP only
    decides the points whose back-projection misses the full domain.
    """
    design, stats = _sample(domain, n, rng)
    return design.reduced_points, stats


def build_reduced_design(
    domain: ReducedDomain, n: int, rng: np.random.Generator
) -> tuple[ReducedDesign, SamplerStats]:
    """Sample n reduced points and lift each one, reusing the acceptance LP solution."""
    return _sample(domain, n, rng)
