"""Reduced input domain: bounding box, membership tests, lifting, and sampling.

The reduced domain is the image of the full box under projection onto the
retained basis: the zonotope Z = V_a^T box, whose generators are the rows of
V_a. It is convex but not a box, so sampling draws uniformly from an
enclosing box and keeps a point t when one routine, `_classify`, finds a
full-space point over it: first the back-projection V_a t if it lies in the
box; otherwise, unless a facet cut of Z proves t outside, the least-norm
point of the fibre {s in box : V_a^T s = t}, which `lp.least_norm_point`
finds from (box, V_a^T, t) in numpy or proves absent (HiGHS settles what it
cannot). `membership`, `lift` and the sampler all decide through it.
Z's facets lie on the hyperplanes spanned by a-1 generators (Ziegler,
Lectures on Polytopes, 7.3), so the cuts from every (a-1)-subset of them are
Z's H-representation; at most _MAX_CUTS are kept, from the longest rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb

import numpy as np

from .core import ActiveSubspace, Hyperrectangle
from .lp import LpStatus
# bound as lp_solve: perfbench/traced.py times the lp layer through this name
from .lp import least_norm_point as lp_solve

__all__ = [
    "MembershipKind",
    "ReducedDomain",
    "ReducedDesign",
    "SamplerStats",
    "build_reduced_domain",
    "membership",
    "lift",
    "build_reduced_design",
]

_BOX_TOL = 1e-9
_PROJ_TOL = 1e-8
_MAX_CUTS = 250


class MembershipKind(Enum):
    DIRECTLY_INSIDE = "directly_inside"
    LIFTABLE_INSIDE = "liftable_inside"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ReducedDomain:
    subspace: ActiveSubspace
    full_domain: Hyperrectangle
    bounding_box: Hyperrectangle  # encloses the projection of the full domain
    cut_normals: np.ndarray  # (m, a) unit facet normals of the projection
    cut_limits: np.ndarray  # (m,) |u . t| above this proves t outside

    @property
    def reduced_dimension(self) -> int:
        return self.subspace.retained


@dataclass(frozen=True)
class ReducedDesign:
    """Reduced-coordinate design points and their lifted full-space points."""

    reduced_points: np.ndarray  # (n, a)
    lifted_points: np.ndarray  # (n, d)

    def validate(self, subspace: ActiveSubspace, box: Hyperrectangle) -> None:
        """Re-check the lift invariants of every row against V_a and the box; raises on violation."""
        if subspace.dimension != box.dimension:
            raise ValueError("subspace and domain dimensions differ")
        proj = self.lifted_points @ subspace.basis_a
        if np.max(np.abs(proj - self.reduced_points)) > _PROJ_TOL:
            raise ValueError("design row violates projection consistency")
        lo_ok = np.all(self.lifted_points >= box.lower - _BOX_TOL)
        hi_ok = np.all(self.lifted_points <= box.upper + _BOX_TOL)
        if not (lo_ok and hi_ok):
            raise ValueError("design row falls outside the full domain")


@dataclass(frozen=True)
class SamplerStats:
    """Counts of one design's draws.

    `lp_calls` counts the draws decided by the fibre solve, those that
    neither the box test nor a facet cut settles; the name predates that
    solve and stays because `sampler_stats.json` and the benchmark read it.
    """

    draws: int
    accepted: int
    rejected: int
    lp_calls: int
    prefilter_rejects: int
    acceptance_rate: float


def build_reduced_domain(
    subspace: ActiveSubspace, full_domain: Hyperrectangle
) -> ReducedDomain:
    """Enclosing box of the projected domain from Z's support function on the axes.

    The full domain must be centered at the origin, where t_i spans exactly
    [-h(e_i), h(e_i)] with h(e_i) = sum_j w_j |(V_a)_ji| for half-widths w.
    Callers with shifted boxes must recenter their coordinates first.
    """
    if subspace.dimension != full_domain.dimension:
        raise ValueError("subspace and domain dimensions differ")
    if not full_domain.is_origin_centered(tol=_BOX_TOL):
        raise ValueError("full domain must be centered at the origin")
    highs = full_domain.upper @ np.abs(subspace.basis_a)
    normals, limits = _facet_cuts(subspace.basis_a, full_domain.upper)
    return ReducedDomain(subspace, full_domain, Hyperrectangle(-highs, highs), normals, limits)


def _facet_cuts(Va: np.ndarray, half_widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals of the hyperplanes spanned by a-1 of the q longest rows of V_a, with limits.

    q is the largest count whose (a-1)-subsets number at most _MAX_CUTS.
    With a = 1 the bounding box is exact: no cuts.
    """
    d, a = Va.shape
    if a == 1:
        return np.empty((0, 1)), np.empty(0)
    q = a - 1
    while q < d and comb(q + 1, a - 1) <= _MAX_CUTS:
        q += 1
    rows = np.argsort(-np.linalg.norm(Va, axis=1), kind="stable")[:q]
    subsets = np.array(list(combinations(rows, a - 1)))
    # the last right singular vector of each (a-1) x a block spans its null space
    normals = np.linalg.svd(Va[subsets])[2][:, -1, :]
    coeffs = np.abs(Va @ normals.T)  # |(V_a u)_i|, one column per cut
    support = half_widths @ coeffs
    # with orthonormal V_a an accepted t is V_a^T s for some s within
    # _BOX_TOL of the box, so |u . t| <= h(u) + _BOX_TOL ||V_a u||_1; the
    # limit doubles that slack and adds a roundoff term. It holds for any u,
    # however accurate, because h is computed for the same u.
    limits = support * (1.0 + 1e-12) + 2.0 * _BOX_TOL * coeffs.sum(axis=0)
    return normals, limits


def _outside_cuts(domain: ReducedDomain, t: np.ndarray) -> bool:
    """True when a facet cut proves t outside the projection of the full domain."""
    return bool(np.any(np.abs(domain.cut_normals @ t) > domain.cut_limits))


def _classify(
    domain: ReducedDomain, t: np.ndarray
) -> tuple[MembershipKind, np.ndarray | None, bool]:
    """Decide and lift a reduced point: (kind, full-space point or None, whether the fibre solve ran)."""
    Va = domain.subspace.basis_a
    s = Va @ t
    if domain.full_domain.contains(s, tol=_BOX_TOL):
        return MembershipKind.DIRECTLY_INSIDE, s, False
    if _outside_cuts(domain, t):
        return MembershipKind.OUTSIDE, None, False
    sol = lp_solve(domain.full_domain, np.ascontiguousarray(Va.T), t)
    if sol.status is LpStatus.INFEASIBLE:
        return MembershipKind.OUTSIDE, None, True
    s = sol.point
    if not domain.full_domain.contains(s, tol=_BOX_TOL):
        raise RuntimeError("lifted point left the full domain")
    if np.max(np.abs(Va.T @ s - t)) > _PROJ_TOL:
        raise RuntimeError("lifted point lost projection consistency")
    return MembershipKind.LIFTABLE_INSIDE, s, True


def _checked_point(domain: ReducedDomain, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("reduced point contains non-finite entries")
    if t.shape != (domain.reduced_dimension,):
        raise ValueError("reduced point has the wrong length")
    return t


def membership(domain: ReducedDomain, t) -> MembershipKind:
    """Classify a reduced point: directly inside, inside after lifting, or outside."""
    return _classify(domain, _checked_point(domain, t))[0]


def lift(domain: ReducedDomain, t) -> np.ndarray:
    """Full-space point over t: the back-projection if it lies in the domain, else the fibre's
    least-norm point."""
    kind, s, _ = _classify(domain, _checked_point(domain, t))
    if kind is MembershipKind.OUTSIDE:
        raise ValueError("cannot lift a point outside the reduced domain")
    return s


def build_reduced_design(
    domain: ReducedDomain, n: int, rng: np.random.Generator
) -> tuple[ReducedDesign, SamplerStats]:
    """Accept/reject n reduced points drawn uniformly from the enclosing box, and lift each one.

    The cheap box test on the back-projection and then the facet cuts run
    before the fibre solve, which only decides the points that both leave open.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    bb = domain.bounding_box
    accepted: list[np.ndarray] = []
    lifted: list[np.ndarray] = []
    draws = 0
    lp_calls = 0
    prefilter_rejects = 0
    while len(accepted) < n:
        t = rng.uniform(bb.lower, bb.upper)
        draws += 1
        kind, s, lp_ran = _classify(domain, t)
        lp_calls += lp_ran
        prefilter_rejects += kind is MembershipKind.OUTSIDE and not lp_ran
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
        prefilter_rejects=prefilter_rejects,
        acceptance_rate=n / draws,
    )
    return ReducedDesign(np.array(accepted), np.array(lifted)), stats

