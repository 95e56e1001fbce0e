"""Tests for the box-constrained LP solver, which hands every program to HiGHS.

Brute-force vertex enumeration is the oracle for small random programs; the
near-boundary probes check the tolerance contract where HiGHS is most
likely to misjudge feasibility.
"""

from itertools import combinations, product

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from gradspace.cli import cmd_detect, read_subspace
from gradspace.config import ExperimentConfig
from gradspace.core import Hyperrectangle
from gradspace.lp import LinearProgram, LpStatus, solve
from gradspace.util import make_rng

SQ2 = np.sqrt(2.0) / 2.0


def enumerate_vertices(A, r, box, tol=1e-9):
    """Brute-force basic feasible points of {A s = r, box} for small problems.

    At a vertex, all but `a` coordinates sit at a bound, and the free block of
    A must be invertible. Subsets with a singular free block are skipped: any
    vertex they would describe also appears through a nonsingular subset for
    generic data.
    """
    a, d = A.shape
    vertices = []
    for free in combinations(range(d), a):
        M = A[:, free]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        clamped = [j for j in range(d) if j not in free]
        for bits in product((0, 1), repeat=d - a):
            s = np.empty(d)
            for j, bit in zip(clamped, bits):
                s[j] = box.upper[j] if bit else box.lower[j]
            rhs = r - A[:, clamped] @ s[clamped] if clamped else r.copy()
            s[list(free)] = np.linalg.solve(M, rhs)
            if box.contains(s, tol=tol):
                vertices.append(s)
    return vertices


def brute_force(c, A, r, box):
    verts = enumerate_vertices(A, r, box)
    if not verts:
        return LpStatus.INFEASIBLE, None
    values = [c @ v for v in verts]
    return LpStatus.OPTIMAL, min(values)


class TestSolve:
    def test_box_corner(self):
        axis = np.zeros(250)
        axis[0] = 1.0
        for c, half_width, value in (
            (np.array([1.0, 0.0]), 1.0, -1.0),
            (axis, 2.0, -2.0),  # one axis of the paper's 250
            (np.zeros(3), 2.0, 0.0),  # every point of the box is optimal
        ):
            box = Hyperrectangle.cube(c.size, half_width)
            sol = solve(LinearProgram(c, box))
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(value)
            assert box.contains(sol.point, tol=0.0)
            if value:
                assert sol.point[0] == -half_width

    def test_unreachable_rhs_is_infeasible(self):
        # oracle: the diagonal direction peaks at sqrt(2)*pi < 10 over the square
        box = Hyperrectangle.cube(2, np.pi)
        v = np.array([[SQ2, SQ2]])
        corners = [np.array(p) for p in product((-np.pi, np.pi), repeat=2)]
        assert max(v[0] @ p for p in corners) < 10.0
        sol = solve(LinearProgram(np.zeros(2), box, v, np.array([10.0])))
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.point is None

    def test_single_equality_pins_coordinate(self):
        box = Hyperrectangle(np.zeros(2), np.ones(2))
        sol = solve(
            LinearProgram(np.zeros(2), box, np.array([[1.0, 0.0]]), np.array([0.5]))
        )
        assert sol.status is LpStatus.OPTIMAL
        assert sol.point[0] == pytest.approx(0.5, abs=1e-12)

    def test_optimal_point_satisfies_tolerances(self):
        rng = make_rng(31)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a = int(rng.integers(1, 3))
            box = Hyperrectangle(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d))
            A = rng.standard_normal((a, d))
            s0 = box.sample(rng, 1)[0]
            r = A @ s0  # feasible by construction
            c = rng.standard_normal(d)
            sol = solve(LinearProgram(c, box, A, r))
            assert sol.status is LpStatus.OPTIMAL
            assert np.all(sol.point >= box.lower - 1e-9)
            assert np.all(sol.point <= box.upper + 1e-9)
            resid = np.linalg.norm(A @ sol.point - r, np.inf)
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(r))

    def test_matches_brute_force_enumeration(self):
        rng = make_rng(32)
        optimal = infeasible = 0
        for _ in range(60):
            d = int(rng.integers(2, 7))
            a = int(rng.integers(1, 3))
            box = Hyperrectangle(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d))
            A = rng.standard_normal((a, d))
            if rng.random() < 0.5:
                r = A @ box.sample(rng, 1)[0]
            else:
                r = rng.uniform(-4.0, 4.0, a)  # may or may not be reachable
            c = rng.standard_normal(d)
            status, value = brute_force(c, A, r, box)
            sol = solve(LinearProgram(c, box, A, r))
            assert sol.status is status
            if status is LpStatus.OPTIMAL:
                optimal += 1
                assert sol.objective_value == pytest.approx(value, abs=1e-8)
            else:
                infeasible += 1
        assert optimal > 10 and infeasible > 5  # both branches exercised

    def test_feasibility_along_segment_to_center_projection(self):
        # if rhs y is reachable, every point between y and the projection of the
        # box center stays reachable (the projected box is convex)
        rng = make_rng(33)
        box = Hyperrectangle.cube(5, 1.0)
        A = np.linalg.qr(rng.standard_normal((5, 2)))[0].T
        y_center = A @ box.center
        for _ in range(10):
            y = A @ box.sample(rng, 1)[0]
            sol = solve(LinearProgram(np.zeros(5), box, A, y))
            assert sol.status is LpStatus.OPTIMAL
            for lam in (0.25, 0.5, 0.75):
                y_mid = (1 - lam) * y + lam * y_center
                mid = solve(LinearProgram(np.zeros(5), box, A, y_mid))
                assert mid.status is LpStatus.OPTIMAL

    def test_zero_row_with_zero_rhs_dropped(self):
        box = Hyperrectangle.cube(2, 1.0)
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        r = np.array([0.0, 0.3])
        sol = solve(LinearProgram(np.array([0.0, 1.0]), box, A, r))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.point[0] == pytest.approx(0.3, abs=1e-12)
        assert sol.objective_value == pytest.approx(-1.0)

    def test_zero_row_with_nonzero_rhs_infeasible(self):
        box = Hyperrectangle.cube(2, 1.0)
        sol = solve(LinearProgram(np.zeros(2), box, np.zeros((1, 2)), np.array([1.0])))
        assert sol.status is LpStatus.INFEASIBLE

    def test_deterministic(self):
        rng = make_rng(34)
        box = Hyperrectangle.cube(4, 1.0)
        A = rng.standard_normal((2, 4))
        r = A @ box.sample(rng, 1)[0]
        c = rng.standard_normal(4)
        lp = LinearProgram(c, box, A, r)
        s1, s2 = solve(lp), solve(lp)
        np.testing.assert_array_equal(s1.point, s2.point)
        assert s1.objective_value == s2.objective_value

    def test_rejects_nan_data(self):
        box = Hyperrectangle.cube(2, 1.0)
        with pytest.raises(ValueError):
            LinearProgram(np.array([np.nan, 0.0]), box)

    def test_rejects_mismatched_equalities(self):
        box = Hyperrectangle.cube(2, 1.0)
        with pytest.raises(ValueError):
            LinearProgram(np.zeros(2), box, np.zeros((1, 2)), None)
        with pytest.raises(ValueError):
            LinearProgram(np.zeros(2), box, np.zeros((3, 2)), np.zeros(3))


class TestPolishedPoint:
    """Every OPTIMAL point lies in the box and meets the equality rows to roundoff."""

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 6),
        a=st.integers(0, 2),
        feasible=st.booleans(),
        rowless_as_none=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_programs_against_enumeration(self, d, a, feasible, rowless_as_none, seed):
        # the boxes, rows, right-hand sides and objectives of acceptance c11,
        # and programs without rows, passed as None or as a (0, d) matrix
        rng = make_rng(seed)
        box = Hyperrectangle(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d))
        A = rng.standard_normal((a, d))
        r = A @ box.sample(rng, 1)[0] if feasible else rng.uniform(-4.0, 4.0, a)
        c = rng.standard_normal(d)
        if a == 0:
            c[rng.random(d) < 0.3] = 0.0  # ties: any point between the bounds is optimal
        status, value = brute_force(c, A, r, box)
        if a == 0 and rowless_as_none:
            sol = solve(LinearProgram(c, box))
        else:
            sol = solve(LinearProgram(c, box, A, r))
        assert sol.status is status
        if status is LpStatus.OPTIMAL:
            assert sol.objective_value == pytest.approx(value, abs=1e-8)
            assert box.contains(sol.point, tol=0.0)
            inside = np.sum((sol.point > box.lower) & (sol.point < box.upper))
            if inside >= a:
                resid = np.max(np.abs(A @ sol.point - r), initial=0.0)
                assert resid <= 1e-12 * (1.0 + np.linalg.norm(r))

    def test_paper_dimension_subspace(self, tmp_path):
        # the detected subspace of the 250-parameter elliptic model, where
        # HiGHS's own vertices miss the rows by up to 1e-8
        cfg = ExperimentConfig(model="pde", pde_n=33, pde_d=250, k=100, a="5")
        cmd_detect(cfg, tmp_path, seed=2026)
        Va = read_subspace(tmp_path / "subspace.bin").basis_a
        box = Hyperrectangle.cube(250, 2.0)
        for s in box.sample(make_rng(36), 40):
            t = Va.T @ s  # liftable: s itself lies over t
            sol = solve(LinearProgram(np.zeros(250), box, Va.T, t))
            assert sol.status is LpStatus.OPTIMAL
            assert box.contains(sol.point, tol=0.0)
            resid = np.max(np.abs(Va.T @ sol.point - t))
            assert resid <= 1e-12 * (1.0 + np.linalg.norm(t))


class TestNearBoundary:
    """Reduced points just inside and just outside the zonotope V_a^T [-2, 2]^50."""

    DELTAS = (-1e-8, -1e-10, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7)

    def test_probes_around_support_points(self):
        rng = make_rng(35)
        d, a = 50, 5
        box = Hyperrectangle.cube(d, 2.0)
        Va = np.linalg.qr(rng.standard_normal((d, a)))[0]
        for _ in range(20):
            u = rng.standard_normal(a)
            # a vertex of the zonotope maximizing u^T t, pushed out along u by delta
            support = Va.T @ (2.0 * np.sign(Va @ u))
            for delta in self.DELTAS:
                t = support + delta * u / np.linalg.norm(u)
                sol = solve(LinearProgram(np.zeros(d), box, Va.T, t))  # never raises
                if sol.status is LpStatus.OPTIMAL:
                    assert box.contains(sol.point, tol=0.0)
                    resid = np.max(np.abs(Va.T @ sol.point - t))
                    assert resid <= 1e-8 * (1.0 + np.linalg.norm(t))
                if delta == -1e-8:
                    assert sol.status is LpStatus.OPTIMAL
                if delta == 1e-7:
                    assert sol.status is LpStatus.INFEASIBLE


class TestUnknownStatusResolve:
    """A dual-simplex result with status 4 gets one interior-point re-solve."""

    @staticmethod
    def _lp():
        box = Hyperrectangle.cube(3, 1.0)
        return LinearProgram(np.zeros(3), box, np.array([[1.0, 1.0, 0.0]]), np.array([0.5]))

    def _patch(self, monkeypatch, failing_methods):
        real = scipy.optimize.linprog
        methods = []

        def linprog(*args, method, **kwargs):
            methods.append(method)
            if method in failing_methods:
                return scipy.optimize.OptimizeResult(status=4, x=None, message="unknown")
            return real(*args, method=method, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", linprog)
        return methods

    def test_resolves_with_interior_point(self, monkeypatch):
        methods = self._patch(monkeypatch, {"highs"})
        sol = solve(self._lp())
        assert methods == ["highs", "highs-ipm"]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.point[0] + sol.point[1] == pytest.approx(0.5, abs=1e-12)

    def test_raises_when_both_fail(self, monkeypatch):
        methods = self._patch(monkeypatch, {"highs", "highs-ipm"})
        with pytest.raises(RuntimeError, match="status 4"):
            solve(self._lp())
        assert methods == ["highs", "highs-ipm"]
