"""Tests for the fibre solve, which decides {s in box : A s = t} from a box,
rows and right-hand side, and for its HiGHS fallback.

Brute-force vertex enumeration is the oracle for small random fibres: the
fibre solve must give its status and a point no longer than any vertex.
HiGHS (`_highs_fibre`, the answer for a fibre the Newton iteration leaves
unsettled) is the other oracle; the near-boundary probes check the
tolerance contract where either is most likely to misjudge feasibility.
"""

from itertools import combinations, product

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradspace.cli import cmd_detect, read_subspace
from gradspace.config import ExperimentConfig
from gradspace.core import Hyperrectangle
from gradspace import lp as lp_module
from gradspace.geometry import MembershipKind, build_reduced_domain, membership
from gradspace.lp import LpStatus, _highs_fibre, least_norm_point
from gradspace.util import make_rng

SQ2 = np.sqrt(2.0) / 2.0
SOLVERS = (least_norm_point, _highs_fibre)


def enumerate_vertices(A, r, box, tol=1e-9):
    """Brute-force basic feasible points of {A s = r, box} for small problems.

    At a vertex, all but `a` coordinates sit at a bound, and the free block of
    A must be invertible. Subsets with a singular free block are skipped: any
    vertex they would describe also appears through a nonsingular subset for
    generic data. Each subset solves for all of its bound patterns at once.
    """
    a, d = A.shape
    vertices = []
    for free in combinations(range(d), a):
        M = A[:, free]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        clamped = [j for j in range(d) if j not in free]
        upper = np.array(list(product((False, True), repeat=d - a)), dtype=bool)
        s = np.empty((len(upper), d))
        s[:, clamped] = np.where(upper, box.upper[clamped], box.lower[clamped])
        rhs = r[:, None] - A[:, clamped] @ s[:, clamped].T
        s[:, list(free)] = np.linalg.solve(M, rhs).T
        inside = np.all((s >= box.lower - tol) & (s <= box.upper + tol), axis=1)
        vertices.extend(s[inside])
    return vertices


def enumerated_status(A, r, box):
    return LpStatus.OPTIMAL if enumerate_vertices(A, r, box) else LpStatus.INFEASIBLE


def random_fibre(rng, d, a, feasible):
    """The boxes, rows and right-hand sides of acceptance c11."""
    box = Hyperrectangle(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d))
    A = rng.standard_normal((a, d))
    r = A @ box.sample(rng, 1)[0] if feasible else rng.uniform(-4.0, 4.0, a)
    return box, A, r


@pytest.fixture(scope="module")
def paper_subspace(tmp_path_factory):
    """The detected subspace of the 250-parameter elliptic model (k=100, a=5, seed 2026)."""
    out = tmp_path_factory.mktemp("paper")
    cmd_detect(ExperimentConfig(model="pde", pde_n=33, pde_d=250, k=100, a="5", seed=2026), out)
    return read_subspace(out / "subspace.bin")


@pytest.fixture
def sent_to_highs(monkeypatch):
    """The fibres that least_norm_point hands to HiGHS, recorded on their way."""
    fibres = []

    def recording(*fibre):
        fibres.append(fibre)
        return _highs_fibre(*fibre)

    monkeypatch.setattr(lp_module, "_highs_fibre", recording)
    return fibres


class TestSolve:
    def test_unreachable_rhs_is_infeasible(self):
        # oracle: the diagonal direction peaks at sqrt(2)*pi < 10 over the square
        box = Hyperrectangle.cube(2, np.pi)
        v = np.array([[SQ2, SQ2]])
        corners = [np.array(p) for p in product((-np.pi, np.pi), repeat=2)]
        assert max(v[0] @ p for p in corners) < 10.0
        for solver in SOLVERS:
            sol = solver(box, v, np.array([10.0]))
            assert sol.status is LpStatus.INFEASIBLE
            assert sol.point is None

    def test_single_equality_pins_coordinate(self):
        box = Hyperrectangle(np.zeros(2), np.ones(2))
        for solver in SOLVERS:
            sol = solver(box, np.array([[1.0, 0.0]]), np.array([0.5]))
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
            rng.standard_normal(d)  # unused: keeps the later programs of this stream unchanged
            for solver in SOLVERS:
                sol = solver(box, A, r)
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
            rng.standard_normal(d)  # unused: keeps the later programs of this stream unchanged
            vertices = enumerate_vertices(A, r, box)
            sol = least_norm_point(box, A, r)
            assert _highs_fibre(box, A, r).status is sol.status
            if vertices:
                optimal += 1
                assert sol.status is LpStatus.OPTIMAL
                shortest = min(np.linalg.norm(v) for v in vertices)
                assert np.linalg.norm(sol.point) <= shortest + 1e-8
            else:
                infeasible += 1
                assert sol.status is LpStatus.INFEASIBLE
        assert optimal > 10 and infeasible > 5  # both branches exercised

    def test_feasibility_along_segment_to_center_projection(self):
        # if rhs y is reachable, every point between y and the projection of the
        # box center stays reachable (the projected box is convex)
        rng = make_rng(33)
        box = Hyperrectangle.cube(5, 1.0)
        A = np.ascontiguousarray(np.linalg.qr(rng.standard_normal((5, 2)))[0].T)
        y_center = A @ (0.5 * (box.lower + box.upper))
        for _ in range(10):
            y = A @ box.sample(rng, 1)[0]
            for solver in SOLVERS:
                assert solver(box, A, y).status is LpStatus.OPTIMAL
                for lam in (0.25, 0.5, 0.75):
                    y_mid = (1 - lam) * y + lam * y_center
                    assert solver(box, A, y_mid).status is LpStatus.OPTIMAL

    def test_zero_row_with_zero_rhs_dropped(self):
        box = Hyperrectangle.cube(2, 1.0)
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        r = np.array([0.0, 0.3])
        sol = least_norm_point(box, A, r)
        assert sol.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.point, [0.3, 0.0], rtol=0, atol=1e-12)
        sol = _highs_fibre(box, A, r)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.point[0] == pytest.approx(0.3, abs=1e-12)

    def test_zero_row_with_nonzero_rhs_infeasible(self):
        box = Hyperrectangle.cube(2, 1.0)
        for solver in SOLVERS:
            assert solver(box, np.zeros((1, 2)), np.array([1.0])).status is LpStatus.INFEASIBLE
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert least_norm_point(box, A, np.array([1.0, 0.3])).status is LpStatus.INFEASIBLE

    def test_deterministic(self):
        rng = make_rng(34)
        box = Hyperrectangle.cube(4, 1.0)
        A = rng.standard_normal((2, 4))
        r = A @ box.sample(rng, 1)[0]
        for solver in SOLVERS:
            s1, s2 = solver(box, A, r), solver(box, A, r)
            assert s1.status is s2.status is LpStatus.OPTIMAL
            np.testing.assert_array_equal(s1.point, s2.point)


class TestPolishedPoint:
    """Every point HiGHS gives lies in the box and meets the equality rows to roundoff."""

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 6),
        a=st.integers(0, 2),
        feasible=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_programs_against_enumeration(self, d, a, feasible, seed):
        # acceptance c11's fibres, and fibres without rows: a (0, d) matrix
        box, A, r = random_fibre(make_rng(seed), d, a, feasible)
        sol = _highs_fibre(box, A, r)
        assert sol.status is enumerated_status(A, r, box)
        if sol.status is LpStatus.OPTIMAL:
            assert box.contains(sol.point, tol=0.0)
            inside = np.sum((sol.point > box.lower) & (sol.point < box.upper))
            if inside >= a:
                resid = np.max(np.abs(A @ sol.point - r), initial=0.0)
                assert resid <= 1e-12 * (1.0 + np.linalg.norm(r))

    def test_paper_dimension_subspace(self, paper_subspace):
        # HiGHS's own vertices miss the rows of this subspace by up to 1e-8
        A = np.ascontiguousarray(paper_subspace.basis_a.T)
        box = Hyperrectangle.cube(250, 2.0)
        for s in box.sample(make_rng(36), 40):
            t = A @ s  # liftable: s itself lies over t
            sol = _highs_fibre(box, A, t)
            assert sol.status is LpStatus.OPTIMAL
            assert box.contains(sol.point, tol=0.0)
            resid = np.max(np.abs(A @ sol.point - t))
            assert resid <= 1e-12 * (1.0 + np.linalg.norm(t))


class TestNearBoundary:
    """Reduced points just inside and just outside the zonotope V_a^T [-2, 2]^50."""

    DELTAS = (-1e-8, -1e-10, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7)

    @classmethod
    def probes(cls):
        """(box, rows, rhs, delta) around 20 support points of the zonotope."""
        rng = make_rng(35)
        d, a = 50, 5
        box = Hyperrectangle.cube(d, 2.0)
        Va = np.linalg.qr(rng.standard_normal((d, a)))[0]
        A = np.ascontiguousarray(Va.T)
        for _ in range(20):
            u = rng.standard_normal(a)
            # a vertex of the zonotope maximizing u^T t, pushed out along u by delta
            support = Va.T @ (2.0 * np.sign(Va @ u))
            for delta in cls.DELTAS:
                yield box, A, support + delta * u / np.linalg.norm(u), delta

    @classmethod
    def check(cls, solver, resid_tol):
        for box, A, t, delta in cls.probes():
            sol = solver(box, A, t)  # never raises
            if sol.status is LpStatus.OPTIMAL:
                assert box.contains(sol.point, tol=0.0)
                resid = np.max(np.abs(A @ sol.point - t))
                assert resid <= resid_tol * (1.0 + np.linalg.norm(t))
            if delta == -1e-8:
                assert sol.status is LpStatus.OPTIMAL
            if delta == 1e-7:
                assert sol.status is LpStatus.INFEASIBLE

    def test_probes_around_support_points(self):
        self.check(_highs_fibre, 1e-8)

    def test_least_norm_point_probes(self):
        self.check(least_norm_point, 1e-12)


class TestLeastNormPoint:
    """The fibre solve decides as HiGHS does and lifts to the fibre's least-norm point."""

    @staticmethod
    def _fibre(d, a, feasible, seed):
        rng = make_rng(seed)
        w = rng.uniform(0.5, 2.0, d)
        box = Hyperrectangle(-w, w)
        A = rng.standard_normal((a, d))
        if feasible:
            r = A @ box.sample(rng, 1)[0]
        else:  # up to 1.5 times the support of Z along each row: may be reachable
            r = rng.uniform(-1.5, 1.5, a) * (np.abs(A) @ w)
        return box, A, r

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(3, 12),
        a=st.integers(1, 4),
        feasible=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_programs_against_solve_and_enumeration(self, d, a, feasible, seed):
        assume(a <= d)
        box, A, r = self._fibre(d, a, feasible, seed)
        sol = least_norm_point(box, A, r)
        assert sol.status is _highs_fibre(box, A, r).status
        assert sol.status is enumerated_status(A, r, box)
        if sol.status is LpStatus.OPTIMAL:
            assert box.contains(sol.point, tol=0.0)
            resid = np.max(np.abs(A @ sol.point - r))
            assert resid <= 1e-12 * (1.0 + np.linalg.norm(r))

    def test_no_vertex_is_shorter(self):
        rng = make_rng(37)
        for seed in range(20):
            box, A, r = self._fibre(int(rng.integers(3, 13)), int(rng.integers(1, 4)), True, seed)
            shortest = np.linalg.norm(least_norm_point(box, A, r).point)
            rng.standard_normal((10, box.dimension))  # unused: keeps the later fibres unchanged
            vertices = enumerate_vertices(A, r, box)
            assert vertices
            for vertex in vertices:
                assert np.linalg.norm(vertex) >= shortest - 1e-12

    def test_all_zero_rows_are_decided_before_the_first_step(self, sent_to_highs):
        # A = 0 leaves the first step's system singular; HiGHS calls this fibre infeasible
        sol = least_norm_point(Hyperrectangle.cube(2, 1), np.zeros((1, 2)), [1.0])
        assert sol.status is LpStatus.INFEASIBLE
        box = Hyperrectangle(np.array([0.5, -1.0]), np.array([1.0, 1.0]))
        for t in (np.zeros(1), np.array([1e-13]), np.zeros(2)):
            A = np.zeros((t.size, 2))
            sol = least_norm_point(box, A, t)
            assert sol.status is _highs_fibre(box, A, t).status is LpStatus.OPTIMAL
            np.testing.assert_array_equal(sol.point, [0.5, 0.0])  # the box's least-norm point
        assert sent_to_highs == []

    def test_program_unsettled_at_the_cap_goes_to_solve(self, sent_to_highs, monkeypatch):
        # a point 1e-8 inside a vertex of the zonotope takes several Newton steps
        box, A, t = next(probe[:3] for probe in TestNearBoundary.probes() if probe[3] == -1e-8)
        assert least_norm_point(box, A, t).status is LpStatus.OPTIMAL
        assert sent_to_highs == []
        monkeypatch.setattr(lp_module, "_NEWTON_CAP", 1)
        sol = least_norm_point(box, A, t)
        [(fallback_box, fallback_A, fallback_t)] = sent_to_highs  # the same fibre
        assert fallback_box is box and fallback_A is A and fallback_t is t
        assert sol.status is LpStatus.OPTIMAL
        np.testing.assert_array_equal(sol.point, _highs_fibre(box, A, t).point)

    def test_zonotope_vertices_on_paper_subspace_reach_highs(self, paper_subspace, sent_to_highs):
        # vertices of Z pulled in by 1 - 1e-6: the many short rows of V_a (the
        # KL tail) keep the Newton iteration from settling some within the cap
        Va = paper_subspace.basis_a
        domain = build_reduced_domain(paper_subspace, Hyperrectangle.cube(250, 2.0))
        rng = make_rng(38)
        for _ in range(30):
            t = (1.0 - 1e-6) * (Va.T @ (2.0 * np.sign(Va @ rng.standard_normal(5))))
            assert membership(domain, t) is MembershipKind.LIFTABLE_INSIDE
        assert len(sent_to_highs) >= 1


class TestUnknownStatusResolve:
    """A dual-simplex result with status 4 gets one interior-point re-solve."""

    @staticmethod
    def _fibre():
        return Hyperrectangle.cube(3, 1.0), np.array([[1.0, 1.0, 0.0]]), np.array([0.5])

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
        sol = _highs_fibre(*self._fibre())
        assert methods == ["highs", "highs-ipm"]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.point[0] + sol.point[1] == pytest.approx(0.5, abs=1e-12)

    def test_raises_when_both_fail(self, monkeypatch):
        methods = self._patch(monkeypatch, {"highs", "highs-ipm"})
        with pytest.raises(RuntimeError, match="status 4"):
            _highs_fibre(*self._fibre())
        assert methods == ["highs", "highs-ipm"]
