"""Tests for the reduced domain, lifting, and the acceptance/rejection sampler."""

import dataclasses
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradspace.cli import cmd_detect, read_subspace
from gradspace.config import ExperimentConfig
from gradspace.core import (
    ActiveSubspace,
    Hyperrectangle,
    JacobianSamples,
    detect_subspace,
    truncate,
)
from gradspace import geometry
from gradspace.geometry import (
    MembershipKind,
    ReducedDesign,
    build_reduced_design,
    build_reduced_domain,
    lift,
    membership,
)
from gradspace import lp
from gradspace.lp import LpSolution, LpStatus, _highs_fibre
from gradspace.models.pde import make_pde_model, solve_forward
from gradspace.util import make_rng

SQ2 = np.sqrt(2.0) / 2.0


def diag_subspace():
    """Truncated subspace of the two-dimensional cosine: the diagonal direction."""
    return ActiveSubspace(np.array([[SQ2], [SQ2]]), np.array([4 * np.pi**2, 0.0]))


def weighted_subspace():
    """Subspace of cos(0.3 s1 + 0.7 s2) on the centered square."""
    box = Hyperrectangle.cube(2, np.pi)
    w = np.array([0.3, 0.7])

    def grad(s):
        return -np.sin(w @ s) * w

    samples = JacobianSamples.from_gradient(grad, box, 100, make_rng(40))
    return truncate(detect_subspace(samples, box), 1), box


def random_subspace(d, a, seed):
    rng = make_rng(seed)
    V = np.linalg.qr(rng.standard_normal((d, d)))[0]
    lam = np.sort(rng.uniform(0.0, 1.0, d))[::-1]
    return truncate(ActiveSubspace(V, lam), a)


class TestBuildReducedDomain:
    def test_diagonal_extent(self):
        box = Hyperrectangle.cube(2, np.pi)
        rd = build_reduced_domain(diag_subspace(), box)
        assert rd.bounding_box.lower[0] == pytest.approx(-np.sqrt(2) * np.pi)
        assert rd.bounding_box.upper[0] == pytest.approx(np.sqrt(2) * np.pi)

    def test_axis_aligned_direction(self):
        d = 4
        box = Hyperrectangle.cube(d, 2.0)
        sub = truncate(ActiveSubspace(np.eye(d), np.ones(d)), 1)
        rd = build_reduced_domain(sub, box)
        np.testing.assert_allclose(rd.bounding_box.lower, [-2.0])
        np.testing.assert_allclose(rd.bounding_box.upper, [2.0])

    def test_full_rotation_halfwidths(self):
        # oracle: the support function of Z on axis i, sum_j |v_ij| * upper_j
        sub = random_subspace(5, 5, seed=41)
        box = Hyperrectangle.cube(5, 1.5)
        rd = build_reduced_domain(sub, box)
        for i in range(5):
            expected = np.sum(np.abs(sub.basis_a[:, i])) * 1.5
            assert rd.bounding_box.upper[i] == pytest.approx(expected)

    def test_symmetric_bounds(self):
        sub = random_subspace(6, 3, seed=42)
        box = Hyperrectangle.cube(6, 2.0)
        rd = build_reduced_domain(sub, box)
        np.testing.assert_allclose(rd.bounding_box.upper, -rd.bounding_box.lower, atol=1e-9)

    def test_rejects_uncentered_domain(self):
        box = Hyperrectangle(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="centered"):
            build_reduced_domain(diag_subspace(), box)

    def test_projection_containment(self):
        sub = random_subspace(8, 3, seed=43)
        box = Hyperrectangle.cube(8, 1.0)
        rd = build_reduced_domain(sub, box)
        pts = box.sample(make_rng(44), 10000)
        proj = pts @ sub.basis_a
        assert np.all(proj >= rd.bounding_box.lower - 1e-9)
        assert np.all(proj <= rd.bounding_box.upper + 1e-9)


class TestMembership:
    def test_origin_is_direct(self):
        rd = build_reduced_domain(diag_subspace(), Hyperrectangle.cube(2, np.pi))
        assert membership(rd, np.zeros(1)) is MembershipKind.DIRECTLY_INSIDE

    def test_liftable_point_of_weighted_cosine(self):
        # a reduced point whose back-projection exits the square but whose
        # fiber still meets it: the lifted point substitutes for it
        sub, box = weighted_subspace()
        rd = build_reduced_domain(sub, box)
        found = False
        for t_val in np.linspace(0.8, 0.999, 40):
            t = t_val * rd.bounding_box.upper
            back = sub.basis_a @ t
            m = membership(rd, t)
            if not box.contains(back, tol=1e-9) and m is MembershipKind.LIFTABLE_INSIDE:
                s = lift(rd, t)
                assert box.contains(s, tol=1e-9)
                found = True
        assert found

    def test_beyond_extent_is_outside(self):
        rd = build_reduced_domain(diag_subspace(), Hyperrectangle.cube(2, np.pi))
        t = rd.bounding_box.upper + 1.0
        assert membership(rd, t) is MembershipKind.OUTSIDE

    def test_rejects_non_finite(self):
        rd = build_reduced_domain(diag_subspace(), Hyperrectangle.cube(2, np.pi))
        with pytest.raises(ValueError):
            membership(rd, np.array([np.nan]))


class TestLift:
    def test_direct_point_back_projects(self):
        rd = build_reduced_domain(diag_subspace(), Hyperrectangle.cube(2, np.pi))
        t = np.array([1.0])
        s = lift(rd, t)
        np.testing.assert_allclose(s, rd.subspace.basis_a[:, 0], atol=1e-12)
        # on the reduced domain the function value only depends on t
        assert np.cos(s[0] + s[1]) == pytest.approx(np.cos(np.sqrt(2) * 1.0))

    def test_extreme_point_lifts_to_corner(self):
        box = Hyperrectangle.cube(2, np.pi)
        rd = build_reduced_domain(diag_subspace(), box)
        t = np.array([np.sqrt(2) * np.pi * (1 - 1e-9)])
        s = lift(rd, t)
        # the fiber over t meets the square only next to the corner
        np.testing.assert_allclose(s, [np.pi, np.pi], atol=1e-4)
        assert abs(rd.subspace.basis_a[:, 0] @ s - t[0]) < 1e-8
        assert box.contains(s, tol=1e-9)

    def test_flat_directions_leave_value_unchanged(self):
        # two distinct feasible complements over the same reduced point give
        # the same function value when the function is constant along them
        box = Hyperrectangle.cube(2, np.pi)
        rd = build_reduced_domain(diag_subspace(), box)
        t = np.array([0.7])
        base = rd.subspace.basis_a @ t
        f = lambda s: np.cos(s[0] + s[1])
        values = []
        for z in (-1.0, 1.5):
            s = base + z * np.array([-SQ2, SQ2])  # along the complement of the diagonal
            assert box.contains(s, tol=1e-9)
            values.append(f(s))
        assert abs(values[0] - values[1]) < 1e-12

    def test_lift_outside_raises(self):
        rd = build_reduced_domain(diag_subspace(), Hyperrectangle.cube(2, np.pi))
        with pytest.raises(ValueError, match="outside"):
            lift(rd, rd.bounding_box.upper + 1.0)


class TestSampleReduced:
    def test_identity_subspace_accepts_everything(self):
        d = 3
        box = Hyperrectangle.cube(d, 1.0)
        sub = ActiveSubspace(np.eye(d), np.ones(d))
        rd = build_reduced_domain(sub, box)
        design, stats = build_reduced_design(rd, 200, make_rng(45))
        assert stats.acceptance_rate == 1.0
        assert stats.lp_calls == 0
        assert design.reduced_points.shape == (200, d)

    def test_diagonal_projection_is_onto(self):
        # the projection of the square onto its diagonal covers the whole
        # interval, so nothing is ever rejected; verify the geometric fact on
        # a grid first, then check the sampler statistics
        box = Hyperrectangle.cube(2, np.pi)
        rd = build_reduced_domain(diag_subspace(), box)
        for t_val in np.linspace(rd.bounding_box.lower[0], rd.bounding_box.upper[0], 101):
            m = membership(rd, np.array([t_val]) * (1 - 1e-12))
            assert m is not MembershipKind.OUTSIDE
        _, stats = build_reduced_design(rd, 300, make_rng(46))
        assert stats.acceptance_rate == 1.0
        assert stats.draws == 300

    def test_stats_consistency_with_rejections(self):
        sub = random_subspace(12, 3, seed=47)
        box = Hyperrectangle.cube(12, 1.0)
        rd = build_reduced_domain(sub, box)
        design, stats = build_reduced_design(rd, 100, make_rng(48))
        assert stats.draws == stats.accepted + stats.rejected
        assert stats.lp_calls <= stats.draws
        assert 0.0 < stats.acceptance_rate <= 1.0
        assert design.reduced_points.shape == (100, 3)

    def test_all_accepted_satisfy_lift_invariants(self):
        sub = random_subspace(10, 2, seed=49)
        box = Hyperrectangle.cube(10, 1.0)
        rd = build_reduced_domain(sub, box)
        design, stats = build_reduced_design(rd, 150, make_rng(50))
        design.validate(sub, box)  # raises on any violated row
        np.testing.assert_allclose(
            design.lifted_points @ sub.basis_a, design.reduced_points, atol=1e-8
        )

    def test_validate_applies_the_projection_tolerance_per_row(self):
        sub = random_subspace(10, 2, seed=49)
        box = Hyperrectangle.cube(10, 1.0)
        design, _ = build_reduced_design(build_reduced_domain(sub, box), 150, make_rng(50))
        norms = np.max(np.abs(design.reduced_points), axis=1)
        far, near = np.argmax(norms), np.argmin(norms)
        miss = 0.5 * lp.projection_tolerance(design.reduced_points[far])
        assert miss > lp.projection_tolerance(design.reduced_points[near])
        for row, accepted in ((far, True), (near, False)):
            reduced = design.reduced_points.copy()
            reduced[row, 0] += miss
            shifted = ReducedDesign(reduced, design.lifted_points)
            if accepted:
                shifted.validate(sub, box)
            else:
                with pytest.raises(ValueError, match="projection consistency"):
                    shifted.validate(sub, box)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(3, 12), a=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_midpoint_convexity(self, d, a, seed):
        assume(a <= d)
        rd = build_reduced_domain(random_subspace(d, a, seed), Hyperrectangle.cube(d, 1.0))
        accepted = build_reduced_design(rd, 30, make_rng(seed, 1))[0].reduced_points
        rng = make_rng(seed, 2)
        for _ in range(40):
            i, j = rng.integers(0, len(accepted), 2)
            mid = 0.5 * (accepted[i] + accepted[j])
            assert membership(rd, mid) is not MembershipKind.OUTSIDE

    def test_deterministic_given_seed(self):
        sub = random_subspace(7, 2, seed=54)
        box = Hyperrectangle.cube(7, 1.0)
        rd = build_reduced_domain(sub, box)
        d1, s1 = build_reduced_design(rd, 80, make_rng(55))
        d2, s2 = build_reduced_design(rd, 80, make_rng(55))
        np.testing.assert_array_equal(d1.reduced_points, d2.reduced_points)
        assert s1 == s2

    def test_rejects_zero_count(self):
        rd = build_reduced_domain(diag_subspace(), Hyperrectangle.cube(2, np.pi))
        with pytest.raises(ValueError):
            build_reduced_design(rd, 0, make_rng(58))

    def test_high_dimensional_box_feasible(self):
        # the machinery stays practical at a few hundred dimensions
        sub = random_subspace(250, 5, seed=59)
        box = Hyperrectangle.cube(250, 2.0)
        rd = build_reduced_domain(sub, box)
        design, stats = build_reduced_design(rd, 10, make_rng(60))
        design.validate(sub, box)
        assert 0.0 < stats.acceptance_rate <= 1.0


class TestBackProjectionJustPastAFace:
    """A draw whose back-projection sits 5e-10 past a face lifts to a point inside the box."""

    @pytest.fixture
    def probe(self):
        model = make_pde_model(n=9, d=10)
        sub = random_subspace(10, 2, seed=61)
        rd = build_reduced_domain(sub, model.parameter_box)
        t0 = sub.basis_a.T @ np.sign(sub.basis_a[:, 0])
        t = t0 * (2.0 + 5e-10) / np.max(np.abs(sub.basis_a @ t0))
        back = sub.basis_a @ t
        assert model.parameter_box.contains(back, tol=1e-9)
        assert not model.parameter_box.contains(back, tol=4e-10)
        return model, rd, t

    def test_lift_lies_in_the_box_and_the_model_accepts_it(self, probe):
        model, rd, t = probe
        s = lift(rd, t)
        assert model.parameter_box.contains(s)
        assert np.all(np.isfinite(solve_forward(model, s)))
        assert np.max(np.abs(rd.subspace.basis_a.T @ s - t)) <= lp.projection_tolerance(t)
        assert membership(rd, t) is MembershipKind.LIFTABLE_INSIDE  # the fibre solve decides it

    def test_validate_refuses_the_back_projection(self, probe):
        model, rd, t = probe
        design = ReducedDesign(t[None, :], (rd.subspace.basis_a @ t)[None, :])
        with pytest.raises(ValueError, match="outside the full domain"):
            design.validate(rd.subspace, model.parameter_box)


class TestEntryPointsAgree:
    """`membership`, `lift` and the sampler decide every reduced point the same way."""

    @pytest.fixture
    def sampled(self):
        sub = random_subspace(10, 2, seed=61)
        rd = build_reduced_domain(sub, Hyperrectangle.cube(10, 1.0))
        design, stats = build_reduced_design(rd, 60, make_rng(62))
        return rd, design, stats

    def test_design_rows_equal_lift(self, sampled):
        rd, design, _ = sampled
        for t, s in zip(design.reduced_points, design.lifted_points):
            np.testing.assert_array_equal(lift(rd, t), s)

    def test_direct_kind_exactly_where_lift_is_back_projection(self, sampled):
        rd, design, _ = sampled
        direct = [
            np.array_equal(s, rd.subspace.basis_a @ t)
            for t, s in zip(design.reduced_points, design.lifted_points)
        ]
        kinds = [membership(rd, t) for t in design.reduced_points]
        assert [k is MembershipKind.DIRECTLY_INSIDE for k in kinds] == direct
        assert 0 < sum(direct) < len(direct)  # both paths are exercised
        assert MembershipKind.OUTSIDE not in kinds

    def test_lp_calls_count_draws_leaving_the_box(self, sampled):
        rd, _, stats = sampled
        # replay the sampler's random stream and count the back-projections
        # that miss the full domain: exactly those draws go to a facet cut
        # or, when no cut rejects them, to the LP
        rng = make_rng(62)
        bb = rd.bounding_box
        draws = [rng.uniform(bb.lower, bb.upper) for _ in range(stats.draws)]
        missed = sum(not rd.full_domain.contains(rd.subspace.basis_a @ t) for t in draws)
        assert stats.lp_calls + stats.prefilter_rejects == missed
        assert stats.prefilter_rejects > 0
        assert stats.rejected > 0


@pytest.fixture(scope="module")
def paper_subspace_a8(tmp_path_factory):
    """The detected subspace of the 250-parameter elliptic model (k=100, a=8, seed 2026)."""
    out = tmp_path_factory.mktemp("paper")
    cmd_detect(ExperimentConfig(model="pde", pde_n=33, pde_d=250, k=100, a="8", seed=2026), out)
    return read_subspace(out / "subspace.bin")


class TestNearVerticesOfThePaperSubspace:
    """Points 1e-8 inside Z's vertices are decided and lifted without raising.

    Each reaches the fibre solve's cap, so HiGHS settles it, and its polished
    vertex must pass the same projection tolerance as the design check. Exact vertices
    are left out: at d = 250 HiGHS calls their one-point fibres infeasible.
    """

    @pytest.mark.parametrize("a", [5, 8])
    def test_lifted_and_accepted(self, paper_subspace_a8, a):
        sub = truncate(paper_subspace_a8, a)
        box = Hyperrectangle.cube(250, 2.0)
        domain = build_reduced_domain(sub, box)
        Va = sub.basis_a
        rng = np.random.default_rng(0)
        for _ in range(30):
            t = (1.0 - 1e-8) * (Va.T @ (2.0 * np.sign(Va @ rng.standard_normal(a))))
            assert membership(domain, t) is MembershipKind.LIFTABLE_INSIDE
            s = lift(domain, t)
            ReducedDesign(t[None, :], s[None, :]).validate(sub, box)


class TestClassifierGuards:
    """A bad LP answer raises from every entry point instead of being counted as a rejection."""

    @staticmethod
    def _outside_box_point(box, A, t):
        return LpSolution(LpStatus.OPTIMAL, np.full(box.dimension, 10.0))

    @staticmethod
    def _just_outside_box_point(box, A, t):
        # the fibre's least-norm point with its coordinates on a face moved
        # 5e-10 past it: still well within the projection tolerance
        sol = lp.least_norm_point(box, A, t)
        if sol.status is LpStatus.INFEASIBLE:
            return sol
        s = sol.point.copy()
        s[s == box.upper] += 5e-10
        s[s == box.lower] -= 5e-10
        return LpSolution(LpStatus.OPTIMAL, s)

    @pytest.fixture
    def domain(self):
        sub = random_subspace(10, 2, seed=61)
        return build_reduced_domain(sub, Hyperrectangle.cube(10, 1.0))

    @pytest.mark.parametrize(
        "fake_lp, message",
        [
            ("_outside_box_point", "left the full domain"),
            ("_just_outside_box_point", "left the full domain"),
        ],
    )
    @pytest.mark.parametrize("entry", ["lift", "build_reduced_design"])
    def test_raises(self, domain, monkeypatch, fake_lp, message, entry):
        monkeypatch.setattr(geometry, "lp_solve", getattr(self, fake_lp))
        # a liftable point, so no facet cut keeps it from the LP: the image of
        # a full-domain point whose back-projection leaves the domain
        Va = domain.subspace.basis_a
        s = 0.9 * np.sign(Va[:, 0])
        t = Va.T @ s
        assert domain.full_domain.contains(s)
        assert not domain.full_domain.contains(Va @ t, tol=1e-9)
        with pytest.raises(RuntimeError, match=message):
            if entry == "lift":
                lift(domain, t)
            else:
                build_reduced_design(domain, 60, make_rng(62))


class TestFacetCuts:
    """The zonotope facet cuts reject only draws that the LP rejects too."""

    @staticmethod
    def _domain(d, a, seed):
        return build_reduced_domain(random_subspace(d, a, seed), Hyperrectangle.cube(d, 1.0))

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(3, 12), seed=st.integers(0, 2**16), data=st.data())
    def test_cuts_change_no_decision(self, d, seed, data):
        a = data.draw(st.integers(2, min(4, d)), label="a")
        rd = self._domain(d, a, seed)
        bare = dataclasses.replace(rd, cut_normals=np.empty((0, a)), cut_limits=np.empty(0))
        bb = rd.bounding_box
        unit = st.floats(0.0, 1.0)
        for _ in range(8):
            frac = np.array(data.draw(st.lists(unit, min_size=a, max_size=a)))
            t = bb.lower + frac * (bb.upper - bb.lower)
            kind, s, _ = geometry._classify(rd, t)
            kind_bare, s_bare, _ = geometry._classify(bare, t)
            assert kind is kind_bare
            if s is None:
                assert s_bare is None
            else:
                np.testing.assert_array_equal(s, s_bare)

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(3, 12), seed=st.integers(0, 2**16), data=st.data())
    def test_sampler_counts_the_lps_it_makes(self, d, seed, data):
        a = data.draw(st.integers(2, min(4, d)), label="a")
        rd = self._domain(d, a, seed)
        statuses = []
        fibre_solve = geometry.lp_solve

        def counting(box, A, t):
            sol = fibre_solve(box, A, t)
            statuses.append(sol.status)
            return sol

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "lp_solve", counting)
            _, stats = build_reduced_design(rd, 20, make_rng(seed))
        assert stats.lp_calls == len(statuses)
        if comb(d, a - 1) <= geometry._MAX_CUTS:
            # the cuts are the whole H-representation: only liftable draws reach the LP
            assert all(status is LpStatus.OPTIMAL for status in statuses)

    @pytest.mark.parametrize(
        "d, a, cuts",
        # all C(d, a-1) subsets while there are at most 250 of them; at a = 5
        # the 10 longest generators, as C(10, 4) = 210 <= 250 < C(11, 4);
        # none at a = 1, where the bounding box is the exact projection
        [(10, 2, 10), (250, 2, 250), (300, 2, 250), (12, 4, 220), (50, 5, 210), (6, 1, 0)],
    )
    def test_cut_count(self, d, a, cuts):
        rd = self._domain(d, a, seed=63)
        assert rd.cut_normals.shape == (cuts, a)
        assert rd.cut_limits.shape == (cuts,)
        np.testing.assert_allclose(np.linalg.norm(rd.cut_normals, axis=1), 1.0)

    DELTAS = (-1e-8, -1e-10, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7)

    def test_probes_around_facet_centres(self):
        d, a = 50, 5
        rd = build_reduced_domain(random_subspace(d, a, seed=63), Hyperrectangle.cube(d, 2.0))
        Va = rd.subspace.basis_a
        A = np.ascontiguousarray(Va.T)
        picks = make_rng(64).choice(len(rd.cut_normals), 20, replace=False)
        for u in rd.cut_normals[picks]:
            # the centre of the facet with outer normal u: every generator off
            # the facet's hyperplane at the bound that maximizes u . t, and the
            # a - 1 generators spanning it at zero
            g = Va @ u
            s_star = 2.0 * np.sign(g)
            s_star[np.argsort(np.abs(g))[: a - 1]] = 0.0
            t0 = Va.T @ s_star
            for delta in self.DELTAS:
                t = t0 + delta * u
                if not geometry._outside_cuts(rd, t):
                    assert delta < 1e-7  # the cut's slack stays below 1e-7
                    continue
                assert delta > 0
                assert _highs_fibre(rd.full_domain, A, t).status is LpStatus.INFEASIBLE


class TestFibreSolveAgreesWithHighs:
    """Every draw the sampler sends to the fibre solve on an elliptic subspace gets HiGHS's status."""

    def test_pde_subspace_design(self, tmp_path):
        # the subspace of the pde-c10 benchmark workload (d=50, k=100, a=5)
        cfg = ExperimentConfig(model="pde", pde_n=33, pde_d=50, k=100, a="5", seed=1)
        cmd_detect(cfg, tmp_path)
        sub = read_subspace(tmp_path / "subspace.bin")
        rd = build_reduced_domain(sub, Hyperrectangle.cube(50, 2.0))
        fibre_solve = geometry.lp_solve
        pairs = []

        def both(box, A, t):
            sol = fibre_solve(box, A, t)
            pairs.append((sol.status, _highs_fibre(box, A, t).status))
            return sol

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "lp_solve", both)
            _, stats = build_reduced_design(rd, 300, make_rng(65))
        assert len(pairs) == stats.lp_calls > 100
        assert [ours for ours, _ in pairs] == [highs for _, highs in pairs]
        assert LpStatus.INFEASIBLE in {ours for ours, _ in pairs}


class TestFibreSolveSeam:
    """The fibre solve settles every draw, lift and membership test here: none reaches HiGHS."""

    @pytest.fixture
    def sent_to_highs(self, monkeypatch):
        fibres = []
        highs_fibre = lp._highs_fibre

        def counting(*fibre):
            fibres.append(fibre)
            return highs_fibre(*fibre)

        monkeypatch.setattr(lp, "_highs_fibre", counting)
        return fibres

    def test_sampler_builds_no_program(self, sent_to_highs):
        rd = build_reduced_domain(random_subspace(50, 5, seed=66), Hyperrectangle.cube(50, 2.0))
        _, stats = build_reduced_design(rd, 100, make_rng(67))
        assert stats.lp_calls > 0
        assert len(sent_to_highs) == 0

    def test_lift_and_membership_build_no_program(self, sent_to_highs):
        rd = build_reduced_domain(random_subspace(50, 5, seed=66), Hyperrectangle.cube(50, 1.0))
        Va = rd.subspace.basis_a
        t = Va.T @ (0.9 * np.sign(Va[:, 0]))  # liftable, with its back-projection outside
        assert not rd.full_domain.contains(Va @ t, tol=1e-9)
        assert membership(rd, t) is MembershipKind.LIFTABLE_INSIDE
        assert rd.full_domain.contains(lift(rd, t), tol=1e-9)
        assert len(sent_to_highs) == 0
