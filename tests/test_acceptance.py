"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Statistical checks use frozen seeds; the tolerances
are the contract, not tunable knobs.
"""

import json
import time
import warnings
from contextlib import contextmanager
from itertools import combinations, product

import numpy as np
import pytest

from gradspace.cli import run_command
from gradspace.completion import SvtParams, reveal_uniform, svt_complete
from gradspace.config import ExperimentConfig
from gradspace.core import (
    ActiveSubspace,
    Hyperrectangle,
    JacobianSamples,
    detect_subspace,
    subspace_distance,
    truncate,
)
from gradspace.geometry import (
    MembershipKind,
    build_reduced_design,
    build_reduced_domain,
    membership,
)
from gradspace.lp import LpStatus, least_norm_point
from gradspace.models.pde import gradient_q, make_pde_model
from gradspace.util import make_rng, sha256_file

SQ2 = np.sqrt(2.0) / 2.0


@contextmanager
def report(num, name):
    start = time.perf_counter()
    elapsed = lambda: time.perf_counter() - start
    ok = False
    try:
        yield elapsed
        ok = True
    finally:
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed():.1f}s)")


@pytest.fixture(scope="module")
def pde_setup():
    """Shared desk-scale model with 500 gradient samples (criteria 5, 7, 8)."""
    model = make_pde_model(n=33, d=50, rho=(1.0, 0.05))
    rng = make_rng(2026, stream=500)
    sites = model.parameter_box.sample(rng, 500)
    J = np.column_stack([gradient_q(model, s)[0] for s in sites])
    return model, sites, J


def test_c01_cosine_analytic_check():
    with report(1, "cosine analytic check") as elapsed:
        box = Hyperrectangle.cube(2, np.pi)
        rng = make_rng(2026, stream=1)
        pts = box.sample(rng, 20000)
        J = -np.sin(pts[:, 0] + pts[:, 1])[None, :] * np.ones((2, 1))
        samples = JacobianSamples(pts, J)
        C = (np.prod(box.upper - box.lower) / 20000) * (J @ J.T)
        np.testing.assert_allclose(C, 2 * np.pi**2 * np.ones((2, 2)), rtol=0.05)
        sub = detect_subspace(samples, box)
        lam1, lam2 = sub.eigenvalues
        assert abs(lam1 - 4 * np.pi**2) <= 0.05 * 4 * np.pi**2
        assert lam2 <= 0.05 * 4 * np.pi**2  # exact zero after clamping in practice
        dist = subspace_distance(sub.basis_a[:, :1], np.array([[SQ2], [SQ2]]))
        assert dist < 1e-2
        assert elapsed() < 5.0


def test_c02_ridge_rank_one():
    with report(2, "ridge functions are rank one") as elapsed:
        rng = make_rng(2026, stream=2)
        box = Hyperrectangle.cube(10, 1.0)
        profiles = [
            (np.sin, np.cos),
            (np.tanh, lambda t: 1.0 / np.cosh(t) ** 2),
            (lambda t: np.exp(0.3 * t), lambda t: 0.3 * np.exp(0.3 * t)),
        ]
        for trial in range(20):
            a = rng.standard_normal(10)
            _, deriv = profiles[trial % len(profiles)]
            pts = box.sample(rng, 50)
            J = np.outer(a, deriv(pts @ a))
            sub = detect_subspace(JacobianSamples(pts, J), box)
            lam = sub.eigenvalues
            assert lam[1] / lam[0] < 1e-20
            direction = (a / np.linalg.norm(a))[:, None]
            assert subspace_distance(sub.basis_a[:, :1], direction) < 1e-8
        assert elapsed() < 5.0


def test_c03_quadratic_oracle():
    with report(3, "quadratic second-moment oracle") as elapsed:
        # frozen seed: the 0.05 tolerance is a statistical bound whose constant
        # scales with the gap between the second and third eigenvalue of A^2,
        # and some random draws land near-degenerate
        rng = make_rng(2026, stream=5)
        d, k = 6, 50000
        box = Hyperrectangle.cube(d, 1.0)
        for _ in range(10):
            A = rng.standard_normal((d, d))
            A = 0.5 * (A + A.T)
            pts = box.sample(rng, k)
            sub = detect_subspace(JacobianSamples(pts, A @ pts.T), box)
            # brute-force oracle: C = A M A with M = (2^d / 3) I on the cube
            C = A @ ((2.0**d / 3.0) * np.eye(d)) @ A
            w, V = np.linalg.eigh(C)
            top2 = V[:, np.argsort(w)[::-1][:2]]
            assert subspace_distance(sub.basis_a[:, :2], top2) < 0.05
        assert elapsed() < 30.0


def test_c04_rms_identity():
    with report(4, "mean squared directional derivative identity") as elapsed:
        rng = make_rng(2026, stream=4)
        n = 20000
        sinc = lambda x: np.sinc(x / np.pi)  # sin(x)/x

        cases = []
        # both cosines: gradient -sin(w.s) * w, eigenvector w/|w|, and the
        # analytic mean of sin^2 over the centered square
        for w1, w2 in ((1.0, 1.0), (0.3, 0.7)):
            w = np.array([w1, w2])
            box = Hyperrectangle.cube(2, np.pi)
            mean_sin2 = 0.5 * (1.0 - sinc(2 * w1 * np.pi) * sinc(2 * w2 * np.pi))
            v1 = w / np.linalg.norm(w)
            v2 = np.array([-v1[1], v1[0]])
            grad = lambda pts, w=w: -np.sin(pts @ w)[:, None] * w
            cases.append((box, grad, v1, float(w @ w) * mean_sin2))
            cases.append((box, grad, v2, 0.0))
        # ridge with sine profile: mean of cos^2 over the cube factorizes
        a = np.array([0.8, -0.5, 1.2])
        box3 = Hyperrectangle.cube(3, 1.0)
        mean_cos2 = 0.5 * (1.0 + np.prod([sinc(2 * ai) for ai in a]))
        cases.append(
            (box3, lambda pts: np.cos(pts @ a)[:, None] * a, a / np.linalg.norm(a),
             float(a @ a) * mean_cos2)
        )
        # quadratic: directional second moments are eigenvalue^2 / 3
        A = rng.standard_normal((4, 4))
        A = 0.5 * (A + A.T)
        box4 = Hyperrectangle.cube(4, 1.0)
        w_eig, V_eig = np.linalg.eigh(A)
        order = np.argsort(np.abs(w_eig))[::-1]
        for idx in order:
            cases.append(
                (box4, lambda pts, A=A: pts @ A, V_eig[:, idx], float(w_eig[idx] ** 2) / 3.0)
            )

        for box, grad_fn, v, target in cases:
            pts = box.sample(rng, n)
            sq = (grad_fn(pts) @ v) ** 2
            stderr = sq.std(ddof=1) / np.sqrt(n)
            assert abs(sq.mean() - target) <= 3 * stderr + 1e-30
        assert elapsed() < 30.0


def test_c05_adjoint_correctness(pde_setup):
    with report(5, "adjoint gradient vs central differences") as elapsed:
        model, _, _ = pde_setup
        from gradspace.models.pde import qoi, solve_forward

        rng = make_rng(2026, stream=5)
        h = 1e-5
        for _ in range(10):
            s = rng.uniform(-1.98, 1.98, 50)
            grad, _ = gradient_q(model, s)
            fd = np.empty(50)
            for i in range(50):
                sp, sm = s.copy(), s.copy()
                sp[i] += h
                sm[i] -= h
                fd[i] = (
                    qoi(model, solve_forward(model, sp))
                    - qoi(model, solve_forward(model, sm))
                ) / (2 * h)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4
        assert elapsed() < 120.0


def test_c06_svt_recovery_curve():
    with report(6, "thresholding recovery curve") as elapsed:
        rng = make_rng(2026, stream=6)
        d, k, rank = 100, 400, 5
        U0 = np.linalg.qr(rng.standard_normal((d, rank)))[0]
        V0 = np.linalg.qr(rng.standard_normal((k, rank)))[0]
        J = (U0 * np.linspace(800.0, 400.0, rank)) @ V0.T
        truth = np.linalg.svd(J, full_matrices=False)[0][:, :rank]
        params = SvtParams(tau=100.0, delta=1.0, tol=1e-4, eps=1e-6, max_iter=1000)
        errors = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for gamma in np.round(np.arange(1, 10) * 0.1, 2):
                observed = reveal_uniform(J, float(gamma), rng)
                result = svt_complete(observed, params)
                if result.rank >= rank:
                    errors[gamma] = subspace_distance(result.left_vectors[:, :rank], truth)
                else:
                    errors[gamma] = 1.0
        assert errors[0.9] < errors[0.1]
        assert errors[0.9] < 1e-2
        assert elapsed() < 120.0


def test_c07_subspace_convergence(pde_setup):
    with report(7, "subspace convergence in the sample count") as elapsed:
        model, sites, J = pde_setup
        schedule = list(range(50, 501, 50))
        bases = {}
        for m in schedule:
            sub_m = detect_subspace(
                JacobianSamples(sites[:m], J[:, :m]), model.parameter_box
            )
            bases[m] = truncate(sub_m, 5).basis_a
        reference = bases[500]
        e_abs = {m: subspace_distance(bases[m], reference) for m in schedule}
        assert e_abs[500] < e_abs[50]
        assert elapsed() < 300.0


def test_c08_faster_than_expansion_decay(pde_setup):
    with report(8, "output spectrum decays faster than the input expansion") as elapsed:
        model, _, J = pde_setup
        sv = np.linalg.svd(J, compute_uv=False)
        kl_sv = np.sqrt(model.kl.eigenvalues)
        assert sv[4] / sv[0] < kl_sv[4] / kl_sv[0]
        assert elapsed() < 180.0


def test_c09_sampler_soundness():
    with report(9, "sampler lift revalidation and convexity") as elapsed:
        rng_basis = make_rng(2026, stream=9)
        V = np.linalg.qr(rng_basis.standard_normal((20, 20)))[0]
        lam = np.sort(rng_basis.uniform(0, 1, 20))[::-1]
        sub = truncate(ActiveSubspace(V, lam), 4)
        box = Hyperrectangle.cube(20, 1.0)
        domain = build_reduced_domain(sub, box)

        design, stats = build_reduced_design(domain, 300, make_rng(2026, stream=90))
        # 100% of accepted samples revalidate
        assert np.all(design.lifted_points >= box.lower - 1e-9)
        assert np.all(design.lifted_points <= box.upper + 1e-9)
        proj = design.lifted_points @ sub.basis_a
        assert np.max(np.abs(proj - design.reduced_points)) <= 1e-8
        assert stats.draws == stats.accepted + stats.rejected

        rng_pairs = make_rng(2026, stream=91)
        pts = design.reduced_points
        for _ in range(100):
            i, j = rng_pairs.integers(0, len(pts), 2)
            mid = 0.5 * (pts[i] + pts[j])
            assert membership(domain, mid) is not MembershipKind.OUTSIDE
        assert elapsed() < 60.0


def test_c10_end_to_end_density(tmp_path):
    with report(10, "end-to-end surrogate density") as elapsed:
        out = tmp_path / "run"
        cfg = ExperimentConfig(
            model="pde",
            k=500,
            a="5",
            n_design=1500,
            eval_points=10000,
            seed=2026,
            output_dir=str(out),
            pde_n=33,
            pde_d=50,
        )
        run_command("pipeline", cfg)

        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            assert sha256_file(out / name) == digest, name
        for required in ("error_hist.csv", "density_hist.csv", "density_full.csv"):
            assert required in manifest["files"]

        surro = manifest["stages"]["surrogate"]
        mean_surr, mean_full = surro["mean_surrogate"], surro["mean_full"]
        assert abs(mean_surr - mean_full) <= 0.02 * abs(mean_full)
        assert elapsed() < 600.0


def test_c11_lp_oracle():
    with report(11, "fibre solve vs brute-force enumeration") as elapsed:
        rng = make_rng(2026, stream=11)

        def enumerate_vertices(A, r, box):
            a, d = A.shape
            verts = []
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
                    if box.contains(s, tol=1e-9):
                        verts.append(s)
            return verts

        statuses = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
        for _ in range(200):
            d = int(rng.integers(2, 7))
            a = int(rng.integers(1, 3))
            box = Hyperrectangle(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d))
            A = rng.standard_normal((a, d))
            if rng.random() < 0.5:
                r = A @ box.sample(rng, 1)[0]
            else:
                r = rng.uniform(-4.0, 4.0, a)
            rng.standard_normal(d)  # unused: keeps the later programs of this stream unchanged
            verts = enumerate_vertices(A, r, box)
            sol = least_norm_point(box, A, r)
            if verts:
                assert sol.status is LpStatus.OPTIMAL
                assert box.contains(sol.point, tol=0.0)
                resid = np.max(np.abs(A @ sol.point - r))
                assert resid <= 1e-12 * (1.0 + np.linalg.norm(r))
                # the least-norm point of the fibre: no vertex is shorter
                shortest = np.linalg.norm(sol.point)
                assert all(np.linalg.norm(v) >= shortest - 1e-12 for v in verts)
            else:
                assert sol.status is LpStatus.INFEASIBLE
            statuses[sol.status] += 1
        assert statuses[LpStatus.OPTIMAL] >= 50
        assert statuses[LpStatus.INFEASIBLE] >= 20
        assert elapsed() < 30.0
