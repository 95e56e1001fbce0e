"""Tests for the reduced-space kernel interpolant."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist, pdist

from gradspace import surrogate
from gradspace.surrogate import RbfConfig, evaluate, fit, load, predict, save
from gradspace.util import make_rng, write_container

SRC = Path(__file__).resolve().parents[1] / "src"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_distances_bitwise_equal_cdist(data):
    # oracle: scipy's cdist, whose per-coordinate summation order _distances keeps
    a = data.draw(st.integers(1, 8), label="a")
    coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    rows = hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.just(a)), elements=coords)
    X, Y = data.draw(rows, label="X"), data.draw(rows, label="Y")
    # repeated rows, within X and shared between X and Y
    X = np.vstack([X, X[data.draw(st.lists(st.integers(0, len(X) - 1), max_size=20))]])
    Y = np.vstack([Y, X[data.draw(st.lists(st.integers(0, len(X) - 1), max_size=20))]])
    np.testing.assert_array_equal(surrogate._distances(X, Y), cdist(X, Y), strict=True)


class TestFit:
    def test_linear_reproduction(self):
        # oracle: the linear function itself; the polynomial tail makes linear
        # data exact regardless of the kernel configuration
        rng = make_rng(90)
        pts = rng.uniform(-1, 1, size=(30, 3))
        c, b = np.array([1.5, -2.0, 0.7]), 0.3
        model = fit(pts, pts @ c + b)
        test = rng.uniform(-1.5, 1.5, size=(200, 3))
        np.testing.assert_allclose(predict(model, test), test @ c + b, atol=1e-8)

    def test_constant_reproduction(self):
        rng = make_rng(91)
        pts = rng.uniform(0, 5, size=(12, 2))
        model = fit(pts, np.full(12, 4.25))
        test = rng.uniform(-1, 6, size=(50, 2))
        np.testing.assert_allclose(predict(model, test), 4.25, atol=1e-8)

    def test_one_dimensional_cosine(self):
        L = np.sqrt(2) * np.pi
        t = np.linspace(-L, L, 50)[:, None]
        model = fit(t, np.cos(t).ravel())
        tt = np.linspace(-L, L, 500)[:, None]
        assert np.max(np.abs(predict(model, tt) - np.cos(tt).ravel())) < 1e-4

    def test_training_residual_bound(self):
        L = np.sqrt(2) * np.pi
        t = np.linspace(-L, L, 50)[:, None]
        values = np.cos(t).ravel()
        model = fit(t, values)
        resid = np.abs(predict(model, t) - values)
        bound = max(1e-8, 10 * model.regularization * np.linalg.norm(values))
        assert np.max(resid) <= bound

    def test_weight_side_conditions(self):
        rng = make_rng(92)
        pts = rng.uniform(-2, 2, size=(40, 2))
        model = fit(pts, np.sin(pts[:, 0]) + pts[:, 1] ** 2)
        wnorm = np.linalg.norm(model.weights)
        assert abs(model.weights.sum()) <= 1e-8 * wnorm
        moments = model.weights @ model.centers
        assert np.max(np.abs(moments)) <= 1e-8 * wnorm

    def test_permutation_invariance(self):
        rng = make_rng(93)
        pts = rng.uniform(-1, 1, size=(25, 2))
        vals = np.cos(pts[:, 0]) * pts[:, 1]
        perm = rng.permutation(25)
        m1 = fit(pts, vals)
        m2 = fit(pts[perm], vals[perm])
        test = rng.uniform(-1, 1, size=(40, 2))
        np.testing.assert_allclose(predict(m1, test), predict(m2, test), atol=1e-10)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            fit(np.zeros((2, 2)), np.zeros(2))

    def test_rejects_duplicate_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="distinct"):
            fit(pts, np.arange(5.0))

    def test_smoothing_mode_keeps_regularization(self):
        rng = make_rng(94)
        pts = rng.uniform(-1, 1, size=(60, 2))
        vals = pts[:, 0] ** 2 + 0.05 * rng.standard_normal(60)
        cfg = RbfConfig(regularization=1e-4, smoothing=True)
        model = fit(pts, vals, cfg)
        K_trace_scale = 1.0  # gaussian kernel diagonal is one
        assert model.regularization == pytest.approx(1e-4 * K_trace_scale, rel=1e-6)

    def test_shape_override(self, monkeypatch):
        rng = make_rng(95)
        pts = rng.uniform(-1, 1, size=(20, 1))
        values = np.tanh(pts.ravel())
        model = fit(pts, values, RbfConfig(shape=0.5))
        assert model.shape == 0.5
        # the default: the median pairwise distance, over every stride-th
        # point when there are more than _MEDIAN_SUBSET
        assert fit(pts, values).shape == np.median(pdist(pts))
        monkeypatch.setattr(surrogate, "_MEDIAN_SUBSET", 6)
        assert fit(pts, values).shape == np.median(pdist(pts[::4]))

    @pytest.mark.filterwarnings("ignore:training residual")
    def test_default_walk_beats_stopping_at_1e_10(self):
        # svt-sweep's shape: 400 points of cos(sqrt(2) t) on [-sqrt(2) pi, sqrt(2) pi].
        # The walk down to the floor buys accuracy on held-out points, so
        # ending it sooner is not free (measured ratio 43-110 over five seeds)
        half = np.sqrt(2.0) * np.pi
        rng = make_rng(170)
        t, held_out = rng.uniform(-half, half, 400), rng.uniform(-half, half, 2000)
        f = lambda x: np.cos(np.sqrt(2.0) * x)
        errors = []
        for config in (None, RbfConfig(regularization=1e-10, smoothing=True)):
            model = fit(t[:, None], f(t), config)
            errors.append(np.median(np.abs(predict(model, held_out[:, None]) - f(held_out))))
        assert errors[0] * 10.0 <= errors[1]

    def test_conditioning_degrades_with_flatter_kernel(self):
        # diagnostic only: the narrower kernel must not be worse conditioned
        rng = make_rng(96)
        pts = rng.uniform(-1, 1, size=(30, 2))
        conds = []
        for sigma in (0.5, 2.0, 8.0):
            K = np.exp(-((cdist(pts, pts) / sigma) ** 2))
            conds.append(np.linalg.cond(K))
        assert conds[0] <= conds[1] <= conds[2]


def _five_array_fit(points, values, config):
    """Reference: the fit as it was when it held the distances, the kernel, the
    system matrix, np.eye(n) and eta * np.eye(n) at once. Returns
    (weights, poly_coeffs, shape, regularization)."""

    def solve(K, P, eta):
        n, q = P.shape
        A = np.zeros((n + q, n + q))
        A[:n, :n] = K
        A[:n, :n] += eta * np.eye(n)
        A[:n, n:] = P
        A[n:, :n] = P.T
        sol = np.linalg.solve(A, np.concatenate([values, np.zeros(q)]))
        return sol[:n], sol[n:]

    n = len(points)
    D = cdist(points, points)
    sigma = config.shape if config.shape is not None else float(np.median(pdist(points)))
    K = np.exp(-((D / sigma) ** 2))
    P = np.hstack([np.ones((n, 1)), points])
    eta = config.regularization
    w, beta = solve(K, P, eta)
    if not config.smoothing:
        value_norm = float(np.linalg.norm(values))
        best = (np.inf, w, beta, eta)
        while True:
            resid = float(np.max(np.abs(K @ w + P @ beta - values)))
            if resid < best[0]:
                best = (resid, w, beta, eta)
            if resid <= max(1e-8, 10.0 * eta * value_norm):
                break
            if eta <= surrogate._REG_FLOOR:
                _, w, beta, eta = best
                break
            eta /= 10.0
            w, beta = solve(K, P, eta)
    return w, beta, sigma, eta


class TestFitMemoryAndBytes:
    @pytest.mark.parametrize("smoothing", [False, True])
    def test_fit_holds_under_three_kernel_sized_arrays(self, smoothing):
        # the kernel, the saddle-point matrix and the solver's copy of it
        n = 600
        pts = make_rng(110).uniform(-1, 1, size=(n, 3))
        vals = np.sin(3 * pts[:, 0]) * np.cos(2 * pts[:, 2])
        tracemalloc.start()
        try:
            fit(pts, vals, RbfConfig(regularization=1e-4, smoothing=smoothing))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n * n

    @pytest.mark.parametrize("smoothing", [False, True])
    def test_warm_fit_holds_under_two_kernel_sized_arrays(self, smoothing):
        # the system matrix, with the kernel in its top-left block, and the
        # pair distances the median reads; the solver's copy is not traced
        n = 600
        pts = make_rng(110).uniform(-1, 1, size=(n, 3))
        vals = np.sin(3 * pts[:, 0]) * np.cos(2 * pts[:, 2])
        config = RbfConfig(regularization=1e-4, smoothing=smoothing)
        fit(pts, vals, config)  # warm-up
        tracemalloc.start()
        try:
            fit(pts, vals, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 8 * n * n

    def test_fit_resident_rise_under_three_system_sized_arrays(self):
        # what tracemalloc cannot see: LAPACK's copy of the system matrix.
        # Linux carries a parent's high-water mark into its child's ru_maxrss
        # at exec, so the fit runs in a grandchild of a small launcher, not
        # in a child of this (large) test process.
        pytest.importorskip("resource")
        n, a = 1500, 5
        script = f"""
import resource
import numpy as np
from gradspace.surrogate import fit
from gradspace.util import make_rng
rng = make_rng(120)
warm = rng.uniform(-1, 1, size=(50, {a}))
fit(warm, np.sin(warm[:, 0]))
pts = rng.uniform(-1, 1, size=({n}, {a}))
vals = np.sin(3 * pts[:, 0]) * np.cos(2 * pts[:, -1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
fit(pts, vals)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
        launcher = (
            "import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", launcher, script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB on Linux
        rise = int(run.stdout.splitlines()[-1]) * unit
        system = 8 * (n + a + 1) ** 2
        assert system < rise < 2.8 * system  # the system matrix itself must show

    @pytest.mark.parametrize(
        "n, subset", [(149, None), (150, None), (300, 64)], ids=["even", "odd", "strided"]
    )
    def test_median_distance_bitwise_equal_to_mask_form(self, monkeypatch, n, subset):
        if subset is not None:
            monkeypatch.setattr(surrogate, "_MEDIAN_SUBSET", subset)
        rng = make_rng(112)
        pts = rng.uniform(-1, 1, size=(n, 3))
        for D in (surrogate._distances(pts, pts), rng.uniform(0, 1, size=(n, n))):
            stride = -(-n // surrogate._MEDIAN_SUBSET)
            sub = D[::stride, ::stride]
            expected = np.median(sub[np.triu(np.ones(sub.shape, dtype=bool), 1)])
            assert surrogate._median_distance(D.copy()) == expected

    @pytest.mark.parametrize(
        "config, decades",
        [(RbfConfig(shape=0.5, regularization=1e-8), 5), (RbfConfig(regularization=1e-4, smoothing=True), 0)],
        ids=["regularization-walk", "smoothing"],
    )
    def test_fit_bitwise_equal_to_five_array_fit(self, config, decades):
        pts = make_rng(111).uniform(-1, 1, size=(150, 2))
        vals = np.sin(3 * pts[:, 0]) * np.cos(2 * pts[:, 1])
        model = fit(pts, vals, config)
        w, beta, sigma, eta = _five_array_fit(pts, vals, config)
        assert model.weights.tobytes() == w.tobytes()
        assert model.poly_coeffs.tobytes() == beta.tobytes()
        assert model.shape == sigma
        assert model.regularization == eta
        assert round(np.log10(config.regularization / eta)) == decades


class TestEvaluate:
    def test_training_point_value(self):
        rng = make_rng(97)
        pts = rng.uniform(-1, 1, size=(20, 2))
        vals = np.exp(-pts[:, 0] ** 2) * np.cos(pts[:, 1])
        model = fit(pts, vals)
        for i in (0, 7, 19):
            assert evaluate(model, pts[i]) == pytest.approx(vals[i], abs=1e-6)

    def test_far_field_approaches_linear_tail(self):
        # oracle: the tail polynomial; the kernel part decays to zero
        rng = make_rng(98)
        pts = rng.uniform(-1, 1, size=(30, 2))
        c, b = np.array([0.5, -1.0]), 2.0
        model = fit(pts, pts @ c + b + 0.1 * np.sin(3 * pts[:, 0]))
        far = np.array([50.0, -80.0])
        tail = model.poly_coeffs[0] + far @ model.poly_coeffs[1:]
        assert evaluate(model, far) == pytest.approx(tail, abs=1e-12)

    def test_predict_bitwise_equal_to_out_of_place_kernel(self):
        rng = make_rng(113)
        pts = rng.uniform(-1, 1, size=(100, 2))
        config = RbfConfig(regularization=1e-8, smoothing=True)
        model = fit(pts, np.cos(2 * pts[:, 0]) * pts[:, 1], config)
        queries = rng.uniform(-1.2, 1.2, size=(75, 2))  # two full blocks and a partial one
        expected = np.empty(len(queries))
        for i in range(0, len(queries), surrogate._BLOCK):
            block = queries[i : i + surrogate._BLOCK]
            K = np.exp(-((cdist(block, model.centers) / model.shape) ** 2))
            expected[i : i + surrogate._BLOCK] = (
                K @ model.weights + model.poly_coeffs[0] + block @ model.poly_coeffs[1:]
            )
        assert predict(model, queries).tobytes() == expected.tobytes()

    def test_rejects_non_finite_query(self):
        rng = make_rng(99)
        pts = rng.uniform(-1, 1, size=(10, 2))
        model = fit(pts, pts[:, 0])
        with pytest.raises(ValueError):
            evaluate(model, np.array([np.nan, 0.0]))


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        rng = make_rng(100)
        pts = rng.uniform(-1, 1, size=(15, 3))
        model = fit(pts, np.sin(pts @ np.array([1.0, 2.0, 3.0])))
        path = tmp_path / "model.bin"
        save(model, path)
        loaded = load(path)
        np.testing.assert_array_equal(loaded.centers, model.centers)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.poly_coeffs, model.poly_coeffs)
        assert loaded.shape == model.shape
        assert loaded.regularization == model.regularization
        test = rng.uniform(-1, 1, size=(20, 3))
        np.testing.assert_array_equal(predict(loaded, test), predict(model, test))

    def test_missing_header_key_names_path(self, tmp_path):
        path = tmp_path / "model.bin"
        arrays = [np.ones((3, 2)), np.ones(3), np.ones(3)]
        write_container(path, b"GRBF0002", {"n": 3, "a": 2}, arrays)  # no shape, no regularization
        with pytest.raises(ValueError, match=f"bad surrogate model file {re.escape(str(path))}"):
            load(path)

    def test_old_format_refused(self, tmp_path):
        # the earlier layout, whose header also carried an unread metadata dict
        path = tmp_path / "model.bin"
        header = {"n": 3, "a": 2, "shape": 1.0, "regularization": 1e-10, "metadata": {"seed": 7}}
        write_container(path, b"GRBF0001", header, [np.ones((3, 2)), np.ones(3), np.ones(3)])
        with pytest.raises(ValueError, match=f"bad magic in {re.escape(str(path))}"):
            load(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load(path)
