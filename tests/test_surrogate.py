"""Tests for the reduced-space kernel interpolant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist, pdist

from gradspace import surrogate
from gradspace.surrogate import RbfConfig, evaluate, fit, load, predict, save
from gradspace.util import make_rng


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

    def test_conditioning_degrades_with_flatter_kernel(self):
        # diagnostic only: the narrower kernel must not be worse conditioned
        rng = make_rng(96)
        pts = rng.uniform(-1, 1, size=(30, 2))
        conds = []
        for sigma in (0.5, 2.0, 8.0):
            K = np.exp(-((cdist(pts, pts) / sigma) ** 2))
            conds.append(np.linalg.cond(K))
        assert conds[0] <= conds[1] <= conds[2]


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

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load(path)
