"""Tests for the configuration format and the command-line pipeline."""

import dataclasses
import json
import re

import numpy as np
import pytest

from gradspace import cli
from gradspace.cli import (
    _density_agreement,
    cmd_complete,
    cmd_detect,
    cmd_sample,
    cmd_surrogate,
    main,
    read_jacobian,
    read_subspace,
    resolve_model,
    write_jacobian,
    write_subspace,
)
from gradspace.config import ConfigError, ExperimentConfig, parse_config
from gradspace.core import ActiveSubspace, Hyperrectangle, finite_difference_jacobian, truncate
from gradspace.geometry import ReducedDesign
from gradspace.models import pde
from gradspace.models.analytic import cosine_pair
from gradspace.util import make_rng, read_container, sha256_file, write_container


class TestConfigParsing:
    def test_grammar(self):
        cfg = parse_config(
            """
            # experiment setup
            model = cos37
            k = 150          # gradient samples
            a = 1
            gamma_sweep = 0.25,0.5,0.75
            seed = 9
            """
        )
        assert cfg.model == "cos37"
        assert cfg.k == 150
        assert cfg.truncation() == 1
        assert cfg.gamma_sweep == (0.25, 0.5, 0.75)
        assert cfg.seed == 9

    def test_auto_truncation_default(self):
        cfg = parse_config("model = cos2")
        assert cfg.truncation() is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("modle = cos2")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 3: key 'k' already given on line 1"):
            parse_config("k = 20\nmodel = cos2\nk = 30")

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("k = 20\nk = 30\n")
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'k'" in err and "line 2" in err and "line 1" in err
        assert not (tmp_path / "out").exists()

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("k = twelve")

    def test_bad_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            parse_config("model = mystery")

    def test_gamma_range_checked(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config("gamma_sweep = 0.5,1.5")

    def test_count_bounds_checked(self):
        with pytest.raises(ConfigError):
            parse_config("k = 0")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config("just some words")

    def test_schedule(self):
        cfg = parse_config("k = 100")
        assert cfg.schedule() == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        cfg = parse_config("k = 7\nschedule_step = 3")
        assert cfg.schedule() == [3, 6, 7]

    def test_negative_schedule_step_rejected(self):
        with pytest.raises(ConfigError, match="schedule_step must be >= 0"):
            parse_config("schedule_step = -3")

    def test_pde_truncation_bounded_by_grid(self):
        with pytest.raises(ConfigError, match="pde_d=37 exceeds the 36 cells"):
            parse_config("model = pde\npde_n = 6\npde_d = 37")
        assert parse_config("model = pde\npde_n = 6\npde_d = 36").pde_d == 36
        # the pde keys are inert for the other models
        assert parse_config("model = cos2\npde_n = 6\npde_d = 37").pde_d == 37

    def test_pde_truncation_bound_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("model = pde\npde_n = 4\npde_d = 17\n")
        assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "pde_d=17" in capsys.readouterr().err

    def test_smoothing_default_by_model(self):
        assert parse_config("model = cos2").smoothing_scale() == 0.0
        assert parse_config("model = pde").smoothing_scale() == pytest.approx(1e-6)
        assert parse_config("model = pde\nrbf_smoothing = 0").smoothing_scale() == 0.0


class TestContainers:
    def test_subspace_round_trip(self, tmp_path):
        rng = make_rng(130)
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        lam = np.sort(rng.uniform(0, 1, 6))[::-1]
        sub = truncate(ActiveSubspace(V, lam), 2)
        path = tmp_path / "subspace.bin"
        write_subspace(path, sub)
        loaded = read_subspace(path)
        header, _ = read_container(path, b"GSUB0002", "subspace", lambda h: [(6,), (6, 2)])
        assert header == {"d": 6, "a": 2}
        np.testing.assert_array_equal(loaded.basis_a, sub.basis_a)
        np.testing.assert_array_equal(loaded.eigenvalues, sub.eigenvalues)

    def test_subspace_header_without_seed_reads(self, tmp_path):
        V = np.linalg.qr(make_rng(132).standard_normal((4, 4)))[0]
        sub = ActiveSubspace(V[:, :1], np.array([4.0, 3.0, 2.0, 1.0]))
        path = tmp_path / "subspace.bin"
        arrays = [sub.eigenvalues, sub.basis_a]
        write_container(path, b"GSUB0002", {"d": 4, "a": 1}, arrays)
        loaded = read_subspace(path)
        np.testing.assert_array_equal(loaded.basis_a, sub.basis_a)
        np.testing.assert_array_equal(loaded.eigenvalues, sub.eigenvalues)

    @staticmethod
    def _write_gsub0001(path):
        # the earlier layout: eigenvalues, V_a and the complement basis V_b
        V = np.linalg.qr(make_rng(133).standard_normal((4, 4)))[0]
        header = {"d": 4, "a": 1, "seed": 7, "version": 1}
        write_container(path, b"GSUB0001", header, [np.array([4.0, 3.0, 2.0, 1.0]), V[:, :1], V[:, 1:]])

    def test_old_subspace_format_refused(self, tmp_path):
        path = tmp_path / "subspace.bin"
        self._write_gsub0001(path)
        with pytest.raises(ValueError, match=f"bad magic in {re.escape(str(path))}"):
            read_subspace(path)

    def test_sample_over_old_subspace_exits_3(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("model = cos2\nk = 20\na = 1\nn_design = 10\neval_points = 50\n")
        out = tmp_path / "out"
        assert main(["detect", "--config", str(config), "--out", str(out)]) == 0
        self._write_gsub0001(out / "subspace.bin")
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 3
        assert "[sample]" in capsys.readouterr().err

    def test_jacobian_round_trip(self, tmp_path):
        J = make_rng(131).standard_normal((5, 9))
        path = tmp_path / "jacobian.bin"
        write_jacobian(path, J)
        np.testing.assert_array_equal(read_jacobian(path), J)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_subspace(path)


class TestModelHandle:
    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(model="pde", pde_n=6, pde_d=8),
            ExperimentConfig(model="pde", pde_n=6, pde_d=8, gradient_mode="fd"),
            ExperimentConfig(model="cos2"),
            ExperimentConfig(model="cos2", gradient_mode="fd"),
        ],
        ids=["pde", "pde-fd", "cos2", "cos2-fd"],
    )
    def test_batch_equals_per_point_calls(self, cfg):
        model = resolve_model(cfg)
        points = model.domain.sample(make_rng(12), 5)
        d = model.domain.dimension

        values = model.values(points)
        assert values.shape == (5,)
        assert values.tobytes() == np.array([model.value(s) for s in points]).tobytes()

        values, J = model.values_and_grads(points)
        assert values.shape == (5,) and J.shape == (d, 5)
        for i, s in enumerate(points):
            q, g = model.value_and_grad(s)
            assert values[i].tobytes() == np.float64(q).tobytes()
            assert J[:, i].tobytes() == np.asarray(g, dtype=float).tobytes()
            if cfg.gradient_mode == "fd":  # forward differences of the value, for every model
                fd = finite_difference_jacobian(model.value, model.domain, s, cfg.fd_step)
                assert J[:, i].tobytes() == fd.tobytes()

    def test_finite_difference_gradient_costs_d_plus_one_solves(self, monkeypatch):
        model = resolve_model(ExperimentConfig(model="pde", pde_n=6, pde_d=8, gradient_mode="fd"))
        s = model.domain.sample(make_rng(13), 1)[0]
        solves = []
        solve = pde.solve_forward
        monkeypatch.setattr(pde, "solve_forward", lambda *args: solves.append(1) or solve(*args))
        q, g = model.value_and_grad(s)
        assert len(solves) == 8 + 1  # the base value is the first difference's f0
        assert np.float64(q).tobytes() == np.float64(model.value(s)).tobytes()


class TestDetect:
    def test_cosine_eigenvalue_file(self, tmp_path):
        cfg = ExperimentConfig(model="cos2", k=100, a="1", n_design=10, eval_points=10)
        files, info = cmd_detect(cfg, tmp_path, seed=5)
        lines = files["eigenvalues.csv"].read_text().strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        lam1 = float(lines[1].split(",")[1])
        lam2 = float(lines[2].split(",")[1])
        # Monte Carlo estimate of the leading eigenvalue: 4*pi^2 within ~15%
        assert abs(lam1 - 4 * np.pi**2) < 0.15 * 4 * np.pi**2
        assert lam2 < 1e-20 * lam1
        assert info["truncation"] == 1
        assert info["suggested_truncation"] == 1

    def test_convergence_rows(self, tmp_path):
        cfg = ExperimentConfig(model="cos37", k=100, a="1")
        files, _ = cmd_detect(cfg, tmp_path, seed=6)
        rows = files["convergence.csv"].read_text().strip().splitlines()
        assert rows[0] == "m,e_rel,e_abs"
        assert len(rows) - 1 == len(cfg.schedule()) - 1
        last = rows[-1].split(",")
        assert int(last[0]) == cfg.schedule()[-2]

    def test_byte_identical_rerun(self, tmp_path):
        cfg = ExperimentConfig(model="cos37", k=60, a="1")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        f1, _ = cmd_detect(cfg, out1, seed=7)
        f2, _ = cmd_detect(cfg, out2, seed=7)
        for name in f1:
            assert f1[name].read_bytes() == f2[name].read_bytes(), name

    def test_unknown_truncation_range(self, tmp_path):
        cfg = ExperimentConfig(model="cos2", k=10, a="5")
        with pytest.raises(ConfigError, match="truncation"):
            cmd_detect(cfg, tmp_path, seed=1)

    def test_truncation_range_checked_before_any_evaluation(self, tmp_path, monkeypatch):
        calls = []
        handle = resolve_model(ExperimentConfig(model="cos2"))
        spy = dataclasses.replace(
            handle,
            value=lambda s: calls.append(s) or handle.value(s),
            value_and_grad=lambda s: calls.append(s) or handle.value_and_grad(s),
        )
        monkeypatch.setattr(cli, "resolve_model", lambda cfg: spy)
        cfg = ExperimentConfig(model="cos2", k=10, a="5")
        with pytest.raises(ConfigError, match=re.escape("truncation a=5 out of range 1..2")):
            cmd_detect(cfg, tmp_path, seed=1)
        assert calls == []
        cmd_detect(dataclasses.replace(cfg, a="2"), tmp_path, seed=1)  # the spy does count
        assert len(calls) == 10


class TestComplete:
    def test_synthetic_full_reveal_recovers(self, tmp_path):
        cfg = ExperimentConfig(
            svt_synthetic=True, svt_rank=5, svt_rows=60, svt_cols=150,
            gamma_sweep=(1.0,), a="5",
        )
        files, info = cmd_complete(cfg, tmp_path, seed=8)
        rows = files["svt_error.csv"].read_text().strip().splitlines()
        gamma, err = rows[1].split(",")[:2]
        assert float(gamma) == 1.0
        assert float(err) < 1e-6
        assert info["svt_params"] == {
            "tau": 100.0, "delta": 1.0, "tol": 1e-4, "eps": 1e-6, "max_iter": 1000,
        }

    def test_requires_prior_detect(self, tmp_path):
        cfg = ExperimentConfig(gamma_sweep=(0.5,))
        with pytest.raises(ConfigError, match="prior detect"):
            cmd_complete(cfg, tmp_path, seed=9)

    def test_real_jacobian_mode(self, tmp_path):
        cfg = ExperimentConfig(model="cos37", k=80, a="1", gamma_sweep=(0.8,))
        cmd_detect(cfg, tmp_path, seed=10)
        files, _ = cmd_complete(cfg, tmp_path, seed=10)
        rows = files["svt_error.csv"].read_text().strip().splitlines()
        assert len(rows) == 2


class TestSampleAndSurrogate:
    def test_design_invariants_and_stats(self, tmp_path):
        cfg = ExperimentConfig(model="cos37", k=50, a="1", n_design=40, eval_points=100)
        cmd_detect(cfg, tmp_path, seed=11)
        files, info = cmd_sample(cfg, tmp_path, seed=11)
        stats = json.loads(files["sampler_stats.json"].read_text())
        assert stats["draws"] == stats["accepted"] + stats["rejected"]
        assert stats["lp_calls"] <= stats["draws"]
        assert info["design_size"] == 90  # original 50 + fresh 40

        data = np.loadtxt(files["design.csv"], delimiter=",", skiprows=1)
        sub = read_subspace(tmp_path / "subspace.bin")
        tf = cosine_pair(0.3, 0.7)
        design = ReducedDesign(data[:, :1], data[:, 1:3])
        design.validate(sub, tf.domain)  # lift invariants for every row
        # lifted points never exit the square
        assert np.all(np.abs(data[:, 1:3]) <= np.pi + 1e-9)

    def test_surrogate_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            model="ridge", k=60, a="1", n_design=60, eval_points=400,
            ridge_direction=(1.0, 2.0, 3.0),
        )
        cmd_detect(cfg, tmp_path, seed=12)
        cmd_sample(cfg, tmp_path, seed=12)
        files, info = cmd_surrogate(cfg, tmp_path, seed=12)
        assert set(files) == {
            "rbf_model.bin", "density_hist.csv", "error_hist.csv", "density_full.csv",
        }
        rows = files["error_hist.csv"].read_text().strip().splitlines()
        assert rows[0] == "bin_left,bin_right,count"
        assert len(rows) == 51  # header + 50 uniform bins
        data = np.array([row.split(",") for row in rows[1:]], dtype=float)
        counts, lefts = data[:, 2], data[:, 0]
        # the surrogate sits on the exact ridge coordinate: most of the error
        # mass lies below 1e-3
        below = counts[lefts < -3.0].sum()
        assert below / counts.sum() > 0.9
        assert info["median_abs_error"] < 1e-3
        assert 0 <= info["w1_to_reference"] < 1e-3  # at most the mean |error|
        assert info["spread_ratio"] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("shift", [0.0, 0.25, -3.0])
    def test_density_agreement_of_a_shifted_copy(self, shift):
        truth = make_rng(17).standard_normal(101)
        agreement = _density_agreement(make_rng(18).permutation(truth) + shift, truth)
        assert agreement["w1_to_reference"] == pytest.approx(abs(shift), abs=1e-15)
        assert agreement["spread_ratio"] == pytest.approx(1.0, rel=1e-14)
        assert _density_agreement(truth, truth)["w1_to_reference"] == 0.0

    def test_density_agreement_with_a_constant_reference(self):
        agreement = _density_agreement(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        assert agreement == {"w1_to_reference": 1.5, "spread_ratio": None}

    def test_surrogate_requires_design(self, tmp_path):
        cfg = ExperimentConfig(model="cos2", k=20, a="1")
        with pytest.raises(ConfigError, match="design"):
            cmd_surrogate(cfg, tmp_path, seed=13)

    def test_full_eval_false_skips_reference_histograms(self, tmp_path):
        cfg = ExperimentConfig(
            model="cos2", k=30, a="1", n_design=20, eval_points=80, full_eval="false",
        )
        cmd_detect(cfg, tmp_path, seed=14)
        cmd_sample(cfg, tmp_path, seed=14)
        files, info = cmd_surrogate(cfg, tmp_path, seed=14)
        assert set(files) == {"rbf_model.bin", "density_hist.csv"}
        assert not {"mean_full", "w1_to_reference", "spread_ratio"} & set(info)

    def test_finite_difference_gradient_mode(self, tmp_path):
        cfg = ExperimentConfig(model="cos2", k=40, a="1", gradient_mode="fd", fd_step=1e-6)
        files, info = cmd_detect(cfg, tmp_path, seed=15)
        assert info["truncation"] == 1
        lam1 = info["top_eigenvalues"][0]
        # finite-difference gradients reproduce the leading eigenvalue closely
        assert abs(lam1 - 4 * np.pi**2) < 0.25 * 4 * np.pi**2

    def test_finite_difference_gradient_mode_applies_to_the_elliptic_model(self, tmp_path):
        cfg = ExperimentConfig(model="pde", pde_n=6, pde_d=8, k=20, a="2")
        jacobians = []
        for mode in ("exact", "fd"):
            out = tmp_path / mode
            files, _ = cmd_detect(dataclasses.replace(cfg, gradient_mode=mode), out, seed=16)
            jacobians.append(read_jacobian(files["jacobian.bin"]))
        adjoint, fd = jacobians
        # forward differences, not the adjoint gradient under another name
        assert fd.tobytes() != adjoint.tobytes()
        np.testing.assert_allclose(fd, adjoint, rtol=1e-5, atol=1e-5 * np.abs(adjoint).max())


class TestMain:
    def test_pipeline_manifest_checksums(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "model = cos37\nk = 50\na = 1\nn_design = 30\neval_points = 200\n"
        )
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(config), "--seed", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3 and "seed" not in manifest
        for name, digest in manifest["files"].items():
            assert sha256_file(out / name) == digest, name
        assert set(manifest["stages"]) == {"detect", "sample", "surrogate"}
        env = manifest["environment"]
        assert set(env) == {
            "python", "numpy", "scipy", "lapack", "blas", "thread_env", "cpu_affinity"
        }
        assert env["numpy"] == np.__version__
        assert env["lapack"] in ("numpy", "scipy")  # the surrogate's solve ran through one
        assert set(env["blas"]) == {"numpy", "scipy"}
        assert set(env["blas"]["numpy"]) == {"name", "version"}
        assert set(env["thread_env"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
        }

    def test_paper_dimension_pipeline(self, tmp_path):
        # the paper's 250 KL parameters: HiGHS vertices on this subspace miss
        # the equality rows by up to 1e-8, which the box test used to see
        config = tmp_path / "run.cfg"
        config.write_text(
            "model = pde\npde_n = 33\npde_d = 250\nk = 100\na = 5\n"
            "n_design = 200\neval_points = 500\nfull_eval = true\n"
        )
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(config), "--seed", "2026", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            assert sha256_file(out / name) == digest, name
        assert manifest["stages"]["sample"]["sampler"]["lp_calls"] > 0
        # every lifted row lies in the box exactly, as the model's check needs
        lifted = np.loadtxt(out / "design.csv", delimiter=",", skiprows=1)[:, 5:-1]
        assert Hyperrectangle.cube(250, 2.0).contains(lifted, tol=0.0)

    def test_manifest_lists_stage_warnings(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "model = ridge\nridge_direction = 1,2,3\nk = 60\na = 1\n"
            "n_design = 60\neval_points = 400\n"
        )
        out = tmp_path / "out"
        # the warning still reaches the caller after the manifest records it
        with pytest.warns(RuntimeWarning, match="regularization floor"):
            code = main(["pipeline", "--config", str(config), "--seed", "12", "--out", str(out)])
        assert code == 0
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert stages["detect"]["warnings"] == stages["sample"]["warnings"] == []
        (warning,) = stages["surrogate"]["warnings"]
        assert warning.startswith("RuntimeWarning: training residual ")
        assert warning.endswith(
            "exceeds its bound at the regularization floor; keeping the best solution"
        )

    def test_pipeline_deterministic_csv_bytes(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model = cos2\nk = 40\na = 1\nn_design = 20\neval_points = 100\n")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["pipeline", "--config", str(config), "--seed", "4", "--out", str(out)]) == 0
            outs.append(out)
        for name in ("eigenvalues.csv", "convergence.csv", "samples.csv", "design.csv",
                     "density_hist.csv", "error_hist.csv", "density_full.csv",
                     "subspace.bin", "jacobian.bin", "rbf_model.bin"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("model = nonsense\n")
        assert main(["detect", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config_text, extra",
        [
            ("detect", "seed = -1\n", []),
            ("detect", "", ["--seed=-1"]),
            ("detect", "model = quadratic\nquad_seed = -1\n", []),
            ("complete", "svt_synthetic = true\nsvt_rank = 8\nsvt_rows = 5\nsvt_cols = 40\n", []),
            (
                "complete",
                "svt_synthetic = true\nsvt_rank = 2\nsvt_rows = 20\nsvt_cols = 40\n"
                "a = 3\ngamma_sweep = 0.9\n",
                [],
            ),
            ("pipeline", "model = ridge\nridge_direction = 0,0,0\n", []),
            ("pipeline", "model = ridge\nridge_direction =\n", []),
            ("pipeline", "rbf_shape = nan\n", []),
            ("pipeline", "model = ridge\nsvt_tau = nan\n", []),
            ("pipeline", "model = pde\npde_half_width = nan\n", []),
            ("pipeline", "model = pde\npde_half_width = inf\n", []),
            ("pipeline", "model = ridge\nridge_direction = nan,1,1\n", []),
            ("detect", "schedule_step = -3\n", []),
        ],
        ids=["negative-seed", "negative-seed-flag", "negative-quad-seed",
             "svt-rank-above-shape", "a-above-svt-rank", "zero-ridge-direction",
             "empty-ridge-direction", "nan-rbf-shape", "nan-svt-tau",
             "nan-pde-half-width", "inf-pde-half-width", "nan-ridge-direction",
             "negative-schedule-step"],
    )
    def test_inconsistent_values_exit_2(self, tmp_path, capsys, command, config_text, extra):
        config = tmp_path / "run.cfg"
        config.write_text("k = 10\nn_design = 5\neval_points = 10\n" + config_text)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out), *extra]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_inputs_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("model = cos2\n")
        out = tmp_path / "out"
        assert main(["surrogate", "--config", str(config), "--out", str(out)]) == 2

    def test_numerical_failure_exit_code_names_stage(self, tmp_path, capsys):
        # a two-point design cannot support the surrogate fit
        config = tmp_path / "run.cfg"
        config.write_text("model = cos2\nk = 1\na = 2\nn_design = 1\neval_points = 10\n")
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
        assert "[surrogate]" in capsys.readouterr().err

    def test_surrogate_over_other_dimension_exits_3(self, tmp_path, capsys):
        # detect and sample on a 3-d ridge, then a surrogate stage configured for the 2-d cos2
        ridge, cos2 = tmp_path / "ridge.cfg", tmp_path / "cos2.cfg"
        ridge.write_text("model = ridge\nridge_direction = 1,2,3\nk = 20\na = 1\nn_design = 10\n")
        cos2.write_text("model = cos2\nk = 20\na = 1\nn_design = 10\neval_points = 50\n")
        out = str(tmp_path / "out")
        for stage in ("detect", "sample"):
            assert main([stage, "--config", str(ridge), "--out", out]) == 0
        assert main(["surrogate", "--config", str(cos2), "--out", out]) == 3
        assert "[surrogate] subspace and domain dimensions differ" in capsys.readouterr().err

    def test_design_with_missing_column_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("model = cos2\nk = 20\na = 1\nn_design = 10\neval_points = 50\n")
        out = tmp_path / "out"
        for stage in ("detect", "sample"):
            assert main([stage, "--config", str(config), "--seed", "5", "--out", str(out)]) == 0
        design = out / "design.csv"
        # drop the last lifted coordinate: y_1, s_1, value remain of y_1, s_1, s_2, value
        rows = [line.split(",") for line in design.read_text().splitlines()]
        design.write_text("".join(",".join(r[:-2] + r[-1:]) + "\n" for r in rows))
        capsys.readouterr()
        assert main(["surrogate", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "[surrogate]" in err
        assert "design.csv has 3 columns, expected 4" in err

    @pytest.mark.parametrize("half_width", ["2", "0.1"])
    def test_unrepresentable_spectrum_exit_code_names_detect(self, tmp_path, capfd, half_width):
        # |D|/k times the squared gradients over- (600 dims on [-2, 2]) or
        # underflows (500 dims on [-0.1, 0.1]) float64
        dim = 600 if half_width == "2" else 500
        config = tmp_path / "run.cfg"
        config.write_text(
            f"model = quadratic\nquad_dim = {dim}\nquad_half_width = {half_width}\n"
            "k = 5\na = 1\nn_design = 5\neval_points = 10\n"
        )
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
        err = capfd.readouterr().err  # file-descriptor level: LAPACK prints there
        assert "[detect]" in err and f"d={dim}" in err
        assert "DLASCL" not in err

    def test_pipeline_writes_only_manifest_files(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "model = pde\npde_n = 6\npde_d = 8\nk = 20\na = 2\nn_design = 10\neval_points = 50\n"
        )
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        written = {p.relative_to(out).as_posix() for p in out.rglob("*")}
        assert written == {"manifest.json", *manifest["files"]}

    def test_replicates_write_suffixed_outputs(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model = cos2\nk = 30\na = 1\nn_design = 10\neval_points = 50\n")
        out = tmp_path / "out"
        code = main([
            "detect", "--config", str(config), "--out", str(out), "--replicates", "2",
        ])
        assert code == 0
        assert (out / "rep0" / "eigenvalues.csv").exists()
        assert (out / "rep1" / "eigenvalues.csv").exists()
        # replicates draw from derived streams, so their samples differ
        assert (out / "rep0" / "samples.csv").read_bytes() != (out / "rep1" / "samples.csv").read_bytes()

    def test_flags_are_the_config_the_manifest_records(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("model = cos2\nk = 30\na = 1\nseed = 8\nreplicates = 1\n")
        out = tmp_path / "out"
        argv = ["detect", "--config", str(config), "--seed", "3", "--out", str(out)]
        assert main([*argv, "--replicates", "2"]) == 0
        for rep in (0, 1):
            manifest = json.loads((out / f"rep{rep}" / "manifest.json").read_text())
            assert "seed" not in manifest
            ran = {k: manifest["config"][k] for k in ("seed", "output_dir", "replicates")}
            assert ran == {"seed": 3, "output_dir": str(out), "replicates": 2}
        # the config's own check refuses a flag, with its message and exit code
        capsys.readouterr()
        assert main([*argv, "--replicates", "0"]) == 2
        assert capsys.readouterr().err == "config error: replicates must be >= 1\n"
