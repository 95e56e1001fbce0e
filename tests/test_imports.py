"""A run loads only the scipy subpackages it uses.

Importing gradspace loads none; the elliptic model loads scipy.linalg when
it is built. The sampler decides and lifts its draws in numpy, so a run
loads scipy.optimize only if a program reaches the fibre solve's iteration
cap. Detect completes a basis from fewer samples than dimensions in numpy
alone. Each check runs in a fresh interpreter, since this one has long since
imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"scipy.linalg", "scipy.optimize", "scipy.spatial"}


def _heavy_loaded_after(code: str) -> set[str]:
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return HEAVY & set(json.loads(run.stdout.splitlines()[-1]))


def _cli_call(tmp_path, command: str, config_text: str) -> str:
    config = tmp_path / "run.cfg"
    config.write_text(config_text)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    return f"from gradspace import cli\nassert cli.main({argv!r}) == 0"


def test_import_loads_no_scipy_subpackage():
    assert _heavy_loaded_after("from gradspace import cli") == set()


def test_completion_pipeline_loads_no_scipy_subpackage(tmp_path):
    config = (
        "model = cos2\nsvt_synthetic = true\nsvt_rows = 20\nsvt_cols = 40\nsvt_rank = 2\n"
        "gamma_sweep = 0.5,0.9\nk = 20\nn_design = 10\neval_points = 50\n"
    )
    assert _heavy_loaded_after(_cli_call(tmp_path, "pipeline", config)) == set()


def test_elliptic_detect_loads_only_scipy_linalg(tmp_path):
    config = "model = pde\npde_n = 6\npde_d = 8\nk = 20\na = 2\n"
    assert _heavy_loaded_after(_cli_call(tmp_path, "detect", config)) == {"scipy.linalg"}


def test_elliptic_pipeline_with_fibre_solves_loads_only_scipy_linalg(tmp_path):
    config = "model = pde\npde_n = 6\npde_d = 8\nk = 20\na = 3\nn_design = 20\neval_points = 50\n"
    loaded = _heavy_loaded_after(_cli_call(tmp_path, "pipeline", config))
    assert json.loads((tmp_path / "out" / "sampler_stats.json").read_text())["lp_calls"] > 0
    assert loaded == {"scipy.linalg"}


def test_analytic_detect_with_fewer_samples_than_dimensions_loads_no_scipy_subpackage(tmp_path):
    config = "model = quadratic\nquad_dim = 6\nk = 3\na = 1\n"
    assert _heavy_loaded_after(_cli_call(tmp_path, "detect", config)) == set()
