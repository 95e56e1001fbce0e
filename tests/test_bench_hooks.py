"""The benchmark still measures and accepts the program.

`perfbench/traced.py` replaces module attributes of the program from outside;
a renamed attribute only shows up there as an unmeasured layer. One test
installs the hooks and fails on any name they could not find. Another runs
each benchmark workload's config under those hooks and applies the
benchmark's own output checks and per-layer accounting, so a change the
benchmark would refuse, or a layer whose calls no longer pass through a
hooked name, fails here first; a small elliptic run counts one span per
model evaluation. Another runs the set-up probe the way the
benchmark does, so a retired name or keyword it calls fails here rather than
in every `setup_s` measurement. The last runs the benchmark's own traced
command per workload, so the span dump, the report and the final JSON line
are checked end to end as well.
"""

import contextlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from gradspace import cli, completion, geometry, surrogate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (cli, completion, geometry, surrogate)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    # dunder names are left out: a run adds __warningregistry__ to a module that warns
    names = [{k: v for k, v in vars(m).items() if not k.startswith("__")} for m in MODULES]
    return names, dict(cli._STAGES)


@contextlib.contextmanager
def _traced():
    """Install the benchmark's hooks and yield their tracer; put the originals back on exit."""
    before = _snapshot()
    with pytest.MonkeyPatch.context() as mp:
        # register every attribute the hooks may replace, so the originals
        # are put back when the context closes
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if not name.startswith("__"):
                    mp.setattr(module, name, value)
        for stage, fn in list(cli._STAGES.items()):
            mp.setitem(cli._STAGES, stage, fn)

        traced = _load("traced")
        tracer = traced.Tracer("t")
        traced.install(tracer)
        yield tracer
    assert _snapshot() == before


def test_install_finds_every_hook():
    original_lp_solve = geometry.lp_solve
    with _traced() as tracer:
        assert tracer.missing == []
        assert geometry.lp_solve is not original_lp_solve  # the hooks did replace names


@pytest.mark.parametrize("seed", [5000, 5001])
@pytest.mark.parametrize("workload", ["pde-c10", "svt-sweep"])
def test_workload_passes_benchmark_checks(tmp_path, workload, seed):
    # one traced run: the program must pass the benchmark's output checks, and
    # every layer the workload expects must record spans through the hooks
    run = _load("run")
    spec = run.load_json(PERFBENCH / "spec.json")
    config = tmp_path / "run.cfg"
    run.write_config(config, spec["workloads"][workload]["config"])
    out = tmp_path / "out"
    with _traced() as tracer:
        code = cli.main(["pipeline", "--config", str(config), "--seed", str(seed), "--out", str(out)])
    assert code == 0
    result = run.check_outputs(out, spec["workloads"][workload], spec["checks"], strict=True)
    assert result["failures"] == []
    assert run.check_nesting(tracer.spans) == []
    metrics, unmeasured = run.layer_metrics(
        [{"missing": tracer.missing, "spans": tracer.spans}], spec["workloads"][workload]["layers"], {}
    )
    assert unmeasured == []
    json.dumps(metrics, allow_nan=False)  # every metric a finite number


def test_every_model_evaluation_is_spanned(tmp_path):
    # the hooks swap the model handle's per-point fields; the stages' batch
    # evaluations must go through the swapped fields, one span per point
    config = tmp_path / "run.cfg"
    config.write_text(
        "model = pde\npde_n = 6\npde_d = 8\nk = 20\na = 2\nn_design = 10\n"
        "eval_points = 50\nfull_eval = true\n"
    )
    with _traced() as tracer:
        code = cli.main(["pipeline", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 0
    names = [span["name"] for span in tracer.spans]
    assert names.count("pde.grad") == 20
    assert names.count("pde.value") == 10 + 50


@pytest.mark.parametrize("workload", ["pde-c10", "svt-sweep"])
def test_setup_probe_reports_seconds(tmp_path, workload):
    run = _load("run")
    spec = run.load_json(PERFBENCH / "spec.json")
    config = tmp_path / "run.cfg"
    run.write_config(config, spec["workloads"][workload]["config"])
    cache = tmp_path / "cache"
    cache.mkdir()
    probe = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(config), str(cache)],
        cwd=PERFBENCH.parent, env=run.child_env(), capture_output=True, text=True, timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    assert float(probe.stdout.splitlines()[-1]) > 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["pde-c10", "svt-sweep"])
def test_traced_benchmark_run_ends_in_strict_json(workload):
    # one seed, plain and traced, from the checkout root; writes only under the
    # git-ignored .bench_out/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert line["correct"] is True
    for name, metric in line["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
