"""Benchmark of the gradspace pipeline, measured from outside the program.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each measured run spawns one `gradspace pipeline` process on a fresh output
directory and waits for it: a closed loop with one client. Runs repeat until
S seconds have passed; run i passes `--seed N*1000+i` to the program, so the
inputs follow from N alone. The program gets only the generated config and
chooses its own BLAS threading: no thread variable is set for it.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported as
medians over the runs (quality_err as their mean), after a set-up phase that
times model set-up in fresh interpreters. With `--trace 1` each seed runs once plain and once under
`traced.py`, in alternating order; the per-layer metrics come from the traced
runs and `trace.overhead_s` is the difference of the two median wall times.

Every run's outputs are checked (exit code, manifest SHA-256 of each file,
the workload's quality contract); a failed check counts into `failed`, and
any failure makes the benchmark exit with code 1. The last line of standard
output is one JSON object; the full record, with the environment, is written
to .bench_out/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
# a stuck pipeline is killed in time for the whole run to end within 180 s
RUN_TIMEOUT_S = 100.0
SETUP_PROBES = 5

STAGES = ("detect", "complete", "sample", "surrogate")
# which traced name feeds which layer: a missing name leaves its layers unmeasured
HOOK_LAYERS = {
    "cli.resolve_model": ("pde", "analytic"),
    "cli._STAGES": ("cli",),
    "geometry.lp_solve": ("lp",),
    "geometry.build_reduced_design": ("geometry",),
    "geometry.build_reduced_domain": ("geometry",),
    "cli.detect_subspace": ("core",),
    "completion.svt_complete": ("completion",),
    "surrogate.fit": ("surrogate",),
    "surrogate.predict": ("surrogate",),
    "cli.write_csv": ("util",),
    "cli.histogram_csv": ("util",),
    "cli.sha256_file": ("util",),
}
# per-layer metrics measured outside the spans, so never unmeasured
OUTSIDE_SPANS = {"cli.cpu_s", "util.bytes_written", "trace.overhead_s"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def write_config(path: Path, config: dict) -> None:
    def text(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (list, tuple)):
            return ",".join(str(x) for x in v)
        return str(v)

    path.write_text("".join(f"{k} = {text(v)}\n" for k, v in config.items()))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path) -> dict:
    """Spawn argv from the checkout root, wait for it, return exit code and usage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def failed_run(reason: str) -> dict:
    return {"failures": [reason], "quality": None, "bytes": 0, "contract": None, "work": None}


def check_outputs(out: Path, workload: dict, checks: dict, strict: bool) -> dict:
    """Verify one pipeline run.

    Returns its failures, quality figure, bytes of the manifest's files, the
    figure its quality contract bounds (`contract`) and its main work count
    (`work`: LP calls on pde, SVT iterations on svt). Without strict, the
    size-dependent contracts are not enforced.
    """
    try:
        return _check_outputs(out, workload, checks, strict)
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return failed_run(f"outputs unreadable: {exc!r}")


def _check_outputs(out: Path, workload: dict, checks: dict, strict: bool) -> dict:
    manifest = load_json(out / "manifest.json")
    failures = []
    size = 0
    for name, digest in manifest["files"].items():
        path = out / name
        if not path.exists() or sha256(path) != digest:
            failures.append(f"{name}: checksum does not match the manifest")
        else:
            size += path.stat().st_size

    if workload["quality"] == "surrogate_mae":
        surr = manifest["stages"]["surrogate"]
        quality = surr["median_abs_error"]
        work = manifest["stages"]["sample"]["sampler"]["lp_calls"]
        contract = abs(surr["mean_surrogate"] - surr["mean_full"]) / abs(surr["mean_full"])
        if strict and contract > checks["mean_rel_tol"]:
            failures.append(
                f"surrogate mean {surr['mean_surrogate']:.6g} is more than "
                f"{checks['mean_rel_tol']:.0%} from the full mean {surr['mean_full']:.6g}"
            )
    else:
        with open(out / "svt_error.csv") as f:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]
        errors = {round(r["gamma"], 6): r["subspace_error"] for r in rows}
        quality = statistics.fmean(errors.values())
        work = sum(r["iterations"] for r in rows)
        contract = errors[max(errors)]
        if not all(math.isfinite(v) for r in rows for v in r.values()):
            failures.append("svt_error.csv has a non-finite entry")
        elif strict:
            low, high = errors[min(errors)], errors[max(errors)]
            if not high < min(low, checks["svt_high_gamma_max"]):
                failures.append(
                    f"subspace error {high:.3g} at the highest gamma is not below both "
                    f"{low:.3g} (lowest gamma) and {checks['svt_high_gamma_max']:g}"
                )
    if quality is None or not math.isfinite(quality) or quality <= 0:
        failures.append(f"quality figure {quality!r} is not a positive number")
    return {"failures": failures, "quality": quality, "bytes": size, "contract": contract, "work": work}


def run_pipeline(tag: str, config: Path, seed: int, traced: bool) -> tuple[dict, Path, Path | None]:
    out = WORK / "runs" / tag
    shutil.rmtree(out, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    program = ["pipeline", "--config", str(config), "--seed", str(seed), "--out", str(out)]
    spans = None
    if traced:
        spans = out.parent / f"{tag}.spans.json"
        argv = [sys.executable, str(HERE / "traced.py"), str(spans), tag] + program
    else:
        argv = [sys.executable, "-m", "gradspace.cli"] + program
    return run_child(argv, out.parent / f"{tag}.log"), out, spans


def measure_setup(config: Path, probes: int) -> list[float]:
    """Model set-up times, each in a fresh interpreter with an empty cache dir."""
    times = []
    for i in range(probes + 1):  # the first probe also compiles bytecode: not counted
        cache = WORK / "setup_cache"
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
        log = WORK / "setup.log"
        result = run_child([sys.executable, str(HERE / "setup_probe.py"), str(config), str(cache)], log)
        if result["rc"] != 0:
            raise BenchError(f"set-up probe failed:\n{log.read_text()}")
        if i > 0:
            times.append(float(log.read_text().split()[-1]))
    shutil.rmtree(WORK / "setup_cache", ignore_errors=True)
    return times


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def _duration(span) -> float:
    return span["end"] - span["start"]


def _self_time(span, children) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered, reach = 0.0, span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return _duration(span) - covered


def check_nesting(spans: list[dict]) -> list[str]:
    by_id = {s["id"]: s for s in spans}
    bad = []
    for s in spans:
        if s["end"] < s["start"]:
            bad.append(f"span {s['id']} {s['name']} ends before it starts")
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and (
            parent is None or s["start"] < parent["start"] or s["end"] > parent["end"]
            or s["run"] != parent["run"]
        ):
            bad.append(f"span {s['id']} {s['name']} is not inside its parent")
    return bad


def run_layer_metrics(spans: list[dict]) -> dict:
    """Counts and busy times of one traced pipeline run."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def busy(*names):
        return sum(_duration(s) for n in names for s in by_name[n])

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key) or 0 for s in by_name[name])

    def self_sum(*names):
        return sum(_self_time(s, children[s["id"]]) for n in names for s in by_name[n])

    def ratio(num, den):
        return num / den if den else 0.0

    stage_names = [f"cli.{st}" for st in STAGES]
    lp_status = [s["attrs"].get("status") for s in by_name["lp.solve"]]
    draws, accepted = attr_sum("geometry.design", "draws"), attr_sum("geometry.design", "accepted")
    svt = by_name["completion.svt"]
    iterations = attr_sum("completion.svt", "iterations")
    fits = by_name["surrogate.fit"]
    m = {f"cli.{st}_s": busy(f"cli.{st}") for st in STAGES}
    m.update({
        "cli.self_s": self_sum(*stage_names),
        "pde.value_calls": count("pde.value"),
        "pde.grad_calls": count("pde.grad"),
        "pde.busy_s": busy("pde.value", "pde.grad"),
        "analytic.calls": count("analytic.value", "analytic.grad"),
        "analytic.busy_s": busy("analytic.value", "analytic.grad"),
        "lp.calls": count("lp.solve"),
        "lp.optimal": lp_status.count("OPTIMAL"),
        "lp.infeasible": lp_status.count("INFEASIBLE"),
        "lp.busy_s": busy("lp.solve"),
        "geometry.draws": draws,
        "geometry.accepted": accepted,
        "geometry.acceptance_rate": ratio(accepted, draws),
        "geometry.lp_per_accept": ratio(attr_sum("geometry.design", "lp_calls"), accepted),
        "geometry.busy_s": busy("geometry.design", "geometry.domain"),
        "geometry.self_s": self_sum("geometry.design", "geometry.domain"),
        "geometry.domain_s": busy("geometry.domain"),
        "surrogate.fit_s": busy("surrogate.fit"),
        "surrogate.fit_points": attr_sum("surrogate.fit", "points"),
        "surrogate.reg_decades": sum(
            math.log10(s["attrs"]["initial_reg"] / s["attrs"]["final_reg"])
            for s in fits if s["attrs"].get("initial_reg") and s["attrs"].get("final_reg")
        ),
        "surrogate.predict_s": busy("surrogate.predict"),
        "surrogate.predict_points": attr_sum("surrogate.predict", "points"),
        "surrogate.warnings": attr_sum("surrogate.fit", "warnings") + attr_sum("surrogate.predict", "warnings"),
        "core.detect_calls": count("core.detect"),
        "core.detect_s": busy("core.detect"),
        "completion.svt_calls": len(svt),
        "completion.svt_s": busy("completion.svt"),
        "completion.iterations": iterations,
        "completion.ms_per_iter": ratio(1000.0 * busy("completion.svt"), iterations),
        "completion.nonconverged": sum(1 for s in svt if not s["attrs"].get("converged")),
        "completion.rank_mean": ratio(sum(s["attrs"].get("rank", 0) for s in svt), len(svt)),
        "util.io_s": busy("util.write_csv", "util.histogram_csv", "util.sha256_file"),
    })
    return m


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(math.ceil(q * len(values))) - 1)]


def layer_metrics(traces: list[dict], expected: list[str], extra: dict) -> tuple[dict, list[str]]:
    """Median over traced runs of each per-run figure; per-call times pooled over runs.

    Returns (metrics, unmeasured layers). A layer is unmeasured when one of its
    traced names is missing, or when it records no call on a workload that
    expects calls; its metrics are then None, never 0.
    """
    per_run = [run_layer_metrics(t["spans"]) for t in traces]
    metrics = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
    pooled = defaultdict(list)
    for t in traces:
        for s in t["spans"]:
            pooled[s["name"]].append(1000.0 * _duration(s))
    for layer, name, label in (("pde", "pde.value", "value_ms"), ("pde", "pde.grad", "grad_ms"), ("lp", "lp.solve", "ms")):
        metrics[f"{layer}.{label}"] = _percentile(pooled[name], 0.5)
        metrics[f"{layer}.{label}_p99"] = _percentile(pooled[name], 0.99)
    metrics.update(extra)

    missing = {name for t in traces for name in t["missing"]}
    unmeasured = {layer for name in missing for layer in HOOK_LAYERS.get(name, ())}
    recorded = {s["name"].split(".")[0] for t in traces for s in t["spans"]}
    unmeasured |= set(expected) - recorded
    for name in metrics:
        if name.split(".")[0] in unmeasured and name not in OUTSIDE_SPANS:
            metrics[name] = None
    return metrics, sorted(unmeasured)


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas") or {}
        blas = {k: v for k, v in blas.items() if "directory" not in k}  # build-host paths
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = None
    try:  # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "gradspace").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "sources_sha256": sources.hexdigest(),
    }


# ---------------------------------------------------------------------------
# benchmark loop


def _summary(values: list[float]) -> str:
    return f"{len(values)} samples; min {min(values):.6g}, max {max(values):.6g}"


def bench(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    if not (SRC / "gradspace" / "cli.py").is_file():
        raise BenchError(f"no gradspace sources under {SRC}: run from the root of a source checkout")
    spec = load_json(HERE / "spec.json")
    if workload_name not in spec["workloads"]:
        raise BenchError(f"unknown workload {workload_name!r}; choose from {sorted(spec['workloads'])}")
    workload = spec["workloads"][workload_name]
    config = dict(workload["config"], **(workload["smoke"] if smoke else {}))
    WORK.mkdir(exist_ok=True)
    cfg_path = WORK / f"{workload_name}.cfg"
    write_config(cfg_path, config)

    setup = [] if trace else measure_setup(cfg_path, 1 if smoke else SETUP_PROBES)
    runs, traces = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        program_seed = seed * 1000 + i
        # in a traced pass each seed runs plain and traced, alternating which goes first
        modes = ([False, True] if i % 2 == 0 else [True, False]) if trace else [False]
        for traced in modes:
            tag = f"{workload_name}-{program_seed}-{'t' if traced else 'p'}"
            result, out, spans_path = run_pipeline(tag, cfg_path, program_seed, traced)
            if result["rc"] == 0:
                checked = check_outputs(out, workload, spec["checks"], strict=not smoke)
            else:
                checked = failed_run(f"exit code {result['rc']}")
            record = dict(result, **checked, seed=program_seed, traced=traced)
            if traced:
                if spans_path.exists():
                    trace_data = load_json(spans_path)
                    record["span_count"] = len(trace_data["spans"])
                    nesting = check_nesting(trace_data["spans"])
                    record["failures"] += nesting[:5]
                    if not record["failures"]:
                        traces.append(dict(trace_data, bytes=record["bytes"], cpu_s=result["cpu_s"]))
                    spans_path.unlink()
                else:
                    record["failures"].append("traced run wrote no spans")
            if record["failures"]:
                record["log_tail"] = (out.parent / f"{tag}.log").read_text()[-2000:]
            runs.append(record)
            shutil.rmtree(out, ignore_errors=True)
            (out.parent / f"{tag}.log").unlink(missing_ok=True)
        i += 1

    failed = sum(1 for r in runs if r["failures"])
    plain = [r for r in runs if not r["traced"] and not r["failures"]]
    metrics, unmeasured = {}, []
    if trace and traces and plain:
        traced_ok = [r for r in runs if r["traced"] and not r["failures"]]
        extra = {
            "cli.cpu_s": statistics.median(t["cpu_s"] for t in traces),
            "util.bytes_written": statistics.median(t["bytes"] for t in traces),
            "trace.overhead_s": statistics.median(r["wall_s"] for r in traced_ok)
            - statistics.median(r["wall_s"] for r in plain),
        }
        metrics, unmeasured = layer_metrics(traces, workload["layers"], extra)
    elif not trace and plain:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "quality_err": statistics.fmean(r["quality"] for r in plain),
        }
    return {
        "workload": workload_name,
        "quality": workload["quality"],
        "contract_limit": spec["checks"]["mean_rel_tol" if workload["quality"] == "surrogate_mae" else "svt_high_gamma_max"],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config": config,
        "setup_s": setup,
        "runs": runs,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "unmeasured": unmeasured,
        "environment": environment(),
    }


def report(result: dict, units: dict, names: list[str]) -> dict:
    """Print a readable summary and return the final JSON line's object."""
    runs = result["runs"]
    plain = [r for r in runs if not r["traced"] and not r["failures"]]
    print(
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['attempted']} runs, {result['failed']} failed, "
        f"fail_frac {result['failed'] / max(1, result['attempted']):.4g} ratio"
    )
    for r in runs:
        for failure in r["failures"]:
            print(f"  FAIL seed {r['seed']}{' traced' if r['traced'] else ''}: {failure}")
    detail = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": result["setup_s"],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "quality_err": [r["quality"] for r in plain],
    }
    out = {}
    for name in names:
        value = result["metrics"].get(name)
        out[name] = {"value": value, "unit": units[name]}
        label = f"{name} ({result['quality']})" if name == "quality_err" else name
        text = "unmeasured" if value is None else f"{value:.6g} {units[name]}"
        extra = f"  ({_summary(detail[name])})" if detail.get(name) and not result["trace"] else ""
        print(f"  {label:28s} {text}{extra}")
    contract = [r["contract"] for r in runs if r["contract"] is not None]
    if contract:
        what = "|mean_surrogate - mean_full| / |mean_full|" if result["quality"] == "surrogate_mae" else "error at the highest gamma"
        print(f"  contract: {what} at most {max(contract):.4g} (limit {result['contract_limit']:g})")
    if result["unmeasured"]:
        print(f"  unmeasured layers: {', '.join(result['unmeasured'])}")
    print("env: " + json.dumps(result["environment"], sort_keys=True))
    return {
        "correct": result["failed"] == 0 and bool(result["metrics"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }


def smoke() -> int:
    """Toy-size pass over every workload, plain and traced; checks the harness itself."""
    bench_file = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(HERE / "spec.json")
    problems = []
    for kind in ("end_to_end", "per_layer"):
        for m in bench_file[kind]:
            if m["name"] not in spec["metrics"]:
                problems.append(f"{m['name']} has no entry in spec.json")
    for name in spec["workloads"]:
        for trace in (False, True):
            result = bench(name, seed=0, seconds=0, trace=trace, smoke=True)
            kind = "per_layer" if trace else "end_to_end"
            for failure in (f for r in result["runs"] for f in r["failures"]):
                problems.append(f"{name} trace={int(trace)}: {failure}")
            for m in bench_file[kind]:
                value = result["metrics"].get(m["name"])
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"{name} trace={int(trace)}: {m['name']} not emitted ({value!r})")
            self_s = result["metrics"].get("cli.self_s")
            if trace and not (isinstance(self_s, (int, float)) and self_s >= 0):
                problems.append(f"{name}: cli.self_s is {self_s!r}")
            print(f"smoke {name} trace={int(trace)}: {result['attempted']} runs, {result['failed']} failed")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size self-test of the benchmark")
    args = parser.parse_args(argv)
    # a terminating signal unwinds through run_child, which stops the child first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        bench_file = load_json(ROOT / "BENCHMARK.json")
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in bench_file[kind]}
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    record = WORK / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    line = report(result, units, list(units))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
