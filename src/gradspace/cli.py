"""Command-line driver for the four-stage reduction pipeline.

Stages: `detect` samples gradients and extracts the dominant subspace;
`complete` studies low-rank recovery of the gradient matrix from partial
entries; `sample` builds a design on the reduced domain; `surrogate` fits
and evaluates the reduced-space model. `pipeline` chains them and writes a
manifest with checksums of every emitted file.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (the
failing stage is named on standard error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import completion, geometry, surrogate
from .config import ConfigError, ExperimentConfig, load_config
from .core import (
    ActiveSubspace,
    Hyperrectangle,
    JacobianSamples,
    detect_subspace,
    finite_difference_jacobian,
    subspace_distance,
    suggest_truncation,
    truncate,
)
from .models import analytic, pde
from .util import histogram_csv, make_rng, read_container, sha256_file, write_container, write_csv

__all__ = ["main", "cmd_detect", "cmd_complete", "cmd_sample", "cmd_surrogate"]

_SUBSPACE_MAGIC = b"GSUB0002"
_JACOBIAN_MAGIC = b"GJAC0001"

# independent RNG stream ids per stage
_STREAM_DETECT = 0
_STREAM_SAMPLE = 1
_STREAM_EVAL = 2
_STREAM_COMPLETE = 3
# reference-value budgets for full_eval = auto: solver-backed models get a
# tighter cap than closed-form ones
_FULL_EVAL_CAP_SOLVER = 20000
_FULL_EVAL_CAP_ANALYTIC = 200000


@dataclass(frozen=True)
class ModelHandle:
    """Uniform view of a model: domain, value, and value+gradient per point."""

    name: str
    domain: Hyperrectangle
    value: Callable[[np.ndarray], float]
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]


def resolve_model(cfg: ExperimentConfig, cache_dir: str | None = None) -> ModelHandle:
    """Build the configured model; `cache_dir` is accepted for old callers and ignored."""
    if cfg.model == "pde":
        model = pde.make_pde_model(
            n=cfg.pde_n,
            d=cfg.pde_d,
            rho=(cfg.pde_rho1, cfg.pde_rho2),
            box_half_width=cfg.pde_half_width,
        )

        def value(s):
            return pde.qoi(model, pde.solve_forward(model, s))

        def value_and_grad(s):
            g, q = pde.gradient_q(model, s, return_value=True)
            return q, g

        return ModelHandle("pde", model.parameter_box, value, value_and_grad)

    if cfg.model == "cos2":
        tf = analytic.cosine_pair(1.0, 1.0)
    elif cfg.model == "cos37":
        tf = analytic.cosine_pair(0.3, 0.7)
    elif cfg.model == "ridge":
        tf = analytic.ridge(np.array(cfg.ridge_direction), half_width=cfg.ridge_half_width)
    elif cfg.model == "quadratic":
        rng = make_rng(cfg.quad_seed, stream=986)
        A = rng.standard_normal((cfg.quad_dim, cfg.quad_dim))
        A = 0.5 * (A + A.T)
        tf = analytic.quadratic(A, half_width=cfg.quad_half_width)
    else:  # pragma: no cover - guarded by config validation
        raise ConfigError(f"unknown model '{cfg.model}'")

    if cfg.gradient_mode == "fd":
        def value_and_grad(s, tf=tf):
            return tf(s), finite_difference_jacobian(tf.f, tf.domain, s, cfg.fd_step)
    else:
        def value_and_grad(s, tf=tf):
            return tf(s), np.asarray(tf.grad(s), dtype=float)

    return ModelHandle(cfg.model, tf.domain, tf, value_and_grad)


# ---------------------------------------------------------------------------
# binary containers


def write_subspace(path, subspace: ActiveSubspace) -> None:
    header = {"d": subspace.dimension, "a": subspace.retained}
    write_container(path, _SUBSPACE_MAGIC, header, [subspace.eigenvalues, subspace.basis_a])


def read_subspace(path) -> ActiveSubspace:
    _, (lam, Va) = read_container(
        path, _SUBSPACE_MAGIC, "subspace", lambda h: [(h["d"],), (h["d"], h["a"])]
    )
    return ActiveSubspace(Va, lam)


def write_jacobian(path, J: np.ndarray) -> None:
    d, k = J.shape
    write_container(path, _JACOBIAN_MAGIC, {"d": d, "k": k, "version": 1}, [J])


def read_jacobian(path) -> np.ndarray:
    _, (J,) = read_container(
        path, _JACOBIAN_MAGIC, "gradient-matrix", lambda h: [(h["d"], h["k"])]
    )
    return J


# ---------------------------------------------------------------------------
# stages


def cmd_detect(cfg: ExperimentConfig, out: Path, seed: int, rep: int = 0):
    """Sample k gradients, extract the subspace, and write the convergence study."""
    out.mkdir(parents=True, exist_ok=True)
    model = resolve_model(cfg)
    rng = make_rng(seed, _STREAM_DETECT, rep)
    d = model.domain.dimension

    sites = model.domain.sample(rng, cfg.k)
    values = np.empty(cfg.k)
    J = np.empty((d, cfg.k))
    for i in range(cfg.k):
        values[i], J[:, i] = model.value_and_grad(sites[i])

    samples = JacobianSamples(sites, J)
    full = detect_subspace(samples, model.domain)
    suggested = suggest_truncation(full.eigenvalues)
    a = cfg.truncation() if cfg.truncation() is not None else suggested
    if not 1 <= a <= d:
        raise ConfigError(f"truncation a={a} out of range 1..{d}")
    sub = truncate(full, a)

    files = {}
    files["eigenvalues.csv"] = out / "eigenvalues.csv"
    write_csv(
        files["eigenvalues.csv"],
        ["index", "eigenvalue"],
        [(i + 1, float(v)) for i, v in enumerate(full.eigenvalues)],
    )

    files["samples.csv"] = out / "samples.csv"
    write_csv(
        files["samples.csv"],
        [f"s_{i + 1}" for i in range(d)] + ["value"],
        [tuple(sites[i]) + (values[i],) for i in range(cfg.k)],
    )

    files["jacobian.bin"] = out / "jacobian.bin"
    write_jacobian(files["jacobian.bin"], J)

    files["subspace.bin"] = out / "subspace.bin"
    write_subspace(files["subspace.bin"], sub)

    # convergence of the truncated subspace over prefixes of the sample set;
    # the largest prefix (all k samples, already solved as sub) is the reference
    schedule = cfg.schedule()
    bases = {schedule[-1]: sub.basis_a}
    for m in schedule[:-1]:
        sub_m = detect_subspace(JacobianSamples(sites[:m], J[:, :m]), model.domain)
        bases[m] = truncate(sub_m, a).basis_a
    rows = []
    for i in range(len(schedule) - 1):
        m, m_next = schedule[i], schedule[i + 1]
        rows.append(
            (
                m,
                subspace_distance(bases[m], bases[m_next]),
                subspace_distance(bases[m], bases[schedule[-1]]),
            )
        )
    files["convergence.csv"] = out / "convergence.csv"
    write_csv(files["convergence.csv"], ["m", "e_rel", "e_abs"], rows)

    info = {
        "k": cfg.k,
        "dimension": d,
        "truncation": a,
        "suggested_truncation": suggested,
        "top_eigenvalues": [float(v) for v in full.eigenvalues[: min(10, d)]],
    }
    return files, info


def _synthetic_low_rank(rows: int, cols: int, rank: int, rng) -> np.ndarray:
    """Deterministic synthetic matrix with well-separated singular values."""
    U = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    V = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    sv = np.linspace(2.0, 1.0, rank) * max(rows, cols)
    return (U * sv) @ V.T


def cmd_complete(cfg: ExperimentConfig, out: Path, seed: int, rep: int = 0):
    """Sweep the revealed-entry proportion and record subspace recovery errors."""
    out.mkdir(parents=True, exist_ok=True)
    rng = make_rng(seed, _STREAM_COMPLETE, rep)
    params = completion.SvtParams(
        tau=cfg.svt_tau,
        delta=cfg.svt_delta,
        tol=cfg.svt_tol,
        eps=cfg.svt_eps,
        max_iter=cfg.svt_max_iter,
    )
    if cfg.svt_synthetic:
        J = _synthetic_low_rank(cfg.svt_rows, cfg.svt_cols, cfg.svt_rank, rng)
        a = cfg.truncation() if cfg.truncation() is not None else cfg.svt_rank
    else:
        jac_path = out / "jacobian.bin"
        sub_path = out / "subspace.bin"
        if not (jac_path.exists() and sub_path.exists()):
            raise ConfigError(
                "completion stage needs a prior detect run (jacobian.bin and "
                "subspace.bin) or svt_synthetic = true"
            )
        J = read_jacobian(jac_path)
        sub = read_subspace(sub_path)
        a = sub.retained
    reference = np.linalg.svd(J, full_matrices=False)[0][:, :a]

    sweep = cfg.gamma_sweep if cfg.gamma_sweep else tuple(np.round(np.arange(1, 10) * 0.1, 2))
    rows = []
    for gamma in sweep:
        observed = completion.reveal_uniform(J, gamma, rng)
        result = completion.svt_complete(observed, params)
        if result.rank >= a:
            err = subspace_distance(result.left_vectors[:, :a], reference)
        else:
            err = 1.0  # not enough recovered directions to compare
        rows.append(
            (
                float(gamma),
                err,
                result.rank,
                result.iterations,
                result.residual,
                int(result.converged),
            )
        )
    files = {"svt_error.csv": out / "svt_error.csv"}
    write_csv(
        files["svt_error.csv"],
        ["gamma", "subspace_error", "rank", "iterations", "residual", "converged"],
        rows,
    )
    info = {
        "svt_params": dataclasses.asdict(params),
        "synthetic": cfg.svt_synthetic,
        "truncation": a,
    }
    return files, info


def _load_csv(path: Path, *widths: int):
    """Column blocks of the given widths, then the final value column, of a stage's CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expected = sum(widths) + 1
    if data.shape[1] != expected:
        raise ValueError(f"{path.name} has {data.shape[1]} columns, expected {expected}")
    return *np.split(data[:, :-1], np.cumsum(widths)[:-1], axis=1), data[:, -1]


def cmd_sample(cfg: ExperimentConfig, out: Path, seed: int, rep: int = 0):
    """Project the original sites and add freshly sampled reduced design points."""
    sub_path = out / "subspace.bin"
    samples_path = out / "samples.csv"
    if not (sub_path.exists() and samples_path.exists()):
        raise ConfigError("sample stage needs subspace.bin and samples.csv from detect")
    sub = read_subspace(sub_path)
    model = resolve_model(cfg)
    sites, values = _load_csv(samples_path, sub.dimension)

    domain = geometry.build_reduced_domain(sub, model.domain)
    rng = make_rng(seed, _STREAM_SAMPLE, rep)
    fresh, stats = geometry.build_reduced_design(domain, cfg.n_design, rng)
    fresh_values = np.array([model.value(s) for s in fresh.lifted_points])

    reduced = np.vstack([sites @ sub.basis_a, fresh.reduced_points])
    lifted = np.vstack([sites, fresh.lifted_points])
    all_values = np.concatenate([values, fresh_values])
    design = geometry.ReducedDesign(reduced, lifted)
    design.validate(sub, model.domain)

    a, d = sub.retained, sub.dimension
    files = {}
    files["design.csv"] = out / "design.csv"
    write_csv(
        files["design.csv"],
        [f"y_{i + 1}" for i in range(a)] + [f"s_{i + 1}" for i in range(d)] + ["value"],
        [
            tuple(reduced[i]) + tuple(lifted[i]) + (all_values[i],)
            for i in range(len(all_values))
        ],
    )
    files["sampler_stats.json"] = out / "sampler_stats.json"
    files["sampler_stats.json"].write_text(
        json.dumps(dataclasses.asdict(stats), sort_keys=True, indent=2) + "\n"
    )
    info = {"sampler": dataclasses.asdict(stats), "design_size": len(all_values)}
    return files, info


def cmd_surrogate(cfg: ExperimentConfig, out: Path, seed: int, rep: int = 0):
    """Fit the reduced-space model and write prediction/error histograms."""
    sub_path = out / "subspace.bin"
    design_path = out / "design.csv"
    if not (sub_path.exists() and design_path.exists()):
        raise ConfigError("surrogate stage needs subspace.bin and design.csv")
    sub = read_subspace(sub_path)
    model = resolve_model(cfg)
    reduced, lifted, values = _load_csv(design_path, sub.retained, sub.dimension)
    geometry.ReducedDesign(reduced, lifted).validate(sub, model.domain)

    smoothing = cfg.smoothing_scale()
    rbf_cfg = surrogate.RbfConfig(
        shape=cfg.rbf_shape if cfg.rbf_shape > 0 else None,
        regularization=smoothing if smoothing > 0 else 1e-10,
        smoothing=smoothing > 0,
    )
    surr = surrogate.fit(reduced, values, rbf_cfg)

    files = {}
    files["rbf_model.bin"] = out / "rbf_model.bin"
    surrogate.save(surr, files["rbf_model.bin"])

    rng = make_rng(seed, _STREAM_EVAL, rep)
    eval_sites = model.domain.sample(rng, cfg.eval_points)
    predictions = surrogate.predict(surr, eval_sites @ sub.basis_a)
    files["density_hist.csv"] = out / "density_hist.csv"
    histogram_csv(files["density_hist.csv"], predictions)

    if cfg.full_eval == "true":
        do_full = True
    elif cfg.full_eval == "false":
        do_full = False
    else:
        cap = _FULL_EVAL_CAP_SOLVER if model.name == "pde" else _FULL_EVAL_CAP_ANALYTIC
        do_full = cfg.eval_points <= cap
    info = {
        "fit": {
            "points": reduced.shape[0],
            "shape": surr.shape,
            "regularization": surr.regularization,
            "smoothing": smoothing,
        },
        "eval_points": cfg.eval_points,
        "mean_surrogate": float(predictions.mean()),
    }
    if do_full:
        truth = np.array([model.value(s) for s in eval_sites])
        errors = np.abs(predictions - truth)
        files["error_hist.csv"] = out / "error_hist.csv"
        histogram_csv(
            files["error_hist.csv"],
            np.log10(np.maximum(errors, np.finfo(float).tiny)),
        )
        files["density_full.csv"] = out / "density_full.csv"
        histogram_csv(files["density_full.csv"], truth)
        info["mean_full"] = float(truth.mean())
        info["median_abs_error"] = float(np.median(errors))
    return files, info


_STAGES = {
    "detect": cmd_detect,
    "complete": cmd_complete,
    "sample": cmd_sample,
    "surrogate": cmd_surrogate,
}


def _run_stage(name, cfg, out, seed, rep):
    start = time.perf_counter()
    try:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                files, info = _STAGES[name](cfg, out, seed, rep)
        finally:
            for w in caught:  # outside the recording context, so the caller's filters apply
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    except ConfigError:
        raise
    except Exception as exc:
        raise RuntimeError(f"[{name}] {exc}") from exc
    stage_warnings = [f"{w.category.__name__}: {w.message}" for w in caught]
    return files, dict(info, seconds=time.perf_counter() - start, warnings=stage_warnings)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _numeric_environment() -> dict:
    """Library builds and thread settings that decide the output bytes at roundoff level.

    numpy and scipy each bundle their own BLAS; scipy's runs the PDE solves.
    """
    blas = {}
    for lib in (np, scipy):
        build = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[lib.__name__] = {"name": build.get("name"), "version": build.get("version")}
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "cpu_affinity": None if affinity is None else sorted(affinity),
    }


def _write_manifest(out: Path, command: str, cfg, seed: int, rep: int, files, info) -> Path:
    manifest = {
        "command": command,
        "config": cfg.as_dict(),
        "environment": _numeric_environment(),
        "seed": seed,
        "replicate": rep,
        "stages": info,
        "files": {name: sha256_file(path) for name, path in sorted(files.items())},
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def run_command(command: str, cfg: ExperimentConfig, seed: int, out_dir: str, replicates: int) -> None:
    """Run one stage, or for `pipeline` detect -> (complete when requested) -> sample -> surrogate."""
    stages = [command]
    if command == "pipeline":
        complete = ["complete"] if cfg.gamma_sweep or cfg.svt_synthetic else []
        stages = ["detect", *complete, "sample", "surrogate"]
    base = Path(out_dir)
    for rep in range(replicates):
        out = base if replicates == 1 else base / f"rep{rep}"
        out.mkdir(parents=True, exist_ok=True)
        files, info = {}, {}
        for name in stages:
            stage_files, info[name] = _run_stage(name, cfg, out, seed, rep)
            files.update(stage_files)
        _write_manifest(out, command, cfg, seed, rep, files, info)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradspace",
        description="Detect dominant input directions and build reduced surrogates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("detect", "complete", "sample", "surrogate", "pipeline"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--replicates", type=int, help="rerun with derived outputs per replicate")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg.validate()
        seed = args.seed if args.seed is not None else cfg.seed
        if seed < 0:
            raise ConfigError("seed must be >= 0")
        out_dir = args.out if args.out is not None else cfg.output_dir
        replicates = args.replicates if args.replicates is not None else cfg.replicates
        if replicates < 1:
            raise ConfigError("replicates must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        run_command(args.command, cfg, seed, out_dir, replicates)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical or I/O failure inside a stage
        print(f"stage {args.command} failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
