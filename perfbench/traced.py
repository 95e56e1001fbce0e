"""Run the gradspace command line with spans around the calls into each layer.

Usage: python3 perfbench/traced.py SPANS_JSON RUN_ID <gradspace arguments>

The program is unmodified: this script replaces, from outside, the module
attributes through which `gradspace.cli` reaches each layer, runs
`cli.main`, and writes the spans it kept in memory to SPANS_JSON once the
command has finished. A span is (id, name, start, end, parent, run id,
attributes); times are `time.perf_counter()` seconds.

A name that no longer exists is listed under "missing" instead of failing
the run, so the benchmark can report that layer as unmeasured.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
import warnings


class Tracer:
    """Nested spans of one process, kept in memory until `dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, on_result=None, count_warnings: bool = False):
        """Wrap fn so each call records a span; on_result(args, kwargs, result) -> attrs.

        With count_warnings, warnings raised inside the call are counted into
        the span's attributes and then re-emitted unchanged.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "run": self.run_id,
                "attrs": {},
            }
            self.spans.append(record)
            self.stack.append(record["id"])
            record["start"] = time.perf_counter()
            try:
                with warnings.catch_warnings(record=count_warnings) as caught:
                    if count_warnings:
                        warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                record["attrs"] = on_result(args, kwargs, result)
            if count_warnings:
                record["attrs"]["warnings"] = len(caught)
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, on_result=None, **options):
        """Replace module.attr by a spanning wrapper, or note it as missing."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
            return
        setattr(module, attr, self.span(name, fn, on_result, **options))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "missing": self.missing, "spans": self.spans}, f)


def _lp_attrs(args, kwargs, sol):
    return {"status": getattr(getattr(sol, "status", None), "name", "UNKNOWN")}


def _design_attrs(args, kwargs, result):
    stats = result[1]
    return {"draws": stats.draws, "accepted": stats.accepted, "lp_calls": stats.lp_calls}


def _svt_attrs(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "rank": int(result.rank),
    }


def _fit_attrs(args, kwargs, model):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    # the Gaussian kernel has unit diagonal, so the fit's trace scale is 1 and
    # the initial and final regularizations compare directly
    return {
        "points": len(args[0]),
        "initial_reg": getattr(config, "regularization", None),
        "final_reg": model.regularization,
    }


def _predict_attrs(args, kwargs, result):
    return {"points": len(result)}


def install(tracer: Tracer) -> None:
    from gradspace import cli, completion, geometry, surrogate

    resolve = getattr(cli, "resolve_model", None)
    if callable(resolve):

        def traced_resolve(*args, **kwargs):
            handle = resolve(*args, **kwargs)
            layer = "pde" if handle.name == "pde" else "analytic"
            try:
                return dataclasses.replace(
                    handle,
                    value=tracer.span(f"{layer}.value", handle.value),
                    value_and_grad=tracer.span(f"{layer}.grad", handle.value_and_grad),
                )
            except TypeError:  # no longer a dataclass with these fields
                if "cli.resolve_model" not in tracer.missing:
                    tracer.missing.append("cli.resolve_model")
                return handle

        cli.resolve_model = traced_resolve
    else:
        tracer.missing.append("cli.resolve_model")

    stages = getattr(cli, "_STAGES", None)
    if isinstance(stages, dict):
        for stage, fn in list(stages.items()):
            stages[stage] = tracer.span(f"cli.{stage}", fn)
    else:
        tracer.missing.append("cli._STAGES")

    tracer.patch(geometry, "lp_solve", "lp.solve", _lp_attrs)
    tracer.patch(geometry, "build_reduced_design", "geometry.design", _design_attrs)
    tracer.patch(geometry, "build_reduced_domain", "geometry.domain")
    tracer.patch(cli, "detect_subspace", "core.detect")
    tracer.patch(completion, "svt_complete", "completion.svt", _svt_attrs)
    tracer.patch(surrogate, "fit", "surrogate.fit", _fit_attrs, count_warnings=True)
    tracer.patch(surrogate, "predict", "surrogate.predict", _predict_attrs, count_warnings=True)
    for attr in ("write_csv", "histogram_csv", "sha256_file"):
        tracer.patch(cli, attr, f"util.{attr}")


def main(argv: list[str]) -> int:
    spans_path, run_id, program_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    install(tracer)
    from gradspace import cli

    code = 1
    try:
        code = tracer.span("run", cli.main)(program_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
