"""The benchmark's tracing hooks still find every name they wrap.

`perfbench/traced.py` replaces module attributes of the program from outside;
a renamed attribute only shows up there as an unmeasured layer. This test
installs the hooks and fails on any name they could not find.
"""

import importlib.util
from pathlib import Path

import pytest

from gradspace import cli, completion, geometry, surrogate

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
MODULES = (cli, completion, geometry, surrogate)


def _load_traced():
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return [dict(vars(m)) for m in MODULES], dict(cli._STAGES)


def test_install_finds_every_hook():
    before = _snapshot()
    original_lp_solve = geometry.lp_solve
    with pytest.MonkeyPatch.context() as mp:
        # register every attribute the hooks may replace, so the originals
        # are put back when the context closes
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if not name.startswith("__"):
                    mp.setattr(module, name, value)
        for stage, fn in list(cli._STAGES.items()):
            mp.setitem(cli._STAGES, stage, fn)

        traced = _load_traced()
        tracer = traced.Tracer("t")
        traced.install(tracer)
        assert tracer.missing == []
        assert geometry.lp_solve is not original_lp_solve  # the hooks did replace names
    assert _snapshot() == before
