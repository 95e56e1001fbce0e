"""Every name in an `__all__` of the package resolves.

A name left in `__all__` after its import is removed still imports cleanly;
only `from gradspace import *` would break on it.
"""

import importlib
import pkgutil

import gradspace


def test_every_exported_name_resolves():
    modules = [gradspace] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(gradspace.__path__, "gradspace.")
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []
