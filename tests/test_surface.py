"""The public surface: every exported name and every traced entry point resolves."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import conerad

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def entry_points() -> tuple:
    """perfbench's ENTRY_POINTS, read from its file without importing perfbench."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ENTRY_POINTS


@pytest.mark.parametrize("name", conerad.__all__)
def test_exported_name_resolves(name):
    assert hasattr(conerad, name)


@pytest.mark.parametrize("entry", entry_points())
def test_traced_entry_point_resolves(entry):
    # "module.attribute" or "module.Class.method", the method defined on the
    # class itself: the tracer wraps exactly these
    mod_name, attr = entry.split(".", 1)
    mod = importlib.import_module(f"conerad.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name))[meth])
    else:
        assert callable(getattr(mod, attr))
