"""The public surface: every exported name and every traced entry point
resolves, and every benchmark workload reaches the entry points its traced
run requires."""

from __future__ import annotations

import importlib
import json

import pytest

import conerad
from conerad import cli

from conftest import perfbench_module


def entry_points() -> tuple:
    return perfbench_module("tracing").ENTRY_POINTS


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


@pytest.mark.parametrize("workload", perfbench_module("workloads").WORKLOADS)
def test_workload_reaches_its_expected_entry_points(tmp_path, workload):
    # the benchmark's coverage guard: its traced run fails (exit 3) when a
    # workload's seed-1 batch records no span for an entry point it expects
    tracing, workloads = perfbench_module("tracing"), perfbench_module("workloads")
    tracer = tracing.Tracer()
    tracer.install(conerad)
    try:
        for i, op in enumerate(workloads.GENERATORS[workload](1)):
            tracer.current_op = i
            (tmp_path / f"op{i}.input.json").write_text(json.dumps(op["input"]))
            config = tmp_path / f"op{i}.config.json"
            config.write_text(json.dumps({"command": op["command"], "input": f"op{i}.input.json",
                                          "seed": 1, **op["extra"]}))
            out = str(tmp_path / f"out{i}")
            assert cli.main(["--config", str(config), "--out", out, "--quiet"]) == 0
    finally:
        tracer.uninstall()
    tracer.write(tmp_path / "spans.npz")
    assert tracing.derive(tmp_path / "spans.npz", workload)[1] == []
