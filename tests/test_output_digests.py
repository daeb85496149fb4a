"""scripts/output_digests.py: commands and warnings recorded per operation,
and --compare's tolerances and per-command tally."""

from __future__ import annotations

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("output_digests", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _kept(root: Path, warnings: list[str] | None) -> Path:
    op = {"code": 2, "files": {}}
    if warnings is not None:
        op["warnings"] = warnings
    root.mkdir()
    (root / "digests.json").write_text(json.dumps(
        {"seed": 1, "map_columns": {"linear-mix": 10}, "ops": {"linear-mix/defect0": op}}))
    return root


@pytest.mark.parametrize("warn_a, warn_b, code", [
    (["overflow encountered in divide"], [], 0),
    (["overflow encountered in divide"], ["overflow encountered in divide"], 0),
    (None, [], 0),
    ([], ["overflow encountered in divide"], 1),
    (None, ["invalid value encountered in divide"], 1),
])
def test_compare_fails_on_a_new_warning(digests, tmp_path, capsys, warn_a, warn_b, code):
    a = _kept(tmp_path / "a", warn_a)
    b = _kept(tmp_path / "b", warn_b)
    assert digests.compare(a, b, rtol=0.0) == code
    out = capsys.readouterr().out
    for msg in (warn_a or []) + warn_b:
        assert msg in out


def _kept_result(root: Path, result: dict) -> Path:
    """A kept directory whose one operation wrote result.json = result."""
    root.mkdir()
    key = "linear-mix/op0"
    out = root / "out" / key.replace("/", "-")
    out.mkdir(parents=True)
    (out / "result.json").write_text(json.dumps(result))
    (root / "digests.json").write_text(json.dumps(
        {"seed": 1, "map_columns": {"linear-mix": 10},
         "ops": {key: {"code": 0, "files": {"result.json": "-"}, "warnings": []}}}))
    return root


@pytest.mark.parametrize("a, b, rtol, atol, code", [
    (2e-16, 2e-16, 0.0, 0.0, 0),
    # a defect near zero that moves at rounding level: relative difference 2/3
    (1e-16, 3e-16, 0.0, 0.0, 1),
    (1e-16, 3e-16, 1e-12, 0.0, 1),
    (1e-16, 3e-16, 0.0, 1e-14, 0),
    (1e-16, 3e-16, 1e-12, 1e-14, 0),
    # atol does not hide a difference above it on a value of order one
    (1.0, 1.0 + 1e-12, 0.0, 1e-14, 1),
    (1.0, 1.0 + 1e-12, 1e-11, 0.0, 0),
    # the relative tolerance is taken against the larger magnitude, so the
    # test is symmetric in the two trees, as the relative difference was
    (1.0, 2.0, 0.5, 0.0, 0),
    (2.0, 1.0, 0.5, 0.0, 0),
    (1.0, 2.0, 0.49, 0.0, 1),
    (1.0, float("inf"), 1.0, 1.0, 1),
    (float("nan"), float("nan"), 0.0, 0.0, 0),
])
def test_compare_tolerances(digests, tmp_path, capsys, a, b, rtol, atol, code):
    left = _kept_result(tmp_path / "a", {"defect": a, "ok": True})
    right = _kept_result(tmp_path / "b", {"defect": b, "ok": True})
    assert digests.compare(left, right, rtol=rtol, atol=atol) == code
    assert ("MISMATCH" in capsys.readouterr().out) == bool(code)


def test_compare_atol_keeps_non_numbers_exact(digests, tmp_path):
    left = _kept_result(tmp_path / "a", {"defect": 1e-16, "ok": True})
    right = _kept_result(tmp_path / "b", {"defect": 1e-16, "ok": False})
    assert digests.compare(left, right, rtol=1.0, atol=1.0) == 1


def test_compare_default_tolerance_is_zero(digests, tmp_path):
    left = _kept_result(tmp_path / "a", {"defect": 1e-16})
    right = _kept_result(tmp_path / "b", {"defect": 1.5e-16})
    assert digests.main(["--compare", str(left), str(right)]) == 1
    assert digests.main(["--compare", str(left), str(right), "--atol", "1e-15"]) == 0


def test_digest_records_each_command(digests, tmp_path, monkeypatch):
    import os

    from conerad.homog_map import HomogeneousMap

    fake = types.ModuleType("workloads")
    fake.WORKLOADS = ["linear-mix"]
    matrix = {"matrix": [[1.0, 0.5], [0.4, 1.0]]}
    fake.GENERATORS = {"linear-mix": lambda seed: [
        {"command": c, "input": matrix, "extra": {}} for c in ("radius", "eigen")]}
    fake.known_defects = lambda name, seed: []
    monkeypatch.setitem(sys.modules, "workloads", fake)
    # digest counts map columns by patching raw, pins BLAS threads and
    # prepends to sys.path while it runs, and restores all three on return
    raw, path = HomogeneousMap.raw, list(sys.path)
    env = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(_PATH.parent.parent / "src")
    report = digests.digest(src, 1, tmp_path / "kept")
    assert {k: op["command"] for k, op in report["ops"].items()} == {
        "linear-mix/op0": "radius", "linear-mix/op1": "eigen"}
    assert all(op["code"] == 0 for op in report["ops"].values())
    assert HomogeneousMap.raw is raw
    assert sys.path == path
    assert {var: os.environ.get(var) for var in env} == env
    # a second run in the same process counts the same columns
    again = digests.digest(src, 1, None)
    assert again["map_columns"] == report["map_columns"]
    assert report["map_columns"]["linear-mix"] > 0


def _kept_ops(root: Path, ops: dict) -> Path:
    """A kept directory with one result.json per operation: ops maps a key
    to (command, exit code, result)."""
    root.mkdir()
    entries = {}
    for key, (command, code, result) in ops.items():
        out = root / "out" / key.replace("/", "-")
        out.mkdir(parents=True)
        (out / "result.json").write_text(json.dumps(result))
        entries[key] = {"command": command, "code": code,
                        "files": {"result.json": "-"}, "warnings": []}
    (root / "digests.json").write_text(json.dumps(
        {"seed": 1, "map_columns": {"linear-mix": 10}, "ops": entries}))
    return root


def test_compare_tallies_each_command(digests, tmp_path, capsys):
    left = _kept_ops(tmp_path / "a", {
        "linear-mix/op0": ("radius", 0, {"value": 1.0}),
        "linear-mix/op1": ("eigen", 0, {"lambda": 1.0}),
        "linear-mix/op2": ("eigen", 0, {"lambda": 2.0}),
        "linear-mix/op3": ("validate", 0, {"ok": True}),
        "linear-mix/op4": ("eigen", 0, {"lambda": 3.0}),
    })
    right = _kept_ops(tmp_path / "b", {
        "linear-mix/op0": ("radius", 0, {"value": 1.0}),
        "linear-mix/op1": ("eigen", 0, {"lambda": 1.0 + 1e-13}),
        "linear-mix/op2": ("eigen", 0, {"lambda": 2.0}),
        "linear-mix/op3": ("validate", 2, {"ok": True}),
        "linear-mix/op4": ("eigen", 0, {"lambda": 3.1}),
    })
    assert digests.compare(left, right, rtol=1e-12) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4] == "compare: 2 mismatch(es) at rtol 1e-12, atol 0"
    assert lines[-3:] == [
        "command eigen: 1 identical, 1 moved within tolerance, 1 mismatched",
        "command radius: 1 identical, 0 moved within tolerance, 0 mismatched",
        "command validate: 0 identical, 0 moved within tolerance, 1 mismatched",
    ]
