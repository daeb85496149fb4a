"""Tests of the benchmark itself: seeded inputs, emitted metrics, repeatable counts.

    python3 -m pytest -q perfbench/tests        # from the repository root

The end-to-end tests run the real benchmark on linear-mix with a one-second
budget (one pass over the batch), so the module takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear-mix", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _printed(proc: subprocess.CompletedProcess) -> dict:
    """The "name value unit" lines above the result line."""
    out = {}
    for line in proc.stdout.splitlines()[:-1]:
        parts = line.split()
        try:
            out[parts[0]] = (float(parts[1]), parts[2])
        except (IndexError, ValueError):
            continue
    return out


@pytest.fixture(scope="module")
def traced_runs():
    return [_run(1), _run(1)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(workload):
    gen = workloads.GENERATORS[workload]

    def dump(seed):
        return json.dumps(gen(seed), sort_keys=True).encode()

    assert dump(5) == dump(5)
    assert dump(5) != dump(6)


def test_known_defects_are_probed_outside_the_batch():
    batch = {(op["class"], op["command"]) for op in workloads.linear_mix(5)}
    probes = {(op["class"], op["command"]) for op in workloads.known_defects("linear-mix", 5)}
    assert probes == set(workloads.DEFECT_COMMANDS.items())
    assert not batch & probes
    assert all(not workloads.known_defects(w, 5) for w in workloads.WORKLOADS if w != "linear-mix")


def test_end_to_end_metrics_are_emitted_with_units():
    proc = _run(0)
    res = _result(proc)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert "known defects: " in proc.stdout


def test_per_layer_metrics_are_emitted_with_units(traced_runs):
    res = _result(traced_runs[0])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_counts_repeat_exactly(traced_runs):
    first, second = (_result(p) for p in traced_runs)
    assert first["failed"] == second["failed"]
    for name in ("homog_map.raw.columns", "spectral.bracket.iterations", "ref_err.max"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0
    cols = [_printed(p)["map_columns"][0] for p in traced_runs]
    assert cols[0] == cols[1] > 0


def test_fails_without_the_program_source():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
