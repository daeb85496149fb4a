"""Map columns of the benchmark's seed-1 batches, counted in process.

The count is the benchmark's ``map_columns``: every ``HomogeneousMap.raw``
call adds its column count.  It does not depend on the machine, so a solver
change that costs columns fails here and not only in the benchmark.
"""

from __future__ import annotations

import json

import numpy as np

from conerad import HomogeneousMap, cli

from conftest import perfbench_module

# 384 with Noda's ratios from its solves and brackets that close on the
# eigenvector's own ratios; 1,372 with one evaluation per solve and two
# probe columns per bracket; 4,984 with the Anderson stage on every matrix
LINEAR_MIX_COLUMNS = 500
# 230; 251 with two probe columns per bracket; 871 with the series on B^T
# and the n + 8 images B(p)
FUNCTIONAL_SERIES_COLUMNS = 240
# 284: 272 in the Anderson stage and 12 in solve_eigenvector_perturbation
# around it, the bracket closing on (v, B(v)); the benchmark's only
# Anderson traffic
TWOSEX_ASSESS_COLUMNS = 290


def batch_columns(workload, tmp_path, monkeypatch) -> int:
    """Map columns of the workload's seed-1 batch run through ``cli.main``."""
    columns = 0
    raw = HomogeneousMap.raw

    def counting(mp, x):
        nonlocal columns
        columns += x.shape[1] if np.ndim(x) == 2 else 1
        return raw(mp, x)

    monkeypatch.setattr(HomogeneousMap, "raw", counting)
    for i, op in enumerate(perfbench_module("workloads").GENERATORS[workload](1)):
        (tmp_path / f"op{i}.input.json").write_text(json.dumps(op["input"]))
        config = tmp_path / f"op{i}.config.json"
        config.write_text(json.dumps({"command": op["command"], "input": f"op{i}.input.json",
                                      "seed": 1, **op["extra"]}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path / f"out{i}"),
                         "--quiet"]) == 0
    return columns


def test_linear_mix_batch_columns(tmp_path, monkeypatch):
    columns = batch_columns("linear-mix", tmp_path, monkeypatch)
    assert columns <= LINEAR_MIX_COLUMNS, columns


def test_functional_series_batch_columns(tmp_path, monkeypatch):
    columns = batch_columns("functional-series", tmp_path, monkeypatch)
    assert columns <= FUNCTIONAL_SERIES_COLUMNS, columns


def test_twosex_assess_batch_columns(tmp_path, monkeypatch):
    columns = batch_columns("twosex-assess", tmp_path, monkeypatch)
    assert columns <= TWOSEX_ASSESS_COLUMNS, columns
