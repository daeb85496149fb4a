"""Map columns of the benchmark's seed-1 linear-mix batch, counted in process.

The count is the benchmark's ``map_columns``: every ``HomogeneousMap.raw``
call adds its column count.  It does not depend on the machine, so a solver
change that costs columns fails here and not only in the benchmark.
"""

from __future__ import annotations

import json

import numpy as np

from conerad import HomogeneousMap, cli

from conftest import perfbench_module

# 1,372 with the Noda stage; 4,984 with the Anderson stage on every matrix
LINEAR_MIX_COLUMNS = 2000


def test_linear_mix_batch_columns(tmp_path, monkeypatch):
    columns = 0
    raw = HomogeneousMap.raw

    def counting(mp, x):
        nonlocal columns
        columns += x.shape[1] if np.ndim(x) == 2 else 1
        return raw(mp, x)

    monkeypatch.setattr(HomogeneousMap, "raw", counting)
    for i, op in enumerate(perfbench_module("workloads").GENERATORS["linear-mix"](1)):
        (tmp_path / f"op{i}.input.json").write_text(json.dumps(op["input"]))
        config = tmp_path / f"op{i}.config.json"
        config.write_text(json.dumps({"command": op["command"], "input": f"op{i}.input.json",
                                      "seed": 1, **op["extra"]}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path / f"out{i}"),
                         "--quiet"]) == 0
    assert columns <= LINEAR_MIX_COLUMNS, columns
