"""Map columns of the benchmark's seed-1 batches, counted in process.

The count is the benchmark's ``map_columns``: every ``HomogeneousMap.raw``
call adds its column count.  Map applications count the user's map once,
without the ``raw`` call of ``perturb``'s wrapper around it
(``scripts/output_digests.py``'s ``map_applications``).  Neither depends on
the machine, so a solver change that costs columns fails here and not only
in the benchmark.
"""

from __future__ import annotations

import json

from conerad import HomogeneousMap, cli

from conftest import perfbench_module, script_module

# 384 with Noda's ratios from its solves and brackets that close on the
# eigenvector's own ratios; 1,372 with one evaluation per solve and two
# probe columns per bracket; 4,984 with the Anderson stage on every matrix
LINEAR_MIX_COLUMNS = 500
# 206 with the Arnoldi stage on the two-sex op's eigenvector; 230 with the
# Anderson stage there; 251 with two probe columns per bracket; 871 with
# the series on B^T and the n + 8 images B(p)
FUNCTIONAL_SERIES_COLUMNS = 210
# 124, all in solve_eigenvector_perturbation, the brackets closing on
# (v, B(v)): 112 in the Arnoldi stage, half of them perturb's wrapper, and
# B(u_hat) and B(v) per model; 68 two-sex applications.  284 and 148 with
# the Anderson stage
TWOSEX_ASSESS_COLUMNS = 130
TWOSEX_ASSESS_APPLICATIONS = 70


def batch_counts(workload, tmp_path, monkeypatch) -> dict:
    """Map columns and map applications of the workload's seed-1 batch run
    through ``cli.main``."""
    tally = {"columns": 0, "applications": 0}
    counting = script_module("output_digests").counting
    monkeypatch.setattr(HomogeneousMap, "raw", counting(HomogeneousMap.raw, tally))
    for i, op in enumerate(perfbench_module("workloads").GENERATORS[workload](1)):
        (tmp_path / f"op{i}.input.json").write_text(json.dumps(op["input"]))
        config = tmp_path / f"op{i}.config.json"
        config.write_text(json.dumps({"command": op["command"], "input": f"op{i}.input.json",
                                      "seed": 1, **op["extra"]}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path / f"out{i}"),
                         "--quiet"]) == 0
    return tally


def test_linear_mix_batch_columns(tmp_path, monkeypatch):
    columns = batch_counts("linear-mix", tmp_path, monkeypatch)["columns"]
    assert columns <= LINEAR_MIX_COLUMNS, columns


def test_functional_series_batch_columns(tmp_path, monkeypatch):
    columns = batch_counts("functional-series", tmp_path, monkeypatch)["columns"]
    assert columns <= FUNCTIONAL_SERIES_COLUMNS, columns


def test_twosex_assess_batch_columns(tmp_path, monkeypatch):
    tally = batch_counts("twosex-assess", tmp_path, monkeypatch)
    assert tally["columns"] <= TWOSEX_ASSESS_COLUMNS, tally
    assert tally["applications"] <= TWOSEX_ASSESS_APPLICATIONS, tally
