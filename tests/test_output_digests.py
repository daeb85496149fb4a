"""scripts/output_digests.py --compare: warnings recorded per operation."""

from __future__ import annotations

import importlib.util
import json
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
