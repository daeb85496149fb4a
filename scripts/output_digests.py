"""Digest every CLI output of the benchmark batches, for byte-identity checks.

    python3 scripts/output_digests.py --src src --seed 1 > digests.json

Runs every batch operation and every known-defect probe of the four
``perfbench`` workloads once through ``conerad.cli.main``, importing the
program from ``--src``, and prints one JSON object: per operation the exit
code and the SHA-256 of each output file, plus the map columns of each
workload's batch (the benchmark's ``map_columns``).  ``manifest.json`` is
digested without its ``threads`` field, which older trees still write.
Two trees produce the same outputs when their digest files are equal,
apart from ``map_columns``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("threads", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", required=True, help="directory holding the conerad package")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(Path(args.src).resolve()))
    import workloads
    from conerad import cli
    from conerad.homog_map import HomogeneousMap

    columns = 0
    orig_raw = HomogeneousMap.raw

    def counting_raw(mp, x):
        nonlocal columns
        columns += x.shape[1] if x.ndim == 2 else 1
        return orig_raw(mp, x)

    HomogeneousMap.raw = counting_raw
    report: dict = {"seed": args.seed, "map_columns": {}, "ops": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in workloads.WORKLOADS:
            batches = (("op", workloads.GENERATORS[name](args.seed)),
                       ("defect", workloads.known_defects(name, args.seed)))
            for tag, ops in batches:
                start = columns
                for i, op in enumerate(ops):
                    key = f"{name}/{tag}{i}"
                    inp = work / f"{name}-{tag}{i}.input.json"
                    inp.write_text(json.dumps(op["input"]))
                    cfg = work / f"{name}-{tag}{i}.config.json"
                    cfg.write_text(json.dumps({"command": op["command"], "input": inp.name,
                                               "seed": args.seed, **op["extra"]}))
                    out = work / "out" / f"{name}-{tag}{i}"
                    code = cli.main(["--config", str(cfg), "--out", str(out), "--quiet"])
                    files = sorted(out.iterdir()) if out.is_dir() else []
                    report["ops"][key] = {"code": code,
                                          "files": {p.name: _digest(p) for p in files}}
                if tag == "op":
                    report["map_columns"][name] = columns - start
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
