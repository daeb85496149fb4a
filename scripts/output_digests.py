"""Digest and compare every CLI output of the benchmark batches.

    python3 scripts/output_digests.py --src src --seed 1 [--keep DIR] > digests.json
    python3 scripts/output_digests.py --compare DIR_A DIR_B --rtol 1e-12 [--atol 1e-14]

The first form runs every batch operation and every known-defect probe of
the four ``perfbench`` workloads once through ``conerad.cli.main``,
importing the program from ``--src``, and prints one JSON object: per
operation its command, the exit code, the SHA-256 of each output file and
the distinct ``RuntimeWarning`` messages the operation raised, plus the map
columns of each workload's batch (the benchmark's ``map_columns``).
``manifest.json`` is digested without its ``threads`` and ``versions.blas``
fields, which only some trees write.  Two trees produce the same outputs
when their digest files are equal, apart from ``map_columns``.  With
``--keep DIR`` the output files and the digest object are also written to
``DIR`` (``DIR/digests.json``, ``DIR/out/<workload>-<op>/``).

The second form compares two kept directories.  For each operation it
reports whether the exit codes match and, for each output file, whether it
is byte-identical (manifests without the fields above) or else the largest
relative difference over its JSON numbers or CSV cells, and it lists the
warnings of both sides.  Two numbers a, b match when
|a - b| <= atol + rtol * max(|a|, |b|); both tolerances default to 0, and
``--atol`` keeps values near zero that move at rounding level from showing
as relative differences of order 1.  It exits 1 on an exit-code mismatch, a
missing file, a difference in anything but numbers, a number out of
tolerance, or a warning that only ``DIR_B`` raised.  It ends with one line
per command that counts its operations in three classes: identical (every
file byte-identical), moved (some numbers differ, all within tolerance) and
mismatched.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _manifest(data: bytes) -> bytes:
    manifest = json.loads(data)
    manifest.pop("threads", None)
    manifest.get("versions", {}).pop("blas", None)
    return json.dumps(manifest, sort_keys=True).encode()


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = _manifest(data)
    return hashlib.sha256(data).hexdigest()


def _op_dir(key: str) -> str:
    return key.replace("/", "-")


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def digest(src: str, seed: int, keep: Path | None) -> dict:
    """Run and digest every operation; the BLAS thread variables,
    ``sys.path`` and ``HomogeneousMap.raw`` are restored on return."""
    saved_path = list(sys.path)
    saved_env = {var: os.environ.get(var) for var in _THREAD_VARS}
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    orig_raw = None
    try:
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
        report: dict = {"seed": seed, "map_columns": {}, "ops": {}}
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for name in workloads.WORKLOADS:
                batches = (("op", workloads.GENERATORS[name](seed)),
                           ("defect", workloads.known_defects(name, seed)))
                for tag, ops in batches:
                    start = columns
                    for i, op in enumerate(ops):
                        key = f"{name}/{tag}{i}"
                        inp = work / f"{name}-{tag}{i}.input.json"
                        inp.write_text(json.dumps(op["input"]))
                        cfg = work / f"{name}-{tag}{i}.config.json"
                        cfg.write_text(json.dumps({"command": op["command"], "input": inp.name,
                                                   "seed": seed, **op["extra"]}))
                        out = work / "out" / _op_dir(key)
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always", RuntimeWarning)
                            code = cli.main(["--config", str(cfg), "--out", str(out),
                                             "--quiet"])
                        files = sorted(out.iterdir()) if out.is_dir() else []
                        report["ops"][key] = {
                            "command": op["command"],
                            "code": code,
                            "files": {p.name: _digest(p) for p in files},
                            "warnings": sorted({str(w.message) for w in caught
                                                if issubclass(w.category, RuntimeWarning)}),
                        }
                    if tag == "op":
                        report["map_columns"][name] = columns - start
            if keep is not None:
                keep.mkdir(parents=True, exist_ok=True)
                shutil.copytree(work / "out", keep / "out", dirs_exist_ok=True)
                (keep / "digests.json").write_text(json.dumps(report, indent=1,
                                                              sort_keys=True))
        return report
    finally:
        if orig_raw is not None:
            HomogeneousMap.raw = orig_raw
        sys.path[:] = saved_path
        for var, value in saved_env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


class _Mismatch(Exception):
    """The two files differ in something other than a number."""


def _diff(a: float, b: float) -> tuple[float, float]:
    """|a - b| and the magnitude max(|a|, |b|) it is measured against; a
    difference in a non-finite value gives (inf, 0), which no tolerance
    accepts."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, 0.0
    return abs(a - b), max(abs(a), abs(b))


def _json_diff(a, b, where: str = ""):
    """Yield _diff of each pair of numbers of two JSON values."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        if a != b or type(a) is not type(b):
            raise _Mismatch(f"{where or 'value'}: {a!r} != {b!r}")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        yield _diff(float(a), float(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            raise _Mismatch(f"{where or 'object'}: keys {sorted(set(a) ^ set(b))} differ")
        for k in a:
            yield from _json_diff(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise _Mismatch(f"{where or 'list'}: lengths {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diff(x, y, f"{where}[{i}]")
    else:
        raise _Mismatch(f"{where or 'value'}: {type(a).__name__} != {type(b).__name__}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_diff(a: Path, b: Path):
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    return _json_diff([[_cell(c) for c in r] for r in rows_a],
                      [[_cell(c) for c in r] for r in rows_b], "csv")


def _file_diff(a: Path, b: Path) -> list | None:
    """None when the files are identical, else the _diff of every pair of
    numbers they hold."""
    da, db = a.read_bytes(), b.read_bytes()
    if a.name == "manifest.json":
        da, db = _manifest(da), _manifest(db)
    if da == db:
        return None
    if a.suffix == ".json":
        return list(_json_diff(json.loads(da), json.loads(db)))
    if a.suffix == ".csv":
        return list(_csv_diff(a, b))
    raise _Mismatch("bytes differ")


def _number_report(diffs: list, rtol: float, atol: float) -> tuple[str, int]:
    """A summary of the differing numbers of one file and how many of them
    fail |a - b| <= atol + rtol * max(|a|, |b|)."""
    worst_abs = max((d for d, _ in diffs), default=0.0)
    worst_rel = max((d / m if m else math.inf for d, m in diffs if d), default=0.0)
    bad = sum(d > atol + rtol * m for d, m in diffs)
    text = f"max rel diff {worst_rel:.3g}"
    if atol:
        text += f", max abs diff {worst_abs:.3g}"
    if bad:
        text += f", {bad} number(s) out of tolerance MISMATCH"
    return text, bad


def compare(dir_a: Path, dir_b: Path, rtol: float, atol: float = 0.0) -> int:
    rep_a = json.loads((dir_a / "digests.json").read_text())
    rep_b = json.loads((dir_b / "digests.json").read_text())
    bad = 0
    tally: dict[str, list[int]] = {}   # command -> [identical, moved, mismatched]
    for name in sorted(set(rep_a["map_columns"]) | set(rep_b["map_columns"])):
        ca, cb = rep_a["map_columns"].get(name), rep_b["map_columns"].get(name)
        print(f"map_columns {name}: {ca} -> {cb}" + ("" if ca == cb else "  (differs)"))
    for key in sorted(set(rep_a["ops"]) | set(rep_b["ops"])):
        op_a, op_b = rep_a["ops"].get(key), rep_b["ops"].get(key)
        command = (op_b or {}).get("command") or (op_a or {}).get("command") or "unrecorded"
        counts = tally.setdefault(command, [0, 0, 0])
        if op_a is None or op_b is None:
            print(f"{key}: only in {dir_a if op_b is None else dir_b}  MISMATCH")
            bad += 1
            counts[2] += 1
            continue
        op_bad, moved = 0, False
        codes = f"exit {op_a['code']} / {op_b['code']}"
        if op_a["code"] != op_b["code"]:
            codes += " MISMATCH"
            op_bad += 1
        parts = [codes]
        warn_a, warn_b = op_a.get("warnings", []), op_b.get("warnings", [])
        if warn_a or warn_b:
            new = sorted(set(warn_b) - set(warn_a))
            parts.append(f"warnings {warn_a} / {warn_b}" + (" MISMATCH" if new else ""))
            op_bad += bool(new)
        for fname in sorted(set(op_a["files"]) | set(op_b["files"])):
            fa = dir_a / "out" / _op_dir(key) / fname
            fb = dir_b / "out" / _op_dir(key) / fname
            if not (fa.is_file() and fb.is_file()):
                parts.append(f"{fname} missing on one side MISMATCH")
                op_bad += 1
                continue
            try:
                diffs = _file_diff(fa, fb)
            except _Mismatch as exc:
                parts.append(f"{fname} differs beyond numbers ({exc}) MISMATCH")
                op_bad += 1
                continue
            if diffs is None:
                parts.append(f"{fname} identical")
            else:
                text, out = _number_report(diffs, rtol, atol)
                op_bad += bool(out)
                moved = True
                parts.append(f"{fname} {text}")
        print(f"{key}: " + "; ".join(parts))
        bad += op_bad
        counts[2 if op_bad else 1 if moved else 0] += 1
    print(f"compare: {bad} mismatch(es) at rtol {rtol:g}, atol {atol:g}")
    for command, (same, moved, mismatched) in sorted(tally.items()):
        print(f"command {command}: {same} identical, {moved} moved within tolerance, "
              f"{mismatched} mismatched")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", help="directory holding the conerad package")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--keep", type=Path, help="also write outputs and digests to this directory")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"),
                    help="compare two --keep directories instead of running")
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="relative tolerance of --compare")
    ap.add_argument("--atol", type=float, default=0.0,
                    help="absolute tolerance of --compare: numbers a, b match when "
                         "|a - b| <= atol + rtol * max(|a|, |b|)")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.rtol, args.atol)
    if args.src is None or args.seed is None:
        ap.error("--src and --seed are required unless --compare is given")
    print(json.dumps(digest(args.src, args.seed, args.keep), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
