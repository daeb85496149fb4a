"""One fresh workload process: import, warm up, then run the batch.

Started by ``run.py`` with the BLAS thread variables already pinned.  The
set-up phase (``import conerad`` plus the untimed warm-up operations) ends
at a ``time.monotonic()`` stamp that the parent compares with the moment it
spawned this process; ``--setup-only`` stops there.

Each operation is one ``conerad.cli.main`` call on its own config, with a
fresh output directory, timed around that call alone.  The correctness gate,
reading outputs and deleting them all happen between timed calls.  The
known-defect probes run last, once each, untimed and untraced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _run_op(cli, cfg_path: Path, out: Path):
    if out.exists():
        raise RuntimeError(f"output directory {out} already exists")
    t0 = time.perf_counter()
    try:
        code = cli.main(["--config", str(cfg_path), "--out", str(out), "--quiet"])
    except Exception as exc:  # a traceback is a failed operation, not a crash of the run
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - t0


def _outputs(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()] if out.exists() else []
    return sum(p.stat().st_size for p in files), len(files)


class ColumnCounter:
    """Counts map columns: each HomogeneousMap.raw call adds x.shape[1] if 2-D, else 1."""

    def __init__(self, cls):
        self.columns = 0
        self._cls = cls
        self._orig = cls.__dict__["raw"]
        orig, counter = self._orig, self

        def raw(mp, x):
            counter.columns += x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
            return orig(mp, x)

        cls.raw = raw

    def close(self) -> None:
        self._cls.raw = self._orig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text())
    work = Path(args.plan).parent
    sys.path.insert(0, plan["src"])
    import conerad
    from conerad import cli

    for i, op in enumerate(plan["warmup"]):
        _run_op(cli, Path(op["config"]), work / "warm" / f"{Path(args.report).stem}-{i}")
    ready = time.monotonic()
    report: dict = {"ready": ready}
    if args.setup_only:
        Path(args.report).write_text(json.dumps(report))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks

    counter = ColumnCounter(conerad.HomogeneousMap)
    records: list[dict] = []
    first: dict[int, dict] = {}
    t_start = time.perf_counter()
    n_pass = 0
    while True:
        tracer = None
        if args.trace == 1 and n_pass == 1:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(conerad)
        for i, op in enumerate(plan["ops"]):
            out = work / "out" / f"p{n_pass}-op{i}"
            if tracer is not None:
                tracer.current_op = i
            cols0 = counter.columns
            code, dt = _run_op(cli, Path(op["config"]), out)
            result = out / "result.json"
            digest = hashlib.sha256(result.read_bytes()).hexdigest() if result.is_file() else None
            if n_pass == 0:
                ok, err, reason = checks.check(op, op["ref"], code, result)
            else:
                ok, err, reason = first[i]["ok"], first[i]["ref_err"], first[i]["reason"]
                if (digest, code) != (first[i]["digest"], first[i]["code"]):
                    ok, reason = False, "rerun did not reproduce the first result"
            nbytes, nfiles = _outputs(out)
            shutil.rmtree(out, ignore_errors=True)
            rec = {"pass": n_pass, "op": i, "seconds": dt, "code": code, "exit_ok": code == 0,
                   "columns": counter.columns - cols0, "traced": tracer is not None,
                   "ok": ok, "ref_err": err, "reason": reason, "digest": digest,
                   "bytes": nbytes, "files": nfiles}
            first.setdefault(i, rec)
            records.append(rec)
        n_pass += 1
        if tracer is not None:
            tracer.uninstall()
            tracer.write(work / "spans.npz")
        if n_pass == 2 if args.trace == 1 else time.perf_counter() - t_start >= args.seconds:
            break
    counter.close()
    # Known-defect probes run once, after the timed passes and untraced.
    defects = []
    for i, op in enumerate(plan["defects"]):
        out = work / "out" / f"defect{i}"
        code, _ = _run_op(cli, Path(op["config"]), out)
        ok, _, reason = checks.check(op, op["ref"], code, out / "result.json")
        shutil.rmtree(out, ignore_errors=True)
        defects.append({"op": i, "code": code, "exit_ok": code == 0, "ok": ok, "reason": reason})
    report.update(records=records, defects=defects, passes=n_pass,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
