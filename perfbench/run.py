"""conerad benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload linear-mix --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program under test is the source tree at
``src/conerad``; without it the benchmark exits 2 and prints no result.

The run generates the workload's batch from the seed, computes independent
references, then starts fresh workload processes (``worker.py``) with BLAS
pinned to one thread: four that only set up, and one that sets up and then
runs whole passes over the batch back to back, one client and one operation
at a time, until ``--seconds`` have passed.  With ``--trace 1`` the worker
runs the batch once untraced and once traced, and the per-layer metrics come
from the traced pass.  After the passes it runs the workload's known-defect
probes once, untimed; they are reported but not counted in ``attempted`` or
``failed``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it repeat every
metric by name with its unit, plus the environment and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5        # fresh processes timed from spawn to the first timed operation
WORKER_TIMEOUT_S = 150


def _spawn(args: list[str], log: Path) -> float:
    """Run one worker to completion; returns the monotonic spawn time."""
    with open(log, "ab") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker timed out after {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited {code}:\n{log.read_text()[-3000:]}")
    return t0


def _write_plan(work: Path, workload: str, seed: int) -> Path:
    import checks
    import workloads

    inputs = work / "inputs"
    inputs.mkdir(parents=True)

    def materialize(tag: str, op: dict, with_ref: bool) -> dict:
        (inputs / f"{tag}.input.json").write_text(json.dumps(op["input"]))
        cfg = {"command": op["command"], "input": f"{tag}.input.json", "seed": seed, **op["extra"]}
        cfg_path = inputs / f"{tag}.config.json"
        cfg_path.write_text(json.dumps(cfg))
        entry = dict(op, config=str(cfg_path))
        if with_ref:
            entry["ref"] = checks.reference(op)
        return entry

    plan = {
        "src": str(ROOT / "src"),
        "ops": [materialize(f"op{i}", op, True)
                for i, op in enumerate(workloads.GENERATORS[workload](seed))],
        "warmup": [materialize(f"warm{i}", op, False)
                   for i, op in enumerate(workloads.warmup(workload))],
        "defects": [materialize(f"defect{i}", op, True)
                    for i, op in enumerate(workloads.known_defects(workload, seed))],
    }
    path = work / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def _percentile_line(times: list[float]) -> str:
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    n = len(times)
    for q in (99, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(times, n=100)[q - 1]
            return f"instance_s.p{q} {cut:.6f} s (n={n})"
    return f"instance_s: {n} samples, too few for a tail percentile"


def _end_to_end(report: dict, setups: list[float], untraced: list[dict]) -> dict:
    passes = sorted({r["pass"] for r in untraced})
    batch = [sum(r["seconds"] for r in untraced if r["pass"] == p) for p in passes]
    return {
        "batch_s": (statistics.median(batch), "s"),
        "instance_s.p50": (statistics.median(r["seconds"] for r in untraced), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "map_columns": (sum(r["columns"] for r in untraced if r["pass"] == 0), "count"),
        "ok_ratio": (sum(r["ok"] for r in untraced) / len(untraced), "ratio"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "conerad" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'conerad'}", file=sys.stderr)
        return 2
    # pinned before numpy loads, here and in every worker (inherited)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = _write_plan(work, args.workload, args.seed)
        log = work / "worker.log"
        setups = []
        for k in range(SETUP_SAMPLES - 1):
            rep = work / f"setup{k}.json"
            t0 = _spawn(["--plan", str(plan), "--report", str(rep), "--setup-only"], log)
            setups.append(json.loads(rep.read_text())["ready"] - t0)
        rep = work / "run.json"
        t0 = _spawn(["--plan", str(plan), "--report", str(rep), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], log)
        report = json.loads(rep.read_text())
        setups.append(report["ready"] - t0)
        records = report["records"]
        untraced = [r for r in records if not r["traced"]]
        checked = [r for r in records if r["pass"] == 0]
        errs = [r["ref_err"] for r in checked if r["ok"] and r["ref_err"] is not None]
        n_failed = sum(not r["ok"] for r in untraced)
        e2e = _end_to_end(report, setups, untraced)

        print(f"perfbench: workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}; closed loop, 1 client, {len(checked)} operations per batch")
        print("environment: " + json.dumps(_environment()))
        ops = json.loads(plan.read_text())["ops"]
        for r in checked:
            if not r["ok"]:
                op = ops[r["op"]]
                print(f"failed: op {r['op']} {op['command']} ({op['class']}): {r['reason']}")
        defects = report["defects"]
        probes = json.loads(plan.read_text())["defects"]
        for r in defects:
            op = probes[r["op"]]
            state = "still fails: " + r["reason"] if not r["ok"] else "now passes its check"
            print(f"known defect: probe {r['op']} {op['command']} ({op['class']}) {state}")
        if defects:
            print(f"known defects: {sum(not r['ok'] for r in defects)} of {len(defects)} "
                  "untimed probes fail (not counted in attempted or failed)")
        summary = dict(e2e)
        summary["fail_ratio"] = (n_failed / len(untraced), "ratio")
        summary["ref_err.max"] = (max(errs, default=0.0), "ratio")
        notes = {"instance_s.p50": f"n={len(untraced)}",
                 "fail_ratio": f"{n_failed} of {len(untraced)}",
                 "ref_err.max": f"over {len(errs)} checked values"}
        metrics, scope, missing = e2e, untraced, []
        if args.trace == 1:
            traced = [r for r in records if r["traced"]]
            metrics, missing = tracing.derive(work / "spans.npz", args.workload)
            metrics["trace.overhead_s"] = (sum(r["seconds"] for r in traced) - e2e["batch_s"][0], "s")
            metrics["cli.bytes_written"] = (sum(r["bytes"] for r in traced), "B")
            metrics["cli.files_written"] = (sum(r["files"] for r in traced), "count")
            metrics["ref_err.max"] = summary["ref_err.max"]
            summary.update(metrics)
            scope = records
            print("spans: " + tracing.spans_summary(work / "spans.npz"))
        for name, (value, unit) in summary.items():
            print(f"{name} {value:.6g} {unit}" + (f" ({notes[name]})" if name in notes else ""))
        print(_percentile_line([r["seconds"] for r in untraced]))
        if missing:
            print(f"coverage guard: no span recorded for {missing}", file=sys.stderr)
            return 3
        print(json.dumps({
            # a wrong answer reported as a success; exit-2 runs only count as failed
            "correct": not any(r["exit_ok"] and not r["ok"] for r in records + defects),
            "attempted": len(scope),
            "failed": sum(not r["ok"] for r in scope),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
