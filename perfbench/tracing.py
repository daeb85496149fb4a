"""Spans around the program's layer entry points, recorded from outside.

``Tracer.install`` wraps each entry point below and rebinds the wrapper in
every ``conerad`` namespace that holds the original.  Rebinding matters:
``cli``, ``twosex`` and ``eigenproblem`` import layer functions by name, so
wrapping only the defining module would silently miss their calls.
Methods are wrapped on their class.

A span is (entry point, start, end, parent span, operation id) plus two
integer attributes: map columns and the two-sex grid size for ``raw``,
iterations for the bracket, series terms for the resolvent, years for
``simulate``.  Spans live in flat arrays in memory and are written once,
when the traced run ends; ``derive`` turns them into per-layer metrics.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

import numpy as np

# "module.attribute", where "module.Class.method" names a method; the
# module is the layer.
ENTRY_POINTS = (
    "cone.psi_hull", "cone.u_norm", "cone.lower_ratio", "cone.leq", "cone.meet",
    "cone.ConeSpace.norm",
    "homog_map.HomogeneousMap.raw", "homog_map.perturb", "homog_map.verify_properties",
    "spectral.radius_bracket", "spectral.resolvent_series",
    "eigenproblem.solve_eigenvector_perturbation", "eigenproblem.estimate_eigenfunctional",
    "twosex.build_model", "twosex.assess_persistence", "twosex.simulate",
    "cli.run",
)

# Entry points each workload must reach; the coverage guard checks them.
EXPECTED = {
    "linear-mix": ("cone.psi_hull", "cone.ConeSpace.norm", "homog_map.HomogeneousMap.raw",
                   "homog_map.perturb", "homog_map.verify_properties",
                   "spectral.radius_bracket", "eigenproblem.solve_eigenvector_perturbation",
                   "cli.run"),
    "twosex-assess": ("cone.psi_hull", "cone.ConeSpace.norm", "homog_map.HomogeneousMap.raw",
                      "homog_map.perturb", "spectral.radius_bracket",
                      "eigenproblem.solve_eigenvector_perturbation", "twosex.build_model",
                      "twosex.assess_persistence", "cli.run"),
    "functional-series": ("cone.ConeSpace.norm", "homog_map.HomogeneousMap.raw",
                          "spectral.radius_bracket", "spectral.resolvent_series",
                          "eigenproblem.estimate_eigenfunctional", "twosex.build_model",
                          "cli.run"),
    "twosex-simulate": ("cone.u_norm", "cone.ConeSpace.norm", "homog_map.HomogeneousMap.raw",
                        "twosex.build_model", "twosex.simulate", "cli.run"),
}


def _columns(x) -> int:
    return x.shape[1] if np.ndim(x) == 2 else 1


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.a1 = array("q")
        self.a2 = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.a1.append(0)
        self.a2.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name_id: int, attr: str, fn):
        tr = self
        if attr == "HomogeneousMap.raw":
            def wrapper(mp, x):
                idx = tr._open(name_id)
                try:
                    return fn(mp, x)
                finally:
                    tr._close(idx)
                    tr.a1[idx] = _columns(x)
                    if mp.name == "two_sex":
                        tr.a2[idx] = mp.space.dim
        else:
            def wrapper(*args, **kwargs):
                idx = tr._open(name_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tr._close(idx)
                if attr == "radius_bracket":
                    tr.a1[idx] = out.iterations
                elif attr == "resolvent_series":
                    tr.a1[idx] = out.terms
                elif attr == "simulate":
                    tr.a1[idx] = len(out.log_mass) - 1
                return out
        return wrapper

    def install(self, package) -> None:
        import importlib

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in ("cone", "homog_map", "spectral", "eigenproblem",
                                         "twosex", "oracle", "cli")]
        for name_id, entry in enumerate(ENTRY_POINTS):
            mod_name, attr = entry.split(".", 1)
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name_id, attr, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name_id, attr, orig)
            for ns in modules:
                if getattr(ns, attr, None) is orig:
                    self._undo.append((ns, attr, orig))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, orig = self._undo.pop()
            setattr(ns, attr, orig)

    def write(self, path: Path) -> None:
        """Spans as one .npz of flat arrays plus the entry-point names."""
        np.savez(path, names=np.array(ENTRY_POINTS), name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 a1=np.frombuffer(self.a1, dtype=np.int64),
                 a2=np.frombuffer(self.a2, dtype=np.int64))


def _kernel_cost(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Computed flops and bytes of one two-sex column at grid size n.

    Two dense n x n matvecs (2n^2 flops and 8n^2 bytes each, the matrix
    streamed once per column) plus about 20 flops and 10 float64 vectors of
    O(n) traffic for mating, the two contract checks and the mass.
    """
    n = n.astype(float)
    return 4.0 * n * n + 20.0 * n, 16.0 * n * n + 80.0 * n


def derive(spans_path: Path, workload: str) -> tuple[dict, list[str]]:
    """Per-layer metrics from a spans file, and the coverage-guard misses."""
    with np.load(spans_path) as z:
        names = [str(s) for s in z["names"]]
        name, start, end = z["name"], z["start"], z["end"]
        parent, a1, a2 = z["parent"], z["a1"], z["a2"]
    ids = {s: i for i, s in enumerate(names)}
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child

    # ancestor flags: bit k set when some enclosing span is entry point k
    own = np.left_shift(np.int64(1), name.astype(np.int64))
    anc = np.zeros(len(name), dtype=np.int64)
    while True:
        nxt = np.where(has_parent, anc[parent] | own[parent], 0)
        if np.array_equal(nxt, anc):
            break
        anc = nxt

    def sel(s):
        return name == ids[s]

    def under(s):
        return (anc >> ids[s]) & 1 == 1

    raw = sel("homog_map.HomogeneousMap.raw")
    cols = a1 * raw
    bracket = sel("spectral.radius_bracket")
    iters = int(a1[bracket].sum())
    two_sex = raw & (a2 > 0)
    flops, nbytes = _kernel_cost(a2[two_sex])
    ts_cols = a1[two_sex]
    ts_total = float(ts_cols.sum())
    cone = np.isin(name, [ids[s] for s in ENTRY_POINTS if s.startswith("cone.")])
    metrics = {
        "cone.calls": (int(cone.sum()), "count"),
        "cone.self_s": (float(self_s[cone].sum()), "s"),
        "homog_map.raw.calls": (int(raw.sum()), "count"),
        "homog_map.raw.columns": (int(cols.sum()), "count"),
        "homog_map.raw.self_s": (float(self_s[raw].sum()), "s"),
        "homog_map.raw.us_per_column": (1e6 * float(self_s[raw].sum()) / max(1, int(cols.sum())), "us"),
        "homog_map.perturb.calls": (int(sel("homog_map.perturb").sum()), "count"),
        "homog_map.verify.self_s": (float(self_s[sel("homog_map.verify_properties")].sum()), "s"),
        "spectral.bracket.calls": (int(bracket.sum()), "count"),
        "spectral.bracket.iterations": (iters, "count"),
        "spectral.bracket.columns_per_iter": (float(cols[under("spectral.radius_bracket")].sum()) / max(1, iters), "count"),
        "spectral.bracket.us_per_iter": (1e6 * float(dur[bracket].sum()) / max(1, iters), "us"),
        "spectral.bracket.self_s": (float(self_s[bracket].sum()), "s"),
        "spectral.resolvent.calls": (int(sel("spectral.resolvent_series").sum()), "count"),
        "spectral.resolvent.terms": (int(a1[sel("spectral.resolvent_series")].sum()), "count"),
        "spectral.resolvent.self_s": (float(self_s[sel("spectral.resolvent_series")].sum()), "s"),
        "eigenproblem.perturbation.calls": (int(sel("eigenproblem.solve_eigenvector_perturbation").sum()), "count"),
        "eigenproblem.perturbation.columns": (int(cols[under("eigenproblem.solve_eigenvector_perturbation")].sum()), "count"),
        "eigenproblem.perturbation.self_s": (float(self_s[sel("eigenproblem.solve_eigenvector_perturbation")].sum()), "s"),
        "eigenproblem.functional.columns": (int(cols[under("eigenproblem.estimate_eigenfunctional")].sum()), "count"),
        "eigenproblem.functional.self_s": (float(self_s[sel("eigenproblem.estimate_eigenfunctional")].sum()), "s"),
        "twosex.build_model.self_s": (float(self_s[sel("twosex.build_model")].sum()), "s"),
        "twosex.kernel.flops": (float((flops * ts_cols).sum()) / ts_total if ts_total else 0.0, "flop_computed"),
        "twosex.kernel.bytes": (float((nbytes * ts_cols).sum()) / ts_total if ts_total else 0.0, "B_computed"),
        "twosex.kernel.gflops": (float((flops * ts_cols).sum()) / max(float(self_s[two_sex].sum()), 1e-12) / 1e9 if ts_total else 0.0, "GFLOP/s"),
        "twosex.assess.self_s": (float(self_s[sel("twosex.assess_persistence")].sum()), "s"),
        "twosex.simulate.self_s": (float(self_s[sel("twosex.simulate")].sum()), "s"),
        "twosex.simulate.years": (int(a1[sel("twosex.simulate")].sum()), "count"),
        "cli.run.self_s": (float(self_s[sel("cli.run")].sum()), "s"),
    }
    counts = np.bincount(name, minlength=len(names))
    missing = [s for s in EXPECTED[workload] if counts[ids[s]] == 0]
    return metrics, missing


def spans_summary(spans_path: Path) -> str:
    """Span count per entry point, for the run log."""
    with np.load(spans_path) as z:
        counts = np.bincount(z["name"], minlength=len(z["names"]))
        return json.dumps({str(s): int(c) for s, c in zip(z["names"], counts) if c})
