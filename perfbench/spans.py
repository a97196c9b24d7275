"""In-memory span recording around the package's public layer functions.

Tracing replaces module attributes with timing wrappers while a traced pass
runs and puts the originals back afterwards; no file of the package changes.
Calls made through a module attribute, including calls inside the same
module (its globals are the module attributes), are recorded.  A span is
(name, start, end, parent, operation id); counts computed from a call's
arguments and result ride on its span.  Spans stay in memory until the run
ends, when `write` dumps them and `layer_totals` derives self times from
them: a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import os
import time
from array import array

import numpy as np

from hyperideal import (angles, cli, dynamics, metric, serialize, simplex,
                        tetgeom, triangulation)


def _pipeline_counts(args, kwargs, out):
    return {"shapes": np.size(args[0]) // 6}


def _newton_counts(args, kwargs, out):
    return {"rows": np.shape(args[0])[0]}


def _flow_counts(args, kwargs, out):
    return {"steps_accepted": out.steps_accepted,
            "steps_rejected": out.steps_rejected,
            "converged": int(out.status == "converged")}


def _minimize_counts(args, kwargs, out):
    # Every backtracking halving multiplies the accepted step by 1/2.
    halvings = sum(round(-math.log2(a)) for a in out[1].step_sizes)
    return {"iterations": out[1].iterations, "halvings": halvings}


def _volmax_counts(args, kwargs, out):
    return {"iterations": out[1].iterations}


def _solve_lp_counts(args, kwargs, out):
    # Computed, not measured: the dense tableau has one row per constraint
    # plus the objective, and columns for the structural variables, one
    # slack per inequality, one artificial per equality or negative-rhs
    # inequality, and the rhs.  Every pivot rewrites the whole tableau.
    n = np.size(args[0])
    m_eq = np.shape(kwargs.get("A_eq"))[0] if kwargs.get("A_eq") is not None else 0
    b_ub = kwargs.get("b_ub")
    m_ub = np.size(b_ub) if b_ub is not None else 0
    n_art = m_eq + (int((np.asarray(b_ub) < 0).sum()) if m_ub else 0)
    tableau_bytes = 8 * (m_eq + m_ub + 1) * (n + m_ub + n_art + 1)
    return {"pivots": out.iterations,
            "bytes_computed": out.iterations * tableau_bytes}


def _search_counts(args, kwargs, out):
    return {"kept": len(out)}


def _write_json_counts(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


# (module, function name, counts from (args, kwargs, result) or None)
LAYER_FUNCTIONS = (
    (triangulation, "build", None),
    (triangulation, "search_gluings", _search_counts),
    (tetgeom, "_pipeline", _pipeline_counts),
    (tetgeom, "_newton_lengths", _newton_counts),
    (tetgeom, "schlafli_segment", None),
    (tetgeom, "schlafli_potential", None),
    (tetgeom, "schlafli_potential_of_angles", None),
    (metric, "curvature", None),
    (metric, "curvature_jacobian", None),
    (metric, "tet_potentials", None),
    (metric, "metric_margin", None),
    (dynamics, "flow", _flow_counts),
    (dynamics, "minimize_energy", _minimize_counts),
    (angles, "lp_feasibility", None),
    (angles, "maximize_volume", _volmax_counts),
    (simplex, "solve_lp", _solve_lp_counts),
    (serialize, "write_json", _write_json_counts),
    (serialize, "trace_csv", None),
    (cli, "main", None),
)


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = set()
        self.counts = {}
        self._stack = []
        self._op_id = -1
        self._originals = []

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op_id: int):
        """Root span of one benchmark operation; children inherit op_id."""
        self._op_id = op_id
        i = self.open(self._intern(name))
        try:
            yield
        finally:
            self.close(i)
            self._repair(i)
            self._op_id = -1

    def _repair(self, root: int) -> None:
        """Tidy up after a deadline miss, whose exception can land in the
        middle of `open` or `close`: drop a half-opened span, end unclosed
        spans with the root and empty the stack."""
        stores = (self.name, self.start, self.end, self.parent, self.op)
        n = min(map(len, stores))
        for store in stores:
            del store[n:]
        for j in range(root, n):
            if math.isnan(self.end[j]):
                self.end[j] = self.end[root]
        self._stack.clear()

    def _wrap(self, qualname: str, fn, counter):
        nid = self._intern(qualname)

        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised.add(i)
                raise
            finally:
                self.close(i)
            if counter is not None:
                self.counts[i] = counter(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, fname, counter in LAYER_FUNCTIONS:
            fn = getattr(module, fname)
            self._originals.append((module, fname, fn))
            setattr(module, fname,
                    self._wrap(f"{_short(module)}.{fname}", fn, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, fname, fn = self._originals.pop()
            setattr(module, fname, fn)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: id, name, start, end, parent, op, raised."""
        with gzip.open(path, "wt") as f:
            f.write("id,name,start,end,parent,op,raised\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                        f"{self.end[i]!r},{self.parent[i]},{self.op[i]},"
                        f"{int(i in self.raised)}\n")

    def self_times(self, lo: int, hi: int) -> np.ndarray:
        """Self time of spans lo..hi-1, which must hold whole span trees."""
        # Slicing an array copies it, so the stores stay appendable.
        dur = np.frombuffer(self.end[lo:hi], dtype=float) \
            - np.frombuffer(self.start[lo:hi], dtype=float)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32)
        child = np.zeros(hi - lo)
        has = parent >= 0
        np.add.at(child, parent[has] - lo, dur[has])
        return dur - child

    def layer_totals(self, lo: int, hi: int) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, summed
        counts; plus the search's kept and built candidates."""
        selfs = self.self_times(lo, hi)
        out = {}
        search = self._name_id.get("triangulation.search_gluings", -2)
        built_in_search = 0
        for i in range(lo, hi):
            nm = self.names[self.name[i]]
            agg = out.setdefault(nm, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "raised": 0})
            agg["calls"] += 1
            agg["s"] += self.end[i] - self.start[i]
            agg["self_s"] += float(selfs[i - lo])
            agg["raised"] += i in self.raised
            for k, v in self.counts.get(i, {}).items():
                agg[k] = agg.get(k, 0) + v
            p = self.parent[i]
            if p >= 0 and self.name[p] == search:
                built_in_search += 1
        out["triangulation.search_gluings.built"] = built_in_search
        return out


def _get(totals, layer, what):
    return totals.get(layer, {}).get(what, 0)


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, better).  A name is <layer>.<what>, read
# from the layer totals, unless DERIVED computes it.
PER_LAYER = {}
for _layer in ("tetgeom.schlafli_segment", "tetgeom.schlafli_potential",
               "tetgeom.schlafli_potential_of_angles",
               "tetgeom._newton_lengths", "tetgeom._pipeline",
               "metric.tet_potentials", "metric.curvature_jacobian",
               "metric.metric_margin", "metric.curvature", "simplex.solve_lp",
               "triangulation.build", "serialize.write_json"):
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.s"] = ("s", "lower")
PER_LAYER.update({
    "tetgeom._newton_lengths.rows": ("count", "lower"),
    "tetgeom._pipeline.shapes": ("count", "lower"),
    "tetgeom._pipeline.shapes_per_s": ("1/s", "higher"),
    "dynamics.flow.self_s": ("s", "lower"),
    "dynamics.flow.steps_accepted": ("count", "lower"),
    "dynamics.flow.steps_rejected": ("count", "lower"),
    "dynamics.flow.converged": ("count", "higher"),
    "dynamics.minimize_energy.self_s": ("s", "lower"),
    "dynamics.minimize_energy.iterations": ("count", "lower"),
    "dynamics.minimize_energy.halvings": ("count", "lower"),
    "angles.lp_feasibility.self_s": ("s", "lower"),
    "angles.maximize_volume.self_s": ("s", "lower"),
    "angles.maximize_volume.iterations": ("count", "lower"),
    "simplex.solve_lp.pivots": ("count", "lower"),
    "simplex.solve_lp.bytes_computed": ("B", "lower"),
    "triangulation.build.rejected": ("count", "lower"),
    "triangulation.search_gluings.kept_per_built": ("ratio", "higher"),
    "serialize.write_json.bytes": ("B", "lower"),
    "serialize.trace_csv.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
})

DERIVED = {
    "tetgeom._pipeline.shapes_per_s": lambda t: _ratio(
        _get(t, "tetgeom._pipeline", "shapes"),
        _get(t, "tetgeom._pipeline", "s")),
    "triangulation.build.rejected": lambda t: _get(
        t, "triangulation.build", "raised"),
    "triangulation.search_gluings.kept_per_built": lambda t: _ratio(
        _get(t, "triangulation.search_gluings", "kept"),
        t["triangulation.search_gluings.built"]),
}


def layer_metrics(totals: dict) -> dict:
    out = {}
    for name in PER_LAYER:
        if name in DERIVED:
            out[name] = DERIVED[name](totals)
        else:
            layer, _, what = name.rpartition(".")
            out[name] = _get(totals, layer, what)
    return out
