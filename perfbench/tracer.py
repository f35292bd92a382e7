"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` replaces each traced function of `leavitt` by a wrapper,
under every name a `leavitt` module bound it to (``verify`` imports
``ideal_generated_by``, ``oracle`` imports ``rref`` and so on), and methods
on their classes.  A wrapper records one span per call: name, start, end
and parent span, kept in flat arrays in memory.  Generators get one span
per resumption, so their time is charged to the generator and not to
whoever consumes it.  When the traced round ends, `layer_metrics` turns the
spans and counters into the per-layer metrics of ``BENCHMARK.json``; a
span's self time is its duration minus the durations of its child spans.

Counters kept by the hooks below are charged to the caller's self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, qualified name, is a generator); the span is named "module.qualname"
TRACED = (
    ("gfp", "rref", False),
    ("gfp", "residual", False),
    ("gfp", "matmul_mod", False),
    ("gfp", "reduce_rowspace", False),
    ("gfp", "nullspace_from_rref", False),
    ("oracle", "build_oracle", False),
    ("oracle", "ideal_generated_by", False),
    ("oracle", "perp_subspace", False),
    ("oracle", "is_graded_subspace", False),
    ("oracle", "vertex_set_of", False),
    ("oracle", "IdealSubspace.__init__", False),
    ("oracle", "OracleAlgebra.product_rows", True),
    ("oracle", "OracleAlgebra.annihilator_constraints", True),
    ("graphs", "Graph.cycles", False),
    ("graphs", "Graph.condition_l", False),
    ("graphs", "Graph.exit_free_cycle_vertices", False),
    ("graphs", "Graph.tree", False),
    ("graphs", "Graph.backward_reach", False),
    ("hereditary", "enumerate_hs_sets", False),
    ("hereditary", "hs_closure", False),
    ("ideals", "analyze", False),
    ("ideals", "perp", False),
    ("ideals", "double_perp", False),
    ("ideals", "is_regular", False),
    ("laurent", "laurent_perp_is_zero", False),
    ("graphdoc", "load_graph", False),
    ("verify", "exhaustive_acyclic_graphs", False),
    ("verify", "oracle_checks_for_graph", False),
    ("verify", "calculus_checks_for_graph", False),
    ("verify", "laurent_checks", False),
    ("cli", "main", False),
)

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._first_rank: dict[int, int] = {}  # ideal_generated_by span -> rank of its generators
        self._ideals_by_algebra: dict[int, tuple[object, set[int]]] = {}

    # -- spans -------------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.span_start.append(_clock())
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = _clock()
        self.stack.pop()

    def parent_name(self, idx: int) -> str | None:
        parent = self.span_parent[idx]
        return None if parent < 0 else self.names[self.span_name[parent]]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        tracer = self

        def steps(gen):
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                if hook is not None:
                    hook(tracer, idx, None, item)
                yield item

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            creation = _CREATION_HOOKS.get(name)
            if creation is not None:
                creation(tracer, args)
            return steps(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under each name `leavitt` modules bind it to."""
        modules = [m for n, m in sys.modules.items() if n == "leavitt" or n.startswith("leavitt.")]
        for module_name, qualname, is_gen in TRACED:
            home = sys.modules[f"leavitt.{module_name}"]
            span = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapper = (self.wrap_generator if is_gen else self.wrap)(span, original)
                setattr(cls, attr, wrapper)
                continue
            original = getattr(home, qualname)
            wrapper = self.wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- results -------------------------------------------------------------------------

    def self_and_total(self) -> tuple[dict[str, float], dict[tuple[str, str], float]]:
        """Self seconds per span name, and total seconds per (parent name, child name)."""
        n, k = len(self.span_start), len(self.names)
        if n == 0:
            return {}, {}
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        names = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64)
        nested = parents >= 0
        child = np.zeros(n)
        np.add.at(child, parents[nested], dur[nested])
        self_time = np.zeros(k)
        np.add.at(self_time, names, dur - child)
        pair = np.zeros((k, k))
        np.add.at(pair, (names[parents[nested]], names[nested]), dur[nested])
        edges = {
            (self.names[a], self.names[b]): float(pair[a, b]) for a, b in zip(*np.nonzero(pair))
        }
        return {name: float(self_time[i]) for i, name in enumerate(self.names)}, edges


# -- counters taken at the layer boundaries -------------------------------------------------


def _rref_cells(t: Tracer, idx, args, result) -> None:
    rows, cols = np.shape(args[0])
    t.counts["gfp.rref.cells"] += rows * cols


def _matmul_macs(t: Tracer, idx, args, result) -> None:
    a, b = args[0], args[1]
    t.counts["gfp.matmul_mod.macs"] += a.shape[0] * a.shape[1] * b.shape[1]


def _reduce_rowspace(t: Tracer, idx, args, result) -> None:
    # the first reduction inside ideal_generated_by is of the generators alone
    parent = t.span_parent[idx]
    if t.parent_name(idx) == "oracle.ideal_generated_by" and parent not in t._first_rank:
        t._first_rank[parent] = len(result[1])


def _build_oracle(t: Tracer, idx, args, algebra) -> None:
    t.counts["oracle.dimension.sum"] += algebra.dimension
    t.counts["oracle.dimension.max"] = max(t.counts["oracle.dimension.max"], algebra.dimension)


def _ideal_generated_by(t: Tracer, idx, args, ideal) -> None:
    algebra = args[0]
    t.counts["oracle.ideal_generated_by.rank_gained"] += ideal.dim - t._first_rank.pop(idx, 0)
    # keep the algebra alive so its id is not reused by a later one
    _algebra, seen = t._ideals_by_algebra.setdefault(id(algebra), (algebra, set()))
    seen.add(hash(ideal.basis.tobytes()))


def _product_rows_created(t: Tracer, args) -> None:
    algebra, rows = args[0], args[1]
    # left and right product tensors, (t, dim, dim) int64 each, and their concatenation
    t.counts["oracle.product_rows.bytes"] += 4 * rows.shape[0] * algebra.dimension**2 * 8
    if t.stack and t.names[t.span_name[t.stack[-1]]] == "oracle.ideal_generated_by":
        t.counts["oracle.ideal_generated_by.rounds"] += 1


def _product_rows_batch(t: Tracer, idx, args, batch) -> None:
    t.counts["oracle.product_rows.rows"] += batch.shape[0]


def _constraints_batch(t: Tracer, idx, args, batch) -> None:
    t.counts["oracle.annihilator_constraints.rows"] += batch.shape[0]


def _cycles(t: Tracer, idx, args, result) -> None:
    t.counts["graphs.Graph.cycles.cycles_out"] += len(result)


def _enumerate(t: Tracer, idx, args, result) -> None:
    t.counts["hereditary.enumerate_hs_sets.subsets_scanned"] += 2 ** len(args[0].vertices)
    t.counts["hereditary.enumerate_hs_sets.sets_out"] += len(result)


_HOOKS = {
    "gfp.rref": _rref_cells,
    "gfp.matmul_mod": _matmul_macs,
    "gfp.reduce_rowspace": _reduce_rowspace,
    "oracle.build_oracle": _build_oracle,
    "oracle.ideal_generated_by": _ideal_generated_by,
    "oracle.OracleAlgebra.product_rows": _product_rows_batch,
    "oracle.OracleAlgebra.annihilator_constraints": _constraints_batch,
    "graphs.Graph.cycles": _cycles,
    "hereditary.enumerate_hs_sets": _enumerate,
}
_CREATION_HOOKS = {"oracle.OracleAlgebra.product_rows": _product_rows_created}


# -- the per-layer metrics --------------------------------------------------------------------

# metric name -> (kind, span or counter); kinds: calls, self, count
LAYER_METRICS = {
    "gfp.rref.calls": ("calls", "gfp.rref"),
    "gfp.rref.self_s": ("self", "gfp.rref"),
    "gfp.rref.cells": ("count", "gfp.rref.cells"),
    "gfp.residual.calls": ("calls", "gfp.residual"),
    "gfp.residual.self_s": ("self", "gfp.residual"),
    "gfp.matmul_mod.calls": ("calls", "gfp.matmul_mod"),
    "gfp.matmul_mod.self_s": ("self", "gfp.matmul_mod"),
    "gfp.matmul_mod.macs": ("count", "gfp.matmul_mod.macs"),
    "gfp.reduce_rowspace.self_s": ("self", "gfp.reduce_rowspace"),
    "gfp.nullspace_from_rref.self_s": ("self", "gfp.nullspace_from_rref"),
    "oracle.build_oracle.self_s": ("self", "oracle.build_oracle"),
    "oracle.dimension.max": ("count", "oracle.dimension.max"),
    "oracle.dimension.sum": ("count", "oracle.dimension.sum"),
    "oracle.ideal_generated_by.calls": ("calls", "oracle.ideal_generated_by"),
    "oracle.ideal_generated_by.self_s": ("self", "oracle.ideal_generated_by"),
    "oracle.ideal_generated_by.rounds": ("count", "oracle.ideal_generated_by.rounds"),
    "oracle.product_rows.rows": ("count", "oracle.product_rows.rows"),
    "oracle.product_rows.bytes": ("count", "oracle.product_rows.bytes"),
    "oracle.perp_subspace.calls": ("calls", "oracle.perp_subspace"),
    "oracle.perp_subspace.self_s": ("self", "oracle.perp_subspace"),
    "oracle.annihilator_constraints.rows": ("count", "oracle.annihilator_constraints.rows"),
    "oracle.is_graded_subspace.self_s": ("self", "oracle.is_graded_subspace"),
    "oracle.vertex_set_of.self_s": ("self", "oracle.vertex_set_of"),
    "graphs.Graph.cycles.calls": ("calls", "graphs.Graph.cycles"),
    "graphs.Graph.cycles.self_s": ("self", "graphs.Graph.cycles"),
    "graphs.Graph.cycles.cycles_out": ("count", "graphs.Graph.cycles.cycles_out"),
    "graphs.Graph.condition_l.self_s": ("self", "graphs.Graph.condition_l"),
    "graphs.Graph.exit_free_cycle_vertices.self_s": ("self", "graphs.Graph.exit_free_cycle_vertices"),
    "graphs.Graph.tree.calls": ("calls", "graphs.Graph.tree"),
    "graphs.Graph.tree.self_s": ("self", "graphs.Graph.tree"),
    "graphs.Graph.backward_reach.self_s": ("self", "graphs.Graph.backward_reach"),
    "hereditary.enumerate_hs_sets.calls": ("calls", "hereditary.enumerate_hs_sets"),
    "hereditary.enumerate_hs_sets.self_s": ("self", "hereditary.enumerate_hs_sets"),
    "hereditary.enumerate_hs_sets.subsets_scanned": ("count", "hereditary.enumerate_hs_sets.subsets_scanned"),
    "hereditary.enumerate_hs_sets.sets_out": ("count", "hereditary.enumerate_hs_sets.sets_out"),
    "hereditary.hs_closure.calls": ("calls", "hereditary.hs_closure"),
    "hereditary.hs_closure.self_s": ("self", "hereditary.hs_closure"),
    "ideals.analyze.self_s": ("self", "ideals.analyze"),
    "ideals.perp.calls": ("calls", "ideals.perp"),
    "ideals.double_perp.calls": ("calls", "ideals.double_perp"),
    "ideals.double_perp.self_s": ("self", "ideals.double_perp"),
    "ideals.is_regular.calls": ("calls", "ideals.is_regular"),
    "laurent.laurent_perp_is_zero.calls": ("calls", "laurent.laurent_perp_is_zero"),
    "laurent.laurent_perp_is_zero.self_s": ("self", "laurent.laurent_perp_is_zero"),
    "graphdoc.load_graph.calls": ("calls", "graphdoc.load_graph"),
    "graphdoc.load_graph.self_s": ("self", "graphdoc.load_graph"),
    "verify.exhaustive_acyclic_graphs.self_s": ("self", "verify.exhaustive_acyclic_graphs"),
    "verify.oracle_checks_for_graph.calls": ("calls", "verify.oracle_checks_for_graph"),
    "verify.oracle_checks_for_graph.self_s": ("self", "verify.oracle_checks_for_graph"),
    "verify.calculus_checks_for_graph.calls": ("calls", "verify.calculus_checks_for_graph"),
    "verify.calculus_checks_for_graph.self_s": ("self", "verify.calculus_checks_for_graph"),
    "verify.laurent_checks.self_s": ("self", "verify.laurent_checks"),
    "cli.main.calls": ("calls", "cli.main"),
    "cli.main.self_s": ("self", "cli.main"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced round; zero where the layer did not run."""
    self_time, edges = t.self_and_total()
    out: dict[str, float] = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind == "calls":
            out[metric] = t.calls.get(key, 0)
        elif kind == "self":
            out[metric] = self_time.get(key, 0.0)
        else:
            out[metric] = t.counts.get(key, 0)
    c = t.counts
    distinct = sum(len(seen) for _algebra, seen in t._ideals_by_algebra.values())
    out["oracle.ideal_generated_by.distinct_ratio"] = _ratio(distinct, t.calls.get("oracle.ideal_generated_by", 0))
    out["oracle.product_rows.useful_ratio"] = _ratio(
        c.get("oracle.ideal_generated_by.rank_gained", 0), c.get("oracle.product_rows.rows", 0)
    )
    # the closure audit is what IdealSubspace adds to Subspace: its time minus the RREF
    audit = self_time.get("oracle.IdealSubspace.__init__", 0.0) + sum(
        d for (p, child), d in edges.items() if p == "oracle.IdealSubspace.__init__" and child != "gfp.rref"
    )
    out["oracle.IdealSubspace.audit_s"] = audit
    out["hereditary.enumerate_hs_sets.yield_ratio"] = _ratio(
        c.get("hereditary.enumerate_hs_sets.sets_out", 0),
        c.get("hereditary.enumerate_hs_sets.subsets_scanned", 0),
    )
    out["trace.spans"] = len(t.span_start)
    return out
