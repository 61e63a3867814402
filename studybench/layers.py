"""Spans around the calls into each wgmixed module, installed from outside.

`install` replaces a fixed list of module-level functions with timing
wrappers, in the module that defines each one and in every wgmixed module
that imported it, so calls from another module and calls inside the defining
module are both seen.  It also wraps the `splu` that `wgmixed.solver`
imports from scipy, and the exact u, p and g of each case that
`registry_lookup` returns.  The program's source is not changed;
`uninstall` puts the original functions back.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.  Reading a count from a result (matrix nnz, LU fill) happens
after the span has ended and is charged to no span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

MODULES = ("assembly", "basis", "cli", "convergence", "mesh", "quadrature",
           "solutions", "solver")

# (module the name is taken from, attribute) -> span name
TRACED = {
    ("convergence", "run_convergence_study"): "study",
    ("convergence", "run_level"): "convergence.level",
    ("convergence", "project_exact"): "convergence.project_exact",
    ("convergence", "vh_norm"): "convergence.error_norms",
    ("convergence", "l2_pressure_error"): "convergence.error_norms",
    ("convergence", "l2_flux_interior_error"): "convergence.error_norms",
    ("mesh", "generate_disk_mesh"): "mesh.generate",
    ("mesh", "validate_mesh"): "mesh.validate",
    ("quadrature", "polygon_rule"): "quadrature.polygon_rule",
    ("quadrature", "polygon_centroid"): "quadrature.polygon_centroid",
    ("quadrature", "polygon_area"): "quadrature.polygon_area",
    ("quadrature", "edge_rule"): "quadrature.edge_rule",
    ("basis", "cell_basis"): "basis.cell_basis",
    ("basis", "cell_diameter"): "basis.cell_diameter",
    ("basis", "project_cell"): "basis.project_cell",
    ("basis", "project_edge"): "basis.project_edge",
    ("assembly", "assemble_system"): "assembly.system",
    ("assembly", "assemble_rhs"): "assembly.rhs",
    ("assembly", "assemble_vh_matrix"): "assembly.vh_matrix",
    ("solver", "solve_saddle"): "solver.solve",
    ("solver", "splu"): "solver.factor",
    ("solutions", "registry_lookup"): "solutions.lookup",
}


class Tracer:
    """Spans and per-name self times and counts, kept in memory.

    `reset` clears the aggregates in place between rounds; spans are kept only
    while `keep_spans` is true.
    """

    def __init__(self):
        self.spans = []              # (name, start, end, parent index or -1)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()      # read from results by the hooks
        self.keep_spans = True
        self._open = []              # [span index, seconds in wrapped children]

    def reset(self, keep_spans: bool) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.keep_spans = keep_spans

    def wrap(self, name, fn, hook=None):
        clock = time.perf_counter
        spans, open_, self_s, calls = self.spans, self._open, self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else None
            idx = -1
            if self.keep_spans:
                idx = len(spans)
                spans.append(None)
            frame = [idx, 0.0]
            open_.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                self_s[name] += (t1 - t0) - frame[1]
                calls[name] += 1
                if idx >= 0:
                    spans[idx] = (name, t0, t1, parent[0] if parent else -1)
            if hook is not None:
                result = hook(self, result)
            if parent is not None:
                parent[1] += clock() - t0
            return result

        return traced

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, name, start, end, parent id or -1],
        times in seconds from the start of the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                name, t0, t1, parent = span
                fh.write(json.dumps([i, name, round(t0 - origin, 7),
                                     round(t1 - origin, 7), parent]))
                fh.write("\n")


def _count_system(tracer, system):
    tracer.counts["cells"] += len(system.layout.mesh.cells)
    tracer.counts["matrix_nnz"] += system.A.nnz + system.B.nnz + system.pressure_rows.nnz
    return system


def _count_fill(tracer, lu):
    # one factor at a time, so the extracted copy of L is freed before U is built
    tracer.counts["lu_fill"] += lu.L.nnz
    tracer.counts["lu_fill"] += lu.U.nnz
    return lu


def _trace_case(tracer, case):
    return dataclasses.replace(
        case,
        u=tracer.wrap("solutions.eval", case.u),
        p=tracer.wrap("solutions.eval", case.p),
        g=tracer.wrap("solutions.eval", case.g),
    )


HOOKS = {
    "assembly.system": _count_system,
    "solver.factor": _count_fill,
    "solutions.lookup": _trace_case,
}


def install(tracer: Tracer) -> list:
    """Wrap every TRACED function wherever a wgmixed module holds it."""
    mods = [importlib.import_module(f"wgmixed.{m}") for m in MODULES]
    mods.append(importlib.import_module("wgmixed"))
    patched = []
    for (modname, attr), span in TRACED.items():
        orig = getattr(importlib.import_module(f"wgmixed.{modname}"), attr)
        traced = tracer.wrap(span, orig, HOOKS.get(span))
        for mod in mods:
            if mod.__dict__.get(attr) is orig:
                setattr(mod, attr, traced)
                patched.append((mod, attr, orig))
    return patched


def uninstall(patched: list) -> None:
    for mod, attr, orig in reversed(patched):
        setattr(mod, attr, orig)
