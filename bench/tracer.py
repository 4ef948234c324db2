"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the riccikit modules from outside the
program: while installed, every call records a span (name, start, end,
parent) in flat in-memory arrays.  Nothing is written while the workload
runs; `layer_stats` reduces the spans when the run ends.  A span's self time
is its duration minus the time covered by its child spans.
"""

import functools
import json
import time
from array import array

import numpy as np


def targets():
    """(owner, attribute, layer name) for every call boundary the benchmark
    traces.  Methods patched on a class apply to every instance; several
    classes may report under one layer name (each body kind's gauge_grad)."""
    from riccikit import (
        bodies,
        catalog,
        cli,
        engine,
        families,
        fields,
        measures,
        tensor_core,
        transport,
    )

    out = [
        (cli, "parse_config", "cli.parse_config"),
        (cli, "run_suite", "cli.run_suite"),
        (cli, "report_to_csv", "cli.report_to_csv"),
        (catalog, "instantiate", "catalog.instantiate"),
        (measures, "from_spec", "measures.from_spec"),
        (fields.QuadraticFormField, "values", "fields.QuadraticFormField.values"),
        (bodies.ConeMeasureSampler, "sample", "bodies.ConeMeasureSampler.sample"),
        (bodies, "diagonality_bounds", "bodies.diagonality_bounds"),
        (bodies.Ball, "sample_boundary", "bodies.sample_boundary"),
        (bodies.Simplex, "sample_facet", "bodies.sample_facet"),
        (transport.Density1D, "__init__", "transport.Density1D"),
        (transport.Density1D, "ppf", "transport.Density1D.ppf"),
        (transport.DualCriterion, "bisect_rho", "transport.DualCriterion.bisect_rho"),
    ]
    for fn in ("check_inequality", "sample_measure", "estimate_lhs",
               "estimate_rhs", "boundary_quadrature", "spectral_gap_1d"):
        out.append((engine, fn, f"engine.{fn}"))
    for fn in ("ke_solve_1d", "monotone_map_1d", "transport_potential_1d",
               "monge_ampere_residual", "dual_criterion_from_potential"):
        out.append((transport, fn, f"transport.{fn}"))
    for fn in ("generalized_ricci", "christoffel"):
        out.append((tensor_core, fn, f"tensor_core.{fn}"))
    for fn in ("hessian_ricci", "product_ricci", "conformal_ricci_N"):
        out.append((families, fn, f"families.{fn}"))
    body_classes = (bodies.ConvexBody, bodies.Ball, bodies.Box, bodies.Simplex,
                    bodies.LpBall, bodies.Curve2D)
    for method in ("gauge_grad", "normal", "sample_uniform"):
        for cls in body_classes:
            if method in vars(cls):
                out.append((cls, method, f"bodies.{method}"))
    return out


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._patched = []
        self._rounds = []  # (first span, end span, KE iterations) per traced round
        self._ke_iterations = 0

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        nid = self._intern(name)
        count_iterations = name == "transport.ke_solve_1d"
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_iterations:
                self._ke_iterations += result.iterations
            return result

        return traced

    def install(self, spec):
        for owner, attr, name in spec:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_round(self):
        self._round_start = len(self._start)
        self._ke_iterations = 0

    def end_round(self):
        self._rounds.append((self._round_start, len(self._start), self._ke_iterations))

    def layer_stats(self):
        """Per traced round: {layer: (calls, self seconds)} and the total
        iterations of the round's ke_solve_1d calls."""
        parent = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._end) - np.array(self._start)
        nid = np.array(self._name, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        rounds = []
        for lo, hi, ke_iterations in self._rounds:
            calls = np.bincount(nid[lo:hi], minlength=len(self.names))
            busy = np.bincount(nid[lo:hi], weights=self_time[lo:hi],
                               minlength=len(self.names))
            stats = {name: (int(calls[i]), float(busy[i]))
                     for i, name in enumerate(self.names)}
            rounds.append((stats, ke_iterations))
        return rounds

    def write_spans(self, path):
        """One JSON line per span: name, start, end (perf_counter seconds)
        and the index of the parent span (-1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for nid, parent, start, end in zip(self._name, self._parent,
                                               self._start, self._end):
                fh.write(json.dumps([self.names[nid], start, end, parent]) + "\n")
