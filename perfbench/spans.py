"""Spans around calls into the package's public functions, and the per-layer
metrics computed from them.

A span is (id, parent, trace, name, start_ns, end_ns).  Spans are kept in
memory and written out once the run ends; a trace is one replayed job (one
user-level call such as a bound estimate or a grid solve).  Self time is a
span's duration minus the durations of its children, which never overlap
because the replay is sequential.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dualbound import bounds, concave, dp_solver


class NullTracer:
    """Calls straight through; used where the run is not traced."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.attrs: dict = {}   # span id -> tuple of solver counters or grid size
        self.trace = 0
        self._parent = -1
        self._next = 0

    def call(self, name, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        parent = self._parent
        self._parent = sid
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._parent = parent
            self.spans.append((sid, parent, self.trace, name, t0, t1))

    def last_span_id(self) -> int:
        return self.spans[-1][0]

    def node_solver(self, oracle, cons, x0, tol):
        """Drop-in `solver=` for dp_solver.backward_recursion."""
        sol = self.call("concave.node", concave.maximize, oracle, cons, x0, tol=tol)
        self.attrs[self.last_span_id()] = (sol.iterations, sol.status, sol.kkt_residual)
        return sol

    def inner_solve(self, oracle, cons, x0):
        """The inner solve exactly as bounds.upper_bound calls it."""
        sol = self.call("concave.inner", concave.maximize, oracle, cons, x0,
                        tol=bounds.INNER_TOL, max_newton=bounds.INNER_MAX_NEWTON)
        self.attrs[self.last_span_id()] = (sol.iterations, sol.status, sol.kkt_residual)
        return sol

    def policy(self, vg, p):
        """The grid policy of dp_solver.make_grid_policy, one span per lookup."""

        def lookup(k, phi, W):
            return self.call("dp_solver.policy_lookup", dp_solver.policy_lookup, vg, k, phi, p)

        return lookup

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, parent, trace, name, t0, t1 in self.spans:
                rec = {"id": sid, "parent": parent, "trace": trace, "name": name,
                       "start_ns": t0, "end_ns": t1}
                if sid in self.attrs:
                    rec["attrs"] = self.attrs[sid]
                fh.write(json.dumps(rec) + "\n")


@dataclass(frozen=True)
class TraceInfo:
    """What the metrics need to know about one trace."""

    kind: str                      # job kind: grid, lower, upper, feasibility, setup
    scale: float                   # reference seconds per raw second for this trace
    untraced_s: Optional[float]    # the same call without tracing, reference seconds


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tr: Tracer, traces: dict) -> dict:
    """Per-layer metrics of BENCHMARK.json from the spans (all times scaled)."""
    dur = {}
    name_of = {}
    trace_of = {}
    bounds_of = {}
    children = defaultdict(list)
    for sid, parent, trace, name, t0, t1 in tr.spans:
        bounds_of[sid] = (t0, t1)
        dur[sid] = (t1 - t0) * 1e-9 * traces[trace].scale
        name_of[sid] = name
        trace_of[sid] = trace
        children[parent].append(sid)
    self_s = {sid: d - sum(dur[c] for c in children[sid]) for sid, d in dur.items()}
    by_name = defaultdict(list)
    for sid in dur:
        by_name[name_of[sid]].append(sid)

    def durs(name):
        return [dur[s] for s in by_name[name]]

    def total_self(name):
        return float(sum(self_s[s] for s in by_name[name]))

    m = {}
    for layer in ("node", "inner"):
        ids = by_name[f"concave.{layer}"]
        counters = [tr.attrs[s] for s in ids]
        d = durs(f"concave.{layer}")
        m[f"concave.{layer}.calls"] = len(ids)
        m[f"concave.{layer}.self_s"] = total_self(f"concave.{layer}")
        m[f"concave.{layer}.ms_p50"] = _median(d) * 1e3
        m[f"concave.{layer}.ms_p99"] = _pct(d, 99) * 1e3
        m[f"concave.{layer}.newton_mean"] = float(np.mean([c[0] for c in counters])) if counters else 0.0
        if layer == "node":
            m["concave.node.not_converged"] = sum(c[1] != concave.STATUS_CONVERGED for c in counters)
    inner = [tr.attrs[s] for s in by_name["concave.inner"]]
    m["concave.inner.max_iter"] = sum(c[1] == concave.STATUS_MAX_ITER for c in inner)
    m["concave.inner.kkt_max"] = float(max((c[2] for c in inner), default=0.0))
    upper_roots = [s for s in children[-1] if traces[trace_of[s]].kind == "upper"]
    upper_wall = sum(dur[s] for s in upper_roots)
    m["concave.inner.share"] = m["concave.inner.self_s"] / upper_wall if upper_wall else 0.0

    m["dp_solver.build_quadrature.s"] = _median(durs("dp_solver.build_quadrature"))
    m["dp_solver.build_phi_transition.s"] = _median(durs("dp_solver.build_phi_transition"))
    m["dp_solver.backward_recursion.self_s"] = total_self("dp_solver.backward_recursion")
    stages = []
    for rec in by_name["dp_solver.backward_recursion"]:
        G = tr.attrs[rec]
        nodes = sorted(children[rec])   # sequential siblings: id order is time order
        start = bounds_of[rec][0]
        for k in range(G - 1, len(nodes), G):   # a stage ends with its G-th node solve
            end = bounds_of[nodes[k]][1]
            stages.append((end - start) * 1e-9 * traces[trace_of[rec]].scale)
            start = end
    m["dp_solver.stage_s_p50"] = _median(stages)
    m["dp_solver.node_solves"] = len(by_name["concave.node"])
    m["dp_solver.load_value_grid.s"] = _median(durs("dp_solver.load_value_grid"))
    m["dp_solver.policy_lookup.calls"] = len(by_name["dp_solver.policy_lookup"])
    m["dp_solver.policy_lookup.us_p50"] = _median(durs("dp_solver.policy_lookup")) * 1e6

    sims = by_name["market.simulate_policy_path"]
    sim_self = total_self("market.simulate_policy_path")
    sim_stages = sum(len(children[s]) for s in sims)   # one policy lookup per stage
    m["market.simulate_policy_path.calls"] = len(sims)
    m["market.simulate_policy_path.self_s"] = sim_self
    m["market.simulate_policy_path.us_per_stage"] = sim_self / sim_stages * 1e6 if sim_stages else 0.0
    m["penalties.build_context.calls"] = len(by_name["penalties.build_context"])
    m["penalties.build_context.self_s"] = total_self("penalties.build_context")
    m["penalties.penalty_form.us_p50"] = _median(durs("penalties.penalty_form")) * 1e6

    m["bounds.shock_path.us_p50"] = _median(durs("bounds.shock_path")) * 1e6
    m["bounds.assemble_inner.ms_p50"] = _median(durs("bounds.assemble_inner")) * 1e3
    m["bounds.path_utility.us_p50"] = _median(durs("bounds.path_utility")) * 1e6
    for kind in ("lower", "upper"):
        overhead = 0.0
        for root in children[-1]:
            info = traces[trace_of[root]]
            if info.kind == kind and info.untraced_s is not None:
                overhead += info.untraced_s - sum(dur[c] for c in children[root])
        m[f"bounds.{kind}_bound.overhead_s"] = overhead
    m["cli.solve.s"] = _median(durs("cli.solve"))
    return m

