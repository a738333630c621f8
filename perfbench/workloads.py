"""The benchmark's workloads: the grids each one sets up, the jobs it times,
the jobs its correctness gate adds, and the checks it makes.

Why these three, which layer each stresses and which it bypasses, is in
perfbench/README.md.  The seed reaches RunConfig.seed, the feasibility
seed and the job order; grid solves do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from dualbound import dp_solver
from dualbound.bounds import RunConfig
from dualbound.market import parameter_set

from jobs import FeasibilityJob, GridJob, LowerJob, UpperJob

PUBLISHED_LOWER = -5.480     # set 1, gamma 1.5, 100 pairs x 10 runs
PUBLISHED_LOWER_TOL = 0.05
ORDER_SIGMAS = 3.0           # weak-duality ordering tolerance, combined stderr
FEAS_SIGMAS = 5.0            # zero-mean check; 3 sigma would fail ~1 run in 200 by chance
REFERENCE_SEED = 42          # fixed seed of the small fingerprinted config


def _none(*args):
    return []


@dataclass(frozen=True)
class Workload:
    setup_grids: tuple                 # (name, parameter set, gamma) solved via `dualbound solve`
    jobs: Callable                     # (grids, seed) -> timed jobs
    gate_jobs: Callable = _none        # (grids, seed) -> jobs run once for the checks
    checks: Callable = _none           # (results) -> [(check, ok, detail)]


def _cfg(seed, pairs, runs, penalty="zero", set_id=1):
    return RunConfig(paths_per_run=pairs, runs=runs, seed=seed, penalty_kind=penalty,
                     gamma=1.5, parameter_set_id=set_id)


def invariance_jobs(grids) -> list:
    """Small lower+upper config at the reference seed, run at workers=1 and 2."""
    p, vg = grids["set1"]
    return [LowerJob("invariance-lower", p, vg, _cfg(REFERENCE_SEED, 20, 2)),
            UpperJob("invariance-m1", p, vg, _cfg(REFERENCE_SEED, 2, 2, "m1"))]


def _within_published(est) -> tuple:
    ok = abs(est.mean - PUBLISHED_LOWER) <= PUBLISHED_LOWER_TOL
    return ("lower-set1-published", ok,
            f"{est.mean:.5f} +- {est.stderr:.5f} vs {PUBLISHED_LOWER} +- {PUBLISHED_LOWER_TOL}")


# grid-sweep ---------------------------------------------------------------

def _grid_sweep_jobs(grids, seed):
    jobs = [GridJob(f"set{s}", parameter_set(s, 1.5)) for s in (1, 2, 3, 4)]
    jobs.append(GridJob("set1-g5", parameter_set(1, 5.0)))
    jobs.append(GridJob("set1-fine", parameter_set(1, 1.5), nodes=41, quad=5))
    return jobs


# dual-bound ---------------------------------------------------------------

def _dual_bound_jobs(grids, seed):
    p, vg = grids["set1"]
    return [UpperJob(f"upper-{k}", p, vg, _cfg(seed, 8, 10, k)) for k in ("m1", "m2", "zero")]


def _dual_bound_gate(grids, seed):
    p, vg = grids["set1"]
    return [LowerJob("lower-set1", p, vg, _cfg(seed, 100, 10))]


def _dual_bound_checks(results):
    lower, m1, m2, zero = (results[n] for n in ("lower-set1", "upper-m1", "upper-m2", "upper-zero"))
    best = min((m1, m2), key=lambda e: e.mean)
    out = [_within_published(lower)]
    for name, lo, hi in (("lower<=min(m1,m2)", lower, best), ("min(m1,m2)<=zero", best, zero)):
        slack = ORDER_SIGMAS * math.hypot(lo.stderr, hi.stderr)
        out.append((name, lo.mean <= hi.mean + slack,
                    f"{lo.mean:.5f} <= {hi.mean:.5f} + {slack:.5f}"))
    return out


# policy-paths -------------------------------------------------------------

def _policy_paths_jobs(grids, seed):
    p1, vg1 = grids["set1"]
    p2, vg2 = grids["set2"]
    return [LowerJob("lower-set1", p1, vg1, _cfg(seed, 100, 10)),
            LowerJob("lower-set2", p2, vg2, _cfg(seed, 100, 10, set_id=2)),
            FeasibilityJob("feas-m1", p1, vg1, "m1", 1000, seed),
            FeasibilityJob("feas-m2", p1, vg1, "m2", 1000, seed)]


def _policy_paths_checks(results):
    out = [_within_published(results["lower-set1"])]
    for name in ("feas-m1", "feas-m2"):
        rep = results[name]
        out.append((f"{name}-zero-mean", abs(rep.mean) <= FEAS_SIGMAS * rep.stderr,
                    f"|{rep.mean:.3g}| <= {FEAS_SIGMAS:g} x {rep.stderr:.3g}"))
    return out


WORKLOADS = {
    "grid-sweep": Workload((("set1", 1, 1.5),), _grid_sweep_jobs),
    "dual-bound": Workload((("set1", 1, 1.5),), _dual_bound_jobs, _dual_bound_gate, _dual_bound_checks),
    "policy-paths": Workload((("set1", 1, 1.5), ("set2", 2, 1.5)), _policy_paths_jobs,
                             checks=_policy_paths_checks),
}


def j0(vg, p) -> float:
    return dp_solver.interpolate_J(vg, 0, p.phi0)
