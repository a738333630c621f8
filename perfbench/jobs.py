"""Jobs: one user-level call into the package each.

`run` makes the public call exactly as a user would (timed, untraced).
`replay` makes the same computation through the public functions that the
call is built from, each wrapped in a span, and returns the same outcome, so
the per-layer numbers can be shown to describe the program that was timed.
`outcome` reduces a result to what the replay must reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from dualbound import bounds, concave, dp_solver, market, penalties
from dualbound.market import ModelParams, ShockPath


class GridJob:
    kind = "grid"
    errors = (dp_solver.NodeSolveError,)

    def __init__(self, name: str, p: ModelParams, nodes: int = 21, quad: int = 3):
        self.name = name
        self.p = p
        self.grid = np.linspace(-2.0, 2.0, nodes)   # the `dualbound solve` grid
        self.quad = quad
        self.ops = p.K * nodes                        # Bellman node solves

    def run(self, workers: int = 1):
        quad = dp_solver.build_quadrature(self.quad, self.p.n)
        pt = dp_solver.build_phi_transition(self.grid, self.p)
        return dp_solver.backward_recursion(self.p, grid=self.grid, quad=quad, pt=pt)

    def replay(self, tr):
        quad = tr.call("dp_solver.build_quadrature", dp_solver.build_quadrature, self.quad, self.p.n)
        pt = tr.call("dp_solver.build_phi_transition", dp_solver.build_phi_transition, self.grid, self.p)
        vg = tr.call("dp_solver.backward_recursion", dp_solver.backward_recursion, self.p,
                     grid=self.grid, quad=quad, pt=pt, solver=tr.node_solver)
        tr.attrs[tr.last_span_id()] = self.grid.size
        return self.outcome(vg)

    @staticmethod
    def outcome(vg):
        return vg.J.tobytes()

    def account(self, vg) -> tuple:
        return self.ops, 0


def _legs(tr, p: ModelParams, cfg: bounds.RunConfig, r: int, i: int):
    base = tr.call("bounds.shock_path", bounds.shock_path, p, cfg.seed, r, i)
    if not cfg.antithetic:
        return (base,)
    return base, tr.call("market.ShockPath.antithetic", base.antithetic)


class _BoundJob:
    errors = (bounds.PathError,)

    def __init__(self, name: str, p: ModelParams, vg, cfg: bounds.RunConfig):
        self.name = name
        self.p = p
        self.vg = vg
        self.cfg = cfg
        self.ops = cfg.runs * cfg.paths_per_run * (2 if cfg.antithetic else 1)   # path legs


class LowerJob(_BoundJob):
    kind = "lower"

    def run(self, workers: int = 1):
        return bounds.lower_bound(self.p, self.vg, self.cfg, workers=workers)

    def replay(self, tr):
        p, cfg = self.p, self.cfg
        policy = tr.policy(self.vg, p)
        run_means = np.empty(cfg.runs)
        for r in range(cfg.runs):
            vals = []
            for i in range(cfg.paths_per_run):
                for sp in _legs(tr, p, cfg, r, i):
                    path = tr.call("market.simulate_policy_path", market.simulate_policy_path, p, policy, sp)
                    vals.append(tr.call("bounds.path_utility", bounds.path_utility, p, path.C, float(path.W[-1])))
            run_means[r] = float(np.mean(vals))
        return run_means.tobytes()

    @staticmethod
    def outcome(est):
        return est.run_means.tobytes()

    def account(self, est) -> tuple:
        return est.total_paths, 0


class UpperJob(_BoundJob):
    kind = "upper"

    def run(self, workers: int = 1):
        return bounds.upper_bound(self.p, self.vg, self.cfg, workers=workers)

    def replay(self, tr):
        p, cfg = self.p, self.cfg
        policy = tr.policy(self.vg, p)
        run_means = np.empty(cfg.runs)
        flagged = 0
        for r in range(cfg.runs):
            vals = []
            for i in range(cfg.paths_per_run):
                for sp in _legs(tr, p, cfg, r, i):
                    ctx = tr.call("penalties.build_context", penalties.build_context, p, self.vg, policy, sp)
                    form = tr.call("penalties.penalty_form", penalties.penalty_form, cfg.penalty_kind, ctx, p)
                    oracle, cons, x0 = tr.call("bounds.assemble_inner", bounds.assemble_inner, p, form, ctx)
                    sol = tr.inner_solve(oracle, cons, x0)
                    vals.append(sol.f)
                    flagged += sol.status != concave.STATUS_CONVERGED
            run_means[r] = float(np.mean(vals))
        return run_means.tobytes(), flagged

    @staticmethod
    def outcome(est):
        return est.run_means.tobytes(), est.flagged_paths

    def account(self, est) -> tuple:
        return est.total_paths, est.flagged_paths


class FeasibilityJob:
    kind = "feasibility"
    errors = (market.AdmissibilityError,)

    def __init__(self, name: str, p: ModelParams, vg, penalty: str, pairs: int, seed: int):
        self.name = name
        self.p = p
        self.vg = vg
        self.penalty = penalty
        self.pairs = pairs
        self.seed = seed
        self.ops = 2 * pairs   # path legs

    def run(self, workers: int = 1):
        return penalties.feasibility_check(self.penalty, self.p, self.vg, n_paths=self.pairs, seed=self.seed)

    def replay(self, tr):
        p = self.p
        policy = tr.policy(self.vg, p)
        # feasibility_check draws its pairs from one sequential stream of its
        # own; if that scheme changes, the replay no longer matches and the
        # run says so instead of printing per-layer numbers.
        key = np.random.SeedSequence((self.seed, 0x7EA5)).generate_state(2, np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        pair_means = np.empty(self.pairs)
        for i in range(self.pairs):
            shocks = ShockPath(Z=rng.standard_normal((p.K, p.n)), Ztilde=rng.standard_normal((p.K, p.d)))
            vals = []
            for sp in (shocks, tr.call("market.ShockPath.antithetic", shocks.antithetic)):
                ctx = tr.call("penalties.build_context", penalties.build_context, p, self.vg, policy, sp)
                form = tr.call("penalties.penalty_form", penalties.penalty_form, self.penalty, ctx, p)
                vals.append(tr.call("penalties.PenaltyForm.evaluate", form.evaluate, ctx.Pi, ctx.C))
            pair_means[i] = 0.5 * (vals[0] + vals[1])
        mean = float(np.mean(pair_means))
        stderr = float(np.std(pair_means, ddof=1) / math.sqrt(self.pairs))
        return mean, stderr

    @staticmethod
    def outcome(rep):
        return rep.mean, rep.stderr

    def account(self, rep) -> tuple:
        return 2 * rep.n_pairs, 0
