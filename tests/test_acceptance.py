"""Acceptance suite: one test per gated criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  The heavyweight artifacts (solved grids, bound estimates at the
published run sizes) are module-scoped fixtures shared across criteria.
"""

import time

import numpy as np
import pytest

from dualbound import bounds, concave, dp_solver, dual, market, penalties
from dualbound.bounds import RunConfig, certainty_equivalent, duality_gap
from dualbound.cli import main as cli_main

from helpers import (
    at_point,
    bellman_node_problem,
    inner_objective_grid_search,
    matching_mdp,
    node_objective_grid_search,
    random_feasible_fractions,
    random_mdp,
    single_asset_params,
)
from dualbound import finite_mdp as fm


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grids(solved_grid):
    keys = [(1, 1.5), (1, 3.0), (1, 5.0), (2, 1.5), (3, 1.5), (4, 1.5)]
    return {key: solved_grid(*key) for key in keys}


@pytest.fixture(scope="module")
def estimates(grids):
    """Published-size runs: lower 100 pairs x 10 runs, upper 30 pairs x 10 runs."""
    out = {}
    for gamma in (1.5, 3.0, 5.0):
        p, vg = grids[(1, gamma)]
        lo_cfg = RunConfig(paths_per_run=100, runs=10, seed=42, gamma=gamma, parameter_set_id=1)
        t0 = time.time()
        out[("lower", gamma)] = bounds.lower_bound(p, vg, lo_cfg)
        out[("lower_time", gamma)] = time.time() - t0
        kinds = ("m1", "m2", "zero") if gamma == 1.5 else ("m1", "m2")
        t0 = time.time()
        for kind in kinds:
            cfg = RunConfig(paths_per_run=30, runs=10, seed=42, penalty_kind=kind,
                            gamma=gamma, parameter_set_id=1)
            out[(kind, gamma)] = bounds.upper_bound(p, vg, cfg)
        out[("upper_time", gamma)] = time.time() - t0
    return out


def test_criterion_1_finite_mdp_strong_duality():
    t0 = time.time()
    instances = [matching_mdp()]
    rng = np.random.default_rng(20260810)
    instances += [random_mdp(rng) for _ in range(100)]
    worst = 0.0
    for mdp in instances:
        rep = fm.verify_duality(mdp)  # raises on any failed check
        worst = max(worst, abs(rep.optimal_penalty_bound - rep.v0))
        assert rep.zero_penalty_bound >= rep.v0 - 1e-12
    elapsed = time.time() - t0
    report(1, worst <= 1e-10 and elapsed < 10.0,
           f"strong duality on matching + 100 random MDPs, worst |gap| = {worst:.2e}, "
           f"{elapsed:.1f}s (< 10s)")


def test_criterion_2_benchmark_lower_bound(estimates):
    est = estimates[("lower", 1.5)]
    elapsed = estimates[("lower_time", 1.5)]
    ok = abs(est.mean - (-5.480)) <= 0.05 and elapsed < 120.0
    report(2, ok, f"set 1 gamma=1.5 lower = {est.mean:.4f} (stderr {est.stderr:.4f}) "
                  f"in -5.480 +- 0.05, {elapsed:.1f}s (< 2min)")


def test_criterion_3_benchmark_dual_bounds(estimates):
    m1, m2, zero = estimates[("m1", 1.5)], estimates[("m2", 1.5)], estimates[("zero", 1.5)]
    lo = estimates[("lower", 1.5)]
    gap = duality_gap(lo, m1, m2)["value_gap_frac"]
    elapsed = estimates[("upper_time", 1.5)]
    ok = (abs(m1.mean - (-5.391)) <= 0.06 and abs(m2.mean - (-5.392)) <= 0.06
          and abs(zero.mean - (-4.861)) <= 0.12 and gap <= 0.03 and elapsed < 600.0)
    report(3, ok, f"m1 = {m1.mean:.4f} (target -5.391 +- 0.06), m2 = {m2.mean:.4f} "
                  f"(-5.392 +- 0.06), zero = {zero.mean:.4f} (-4.861 +- 0.12), "
                  f"gap = {gap * 100:.2f}% (<= 3%), {elapsed:.0f}s (< 10min)")


def test_criterion_4_certainty_equivalent_closed_form():
    ce1 = certainty_equivalent(-5.480, 1.5)
    ce2 = certainty_equivalent(-42.887, 3.0)
    ok = abs(ce1 - 0.1332) <= 1e-4 and abs(ce2 - 0.1080) <= 1e-4
    report(4, ok, f"CE(-5.480, 1.5) = {ce1:.5f} (0.1332 +- 1e-4), "
                  f"CE(-42.887, 3) = {ce2:.5f} (0.1080 +- 1e-4)")


def test_criterion_5_gamma_sweep(estimates):
    checks = []
    for gamma, lo_ref, gap_lo, gap_hi in ((3.0, -42.887, 0.04, 0.12),
                                          (5.0, -2445.9, 0.10, 0.22)):
        lo = estimates[("lower", gamma)]
        gap = duality_gap(lo, estimates[("m1", gamma)], estimates[("m2", gamma)])["value_gap_frac"]
        rel = abs(lo.mean - lo_ref) / abs(lo_ref)
        checks.append((gamma, lo.mean, rel, gap, rel <= 0.03 and gap_lo <= gap <= gap_hi))
    detail = "; ".join(
        f"gamma={g}: lower {m:.1f} (rel dev {r * 100:.2f}% <= 3%), gap {gp * 100:.2f}%"
        for g, m, r, gp, _ in checks)
    report(5, all(c[-1] for c in checks), detail)


def test_criterion_6_dual_feasibility_all_sets(grids):
    results = []
    for sid in (1, 2, 3, 4):
        p, vg = grids[(sid, 1.5)]
        policy = dp_solver.make_grid_policy(vg, p)
        rng_key = 1000 + sid
        sums = {"m1": [], "m2": []}
        # Contexts and penalties of 1,000 pairs at a time, each leg
        # bit-identical to its one-path build_context and penalty_form.
        for start in range(0, 10_000, 1000):
            legs = []
            for i in range(start, start + 1000):
                sp = bounds.shock_path(p, rng_key, 0, i)
                legs += [sp, sp.antithetic()]
            ctxs = penalties.build_contexts(p, vg, policy, np.array([leg.Z for leg in legs]),
                                            np.array([leg.Ztilde for leg in legs]))
            for kind in ("m1", "m2"):
                vals = penalties.penalty_form(kind, ctxs, p).evaluate(ctxs.Pi, ctxs.C)
                sums[kind].extend(0.5 * (vals[0::2] + vals[1::2]))
        for kind in ("m1", "m2"):
            vals = np.asarray(sums[kind])
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1) / np.sqrt(len(vals)))
            results.append((sid, kind, mean, stderr, abs(mean) <= 3 * stderr))
    detail = "; ".join(f"set {s} {k}: mean {m:.2e} <= 3x{se:.2e}" + ("" if ok else " FAIL")
                       for s, k, m, se, ok in results)
    report(6, all(r[-1] for r in results), detail)


def test_criterion_7_statistical_weak_duality_and_dominance(grids, estimates):
    failures = []
    flagged = []
    for gamma in (1.5, 3.0, 5.0):
        lo = estimates[("lower", gamma)]
        kinds = ("m1", "m2", "zero") if gamma == 1.5 else ("m1", "m2")
        for kind in kinds:
            up = estimates[(kind, gamma)]
            slack = 3.0 * float(np.hypot(lo.stderr, up.stderr))
            if not up.mean >= lo.mean - slack:
                failures.append(f"{kind}@{gamma}")
            flagged.append(f"{kind}@{gamma} {up.flagged_paths}")
    # pathwise foresight dominance with the zero penalty, exact per path
    p, vg = grids[(1, 1.5)]
    policy = dp_solver.make_grid_policy(vg, p)
    dominated = 0
    n_paths = 100
    for i in range(n_paths):
        sp = bounds.shock_path(p, 777, 0, i)
        path = market.simulate_policy_path(p, policy, sp)
        realized = bounds.path_utility(p, path.C, float(path.W[-1]))
        ctx = penalties.build_context(p, vg, policy, sp)
        oracle, cons, x0 = dual.assemble_inner(p, penalties.penalty_form("zero", ctx, p), ctx)
        sol = concave.maximize(oracle, cons, x0, tol=1e-6)
        if sol.f >= realized - 1e-9:
            dominated += 1
    ok = not failures and dominated == n_paths
    report(7, ok, f"upper >= lower - 3 stderr for all runs"
                  f"{' except ' + ','.join(failures) if failures else ''}; "
                  f"foresight dominance on {dominated}/{n_paths} paths; "
                  f"flagged legs {', '.join(flagged)}")


def test_criterion_8_oracle_equivalence():
    p = single_asset_params(gamma=1.5, K=1)
    vg = dp_solver.backward_recursion(p, grid=np.linspace(-2, 2, 5))
    policy = dp_solver.make_grid_policy(vg, p)
    worst_inner = 0.0
    for kind in ("zero", "m1"):
        for seed in range(3):
            sp = bounds.shock_path(p, seed, 0, 0)
            ctx = penalties.build_context(p, vg, policy, sp)
            form = penalties.penalty_form(kind, ctx, p)
            oracle, cons, x0 = dual.assemble_inner(p, form, ctx)
            sol = concave.maximize(oracle, cons, x0, tol=1e-8)
            ref, _ = inner_objective_grid_search(p, form, ctx, step=1e-3)
            assert sol.f >= ref - 1e-12
            worst_inner = max(worst_inner, abs(sol.f - ref))
    quad = dp_solver.build_quadrature(3, 1)
    grid5 = np.linspace(-2, 2, 5)
    pt = dp_solver.build_phi_transition(grid5, p)
    vg2 = dp_solver.backward_recursion(p, grid=grid5, quad=quad, pt=pt)
    worst_node = 0.0
    for i, phi in enumerate(grid5):
        EJ = float((pt @ vg2.J[1])[i])
        Rq = dp_solver.node_returns(p, quad, phi)
        ref, _, _ = node_objective_grid_search(p, Rq, quad.weights, EJ, step=1e-3)
        worst_node = max(worst_node, abs(vg2.J[0, i] - ref))
    ok = worst_inner <= 1e-4 and worst_node <= 1e-4
    report(8, ok, f"inner-vs-grid-search |diff| <= {worst_inner:.2e}, "
                  f"node-vs-grid-search |diff| <= {worst_node:.2e} (both <= 1e-4)")


def test_criterion_9_gradient_checks(p_set1, vg_set1):
    rng = np.random.default_rng(5150)
    policy = dp_solver.make_grid_policy(vg_set1, p_set1)
    sp = bounds.shock_path(p_set1, 0, 0, 0)
    ctx = penalties.build_context(p_set1, vg_set1, policy, sp)
    form = penalties.penalty_form("m1", ctx, p_set1)
    oracle, cons, _ = dual.assemble_inner(p_set1, form, ctx)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        x = _feasible_inner_point(rng, p_set1, ctx)
        g = at_point(oracle.gradient, x)
        j = int(rng.integers(x.size))
        e = np.zeros(x.size)
        e[j] = h
        fd = (at_point(oracle.value, x + e) - at_point(oracle.value, x - e)) / (2 * h)
        worst = max(worst, abs(g[j] - fd) / max(1e-8, abs(fd)))
    quad = dp_solver.build_quadrature(3, p_set1.n)
    Rq = dp_solver.node_returns(p_set1, quad, 0.2)
    node_oracle, _ = bellman_node_problem(p_set1, Rq, quad.weights, -1.1)
    worst_node = 0.0
    for _ in range(100):
        pi, c = random_feasible_fractions(rng, p_set1)
        x = np.concatenate([pi, [max(c, 1e-3)]])
        g = at_point(node_oracle.gradient, x)
        j = int(rng.integers(x.size))
        e = np.zeros(x.size)
        e[j] = h
        fd = (at_point(node_oracle.value, x + e) - at_point(node_oracle.value, x - e)) / (2 * h)
        worst_node = max(worst_node, abs(g[j] - fd) / max(1e-8, abs(fd)))
    ok = worst <= 1e-5 and worst_node <= 1e-5
    report(9, ok, f"inner objective rel err <= {worst:.2e}, "
                  f"node objective rel err <= {worst_node:.2e} (both <= 1e-5)")


def test_criterion_10_worker_determinism(grid_file_set1, tmp_path):
    outputs = {}
    for which, extra in (("lower", []), ("upper", ["--penalty", "m1"])):
        for w in ("1", "4"):
            out = tmp_path / f"{which}_w{w}.csv"
            code = cli_main([which, "--grid", grid_file_set1, *extra,
                             "--seed", "31415", "--paths", "6", "--runs", "3",
                             "--workers", w, "--out", str(out)])
            assert code == 0
            outputs[(which, w)] = out.read_bytes()
    ok = (outputs[("lower", "1")] == outputs[("lower", "4")]
          and outputs[("upper", "1")] == outputs[("upper", "4")])
    report(10, ok, "lower and upper CSVs bit-identical for --workers 1 and 4")


def _feasible_inner_point(rng, p, ctx):
    x = np.empty(p.K * (p.n + 1))
    W = p.W0
    for k in range(p.K):
        pi, c = random_feasible_fractions(rng, p)
        c = max(c, 1e-6)
        x[k * (p.n + 1): k * (p.n + 1) + p.n] = W * pi
        x[k * (p.n + 1) + p.n] = W * c
        W = W * p.R_f + float(np.dot(ctx.R[k] - p.R_f, W * pi)) - W * c
    return x
