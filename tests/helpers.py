"""Shared builders and brute-force oracles used across the test modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from dualbound import bounds, concave, dp_solver, finite_mdp, market


def matching_mdp() -> finite_mdp.FiniteMDP:
    """One-shot guessing game: terminal reward 1 iff the action equals the outcome."""
    return finite_mdp.FiniteMDP(
        horizon=1,
        states=("start", "match", "miss"),
        actions=("a0", "a1"),
        outcomes=("o0", "o1"),
        outcome_probs=np.array([0.5, 0.5]),
        transition=np.array([[[1, 2], [2, 1]], [[1, 1], [1, 1]], [[2, 2], [2, 2]]]),
        stage_reward=np.zeros((1, 3, 2)),
        terminal_reward=np.array([0.0, 1.0, 0.0]),
        initial_state=0,
    )


def deterministic_chain_mdp() -> finite_mdp.FiniteMDP:
    """K=2, single state, reward equal to the action index, no randomness."""
    return finite_mdp.FiniteMDP(
        horizon=2,
        states=("s",),
        actions=("a0", "a1"),
        outcomes=("o",),
        outcome_probs=np.array([1.0]),
        transition=np.zeros((1, 2, 1), dtype=int),
        stage_reward=np.array([[[0.0, 1.0]], [[0.0, 1.0]]]),
        terminal_reward=np.array([0.0]),
        initial_state=0,
    )


def random_mdp(rng: np.random.Generator, max_states=3, max_actions=3,
               max_outcomes=3, max_horizon=3) -> finite_mdp.FiniteMDP:
    S = int(rng.integers(1, max_states + 1))
    A = int(rng.integers(1, max_actions + 1))
    O = int(rng.integers(1, max_outcomes + 1))
    K = int(rng.integers(1, max_horizon + 1))
    probs = rng.random(O) + 0.05
    probs /= probs.sum()
    return finite_mdp.FiniteMDP(
        horizon=K,
        states=tuple(f"s{i}" for i in range(S)),
        actions=tuple(f"a{i}" for i in range(A)),
        outcomes=tuple(f"o{i}" for i in range(O)),
        outcome_probs=probs,
        transition=rng.integers(0, S, size=(S, A, O)),
        stage_reward=rng.normal(size=(K, S, A)),
        terminal_reward=rng.normal(size=S),
        initial_state=int(rng.integers(0, S)),
    )


def single_asset_params(gamma=1.5, K=1, alpha=0.5, r_f=0.01, mu0=0.081,
                        sigma=0.186, lam=0.336, sigma_phi1=-0.741,
                        sigma_phi2=0.284, mu1=0.034, phi0=0.0) -> market.ModelParams:
    """n=1 reduction (first asset of set 1 by default) for brute-force oracles."""
    return market.ModelParams(
        n=1, d=1,
        mu0=np.array([mu0]), mu1=np.array([mu1]),
        sigma=np.array([[sigma]]),
        r_f=r_f, lam=lam,
        sigma_phi1=np.array([sigma_phi1]), sigma_phi2=sigma_phi2,
        alpha=alpha, beta=1.0, gamma=gamma, delta=0.1, K=K,
        phi0=phi0, W0=1.0,
    )


def node_objective_grid_search(p, Rq, wq, EJ, step=1e-3):
    """Brute-force maximizer of the single-node objective for n=1.

    Scans pi on [0, 1] and c on [0, R_f(1 - pi)] at the given resolution and
    returns (best_value, best_pi, best_c).
    """
    assert p.n == 1
    gamma = p.gamma
    disc = p.beta**p.delta
    excess = (Rq[:, 0] - p.R_f)
    best = (-np.inf, None, None)
    pis = np.arange(0.0, 1.0 + step / 2, step)
    for pi in pis:
        c_hi = p.R_f * (1.0 - pi)
        cs = np.arange(step, c_hi, step) if p.alpha > 0 else np.arange(0.0, c_hi, step)
        if cs.size == 0:
            continue
        u = p.R_f + excess[None, :] * pi - cs[:, None]
        valid = np.min(u, axis=1) > 0
        if not np.any(valid):
            continue
        er = (u[valid] ** (1.0 - gamma)) @ wq
        vals = disc * EJ * er
        if p.alpha > 0:
            vals = vals + p.alpha * p.delta * cs[valid] ** (1.0 - gamma) / (1.0 - gamma)
        j = int(np.argmax(vals))
        if vals[j] > best[0]:
            best = (float(vals[j]), float(pi), float(cs[valid][j]))
    return best


def inner_objective_grid_search(p, form, ctx, step=1e-3):
    """Brute-force maximizer of the K=1, n=1 inner problem over (Pi_0, C_0)."""
    assert p.K == 1 and p.n == 1
    R = ctx.R[0, 0]
    excess = R - p.R_f
    gamma = p.gamma
    best = -np.inf
    arg = None
    for Pi in np.arange(0.0, p.W0 + step / 2, step):
        c_hi = p.R_f * (p.W0 - Pi)
        cs = np.arange(step, c_hi, step)
        if cs.size == 0:
            continue
        WK = p.W0 * p.R_f + excess * Pi - cs
        valid = WK > 0
        if not np.any(valid):
            continue
        cs_v, WK_v = cs[valid], WK[valid]
        vals = (p.alpha * p.delta * cs_v ** (1.0 - gamma)
                + (1.0 - p.alpha) * p.beta**(p.K * p.delta) * WK_v ** (1.0 - gamma)) / (1.0 - gamma)
        vals = vals - (form.constant + form.lin_Pi[0, 0] * Pi + form.lin_C[0] * cs_v)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            arg = (float(Pi), float(cs_v[j]))
    return best, arg


def qp_active_set_oracle(P, q, A, b):
    """Global max of -x'Px/2 + q'x over {Ax <= b} by active-set enumeration.

    Exact for strictly concave quadratics in small dimension; used to verify
    the barrier solver on random instances.
    """
    import itertools

    m = len(q)
    best_val, best_x = -np.inf, None
    for r in range(0, min(m, A.shape[0]) + 1):
        for subset in itertools.combinations(range(A.shape[0]), r):
            act = np.array(subset, dtype=int)
            KKT = np.block([
                [P, A[act].T],
                [A[act], np.zeros((r, r))],
            ]) if r else P
            rhs = np.concatenate([q, b[act]]) if r else q
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            x, nu = sol[:m], sol[m:]
            if r and np.any(nu < -1e-9):
                continue
            if np.any(A @ x - b > 1e-9):
                continue
            val = float(-0.5 * x @ P @ x + q @ x)
            if val > best_val:
                best_val, best_x = val, x
    return best_val, best_x


def random_feasible_fractions(rng, p):
    """A strictly admissible (pi, c) pair drawn inside the constraint set."""
    raw = rng.random(p.n)
    total = rng.uniform(0.0, 0.95)
    pi = raw / raw.sum() * total
    c = rng.uniform(0.05, 0.95) * p.R_f * (1.0 - total)
    return pi, c


def synthetic_value_grid(p, policy_pi=None, policy_c=None, J0=None):
    """Hand-built ValueGrid with constant nodal policies, for engine tests."""
    G = 5
    grid = np.linspace(-2.0, 2.0, G)
    J = np.tile(np.linspace(-1.2, -0.8, G), (p.K + 1, 1)) if J0 is None else np.tile(J0, (p.K + 1, 1))
    pi = np.zeros((p.K, G, p.n)) if policy_pi is None else np.tile(policy_pi, (p.K, G, 1))
    c = np.zeros((p.K, G)) if policy_c is None else np.full((p.K, G), policy_c)
    return dp_solver.ValueGrid(grid=grid, J=J, policy_pi=pi, policy_c=c)


ROW0 = np.zeros(1, dtype=int)


def at_point(fn, x):
    """Evaluate a callable of a one-problem batch oracle at one point."""
    return fn(np.asarray(x, dtype=float)[None], ROW0)[0]


def pointwise_oracle(value, gradient, hessian) -> concave.ObjectiveOracle:
    """Batch oracle of one objective, evaluated one point at a time."""
    return concave.ObjectiveOracle(
        value=lambda X, rows: np.array([value(x) for x in X]),
        gradient=lambda X, rows: np.array([gradient(x) for x in X]),
        hessian=lambda X, rows: np.array([hessian(x) for x in X]),
    )


def fd_hessian(gradient, h_rel=1e-6):
    """Symmetrized central-difference Hessian of `gradient`, for test oracles."""
    def hessian(x):
        m = x.size
        H = np.empty((m, m))
        h = h_rel * max(1.0, float(np.linalg.norm(x)))
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            H[:, j] = (gradient(x + e) - gradient(x - e)) / (2 * h)
        return 0.5 * (H + H.T)
    return hessian


def bellman_node_problem(p, Rq, wq, EJ):
    """Oracle (a batch of one) and rows (A, b) of one node maximization."""
    return (dp_solver.bellman_oracle(p, Rq[None], wq, np.array([EJ], dtype=float)),
            dp_solver.node_constraints(p, Rq))


def dual_start(p, forms, ctxs, oracle, A, b, X0):
    """Each leg's dual face and start for a stack of legs, as an upper-bound
    task and its slice form them: `bounds._dual_plan`, then
    `bounds._blend_start`."""
    plan = bounds._dual_plan(p, forms, ctxs)
    return plan.face, bounds._blend_start(plan, oracle, A, b, X0)


def slack(cons, x: np.ndarray) -> np.ndarray:
    """b - A x over the rows cons = (A, b) or (A, b, face)."""
    A, b = cons[:2]
    return b - A @ x


def max_violation(cons, x: np.ndarray) -> float:
    s = slack(cons, x)
    return float(max(0.0, -np.min(s))) if s.size else 0.0


@dataclass
class KKTReport:
    stationarity: float
    comp_slack: float
    feasibility: float
    multipliers: np.ndarray
    active: np.ndarray


def check_kkt(sol: concave.Solution, oracle: concave.ObjectiveOracle,
              cons, active_tol: float = 1e-6) -> KKTReport:
    """Reconstruct multipliers on near-active rows cons = (A, b) or
    (A, b, face) by nonnegative least squares.

    A row is near-active when its slack is at most active_tol * (1 + |b_i|).
    """
    A, b = cons[:2]
    x = sol.x
    s = b - A @ x
    active = np.flatnonzero(s <= active_tol * (1.0 + np.abs(b)))
    grad = at_point(oracle.gradient, x)
    nu = np.zeros(A.shape[0])
    if active.size:
        nu_act, _ = nnls(A[active].T, grad)
        nu[active] = nu_act
    stationarity = float(np.linalg.norm(grad - A.T @ nu))
    comp_slack = float(np.dot(nu, s))
    feasibility = max_violation(cons, x)
    return KKTReport(stationarity=stationarity, comp_slack=comp_slack,
                     feasibility=feasibility, multipliers=nu, active=active)
