"""Shared builders and brute-force oracles used across the test modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from dualbound import concave, dp_solver, finite_mdp, market


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


def scaled_penalty(base: finite_mdp.StagewisePenalty, factor: float) -> finite_mdp.StagewisePenalty:
    """The stagewise penalty `base` with its table scaled by factor."""
    return finite_mdp.StagewisePenalty(base._mdp, factor * base.table)


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


def known_optimum(p) -> float:
    """The optimal value V* = J_0(phi0) W0^(1-gamma) of params p with
    mu1 = 0.  Returns are then i.i.d. and J flat in phi, so the grid
    recursion is the exact dynamic program up to its quadrature, and the
    q = 7 rule agrees with q = 17 to about 4e-15 relative."""
    assert not np.any(p.mu1), "V* is known only for i.i.d. returns (mu1 = 0)"
    vg = dp_solver.backward_recursion(p, grid=np.linspace(-2.0, 2.0, 5), quad=dp_solver.build_quadrature(7, p.n))
    return dp_solver.interpolate_J(vg, 0, p.phi0) * p.W0 ** (1.0 - p.gamma)


def reference_policy_lookup(vg, k, phi, p):
    """The grid policy of stage k at states phi (M,) by one np.interp call
    per policy column, then the projection into A with numpy's own sum:
    the reference `dp_solver.policy_lookup` must equal bit for bit."""
    g = vg.grid
    x = np.asarray(phi, dtype=float)
    pi = np.stack([np.interp(x, g, vg.policy_pi[k, :, j]) for j in range(vg.policy_pi.shape[2])], axis=-1)
    c = np.interp(x, g, vg.policy_c[k])
    np.maximum(pi, 0.0, out=pi)
    total = pi.sum(axis=-1)
    pi /= np.maximum(total, 1.0)[:, None]
    return pi, np.minimum(np.maximum(c, 0.0), p.R_f * (1.0 - np.minimum(total, 1.0)))


def reference_J_and_slope(vg, k, phi):
    """J and its slope at stages k and states phi (broadcast against each
    other) by the segment formulas `dp_solver.J_and_slope` must equal bit
    for bit.  J: the segment [g_j, g_j+1] of a side="right" search, edge
    segments extended outward, anchored at the last node at or right of
    the grid's end.  The slope: the segment of a side="left" search
    (g_j < x <= g_j+1 inside the grid), averaged with the next segment's
    exactly at an interior node.  Returns two arrays, 0-d for a scalar k
    and phi."""
    g, J = vg.grid, vg.J
    x = np.asarray(phi, dtype=float)

    def segment(side):
        return np.minimum(np.maximum(np.searchsorted(g, x, side=side) - 1, 0), g.size - 2)

    def slope(j):
        return (J[k, j + 1] - J[k, j]) / (g[j + 1] - g[j])

    j = segment("right")
    anchor = np.where(x >= g[-1], g.size - 1, j)
    value = J[k, anchor] + (x - g[anchor]) * slope(j)
    j = segment("left")
    left, right = slope(j), slope(np.minimum(j + 1, g.size - 2))
    at_node = (x == g[j + 1]) & (x < g[-1])
    return value, np.where(at_node, 0.5 * (left + right), left)


def reference_simulate_paths(p, policy, Z, Ztilde) -> market.MarketPath:
    """The batch simulator stepped stage by stage with numpy's own
    reductions (`.sum` and `.any` over the asset axis, and the (N, K, n, n)
    product for sigma z), deciding each stage by its own policy call on
    one-column slices (stages k:k+1, states phi[:, k:k+1]): the reference
    `market.simulate_paths` must equal bit for bit, in every field and in
    the AdmissibilityError it raises."""
    K, n, Rf, sd = p.K, p.n, p.R_f, p.sqrt_delta
    Z, Ztilde = np.asarray(Z, dtype=float), np.asarray(Ztilde, dtype=float)
    N = Z.shape[0]
    phi = np.empty((N, K + 1))
    phi[:, 0] = p.phi0
    for k in range(K):
        drift = -p.lam * phi[:, k] * p.delta
        diff = ((p.sigma_phi1 * Z[:, k]).sum(axis=-1) + p.sigma_phi2 * Ztilde[:, k, 0]) * sd
        phi[:, k + 1] = phi[:, k] + drift + diff
    R = np.exp(market.log_return_mean(phi[:, :K], p) + (p.sigma * Z[..., None, :]).sum(axis=-1) * sd)
    W, C, Pi = np.empty((N, K + 1)), np.empty((N, K)), np.empty((N, K, n))
    W[:, 0] = p.W0
    raw_pi, raw_c = np.empty((N, K, n)), np.empty((N, K))
    stages = np.arange(K)
    for k in range(K):
        pi_k, c_k = policy(stages[k:k + 1], phi[:, k:k + 1], None)
        raw_pi[:, k], raw_c[:, k] = pi_k[:, 0], c_k[:, 0]
        pi_k = np.maximum(raw_pi[:, k], 0.0)
        c_k = np.minimum(np.maximum(raw_c[:, k], 0.0), Rf * (1.0 - pi_k.sum(axis=-1)))
        Pi[:, k] = W[:, k, None] * pi_k
        C[:, k] = W[:, k] * c_k
        W[:, k + 1] = W[:, k] * Rf + ((R[:, k] - Rf) * Pi[:, k]).sum(axis=-1) - C[:, k]
    budget = Rf * (1.0 - raw_pi.sum(axis=-1))
    events = np.empty((N, 2 * K), dtype=bool)
    tol = market.FEAS_TOL
    events[:, 0::2] = (raw_pi < -tol).any(axis=-1) | (raw_c < -tol) | (raw_c > budget + tol)
    events[:, 1::2] = W[:, 1:] <= market.WEALTH_FLOOR
    failed = np.flatnonzero(events.any(axis=1))
    if failed.size:
        row = int(failed[0])
        first = int(np.argmax(events[row]))
        k = first // 2
        if first % 2 == 0:
            pi, c = raw_pi[row, k], raw_c[row, k]
            if (pi < -tol).any():
                reason = f"pi has negative component {float(np.min(pi)):.3e}"
            elif c < -tol:
                reason = f"c = {float(c):.3e} is negative"
            else:
                reason = f"c = {float(c):.6g} exceeds budget R_f(1 - 1'pi) = {float(budget[row, k]):.6g}"
            raise market.AdmissibilityError(k, reason, row=row)
        raise market.AdmissibilityError(
            k + 1, f"wealth {W[row, k + 1]:.3e} at or below floor {market.WEALTH_FLOOR:g}", row=row)
    return market.MarketPath(phi=phi, R=R, W=W, C=C, Pi=Pi)


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


def bellman_oracle(p, Rq, wq, EJ) -> concave.ObjectiveOracle:
    """Objectives of a batch of joint node maximizations over x = (pi, c).

    Node i has returns Rq[i] (Q, n) and continuation value EJ[i]:
    alpha*delta*c^(1-gamma)/(1-gamma) + beta^delta * EJ * E_q[u^(1-gamma)]
    with u = R_f + (Rq - R_f)'pi - c, as a `concave.crra_oracle` with one
    column per quadrature node, a c column where alpha > 0 (at alpha = 0,
    c = 0 stays inside the domain) and a zero penalty.
    """
    B, Q, n = Rq.shape
    J = Q + (p.alpha > 0.0)
    P = np.zeros((B, n + 1, J + 1))
    P[:, :n, :Q] = (Rq - p.R_f).transpose(0, 2, 1)
    P[:, n, :Q] = -1.0
    z0 = np.zeros((B, J + 1))
    z0[:, :Q] = p.R_f
    w = np.empty((B, J))
    w[:, :Q] = p.beta**p.delta * (1.0 - p.gamma) * np.asarray(EJ, dtype=float)[:, None] * wq
    if p.alpha > 0.0:
        P[:, n, Q] = 1.0
        w[:, Q] = p.alpha * p.delta
    return concave.crra_oracle(P, z0, w, p.gamma)


def node_constraints(p, Rq) -> tuple:
    """Rows (A, b), A x <= b over x = (pi, c), of one joint node (Rq of shape
    (Q, n)) or of every node (Rq of shape (G, Q, n)): the budget
    c + R_f 1'pi <= R_f, the growth guards u >= U_FLOOR per quadrature
    node, then -x <= 0 for pi, c >= 0."""
    n = p.n
    Q = Rq.shape[-2]
    A = np.zeros(Rq.shape[:-2] + (1 + Q + n + 1, n + 1))
    A[..., 0, :n] = p.R_f
    A[..., 0, n] = 1.0
    A[..., 1:Q + 1, :n] = -(Rq - p.R_f)
    A[..., 1:Q + 1, n] = 1.0
    A[..., Q + 1:, :] = -np.eye(n + 1)
    b = np.zeros(A.shape[:-1])
    b[..., 0] = p.R_f
    b[..., 1:Q + 1] = p.R_f - dp_solver.U_FLOOR
    return A, b


def joint_default_start(p) -> np.ndarray:
    """Every coordinate of (pi, c) at min(1, R_f) / (n + 2): at R_f = 1 the
    analytic centre of the budget simplex, and strictly inside the budget and
    the growth guards of `node_constraints` for R_f down to about 5e-4."""
    return np.full(p.n + 1, min(1.0, p.R_f) / (p.n + 2))


def bellman_node_problem(p, Rq, wq, EJ):
    """Oracle (a batch of one) and rows (A, b) of one joint node maximization."""
    return bellman_oracle(p, Rq[None], wq, np.array([EJ], dtype=float)), node_constraints(p, Rq)


def warm_solve(oracle, A, b, X0, W, tol) -> list:
    """`concave.maximize_batch` from the starts X0, then a crossover from each
    warm point W[i] (a NaN row where a problem has none) onto the rows it
    holds, b - A w <= 1e-10 (1 + |b|), the violation `concave._face_newton`
    tolerates.  A problem whose crossover certifies to tol takes the
    crossover's optimum, with its face Newton steps as its Newton count; the
    others, those whose X0 is infeasible and those whose warm point breaks a
    row by more than that or lies outside the objective's domain keep their
    solve from X0.  The crossover runs `concave._crossover` on a `_Live` of
    just the problems it starts from."""
    sols = concave.maximize_batch(oracle, A, b, X0, tol=tol)
    W = np.asarray(W, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        S = b - concave.stacked_matvec(A, W)
        near = 1e-10 * (1.0 + np.abs(b))
        starts = (S >= -near).all(axis=1) & [sol.status != concave.STATUS_INFEASIBLE for sol in sols]
        j = np.flatnonzero(starts)
        F = oracle.value(W[j], j)
        j, F = j[np.isfinite(F)], F[np.isfinite(F)]
        live = concave._Live(rows=j, A=A[j], b=b[j], X=W[j].copy(), F=F, newton=np.zeros(j.size, dtype=int))
        kkt = concave._crossover(oracle, live, S[j] <= near[j], tol, np.full(j.size, np.inf))
    for r in np.flatnonzero(kkt <= tol):
        sols[j[r]] = concave.Solution(x=live.X[r].copy(), f=float(live.F[r]), kkt_residual=float(kkt[r]),
                                      iterations=int(live.newton[r]), status=concave.STATUS_CONVERGED)
    return sols


def joint_stage(p, grid, quad, J_next, X0, warm=None) -> list:
    """One stage's G joint (pi, c) node solves on the next stage's values
    J_next, as one `maximize_batch` call from the (G, n + 1) starts X0, or,
    given the warm points `warm`, as one `warm_solve`."""
    Rq = dp_solver.node_returns(p, quad, grid)
    A, b = node_constraints(p, Rq)
    EJ = dp_solver.build_phi_transition(grid, p) @ J_next
    oracle = bellman_oracle(p, Rq, quad.weights, EJ)
    if warm is None:
        return concave.maximize_batch(oracle, A, b, X0, tol=dp_solver.NODE_TOL)
    return warm_solve(oracle, A, b, X0, warm, dp_solver.NODE_TOL)


def joint_backward_recursion(p, grid, quad) -> dp_solver.ValueGrid:
    """The grid recursion by joint (pi, c) node solves, stage by stage: each
    stage a `joint_stage` from `joint_default_start`, below stage K-1 with the
    stage k+1 optima as warm points.  The reference that
    `dp_solver.backward_recursion`'s separated solve is tested against; raises
    AssertionError on a node that does not converge."""
    grid = np.asarray(grid, dtype=float)
    G, K = grid.size, p.K
    J = np.empty((K + 1, G))
    policy_pi, policy_c = np.empty((K, G, p.n)), np.empty((K, G))
    J[K] = (1.0 - p.alpha) / (1.0 - p.gamma)
    X0 = np.tile(joint_default_start(p), (G, 1))
    warm = None
    for k in range(K - 1, -1, -1):
        sols = joint_stage(p, grid, quad, J[k + 1], X0, warm)
        assert all(sol.status == concave.STATUS_CONVERGED for sol in sols), (k, [sol.status for sol in sols])
        warm = np.array([sol.x for sol in sols])
        J[k] = [sol.f for sol in sols]
        policy_pi[k], policy_c[k] = warm[:, :p.n], warm[:, p.n]
    return dp_solver.ValueGrid(grid=grid, J=J, policy_pi=policy_pi, policy_c=policy_c)


def slack(cons, x: np.ndarray) -> np.ndarray:
    """b - A x over the rows cons = (A, b) or (A, b, warm, duals)."""
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
    (A, b, warm, duals) by nonnegative least squares.

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
