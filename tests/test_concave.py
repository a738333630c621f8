import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbound import bounds, concave, dp_solver, penalties
from dualbound.concave import maximize

from helpers import (at_point, bellman_node_problem, bellman_oracle, check_kkt, fd_hessian,
                     joint_backward_recursion, joint_default_start, max_violation, node_constraints,
                     node_objective_grid_search, pointwise_oracle, qp_active_set_oracle, single_asset_params,
                     slack, warm_solve)


def bowl_oracle(center):
    center = np.asarray(center, dtype=float)
    return pointwise_oracle(
        value=lambda x: -float(np.sum((x - center) ** 2)),
        gradient=lambda x: -2.0 * (x - center),
        hessian=lambda x: -2.0 * np.eye(len(center)),
    )


def box_constraints(dim, hi=10.0):
    return np.eye(dim), np.full(dim, hi)


class TestMaximize:
    def test_interior_quadratic_bowl(self):
        sol = maximize(bowl_oracle([1.0, 2.0]), box_constraints(2), np.array([5.0, 5.0]), tol=1e-8)
        assert sol.status == concave.STATUS_CONVERGED
        np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-6)
        assert sol.kkt_residual <= 1e-8

    def test_log_objective_active_constraint(self):
        oracle = pointwise_oracle(
            value=lambda x: float(np.log(x[0])) if x[0] > 0 else -np.inf,
            gradient=lambda x: np.array([1.0 / x[0]]),
            hessian=lambda x: np.array([[-1.0 / x[0] ** 2]]),
        )
        cons = np.array([[1.0], [-1.0]]), np.array([2.0, 0.0])  # 0 <= x <= 2
        sol = maximize(oracle, cons, np.array([0.5]), tol=1e-8)
        assert sol.status == concave.STATUS_CONVERGED
        assert sol.x[0] == pytest.approx(2.0, abs=1e-7)
        report = check_kkt(sol, oracle, cons)
        # multiplier of the active row x <= 2 is f'(2) = 1/2
        assert report.multipliers[0] == pytest.approx(0.5, abs=1e-6)
        assert report.stationarity <= 1e-6
        assert report.feasibility <= 1e-9

    def test_infeasible_start_reported(self):
        sol = maximize(bowl_oracle([0.0]), box_constraints(1),
                       np.array([11.0]), tol=1e-8)
        assert sol.status == concave.STATUS_INFEASIBLE

    def test_single_stage_portfolio_matches_grid_search(self):
        # First asset of parameter set 1, one Bellman node at phi = 0.
        p = single_asset_params(gamma=1.5)
        quad = dp_solver.build_quadrature(3, 1)
        Rq = dp_solver.node_returns(p, quad, 0.0)
        EJ = (1 - p.alpha) / (1 - p.gamma)
        oracle, cons = bellman_node_problem(p, Rq, quad.weights, EJ)
        sol = maximize(oracle, cons, np.array([1e-3, 1e-3]), tol=1e-8)
        assert sol.status == concave.STATUS_CONVERGED
        ref, _, _ = node_objective_grid_search(p, Rq, quad.weights, EJ, step=1e-3)
        assert sol.f >= ref - 1e-12
        assert sol.f == pytest.approx(ref, abs=1e-4)

    def test_objective_trace_monotone_across_centerings(self, monkeypatch):
        p = single_asset_params(gamma=3.0)
        quad = dp_solver.build_quadrature(3, 1)
        Rq = dp_solver.node_returns(p, quad, 0.4)
        oracle, cons = bellman_node_problem(p, Rq, quad.weights, -0.25)
        center = concave._center
        trace = []

        def traced_center(oracle, live, *args):
            center(oracle, live, *args)
            trace.extend(live.F.tolist())

        monkeypatch.setattr(concave, "_center", traced_center)
        sol = maximize(oracle, cons, np.array([1e-3, 1e-3]), tol=1e-8)
        trace = np.asarray(trace + [sol.f])
        assert trace.size >= 3
        assert np.all(np.diff(trace) >= -1e-10 * (1.0 + np.abs(trace[:-1])))

    def test_barrier_ladder_centers_only_exit_stages_exactly(self, monkeypatch):
        p = single_asset_params(gamma=3.0)
        quad = dp_solver.build_quadrature(3, 1)
        Rq = dp_solver.node_returns(p, quad, 0.4)
        oracle, node_cons = bellman_node_problem(p, Rq, quad.weights, -0.25)
        # Extra rows x_0 <= 10 + i, slack at the optimum, give the node the
        # inner problems' 51 rows.
        A, b = node_cons
        extra = 51 - A.shape[0]
        inner_cons = (np.vstack([A, np.tile([1.0, 0.0], (extra, 1))]), np.concatenate([b, 10.0 + np.arange(extra)]))
        center = concave._center
        line_search = concave._line_search
        stages = []  # (t, the Newton decrement^2 of each step of the stage)

        def traced_center(oracle, live, t, *args):
            stages.append((t, []))
            center(oracle, live, t, *args)

        def traced_line_search(oracle, live, step, dec2, t):
            stages[-1][1].append(float(dec2[0]))
            return line_search(oracle, live, step, dec2, t)

        monkeypatch.setattr(concave, "_center", traced_center)
        monkeypatch.setattr(concave, "_line_search", traced_line_search)
        # Every crossover fails, so the ladder climbs to its barrier-KKT exits.
        monkeypatch.setattr(concave, "_crossover", lambda oracle, live, face, tol, kkt: kkt)
        # A Bellman node's tolerance and rows, then the inner problems'.
        for cons, tol in ((node_cons, 1e-8), (inner_cons, 1e-6)):
            stages.clear()
            sol = maximize(oracle, cons, np.array([1e-3, 1e-3]), tol=tol)
            assert sol.status == concave.STATUS_CONVERGED
            m = cons[0].shape[0]
            t_cap = 2.0 * m / tol
            expected_t = concave.MU ** 2
            for t, dec2 in stages:
                assert t == expected_t
                # A stage stops at a decrement^2 of its duality measure m/t,
                # where m/t <= tol only on the gradient tolerance; each stage
                # above tol here ends on its decrement.
                stop = 0.0 if m / t <= tol else m / t
                assert all(d > stop for d in dec2[:-1])
                if stop:
                    assert dec2[-1] <= stop
                expected_t = min(t * concave.MU, t_cap)
            assert m / stages[0][0] > tol >= m / stages[-1][0]
        # Started at t_cap, the one stage centers on past a decrement^2 of m/t.
        m = inner_cons[0].shape[0]
        monkeypatch.setattr(concave, "T_START", 2.0 * m / 1e-6)
        stages.clear()
        assert maximize(oracle, inner_cons, np.array([1e-3, 1e-3]), tol=1e-6).status == concave.STATUS_CONVERGED
        (t, dec2), = stages
        assert any(d <= m / t for d in dec2[:-1])

    def test_set1_newton_steps_per_node_and_inner_problem(self, monkeypatch, p_set1, vg_set1):
        # Newton counts repeat exactly.  Starting at t = 1 and centering every
        # stage to the gradient tolerance averages about 63 and 78 here.
        counts = []
        batch = concave.maximize_batch

        def counted(*args, **kwargs):
            sols = batch(*args, **kwargs)
            counts.extend(sol.iterations for sol in sols)
            return sols

        monkeypatch.setattr(concave, "maximize_batch", counted)
        dp_solver.backward_recursion(p_set1)
        assert np.mean(counts) <= 7
        # The inner problems of an upper bound's legs (6 pairs x 2 runs, seed
        # 3, m1), solved as a slice solves them: each first checks the KKT
        # conditions at the primal optimum its leg's dual recovers, with
        # that dual's multipliers, which certifies every leg here with 0
        # Newton steps (about 1.08 face Newton steps by a crossover from that
        # point, 2.0 from that point moved 1e-9 of the way toward the
        # interior start, 6.2 from the interior start, about 17 by the
        # barrier).
        problem, plan = upper_legs(p_set1, vg_set1, "m1", seed=3, pairs=12, per_run=6)
        counts.clear()
        concave.maximize_batch(*problem, tol=bounds.INNER_TOL, max_newton=bounds.INNER_MAX_NEWTON,
                               warm=plan[0], duals=plan[1])
        assert len(counts) == 24 and np.mean(counts) <= 0.1

    def test_set1_inner_problems_mostly_exit_at_the_first_crossover(self, monkeypatch, p_set1, vg_set1):
        # The first crossover runs at duality measure m/t ~ 1e-3; with the
        # absolute near-active face cut it certified none of these solves.
        # The legs of upper bounds (6 pairs x 2 runs, seed 3) are solved
        # without their warm points and multipliers, so that the first
        # crossover is the barrier's, which the legs whose warm point does
        # not certify rely on.
        certified = []
        crossover = concave._crossover

        def traced_crossover(*args):
            kkt = crossover(*args)
            certified.append((kkt <= bounds.INNER_TOL).tolist())
            return kkt

        monkeypatch.setattr(concave, "_crossover", traced_crossover)
        firsts = []
        for kind in ("m1", "m2", "zero"):
            certified.clear()
            problem, _ = upper_legs(p_set1, vg_set1, kind, seed=3, pairs=12, per_run=6)
            concave.maximize_batch(*problem, tol=bounds.INNER_TOL, max_newton=bounds.INNER_MAX_NEWTON)
            firsts += certified[0]
        assert len(firsts) == 72
        assert np.mean(firsts) >= 0.85

    def test_certified_optimum_does_not_depend_on_crossover_stage_centering(self, monkeypatch, p_set1,
                                                                              vg_set1):
        # The crossover certifies by exact KKT on its face, so centering its
        # stage exactly (decrement stop 0) must give the same optima.
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        legs = [bounds.shock_path(p_set1, 21, r, i) for r in range(2) for i in range(3)]
        legs += [sp.antithetic() for sp in legs]
        ctxs = penalties.build_contexts(p_set1, vg_set1, policy, np.array([sp.Z for sp in legs]),
                                        np.array([sp.Ztilde for sp in legs]))
        problems = {kind: bounds.assemble_inner_batch(p_set1, penalties.penalty_form(kind, ctxs, p_set1), ctxs)
                    for kind in ("m1", "zero")}

        def solve_inner():
            return {kind: concave.maximize_batch(*problem, tol=bounds.INNER_TOL, max_newton=bounds.INNER_MAX_NEWTON)
                    for kind, problem in problems.items()}

        inner = solve_inner()
        center = concave._center

        def exact_center(oracle, live, t, tol, *args):
            # A centering call takes one more Newton step on every row whose
            # decrement^2 is already at most m/t, so repeating it until no row
            # steps centers a crossover stage to the gradient tolerance.
            exits = tol < live.A.shape[1] / t <= concave.CROSSOVER_GAP
            for _ in range(concave.MAX_CENTERING if exits else 1):
                before = (live.size, int(live.newton.sum()))
                center(oracle, live, t, tol, *args)
                if (live.size, int(live.newton.sum())) == before:
                    break

        monkeypatch.setattr(concave, "_center", exact_center)
        exact_vg = dp_solver.backward_recursion(p_set1)  # raises NodeSolveError on an unconverged node
        exact_inner = solve_inner()
        np.testing.assert_allclose(exact_vg.J, vg_set1.J, rtol=1e-12, atol=0.0)
        for kind in inner:
            assert len(inner[kind]) == 12
            for sol, exact in zip(inner[kind], exact_inner[kind]):
                assert sol.status == exact.status == concave.STATUS_CONVERGED
                assert abs(sol.f - exact.f) <= bounds.INNER_TOL * (1.0 + abs(exact.f))

    def test_halving_tol_does_not_lose_objective(self):
        p = single_asset_params(gamma=1.5)
        quad = dp_solver.build_quadrature(3, 1)
        Rq = dp_solver.node_returns(p, quad, -1.0)
        oracle, cons = bellman_node_problem(p, Rq, quad.weights, -0.9)
        for tol in (1e-4, 1e-6, 1e-8):
            f_loose = maximize(oracle, cons, np.array([1e-3, 1e-3]), tol=tol).f
            f_tight = maximize(oracle, cons, np.array([1e-3, 1e-3]), tol=tol / 2).f
            assert f_tight >= f_loose - tol

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_concave_quadratics_against_active_set_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        L = rng.normal(size=(m, m))
        P = L @ L.T + np.eye(m)  # SPD curvature
        q = rng.normal(size=m)
        n_rows = int(rng.integers(1, 5))
        A = rng.normal(size=(n_rows, m))
        b = A @ np.zeros(m) + rng.uniform(0.5, 2.0, size=n_rows)  # origin strictly feasible
        oracle = pointwise_oracle(
            value=lambda x: float(-0.5 * x @ P @ x + q @ x),
            gradient=lambda x: -P @ x + q,
            hessian=lambda x: -P,
        )
        cons = A, b
        tol = 1e-8
        sol = maximize(oracle, cons, np.zeros(m), tol=tol)
        assert sol.status == concave.STATUS_CONVERGED
        ref_val, _ = qp_active_set_oracle(P, q, A, b)
        assert sol.f == pytest.approx(ref_val, abs=1e-6)
        report = check_kkt(sol, oracle, cons)
        assert report.stationarity <= 10 * max(tol, tol * np.abs(q).max())
        assert report.feasibility <= 1e-9

    def test_polish_gives_up_early_on_a_diverging_wrong_face(self, monkeypatch):
        # log C + log W with W = 1 + r'p - C and both r_i < 0: the optimum is
        # p = 0, C = 1/2.  On the empty face the KKT matrix is the Hessian, of
        # rank 2 in R^3, and Newton diverges; from a point near the optimum
        # the face is dropped after a few KKT solves.
        r = np.array([-0.05, -0.03])
        a = np.array([r[0], r[1], -1.0])

        def wealth(x):
            return 1.0 + r @ x[:2] - x[2]

        def value(x):
            W = wealth(x)
            return float(np.log(x[2]) + np.log(W)) if W > 0 and x[2] > 0 else -np.inf

        def hessian(x):
            H = -np.outer(a, a) / wealth(x) ** 2
            H[2, 2] -= 1.0 / x[2] ** 2
            return H

        # One Hessian call per face Newton step, i.e. per KKT solve.
        solves = [0]

        def counting_hessian(x):
            solves[0] += 1
            return hessian(x)

        oracle = pointwise_oracle(
            value=value,
            gradient=lambda x: a / wealth(x) + np.array([0.0, 0.0, 1.0 / x[2]]),
            hessian=counting_hessian,
        )
        ended = concave._face_newton(oracle, np.zeros((1, 0, 3)), np.zeros((1, 0)), np.array([[1e-3, 2e-3, 0.4999]]),
                                     np.array([0]), np.zeros((1, 0), dtype=bool), np.array([0]))
        assert ended[0].size == 0
        assert 1 <= solves[0] <= 3

        # The whole solve, crossovers included, stays cheap and finds the optimum.
        crossover = concave._crossover
        in_crossover = []

        def counted_crossover(*args):
            before = solves[0]
            kkt = crossover(*args)
            in_crossover.append(solves[0] - before)
            return kkt

        monkeypatch.setattr(concave, "_crossover", counted_crossover)
        cons = np.vstack([np.ones((1, 3)), -np.eye(3)]), np.array([1.0, 0.0, 0.0, 0.0])  # x >= 0, 1'x <= 1
        sol = maximize(oracle, cons, np.array([0.2, 0.2, 0.2]), tol=1e-8)
        assert sol.status == concave.STATUS_CONVERGED
        np.testing.assert_allclose(sol.x, [0.0, 0.0, 0.5], atol=1e-7)
        assert sol.f == pytest.approx(2.0 * np.log(0.5), abs=1e-10)
        assert in_crossover and sum(in_crossover) < 12

    def test_face_step_leaving_the_domain_drops_the_face(self):
        # -(x - 5)^2 on its domain x <= 1 + 1e-9, from x = 1 on the empty
        # face: the full Newton step of 4 leaves the domain, so the face is
        # dropped after that one evaluation.
        evaluated = []

        def value(X, rows):
            evaluated.append(len(rows))
            return np.where(X[:, 0] <= 1.0 + 1e-9, -(X[:, 0] - 5.0) ** 2, -np.inf)

        oracle = concave.ObjectiveOracle(value=value, gradient=lambda X, rows: -2.0 * (X - 5.0),
                                         hessian=lambda X, rows: np.full((len(X), 1, 1), -2.0))
        ended = concave._face_newton(oracle, np.zeros((1, 0, 1)), np.zeros((1, 0)), np.array([[1.0]]),
                                     np.array([0]), np.zeros((1, 0), dtype=bool), np.array([0]))
        assert ended[0].size == 0
        assert sum(evaluated) == 1

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_set1_inner_problems_converge_and_verify(self, kind, p_set1, vg_set1):
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        for i in range(2):
            base = bounds.shock_path(p_set1, 5, 0, i)
            for sp in (base, base.antithetic()):
                ctx = penalties.build_context(p_set1, vg_set1, policy, sp)
                form = penalties.penalty_form(kind, ctx, p_set1)
                oracle, cons, x0 = bounds.assemble_inner(p_set1, form, ctx)
                sol = maximize(oracle, cons, x0, tol=bounds.INNER_TOL, max_newton=bounds.INNER_MAX_NEWTON)
                assert sol.status == concave.STATUS_CONVERGED
                tight = maximize(oracle, cons, x0, tol=bounds.INNER_TOL / 100,
                                 max_newton=bounds.INNER_MAX_NEWTON)
                assert sol.f == pytest.approx(tight.f, abs=bounds.INNER_TOL)
                # A barrier exit leaves active slacks near 1e-6, beyond the
                # default near-active cut.  Rows with slack above the 1e-3 cut
                # carry barrier multipliers 1/(t s) summing to at most about
                # rows * tol / 1e-3 = 5e-5.
                report = check_kkt(sol, oracle, cons, active_tol=1e-3)
                grad_scale = max(1.0, float(np.max(np.abs(at_point(oracle.gradient, sol.x)))))
                assert report.stationarity <= 1e-4 * grad_scale
                assert report.feasibility <= 1e-9


def set1_last_stage_nodes(p):
    """The last-stage joint (pi, c) Bellman nodes of set 1 on the default
    grid (`helpers.bellman_oracle`): the batch (oracle, A, b, X0) and the
    one-problem oracle of node i, `node(i)`.
    X0 is the small start min(1, R_f) (1e-3/n, ..., 1e-3), far from the
    optimum, so the solves climb the barrier ladder the exit tests count."""
    quad = dp_solver.build_quadrature(dp_solver.DEFAULT_QUAD_POINTS, p.n)
    Rq = dp_solver.node_returns(p, quad, dp_solver.DEFAULT_GRID)
    A, b = node_constraints(p, Rq)
    EJ = np.full(A.shape[0], (1.0 - p.alpha) / (1.0 - p.gamma))
    cold = min(1.0, p.R_f) * np.append(np.full(p.n, 1e-3 / p.n), 1e-3)
    X0 = np.tile(cold, (A.shape[0], 1))

    def node(i):
        return bellman_oracle(p, Rq[i:i + 1], quad.weights, EJ[i:i + 1])

    return (bellman_oracle(p, Rq, quad.weights, EJ), A, b, X0), node


def assert_same_solution(sol, other):
    np.testing.assert_array_equal(sol.x, other.x)
    np.testing.assert_array_equal([sol.f, sol.kkt_residual], [other.f, other.kkt_residual])
    assert (sol.iterations, sol.status) == (other.iterations, other.status)


class TestExits:
    @pytest.mark.parametrize("max_newton", [1, 3, 8])
    def test_newton_cap_returns_the_last_iterate(self, monkeypatch, p_set1, max_newton):
        (_, A, b, X0), node = set1_last_stage_nodes(p_set1)
        line_search = concave._line_search
        iterates = []

        def traced_line_search(oracle, live, *args):
            accepted = line_search(oracle, live, *args)
            iterates.append((live.X[0].copy(), live.F[0]))
            return accepted

        monkeypatch.setattr(concave, "_line_search", traced_line_search)
        sol = maximize(node(10), (A[10], b[10]), X0[10], tol=dp_solver.NODE_TOL, max_newton=max_newton)
        assert sol.status == concave.STATUS_MAX_ITER
        assert sol.iterations == max_newton == len(iterates)
        np.testing.assert_array_equal(sol.x, iterates[-1][0])
        assert sol.f == iterates[-1][1]
        assert dp_solver.NODE_TOL < sol.kkt_residual < np.inf

    @pytest.mark.parametrize("max_newton, converged", [(13, 6), (14, 10), (15, 20)])
    def test_capped_rows_next_to_converged_rows_equal_their_one_problem_solves(self, p_set1, max_newton,
                                                                               converged):
        # A node that reaches the cap on the step where it stops centering
        # still faces that stage's exit tests, so these counts include it.
        (oracle, A, b, X0), node = set1_last_stage_nodes(p_set1)
        batch = concave.maximize_batch(oracle, A, b, X0, tol=dp_solver.NODE_TOL, max_newton=max_newton)
        assert sum(sol.status == concave.STATUS_CONVERGED for sol in batch) == converged
        assert {sol.status for sol in batch} == {concave.STATUS_CONVERGED, concave.STATUS_MAX_ITER}
        for i, sol in enumerate(batch):
            if sol.status == concave.STATUS_MAX_ITER:
                assert sol.iterations == max_newton
            assert_same_solution(sol, maximize(node(i), (A[i], b[i]), X0[i], tol=dp_solver.NODE_TOL,
                                               max_newton=max_newton))

    def test_t_cap_exit_when_no_crossover_certifies(self, monkeypatch, p_set1):
        # At tol 1e-12 the barrier-KKT test is out of reach, so with every
        # crossover failing the ladder ends at t_cap.
        (oracle, A, b, X0), node = set1_last_stage_nodes(p_set1)
        monkeypatch.setattr(concave, "_crossover", lambda oracle, live, face, tol, kkt: kkt)
        sol = maximize(node(11), (A[11], b[11]), X0[11], tol=1e-12)
        assert sol.status == concave.STATUS_MAX_ITER
        assert sol.iterations == 30
        assert 1e-12 < sol.kkt_residual < np.inf
        assert np.isfinite(sol.f) and (b[11] - A[11] @ sol.x).min() > 0.0
        batch = concave.maximize_batch(oracle, A, b, X0, tol=1e-12)
        assert {s.status for s in batch} == {concave.STATUS_MAX_ITER}
        assert_same_solution(batch[11], sol)

    def test_solve_falls_back_for_the_singular_system_only(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(4, 3, 3)) + 4.0 * np.eye(3)
        M[2, 1] = 0.0  # exactly singular
        rhs = rng.normal(size=(4, 3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(M, rhs[:, :, None])
        sol = concave._solve(M, rhs)
        for i in (0, 1, 3):
            np.testing.assert_array_equal(sol[i], np.linalg.solve(M[i:i + 1], rhs[i:i + 1, :, None])[0, :, 0])
        np.testing.assert_array_equal(sol[2], np.linalg.lstsq(M[2], rhs[2], rcond=None)[0])


def held_rows(A, b, W):
    """The rows each warm point W[i] holds, the face its crossover starts on."""
    return b - concave.stacked_matvec(A, W) <= 1e-10 * (1.0 + np.abs(b))


def set1_stage_nodes(p, vg, k):
    """The stage-k joint (pi, c) Bellman nodes of set 1 on the default grid as
    the stage-by-stage reference recursion (`helpers.joint_backward_recursion`)
    poses them below stage K-1: the batch (oracle, A, b, X0) from the joint
    default start, the warm points W (the stage k+1 optima of vg) and the
    one-problem oracle of node i, `node(i)`."""
    quad = dp_solver.build_quadrature(dp_solver.DEFAULT_QUAD_POINTS, p.n)
    Rq = dp_solver.node_returns(p, quad, vg.grid)
    A, b = node_constraints(p, Rq)
    EJ = dp_solver.build_phi_transition(vg.grid, p) @ vg.J[k + 1]
    W = np.concatenate([vg.policy_pi[k + 1], vg.policy_c[k + 1][:, None]], axis=1)
    X0 = np.tile(joint_default_start(p), (len(W), 1))

    def node(i):
        return bellman_oracle(p, Rq[i:i + 1], quad.weights, EJ[i:i + 1])

    return (bellman_oracle(p, Rq, quad.weights, EJ), A, b, X0), W, node


def upper_legs(p, vg, kind, seed, pairs, per_run):
    """The inner problems of flat pairs [0, pairs) at `seed`, in runs of
    `per_run` pairs, as an upper bound's slice poses them: (oracle, A, b,
    X0) and the legs' dual plan (warm, duals)."""
    cfg = bounds.RunConfig(paths_per_run=per_run, runs=2, seed=seed, penalty_kind=kind)
    ctxs = penalties.build_contexts(p, vg, dp_solver.make_grid_policy(vg, p), *bounds._chunk_shocks(p, cfg, (0, pairs)))
    forms = penalties.penalty_form(kind, ctxs, p)
    return bounds.assemble_inner_batch(p, forms, ctxs), bounds._dual_plan(p, forms, ctxs)[:2]


def set1_inner_batch(p, vg, kind, pairs=16):
    """The inner problems of the first `pairs` antithetic pairs of set 1
    (seed 5) as `upper_bound` poses them, (oracle, A, b, X0), and the faces
    their dual-recovered optima hold; X0 is the interior start, off the face."""
    (oracle, A, b, X0), (warm, _) = upper_legs(p, vg, kind, seed=5, pairs=pairs, per_run=pairs)
    return (oracle, A, b, X0), held_rows(A, b, warm)


def assert_faces_equal_their_one_face_calls(oracle, A, b, X0, face, oracle_of, rows_of=lambda i: [0]):
    """`_face_newton` on all problems at once gives each solved face bit for
    bit as its own one-face call (with oracle_of(i) on rows rows_of(i)), and
    solves the same faces.  Returns the stacked violated rows."""
    G = A.shape[0]
    j, x, f, nu, violated, stationarity, steps = concave._face_newton(
        oracle, A, b, X0, np.arange(G), face, np.arange(G))
    alone = [concave._face_newton(oracle_of(i), A[i:i + 1], b[i:i + 1], X0[i:i + 1], np.array(rows_of(i)),
                                  face[i:i + 1], np.array([0])) for i in range(G)]
    assert sorted(j.tolist()) == [i for i in range(G) if alone[i][0].size]
    for r, i in enumerate(j.tolist()):
        for stacked, one in zip((x, f, nu, violated, stationarity, steps), alone[i][1:]):
            np.testing.assert_array_equal(stacked[r], one[0])
        assert (nu[r][~face[i]] == 0.0).all()
        np.testing.assert_array_equal(violated[r], b[i] - A[i] @ x[r] < -1e-10 * (1.0 + np.abs(b[i])))
    return violated


def shifted(oracle, i):
    """The one-problem oracle of problem i of a batch oracle, whose rows
    depend only on their own problem."""
    return concave.ObjectiveOracle(*(lambda X, rows, fn=fn: fn(X, rows + i)
                                     for fn in (oracle.value, oracle.gradient, oracle.hessian)))


class TestWarmFace:
    """Solves from given points: the crossover of `helpers.warm_solve` from
    each point onto the rows it holds, and `maximize_batch`'s warm points
    with their multipliers."""

    @pytest.fixture()
    def crossover_kkt(self, monkeypatch):
        """The KKT residuals each `_crossover` call returns, one array a call;
        the last call of a `warm_solve` is its crossover from the given
        points."""
        results = []
        crossover = concave._crossover

        def traced_crossover(*args):
            results.append(crossover(*args))
            return results[-1]

        monkeypatch.setattr(concave, "_crossover", traced_crossover)
        return results

    @staticmethod
    def assert_near(sols, cold):
        for sol, ref in zip(sols, cold):
            assert sol.status == ref.status == concave.STATUS_CONVERGED
            assert abs(sol.f - ref.f) <= dp_solver.NODE_TOL * (1.0 + abs(ref.f))
            np.testing.assert_allclose(sol.x, ref.x, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("k", [0, 4, 8])
    def test_the_next_stage_face_certifies_every_node(self, crossover_kkt, p_set1, vg_set1, k):
        # Every node starts a crossover from its stage k+1 optimum and
        # certifies there, in fewer face Newton steps than the cold solve's
        # Newton steps.
        (oracle, A, b, X0), W, _ = set1_stage_nodes(p_set1, vg_set1, k)
        cold = concave.maximize_batch(oracle, A, b, X0, tol=dp_solver.NODE_TOL)
        warm = warm_solve(oracle, A, b, X0, W, dp_solver.NODE_TOL)
        kkt = crossover_kkt[-1]
        assert kkt.size == A.shape[0] and (kkt <= dp_solver.NODE_TOL).all()
        self.assert_near(warm, cold)
        assert all(w.kkt_residual <= dp_solver.NODE_TOL for w in warm)
        assert sum(w.iterations for w in warm) < sum(c.iterations for c in cold)

    def test_wrong_guesses_still_reach_the_cold_optimum(self, crossover_kkt, p_set1, vg_set1):
        (oracle, A, b, X0), W, _ = set1_stage_nodes(p_set1, vg_set1, 4)
        cold = concave.maximize_batch(oracle, A, b, X0, tol=dp_solver.NODE_TOL)
        # NaN rows and points that break a row by more than the crossover's
        # tolerance start no crossover, so every node keeps its solve from
        # X0.
        bad = W.copy()
        bad[::2] = np.nan
        bad[1::2, -1] = -2e-10   # c >= 0 broken by 2e-10 > 1e-10 (1 + |b|)
        for sol, ref in zip(warm_solve(oracle, A, b, X0, bad, dp_solver.NODE_TOL), cold):
            assert_same_solution(sol, ref)
        assert crossover_kkt[-1].size == 0
        # The interior start holds no row: the crossover's own active-set
        # loop adds the rows the unconstrained step violates; whatever it
        # does not certify keeps its solve from X0.
        self.assert_near(warm_solve(oracle, A, b, X0, X0, dp_solver.NODE_TOL), cold)
        assert crossover_kkt[-1].size == A.shape[0]

    def test_one_crossover_round_costs_its_longest_face(self, monkeypatch, p_set1, vg_set1):
        # Stage K-2 with the faces of the stage K-1 optima: faces of 1, 2 and
        # 3 rows, all certified in one crossover round.  That round takes its
        # faces' Newton steps together, one Hessian call for all running
        # faces per step, so it costs the longest face's steps, not the sum
        # of each face size's longest.
        (oracle, A, b, X0), W, _ = set1_stage_nodes(p_set1, vg_set1, p_set1.K - 2)
        rows = held_rows(A, b, W).sum(axis=1)
        assert len(set(rows.tolist())) > 1
        calls = []  # per `_crossover` call: the row counts of its Hessian calls, and its result
        hessian, crossover = oracle.hessian, concave._crossover
        inside = [False]

        def counted_hessian(X, rows):
            if inside[0]:
                calls[-1][0].append(len(rows))
            return hessian(X, rows)

        def traced_crossover(*args):
            calls.append(([], None))
            inside[0] = True
            kkt = crossover(*args)
            inside[0] = False
            calls[-1] = (calls[-1][0], kkt)
            return kkt

        monkeypatch.setattr(concave, "_crossover", traced_crossover)
        sols = warm_solve(dataclasses.replace(oracle, hessian=counted_hessian), A, b, X0, W, dp_solver.NODE_TOL)
        # The last crossover is the one from the warm points; it certifies every node.
        hessian_rows, kkt = calls[-1]
        assert kkt.size == A.shape[0] and (kkt <= dp_solver.NODE_TOL).all()
        assert all(sol.status == concave.STATUS_CONVERGED for sol in sols)
        steps = np.array([sol.iterations for sol in sols])
        assert len(hessian_rows) == steps.max()
        assert hessian_rows[0] == A.shape[0]
        per_size = sum(steps[rows == k].max() for k in set(rows.tolist()))
        assert len(hessian_rows) < per_size

    def test_face_newton_faces_equal_their_one_face_calls(self, p_set1, vg_set1):
        # Stage K-2 with the stage K-1 faces (1, 2 and 3 rows) and, on every
        # third node, the empty face, whose optimum violates rows.
        (oracle, A, b, X0), W, node = set1_stage_nodes(p_set1, vg_set1, p_set1.K - 2)
        face = held_rows(A, b, W)
        face[::3] = False
        assert len(set(face.sum(axis=1).tolist())) > 2
        violated = assert_faces_equal_their_one_face_calls(oracle, A, b, W, face, node)
        assert violated.any() and not violated.all()

    def test_face_newton_inner_faces_equal_their_one_face_calls(self, p_set1, vg_set1):
        # The faces of the dual-recovered optima of 32 set-1 inner problems
        # (D = 40), every fifth emptied, solved in more than one stack.
        (oracle, A, b, X0), face = set1_inner_batch(p_set1, vg_set1, "m1")
        face[::5] = False
        assert len(A) > concave.FACE_STACK // sum(A.shape[1:]) ** 2
        assert_faces_equal_their_one_face_calls(oracle, A, b, X0, face, lambda i: oracle, rows_of=lambda i: [i])

    def test_batch_rows_equal_their_one_problem_solves(self, p_set1, vg_set1):
        # Eight set-1 inner problems with their dual-recovered optima and
        # multipliers: those that certify exit there with 0 Newton steps,
        # the others run the barrier from X0.
        cfg = bounds.RunConfig(paths_per_run=4, runs=2, seed=5, penalty_kind="m1", gamma=1.5)
        ctxs = penalties.build_contexts(p_set1, vg_set1, dp_solver.make_grid_policy(vg_set1, p_set1),
                                        *bounds._chunk_shocks(p_set1, cfg, (0, 4)))
        forms = penalties.penalty_form("m1", ctxs, p_set1)
        oracle, A, b, X0 = bounds.assemble_inner_batch(p_set1, forms, ctxs)
        warm, duals, _ = bounds._dual_plan(p_set1, forms, ctxs)
        warm[1::4] = duals[1::4] = np.nan   # no plan
        duals[2::4] *= 1.01                 # multipliers off by 1%
        warm[3::4] = X0[3::4]               # a point that holds no row
        batch = concave.maximize_batch(oracle, A, b, X0, tol=bounds.INNER_TOL, max_newton=bounds.INNER_MAX_NEWTON,
                                       warm=warm, duals=duals)
        assert [sol.iterations == 0 for sol in batch] == [i % 4 == 0 for i in range(len(batch))]
        for i, sol in enumerate(batch):
            assert sol.status == concave.STATUS_CONVERGED
            assert_same_solution(sol, maximize(shifted(oracle, i), (A[i], b[i], warm[i], duals[i]), X0[i],
                                               tol=bounds.INNER_TOL, max_newton=bounds.INNER_MAX_NEWTON))

    def test_malformed_guess_is_rejected(self, p_set1, vg_set1):
        (oracle, A, b, X0), W, node = set1_stage_nodes(p_set1, vg_set1, 2)
        nu = np.zeros_like(b)
        for bad in (W[0], W[:1], W[:, :-1], W[:, :, None]):
            with pytest.raises(ValueError, match="warm must be"):
                concave.maximize_batch(oracle, A, b, X0, tol=dp_solver.NODE_TOL, warm=bad, duals=nu)
        for bad in (nu[0], nu[:, :-1], nu[:, :, None]):
            with pytest.raises(ValueError, match="duals must be"):
                concave.maximize_batch(oracle, A, b, X0, tol=dp_solver.NODE_TOL, warm=W, duals=bad)
        # A warm point without its multipliers, and multipliers without a point.
        for plan in (dict(warm=W), dict(duals=nu)):
            with pytest.raises(ValueError, match="together"):
                concave.maximize_batch(oracle, A, b, X0, tol=dp_solver.NODE_TOL, **plan)
        for cons in ((A[0], b[0], W[0]), (A[0], b[0], W[0][:-1], nu[0]), (A[0], b[0], W[:1], nu[0]),
                     (A[0], b[0], W[0], nu[0][:-1]), (A[0], b[0], W[0], nu[0], nu[0])):
            with pytest.raises(ValueError):
                maximize(node(0), cons, X0[0], tol=dp_solver.NODE_TOL)

    def test_warm_point_outside_the_domain_falls_back_to_x0(self, crossover_kkt):
        # max log x + log(2 - x) on -1 <= x <= 2: x = -0.5 breaks no row but
        # lies outside the objective's domain x > 0, so it starts no
        # crossover and its problem keeps its solve from X0.  A point that
        # breaks a row by less than 1e-10 (1 + |b|) still starts the
        # crossover, which keeps a face optimum no worse than that point.
        oracle = pointwise_oracle(
            value=lambda x: float(np.log(x[0]) + np.log(2.0 - x[0])) if 0.0 < x[0] < 2.0 else -np.inf,
            gradient=lambda x: np.array([1.0 / x[0] - 1.0 / (2.0 - x[0])]),
            hessian=lambda x: np.array([[-1.0 / x[0] ** 2 - 1.0 / (2.0 - x[0]) ** 2]]),
        )
        A, b = np.array([[[-1.0], [1.0]]]), np.array([[1.0, 2.0]])
        x0 = np.array([[1.5]])
        cold = maximize(oracle, (A[0], b[0]), x0[0], tol=1e-10)
        sol, = warm_solve(oracle, A, b, x0, np.array([[-0.5]]), 1e-10)
        assert_same_solution(sol, cold)
        assert crossover_kkt[-1].size == 0
        near, = warm_solve(oracle, np.array([[[1.0], [-1.0]]]), np.array([[0.5, 0.0]]), np.array([[0.25]]),
                           np.array([[0.5 + 5e-11]]), 1e-10)
        assert crossover_kkt[-1].size == 1 and crossover_kkt[-1][0] <= 1e-10
        assert near.status == concave.STATUS_CONVERGED and near.iterations <= 2
        assert near.x[0] == 0.5


def fixed_and_free_face(value, gradient, curvature):
    """max value(x_1) - x_0 subject to -x_0 <= 0 and x_0 + x_1 <= 10: on the
    face of the first row x_0 = 0 is fixed and x_1 is the one free coordinate
    (multiplier 1).  Returns (oracle, A, b, face) as one-problem stacks."""
    oracle = pointwise_oracle(
        value=lambda x: float(value(x[1]) - x[0]),
        gradient=lambda x: np.array([-1.0, gradient(x[1])]),
        hessian=lambda x: np.array([[0.0, 0.0], [0.0, curvature(x[1])]]),
    )
    A, b = np.array([[[-1.0, 0.0], [1.0, 1.0]]]), np.array([[0.0, 10.0]])
    return oracle, A, b, np.array([[True, False]])


class TestFaceNewtonStop:
    """A face ends when its step, or from step 2 on the step's quadratic-rate
    estimate of the next one, sz (sz / last)^2, is at rounding level."""

    @pytest.mark.parametrize("offset", [5e-12, -5e-12])
    def test_linearly_converging_face_still_reaches_its_optimum(self, offset):
        # Newton on -(x_1 - 1)^4 cuts the error by 2/3 a step, so the
        # quadratic-rate estimate is (2/3)^2 of the step, not the next step,
        # 2/3 of it; the face still ends within 1e-12 of x_1 = 1, far below
        # the first step's error of 3.3e-12, and certifies.  It ends at step
        # 10, where the step test alone runs it to the cap.
        oracle, A, b, face = fixed_and_free_face(lambda y: -(y - 1.0) ** 4, lambda y: -4.0 * (y - 1.0) ** 3,
                                                 lambda y: -12.0 * (y - 1.0) ** 2)
        start = np.array([[0.0, 1.0 + offset]])
        j, x, f, nu, violated, stationarity, steps = concave._face_newton(oracle, A, b, start, np.array([0]), face,
                                                                          np.array([0]))
        assert j.tolist() == [0] and 1 < steps[0] < concave.MAX_FACE_NEWTON
        assert x[0, 0] == 0.0 and abs(x[0, 1] - 1.0) <= 1e-12
        assert nu[0].tolist() == [1.0, 0.0] and not violated.any()
        assert stationarity[0] <= 1e-12
        sol, = warm_solve(oracle, A, b, np.array([[1.0, 1.0]]), start, 1e-10)
        assert sol.status == concave.STATUS_CONVERGED and sol.iterations == steps[0]
        np.testing.assert_array_equal(sol.x, x[0])

    def test_no_face_ends_on_the_estimate_at_step_1(self, monkeypatch, p_set1):
        # At step 1 there is no earlier step, and the estimate would be 0.
        # Newton solves a quadratic face in one step of 0.5; only the second,
        # at rounding level, ends it.
        oracle, A, b, face = fixed_and_free_face(lambda y: -(y - 1.0) ** 2, lambda y: -2.0 * (y - 1.0),
                                                 lambda y: -2.0)
        *_, steps = concave._face_newton(oracle, A, b, np.array([[0.0, 0.5]]), np.array([0]), face, np.array([0]))
        assert steps.tolist() == [2]
        # Nor does any face of the set-1 grid solved by joint (pi, c) nodes
        # stage by stage, warm faces included, none of which starts at its
        # optimum.
        face_newton = concave._face_newton
        ended = []

        def traced(*args):
            out = face_newton(*args)
            ended.extend(out[-1].tolist())
            return out

        monkeypatch.setattr(concave, "_face_newton", traced)
        joint_backward_recursion(p_set1, dp_solver.DEFAULT_GRID, dp_solver.build_quadrature(3, p_set1.n))
        assert len(ended) > p_set1.K * 21 and min(ended) >= 2


def full_face_step(oracle, A, b, X, face):
    """One face Newton step of each problem on the unscaled (D + k)-square KKT
    system of its k face rows alone, [[H, A_a'], [A_a, 0]] [dx; -nu_a] =
    [-g; b_a - A_a x].  Returns dx (n, D) and the multipliers (n, m), zero
    off the face."""
    n, m, D = A.shape
    rows = np.arange(n)
    g, H = oracle.gradient(X, rows), oracle.hessian(X, rows)
    dx, nu = np.empty((n, D)), np.zeros((n, m))
    for i in range(n):
        act = np.flatnonzero(face[i])
        Aa = A[i, act]
        KKT = np.zeros((D + act.size, D + act.size))
        KKT[:D, :D], KKT[:D, D:], KKT[D:, :D] = H[i], Aa.T, Aa
        sol = concave._solve(KKT[None], np.concatenate([-g[i], b[i, act] - Aa @ X[i]])[None])[0]
        dx[i], nu[i, act] = sol[:D], -sol[D:]
    return dx, nu


def face_step(monkeypatch, oracle, A, b, X, face):
    """One `_face_newton` step of every problem: (j, x, nu) of the faces kept."""
    monkeypatch.setattr(concave, "MAX_FACE_NEWTON", 1)
    n = A.shape[0]
    j, x, _, nu, *_ = concave._face_newton(oracle, A, b, X, np.arange(n), face, np.arange(n))
    return j, x, nu


def assert_steps_agree(monkeypatch, oracle, A, b, X, face, rtol=1e-12):
    """The `_face_newton` step and the step on the face rows' own system give
    the same point and the same (n, m) multipliers to rtol."""
    n = A.shape[0]
    j, x, nu = face_step(monkeypatch, oracle, A, b, X, face)
    dx, nu_full = full_face_step(oracle, A, b, X, face)
    # A face is dropped only where the full step leaves the objective's domain.
    dropped = np.setdiff1d(np.arange(n), j)
    assert dropped.size <= n // 4
    assert not np.isfinite(oracle.value(X[dropped] + dx[dropped], dropped)).any()
    for r, i in enumerate(j.tolist()):
        scale = np.abs(X[i]).max() + np.abs(dx[i]).max()
        np.testing.assert_allclose(x[r], X[i] + dx[i], rtol=0.0, atol=rtol * scale)
        np.testing.assert_allclose(nu[r], nu_full[i], rtol=0.0, atol=rtol * np.abs(nu_full[i]).max(initial=1e-300))
    return j, nu


def random_crra_faces(seed, n=24, D=6, J=9):
    """n concave CRRA problems in D coordinates with dense rows, the bounds
    -x_c <= 0, and the bounds 2.5 x_c <= 0.3 and -x_c <= -0.05, and a face
    per problem: some coordinates fixed by one of their bound rows (every
    coordinate on problem 0, none on problem 1) plus dense rows, at most one
    per free coordinate.  Returns (oracle, A, b, X, face)."""
    rng = np.random.default_rng(seed)
    P = np.concatenate([0.3 * rng.normal(size=(n, D, J)), 0.05 * rng.normal(size=(n, D, 1))], axis=2)
    z0 = np.concatenate([np.ones((n, J)), np.zeros((n, 1))], axis=1)
    oracle = concave.crra_oracle(P, z0, rng.uniform(0.5, 2.0, size=(n, J)), 2.0)
    dense = 3
    eye = np.eye(D)
    A = np.concatenate([np.broadcast_to(rng.normal(size=(n, dense, D)), (n, dense, D)),
                        np.broadcast_to(-eye, (n, D, D)), np.broadcast_to(2.5 * eye, (n, D, D)),
                        np.broadcast_to(-eye, (n, D, D))], axis=1)
    b = np.concatenate([rng.uniform(0.5, 1.0, size=(n, dense)), np.zeros((n, D)), np.full((n, D), 0.3),
                        np.full((n, D), -0.05)], axis=1)
    face = np.zeros(b.shape, dtype=bool)
    for i in range(n):
        fixed = np.arange(D) if i == 0 else np.array([], dtype=int) if i == 1 else \
            rng.choice(D, size=rng.integers(1, D), replace=False)
        kind = rng.integers(0, 3, size=fixed.size)     # which bound row fixes the coordinate
        face[i, dense + kind * D + fixed] = True
        face[i, :min(dense, D - fixed.size, int(rng.integers(i == 1, dense + 1)))] = True
    X = rng.uniform(0.05, 0.2, size=(n, D))
    return oracle, A, b, X, face


class TestReducedFaceStep:
    """A face Newton step on the scaled (D + m)-square system, off-face rows
    masked, equals the step on the reduced (D + k)-square KKT system of the
    k face rows alone."""

    @pytest.mark.parametrize("kind", ["m1", "zero"])
    def test_set1_inner_faces(self, monkeypatch, p_set1, vg_set1, kind):
        (oracle, A, b, X0), face = set1_inner_batch(p_set1, vg_set1, kind)
        j, nu = assert_steps_agree(monkeypatch, oracle, A, b, X0, face)
        bound_rows = np.arange(A.shape[1]) >= 2 * p_set1.K + 1     # -Pi_kj <= 0
        assert (face[j] & bound_rows).sum(axis=1).min() > 0
        assert (nu[:, bound_rows] != 0.0).any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_crra_faces(self, monkeypatch, seed):
        oracle, A, b, X, face = random_crra_faces(seed)
        D = A.shape[2]
        n_bound = face[:, 3:].sum(axis=1)
        assert n_bound[0] == D and face[0, :3].sum() == 0    # no free coordinate
        assert n_bound[1] == 0 and face[1, :3].any()         # no bound row
        assert face[:, 3 + D:].any()                         # coefficients 2.5 and -1 with b != 0
        assert_steps_agree(monkeypatch, oracle, A, b, X, face)

    def test_problem_without_rows(self, monkeypatch):
        oracle, *_ = random_crra_faces(3, n=2, D=3)
        A, b, X = np.zeros((2, 0, 3)), np.zeros((2, 0)), np.full((2, 3), 0.2)
        assert_steps_agree(monkeypatch, oracle, A, b, X, np.zeros((2, 0), dtype=bool))

    def test_coordinate_fixed_by_two_rows(self, monkeypatch):
        # x_0 >= 0.05 twice over (-x_0 <= -0.05 and -2 x_0 <= -0.1): the
        # two face rows are parallel, so the system is singular, as the face
        # rows' own one is.  The least-squares fallback still takes that
        # system's step, and the two rows' multipliers together balance x_0's
        # stationarity as they do there.
        oracle, A, b, X, face = random_crra_faces(4, n=2, D=3)
        A, b = np.concatenate([A, 2.0 * A[:, -3:-2]], axis=1), np.concatenate([b, [[-0.1], [-0.1]]], axis=1)
        face = np.zeros(b.shape, dtype=bool)
        face[:, [-4, -1]] = True
        j, x, nu = face_step(monkeypatch, oracle, A, b, X, face)
        dx, nu_full = full_face_step(oracle, A, b, X, face)
        assert sorted(j.tolist()) == [0, 1]
        for r, i in enumerate(j.tolist()):
            np.testing.assert_allclose(x[r], X[i] + dx[i], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(A[i, face[i], 0] @ nu[r, face[i]], A[i, face[i], 0] @ nu_full[i, face[i]],
                                       rtol=1e-12)


class TestOracleGradients:
    def test_node_objective_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        p = single_asset_params(gamma=1.5)
        quad = dp_solver.build_quadrature(3, 1)
        Rq = dp_solver.node_returns(p, quad, 0.0)
        oracle, _ = bellman_node_problem(p, Rq, quad.weights, -0.8)
        h = 1e-6
        for _ in range(100):
            x = np.array([rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.3)])
            g = at_point(oracle.gradient, x)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (at_point(oracle.value, x + e) - at_point(oracle.value, x - e)) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @staticmethod
    def random_crra_batch(rng, B=4, D=3, J=3):
        """P, z0 and w of a CRRA batch whose arguments are near 1 on [0, 1]^D,
        with a nonzero penalty column."""
        P = rng.uniform(-0.1, 0.1, size=(B, D, J + 1))
        P[:, :, J] = rng.normal(size=(B, D))
        z0 = np.ones((B, J + 1))
        z0[:, J] = rng.normal(size=B)
        return P, z0, rng.uniform(0.5, 2.0, size=(B, J))

    def test_crra_oracle_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        P, z0, w = self.random_crra_batch(rng)
        B, D = P.shape[:2]
        gamma = 2.5
        oracle = concave.crra_oracle(P, z0, w, gamma)
        X = rng.uniform(0.0, 1.0, size=(B, D))
        rows = np.arange(B)
        Z = (X[:, None, :] @ P)[:, 0] + z0
        expect = (w * Z[:, :-1] ** (1.0 - gamma) / (1.0 - gamma)).sum(axis=1) - Z[:, -1]
        np.testing.assert_allclose(oracle.value(X, rows), expect, rtol=1e-14)
        g, H = oracle.gradient(X, rows), oracle.hessian(X, rows)
        h = 1e-6
        for j in range(D):
            e = np.zeros(D)
            e[j] = h
            fd = (oracle.value(X + e, rows) - oracle.value(X - e, rows)) / (2 * h)
            np.testing.assert_allclose(g[:, j], fd, rtol=1e-6, atol=1e-8)
            fd_g = (oracle.gradient(X + e, rows) - oracle.gradient(X - e, rows)) / (2 * h)
            np.testing.assert_allclose(H[:, :, j], fd_g, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("shared_weights", [False, True])
    def test_crra_oracle_rows_outside_the_domain_leave_the_others_alone(self, shared_weights):
        rng = np.random.default_rng(6)
        P, z0, w = self.random_crra_batch(rng)
        if shared_weights:
            w = w[0]
        B, D = P.shape[:2]
        gamma = 1.5
        oracle = concave.crra_oracle(P, z0, w, gamma)
        X = rng.uniform(0.0, 1.0, size=(B, D))
        X[2] = -100.0 * np.sign(P[2, :, 0])  # Z_0 of problem 2 is negative
        rows = np.arange(B)
        f = oracle.value(X, rows)
        assert np.isneginf(f[2]) and np.isfinite(np.delete(f, 2)).all()
        with np.errstate(invalid="ignore"):  # problem 2 has no derivatives there
            g, H = oracle.gradient(X, rows), oracle.hessian(X, rows)
        for i in (0, 1, 3):
            one = concave.crra_oracle(P[i:i + 1], z0[i:i + 1], w if shared_weights else w[i:i + 1], gamma)
            x, r = X[i:i + 1], np.array([0])
            assert one.value(x, r)[0] == f[i]
            assert np.array_equal(one.gradient(x, r)[0], g[i])
            assert np.array_equal(one.hessian(x, r)[0], H[i])

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_bellman_oracle_domain_holds_c_zero_only_without_consumption_utility(self, alpha):
        p = single_asset_params(gamma=1.5, alpha=alpha)
        quad = dp_solver.build_quadrature(3, 1)
        Rq = dp_solver.node_returns(p, quad, 0.0)
        oracle, _ = bellman_node_problem(p, Rq, quad.weights, -0.8)
        f = at_point(oracle.value, np.array([0.3, 0.0]))
        assert np.isfinite(f) if alpha == 0.0 else np.isneginf(f)

    def test_finite_difference_hessian_fallback(self):
        H = fd_hessian(lambda x: -2.0 * x)(np.array([0.3, -0.7]))
        np.testing.assert_allclose(H, -2.0 * np.eye(2), atol=1e-6)


class TestConstraints:
    def test_slack_and_violation(self):
        cons = np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])  # 0 <= x <= 1
        np.testing.assert_allclose(slack(cons, np.array([0.5])), [0.5, 0.5])
        assert max_violation(cons, np.array([0.5])) == 0.0
        assert max_violation(cons, np.array([2.0])) == pytest.approx(1.0)
