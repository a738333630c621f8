import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import ndtr
from scipy.stats import norm

from dualbound import concave, dp_solver, market
from dualbound.dp_solver import (
    ValueGrid,
    backward_recursion,
    build_phi_transition,
    build_quadrature,
    gradient_J,
    interpolate_J,
    policy_lookup,
    value_grid_from_dict,
    value_grid_to_dict,
)

from helpers import bellman_node_problem, node_objective_grid_search, single_asset_params


class TestQuadrature:
    def test_three_point_closed_form(self):
        rule = build_quadrature(3, 1)
        np.testing.assert_allclose(np.sort(rule.nodes[:, 0]), [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-14)
        np.testing.assert_allclose(np.sort(rule.weights), [1 / 6, 1 / 6, 2 / 3], atol=1e-14)

    @pytest.mark.parametrize("q,n", [(3, 1), (3, 3), (5, 2), (7, 1)])
    def test_weights_sum_to_one_and_symmetric(self, q, n):
        rule = build_quadrature(q, n)
        assert rule.count == q**n
        assert abs(rule.weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(rule.nodes.sum(axis=0), np.zeros(n), atol=1e-12)

    def test_integrates_constant(self):
        rule = build_quadrature(3, 3)
        assert float(rule.weights @ np.ones(rule.count)) == pytest.approx(1.0, abs=1e-12)

    def test_second_and_fourth_moments(self):
        rule = build_quadrature(3, 1)
        x = rule.nodes[:, 0]
        assert float(rule.weights @ x**2) == pytest.approx(1.0, abs=1e-12)
        assert float(rule.weights @ x**4) == pytest.approx(3.0, abs=1e-12)

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            build_quadrature(4, 1)
        with pytest.raises(ValueError, match="dimensions"):
            build_quadrature(3, 5)


class TestPhiTransition:
    def test_degenerate_dynamics_give_identity(self):
        p = single_asset_params(lam=0.0, sigma_phi1=0.0, sigma_phi2=0.0)
        pt = build_phi_transition(np.linspace(-2, 2, 9), p)
        np.testing.assert_allclose(pt, np.eye(9))

    def test_rows_are_stochastic(self):
        p = market.parameter_set(2)
        pt = build_phi_transition(np.linspace(-2, 2, 21), p)
        assert np.all(pt >= 0)
        np.testing.assert_allclose(pt.sum(axis=1), np.ones(21), atol=1e-12)

    def test_row_masses_match_cdf_cell_integrals(self):
        # Independent oracle: numerical quadrature of the normal density per cell.
        p = market.parameter_set(1)
        grid = np.linspace(-2, 2, 21)
        pt = build_phi_transition(grid, p)
        i = 10  # phi = 0
        mean = grid[i] * (1 - p.lam * p.delta)
        sd = math.sqrt(p.phi_step_var)
        mids = 0.5 * (grid[:-1] + grid[1:])
        edges = np.concatenate([[-np.inf], mids, [np.inf]])
        for j in range(21):
            lo = edges[j] if np.isfinite(edges[j]) else mean - 12 * sd
            hi = edges[j + 1] if np.isfinite(edges[j + 1]) else mean + 12 * sd
            mass, _ = scipy_quad(lambda x: norm.pdf(x, mean, sd), lo, hi, epsabs=1e-14)
            assert pt[i, j] == pytest.approx(mass, abs=1e-12)

    def test_flat_density_limit_spreads_over_cells(self):
        p = single_asset_params(sigma_phi1=0.0, sigma_phi2=300.0, lam=0.0)
        grid = np.linspace(-2, 2, 11)
        pt = build_phi_transition(grid, p)
        interior = pt[5, 1:-1]
        # interior cells have equal width, so the masses flatten out
        assert interior.max() - interior.min() <= 1e-4

    def test_unsorted_grid_rejected(self):
        p = market.parameter_set(1)
        with pytest.raises(ValueError, match="sorted"):
            build_phi_transition(np.array([0.0, -1.0, 1.0]), p)

    @pytest.mark.parametrize("set_id", [1, 2, 3, 4])
    def test_equals_the_ndtr_transition(self, set_id):
        # The per-row construction on scipy's ndtr that the runtime used before.
        p = market.parameter_set(set_id)
        grid = np.linspace(-2, 2, 21)
        mids = 0.5 * (grid[:-1] + grid[1:])
        sd = math.sqrt(p.phi_step_var)
        expect = np.empty((21, 21))
        for i, m in enumerate(grid * (1.0 - p.lam * p.delta)):
            cdf = ndtr((mids - m) / sd)
            row = np.concatenate([[cdf[0]], np.diff(cdf), [1.0 - cdf[-1]]])
            expect[i] = row / row.sum()
        np.testing.assert_allclose(build_phi_transition(grid, p), expect, rtol=0, atol=1e-15)


class TestNormCdf:
    def test_relative_error_against_ndtr_over_both_tails(self):
        x = np.linspace(-37.0, 37.0, 74_001)
        expect = ndtr(x)
        assert np.all(expect > 0)
        assert np.max(np.abs(dp_solver._norm_cdf_array(x) - expect) / expect) <= 1e-13

    def test_ulps_against_ndtr_on_the_body(self):
        # Left of -5 both forms carry the rounding of z = x / sqrt(2), which
        # erfc amplifies by about x^2 (30-90 ulps from the exact value for
        # each); the relative test above covers that tail.
        x = np.linspace(-5.0, 8.0, 130_001)
        expect = ndtr(x)
        ulps = np.abs(dp_solver._norm_cdf_array(x) - expect) / np.spacing(expect)
        assert np.max(ulps) <= 16


class TestInterpolation:
    @pytest.fixture()
    def vg(self):
        grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        J = np.array([[1.0, 2.0, 4.0, 5.0, 7.0], [0.0, 0.0, 0.0, 0.0, 0.0]])
        return ValueGrid(grid=grid, J=J, policy_pi=np.zeros((1, 5, 2)), policy_c=np.zeros((1, 5)))

    def test_nodal_values_exact(self, vg):
        for phi, expect in zip(vg.grid, vg.J[0]):
            assert interpolate_J(vg, 0, phi) == expect

    def test_midpoint_is_mean(self, vg):
        assert interpolate_J(vg, 0, -1.5) == pytest.approx(1.5)
        assert interpolate_J(vg, 0, 0.5) == pytest.approx(4.5)

    def test_linear_extrapolation_with_boundary_slope(self, vg):
        # boundary segment slope is (7 - 5) / 1 = 2
        assert interpolate_J(vg, 0, 2.5) == pytest.approx(7.0 + 0.5 * 2.0)
        assert interpolate_J(vg, 0, -2.5) == pytest.approx(1.0 - 0.5 * 1.0)

    def test_gradient_inside_segment(self, vg):
        assert gradient_J(vg, 0, 0.5) == pytest.approx(1.0)
        assert gradient_J(vg, 0, -1.2) == pytest.approx(1.0)

    def test_gradient_at_interior_node_averages_segments(self, vg):
        # at phi = 0 the adjacent segment slopes are 2 and 1
        assert gradient_J(vg, 0, 0.0) == pytest.approx(1.5)

    def test_gradient_beyond_boundary_uses_boundary_segment(self, vg):
        assert gradient_J(vg, 0, 5.0) == pytest.approx(2.0)
        assert gradient_J(vg, 0, -2.0) == pytest.approx(1.0)

    def test_gradient_of_constant_is_zero(self):
        vg = ValueGrid(grid=np.linspace(-2, 2, 5), J=np.full((2, 5), 3.3),
                       policy_pi=np.zeros((1, 5, 1)), policy_c=np.zeros((1, 5)))
        for phi in (-3.0, -1.0, 0.0, 0.3, 2.0, 2.7):
            assert gradient_J(vg, 0, phi) == 0.0


class TestPolicyLookup:
    def test_nodal_policy_exact(self, p_set1, vg_set1):
        i = 7
        pi, c = policy_lookup(vg_set1, 3, float(vg_set1.grid[i]), p_set1)
        np.testing.assert_allclose(pi, vg_set1.policy_pi[3, i], atol=1e-12)
        assert c == pytest.approx(vg_set1.policy_c[3, i], abs=1e-12)

    def test_zero_nodal_policies_interpolate_to_zero(self):
        p = single_asset_params()
        vg = ValueGrid(grid=np.linspace(-2, 2, 5), J=np.zeros((2, 5)),
                       policy_pi=np.zeros((1, 5, 1)), policy_c=np.zeros((1, 5)))
        pi, c = policy_lookup(vg, 0, 0.37, p)
        assert np.all(pi == 0.0) and c == 0.0

    def test_projection_back_to_simplex_and_budget(self):
        p = single_asset_params()
        over = 1.000001
        vg = ValueGrid(grid=np.linspace(-2, 2, 5), J=np.zeros((2, 5)),
                       policy_pi=np.full((1, 5, 1), over), policy_c=np.full((1, 5), 0.01))
        pi, c = policy_lookup(vg, 0, 0.0, p)
        assert pi[0] == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert market.check_admissible(pi, c, p) is None

    def test_constant_extrapolation_beyond_grid(self, p_set1, vg_set1):
        pi_hi, c_hi = policy_lookup(vg_set1, 0, 4.5, p_set1)
        pi_edge, c_edge = policy_lookup(vg_set1, 0, float(vg_set1.grid[-1]), p_set1)
        np.testing.assert_allclose(pi_hi, pi_edge, atol=1e-12)
        assert c_hi == pytest.approx(c_edge, abs=1e-12)


class TestBatchedLookups:
    """Array calls agree exactly with one-state calls, including off the grid."""

    PHI = np.array([-3.1, -2.0, -1.37, -0.2, 0.0, 0.2, 0.61, 1.8, 2.0, 2.9])

    def test_interpolant_and_slope(self, vg_set1):
        for k in (0, 4, vg_set1.K):
            J = interpolate_J(vg_set1, k, self.PHI)
            dJ = gradient_J(vg_set1, k, self.PHI)
            assert np.array_equal(J, [interpolate_J(vg_set1, k, x) for x in self.PHI])
            assert np.array_equal(dJ, [gradient_J(vg_set1, k, x) for x in self.PHI])

    def test_interpolant_is_np_interp_inside_the_grid(self, vg_set1):
        inside = self.PHI[np.abs(self.PHI) < 2.0]
        assert np.array_equal(interpolate_J(vg_set1, 3, inside), np.interp(inside, vg_set1.grid, vg_set1.J[3]))

    def test_stage_array_broadcasts(self, vg_set1):
        stages = np.arange(vg_set1.K)
        phi = np.tile(self.PHI[:, None], (1, vg_set1.K))
        for fn in (interpolate_J, gradient_J):
            expect = np.stack([fn(vg_set1, k, self.PHI) for k in stages], axis=1)
            assert np.array_equal(fn(vg_set1, stages, phi), expect)

    def test_policy_lookup(self, p_set1, vg_set1):
        pi, c = policy_lookup(vg_set1, 2, self.PHI, p_set1)
        assert pi.shape == (self.PHI.size, p_set1.n) and c.shape == (self.PHI.size,)
        for i, x in enumerate(self.PHI):
            pi_i, c_i = policy_lookup(vg_set1, 2, x, p_set1)
            assert np.array_equal(pi[i], pi_i) and c[i] == c_i


class TestBackwardRecursion:
    def test_terminal_row_is_constant(self, p_set1, vg_set1):
        expect = (1 - p_set1.alpha) / (1 - p_set1.gamma)
        np.testing.assert_allclose(vg_set1.J[-1], np.full(21, expect))

    def test_stored_policies_are_admissible(self, p_set1, vg_set1):
        K, G, _ = vg_set1.policy_pi.shape
        for k in range(K):
            for i in range(G):
                pi = vg_set1.policy_pi[k, i]
                c = vg_set1.policy_c[k, i]
                assert market.check_admissible(pi, c, p_set1, tol=1e-9) is None

    def test_value_sign_matches_risk_aversion(self, vg_set1):
        assert np.all(vg_set1.J < 0)  # gamma > 1
        p_low = single_asset_params(gamma=0.5, K=2)
        vg_low = backward_recursion(p_low, grid=np.linspace(-2, 2, 5))
        assert np.all(vg_low.J > 0)  # gamma < 1

    def test_all_cash_formula_zero_riskfree_rate(self):
        # With r_f = 0 the gross risk-free rate matches the zero-excess return
        # exactly, so the optimizer should sit at (pi, c) = (0, 0).
        p = single_asset_params(gamma=1.5, K=3, alpha=0.0, r_f=0.0, mu0=0.0,
                                mu1=0.0)
        vg = backward_recursion(p, grid=np.linspace(-2, 2, 5))
        np.testing.assert_allclose(vg.policy_pi, 0.0, atol=1e-6)
        np.testing.assert_allclose(vg.policy_c, 0.0, atol=1e-6)
        expect = (p.beta**p.delta * p.R_f ** (1 - p.gamma)) ** p.K / (1 - p.gamma)
        np.testing.assert_allclose(vg.J[0], np.full(5, expect), rtol=1e-7)

    def test_all_cash_value_formula_positive_rate(self):
        # With r_f > 0 the compounding formula still holds to high accuracy
        # (the residual excess e^{r_f delta} - R_f is second order in r_f delta).
        p = single_asset_params(gamma=1.5, K=3, alpha=0.0, r_f=0.01, mu0=0.01, mu1=0.0)
        vg = backward_recursion(p, grid=np.linspace(-2, 2, 5))
        expect = (p.beta**p.delta * p.R_f ** (1 - p.gamma)) ** p.K / (1 - p.gamma)
        np.testing.assert_allclose(vg.J[0], np.full(5, expect), rtol=1e-6)

    def test_matches_grid_search_oracle_every_node(self):
        p = single_asset_params(gamma=1.5, K=2)
        grid = np.linspace(-2, 2, 5)
        quadrule = build_quadrature(3, 1)
        pt = build_phi_transition(grid, p)
        vg = backward_recursion(p, grid=grid, quad=quadrule, pt=pt)
        # stage K-1 first, then stage 0 against values built on the solved J
        for k in (1, 0):
            EJ_nodes = pt @ vg.J[k + 1]
            for i, phi in enumerate(grid):
                Rq = dp_solver.node_returns(p, quadrule, phi)
                ref, _, _ = node_objective_grid_search(p, Rq, quadrule.weights,
                                                       float(EJ_nodes[i]), step=1e-3)
                assert vg.J[k, i] == pytest.approx(ref, rel=1e-4)

    def test_grid_refinement_stability(self, p_set1, vg_set1):
        vg41 = backward_recursion(p_set1, grid=np.linspace(-2, 2, 41))
        j21 = interpolate_J(vg_set1, 0, 0.0)
        j41 = interpolate_J(vg41, 0, 0.0)
        assert abs(j41 - j21) / abs(j21) < 0.01


class TestDefaultStart:
    @pytest.mark.parametrize("R_f", [5e-4, 1.001, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_strictly_inside_the_budget_and_growth_guards(self, R_f, n):
        # Set 1's first n assets; a fourth repeats the first one's loadings.
        p = market.parameter_set(1, 1.5)
        sigma = np.diag(np.resize(np.diag(p.sigma), n))
        sigma[:min(n, 3), :min(n, 3)] = p.sigma[:n, :n]
        p = dataclasses.replace(p, n=n, mu0=np.resize(p.mu0, n), mu1=np.resize(p.mu1, n), sigma=sigma,
                                sigma_phi1=np.resize(p.sigma_phi1, n), r_f=(R_f - 1.0) / p.delta)
        assert p.R_f == pytest.approx(R_f, rel=1e-12)
        x = dp_solver._default_start(p)
        np.testing.assert_array_equal(x, np.full(n + 1, min(1.0, p.R_f) / (n + 2)))
        quad = build_quadrature(3, n)
        Rq = dp_solver.node_returns(p, quad, np.linspace(-2.0, 2.0, 5))
        A, b = dp_solver.node_constraints(p, Rq)
        assert (b - A @ x).min() > 0.0
        assert (x > 0.0).all()


class TestStageBatch:
    """Each stage is one lockstep batch whose rows equal their own one-node solves."""

    @pytest.mark.parametrize("set_id, gamma, nodes, q", [
        (1, 1.5, 21, 3), (2, 1.5, 21, 3), (3, 1.5, 21, 3), (4, 1.5, 21, 3),
        (1, 5.0, 21, 3), (1, 1.5, 41, 5),
    ])
    def test_every_row_equals_its_one_node_solve(self, set_id, gamma, nodes, q):
        p = market.parameter_set(set_id, gamma)
        grid = np.linspace(-2.0, 2.0, nodes)
        quad = build_quadrature(q, p.n)
        vg = backward_recursion(p, grid=grid, quad=quad)
        pt = build_phi_transition(grid, p)
        Rq = dp_solver.node_returns(p, quad, grid)
        default = dp_solver._default_start(p)
        for k in (p.K - 1, 0):
            EJ = pt @ vg.J[k + 1]
            problems = [bellman_node_problem(p, Rq[i], quad.weights, EJ[i]) for i in range(nodes)]
            A = np.stack([cons[0] for _, cons in problems])
            b = np.stack([cons[1] for _, cons in problems])
            A_grid, b_grid = dp_solver.node_constraints(p, Rq)  # the rows the recursion solves with
            assert np.array_equal(A, A_grid) and np.array_equal(b, b_grid)
            X0 = np.tile(default, (nodes, 1))
            warm = None
            if k < p.K - 1:  # warm points at the stage k+1 optima, as the recursion sets them
                warm = np.concatenate([vg.policy_pi[k + 1], vg.policy_c[k + 1][:, None]], axis=1)
            batch = concave.maximize_batch(dp_solver.bellman_oracle(p, Rq, quad.weights, EJ), A, b, X0, tol=1e-8,
                                           warm=warm)
            for i, (oracle, cons) in enumerate(problems):
                one = concave.maximize(oracle, cons if warm is None else cons + (warm[i],), X0[i], tol=1e-8)
                assert one.status == batch[i].status == concave.STATUS_CONVERGED
                assert (one.f, one.iterations, one.kkt_residual) == (batch[i].f, batch[i].iterations,
                                                                    batch[i].kkt_residual)
                assert np.array_equal(one.x, batch[i].x)

    def test_per_node_solver_gives_the_batched_grid(self, p_set1, vg_set1):
        # The traced grid replay calls a wrapped maximize node by node.
        starts = []

        def solver(oracle, cons, x0, tol):
            starts.append(x0)
            return concave.maximize(oracle, cons, x0, tol=tol)

        vg = backward_recursion(p_set1, solver=solver)
        assert len(starts) == p_set1.K * vg_set1.grid.size
        assert np.array_equal(vg.J, vg_set1.J)
        assert np.array_equal(vg.policy_pi, vg_set1.policy_pi)
        assert np.array_equal(vg.policy_c, vg_set1.policy_c)

    def test_node_failure_names_the_node_of_the_per_node_path(self, monkeypatch):
        # No solve can certify a KKT residual of 1e-16 at every node, so some
        # fail; both paths name the lowest failing node of the first failing stage.
        monkeypatch.setattr(dp_solver, "NODE_TOL", 1e-16)
        p = market.parameter_set(1, 1.5)
        grid = np.linspace(-2.0, 2.0, 5)
        with pytest.raises(dp_solver.NodeSolveError) as batched:
            backward_recursion(p, grid=grid)
        with pytest.raises(dp_solver.NodeSolveError) as per_node:
            backward_recursion(p, grid=grid, solver=concave.maximize)
        assert (batched.value.k, batched.value.phi) == (per_node.value.k, per_node.value.phi)
        assert str(batched.value) == str(per_node.value)


class TestWarmFaces:
    """Below stage K-1 each node first tries a crossover from its stage k+1
    optimum onto the rows that optimum holds."""

    def test_set1_grid_takes_at_most_1000_newton_steps(self, monkeypatch, p_set1):
        # Counts repeat exactly: 1,800 on this grid when every stage starts
        # with the barrier, 1,398 when the warm faces certify and stage K-1
        # starts at (pi, c) = 1e-3 (416 of them at stage K-1), 1,166 from
        # the centred start (186 at stage K-1; capped at 1,200 and 200), and
        # 936 since a face also ends on its quadratic-rate estimate of the
        # next step (155 at stage K-1).
        counts = []
        batch = concave.maximize_batch

        def counted(*args, **kwargs):
            sols = batch(*args, **kwargs)
            counts.extend(sol.iterations for sol in sols)
            return sols

        monkeypatch.setattr(concave, "maximize_batch", counted)
        backward_recursion(p_set1)
        G = dp_solver.DEFAULT_GRID.size
        assert len(counts) == p_set1.K * G
        assert sum(counts[:G]) <= 170  # stage K-1, solved first
        assert sum(counts) <= 1000

    @pytest.mark.parametrize("set_id, gamma", [(1, 1.5), (2, 1.5), (3, 1.5), (4, 1.5), (1, 5.0)])
    def test_every_warm_node_certifies_on_its_face(self, monkeypatch, set_id, gamma):
        guessed = []
        barrier_rows = []
        batch, barrier = concave.maximize_batch, concave._barrier

        def traced_batch(oracle, A, b, X0, **kwargs):
            guessed.append(kwargs["warm"] is not None)
            return batch(oracle, A, b, X0, **kwargs)

        def traced_barrier(oracle, live, *args):
            barrier_rows.append(live.size)
            return barrier(oracle, live, *args)

        monkeypatch.setattr(concave, "maximize_batch", traced_batch)
        monkeypatch.setattr(concave, "_barrier", traced_barrier)
        p = market.parameter_set(set_id, gamma)
        backward_recursion(p)
        assert guessed == [False] + [True] * (p.K - 1)
        assert barrier_rows == [dp_solver.DEFAULT_GRID.size] + [0] * (p.K - 1)

    def test_per_node_path_gets_each_node_its_warm_point(self, monkeypatch, p_set1, vg_set1):
        warms, starts = [], []
        batch = concave.maximize_batch

        def traced_batch(oracle, A, b, X0, warm=None, **kwargs):
            warms.append(warm)
            starts.append(X0)
            return batch(oracle, A, b, X0, warm=warm, **kwargs)

        monkeypatch.setattr(concave, "maximize_batch", traced_batch)
        backward_recursion(p_set1)
        stage_warms, stage_starts = warms[:], starts[:]
        node_cons, node_starts = [], []

        def solver(oracle, cons, x0, tol):
            node_cons.append(cons)
            node_starts.append(x0)
            return concave.maximize(oracle, cons, x0, tol=tol)

        backward_recursion(p_set1, solver=solver)
        G = vg_set1.grid.size
        assert len(node_cons) == p_set1.K * G
        # Every node starts at the default start, in both paths.
        default = dp_solver._default_start(p_set1)
        assert all(np.array_equal(x0, default) for x0 in node_starts)
        assert all(np.array_equal(X0, np.tile(default, (G, 1))) for X0 in stage_starts)
        assert stage_warms[0] is None and all(len(cons) == 2 for cons in node_cons[:G])
        for j, warm in enumerate(stage_warms[1:], start=1):
            k = p_set1.K - 1 - j
            for i, (_, _, node_warm) in enumerate(node_cons[j * G:(j + 1) * G]):
                # The node's stage k+1 optimum.
                x = np.append(vg_set1.policy_pi[k + 1, i], vg_set1.policy_c[k + 1, i])
                assert np.array_equal(node_warm, warm[i])
                assert np.array_equal(node_warm, x)


class TestSerialization:
    def test_round_trip(self, p_set1, vg_set1):
        data = value_grid_to_dict(vg_set1, p_set1)
        vg2, p2 = value_grid_from_dict(json.loads(json.dumps(data)))
        assert p2.to_dict() == p_set1.to_dict()
        np.testing.assert_array_equal(vg2.J, vg_set1.J)
        np.testing.assert_array_equal(vg2.policy_pi, vg_set1.policy_pi)

    def test_version_check(self, p_set1, vg_set1):
        data = value_grid_to_dict(vg_set1, p_set1)
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            value_grid_from_dict(data)

    def test_version_1_files_rejected(self, p_set1, vg_set1):
        # Version 1 stored node slopes that nothing read.
        data = value_grid_to_dict(vg_set1, p_set1)
        assert "node_slope" not in data
        data.update(version=1, node_slope=np.zeros((p_set1.K, vg_set1.grid.size)).tolist())
        with pytest.raises(ValueError, match="unsupported value-grid file version 1"):
            value_grid_from_dict(data)

    def test_hash_check(self, p_set1, vg_set1):
        data = value_grid_to_dict(vg_set1, p_set1)
        data["params"]["gamma"] = 9.0
        with pytest.raises(ValueError, match="hash"):
            value_grid_from_dict(data)

    @pytest.mark.parametrize("field, value, match", [
        ("grid", lambda g: g[::-1], "strictly increasing"),
        ("grid", lambda g: np.concatenate([g[:3], g[2:]]), "strictly increasing"),
        ("grid", lambda g: np.append(g[:-1], np.inf), "and finite"),
        ("J", lambda a: a[:, :-1], "J has shape"),
        ("J", lambda a: a[:-1], "J has shape"),
        ("policy_pi", lambda a: a[..., :2], "policy_pi has shape"),
        ("policy_c", lambda a: a[:-1], "policy_c has shape"),
    ])
    def test_malformed_arrays_rejected(self, p_set1, vg_set1, field, value, match):
        data = value_grid_to_dict(vg_set1, p_set1)
        data[field] = value(np.asarray(data[field])).tolist()
        with pytest.raises(ValueError, match=match):
            value_grid_from_dict(data)

    @pytest.mark.parametrize("field", ["J", "policy_pi", "policy_c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entries_rejected(self, p_set1, vg_set1, field, value):
        data = value_grid_to_dict(vg_set1, p_set1)
        entries = np.asarray(data[field])
        entries.flat[entries.size // 2] = value
        data[field] = entries.tolist()
        # Python's json writes and reads NaN and Infinity.
        data = json.loads(json.dumps(data))
        with pytest.raises(ValueError, match=f"value-grid file is corrupt: {field} has non-finite entries"):
            value_grid_from_dict(data)
