import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import ndtr
from scipy.stats import norm

from dualbound import bounds, concave, dp_solver, market
from dualbound.dp_solver import (
    J_and_slope,
    ValueGrid,
    backward_recursion,
    build_phi_transition,
    build_quadrature,
    interpolate_J,
    policy_lookup,
    value_grid_from_dict,
    value_grid_to_dict,
)

from helpers import (at_point, joint_backward_recursion, node_objective_grid_search, reference_J_and_slope,
                     reference_policy_lookup, single_asset_params)


class TestQuadrature:
    def test_three_point_closed_form(self):
        rule = build_quadrature(3, 1)
        np.testing.assert_allclose(np.sort(rule.nodes[:, 0]), [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-14)
        np.testing.assert_allclose(np.sort(rule.weights), [1 / 6, 1 / 6, 2 / 3], atol=1e-14)

    @pytest.mark.parametrize("q,n", [(3, 1), (3, 3), (5, 2), (7, 1)])
    def test_weights_sum_to_one_and_symmetric(self, q, n):
        rule = build_quadrature(q, n)
        assert rule.weights.size == q**n
        assert abs(rule.weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(rule.nodes.sum(axis=0), np.zeros(n), atol=1e-12)

    def test_integrates_constant(self):
        rule = build_quadrature(3, 3)
        assert float(rule.weights @ np.ones(rule.weights.size)) == pytest.approx(1.0, abs=1e-12)

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
        assert J_and_slope(vg, 0, 0.5)[1] == pytest.approx(1.0)
        assert J_and_slope(vg, 0, -1.2)[1] == pytest.approx(1.0)

    def test_gradient_at_interior_node_averages_segments(self, vg):
        # at phi = 0 the adjacent segment slopes are 2 and 1
        assert J_and_slope(vg, 0, 0.0)[1] == pytest.approx(1.5)

    def test_gradient_beyond_boundary_uses_boundary_segment(self, vg):
        assert J_and_slope(vg, 0, 5.0)[1] == pytest.approx(2.0)
        assert J_and_slope(vg, 0, -2.0)[1] == pytest.approx(1.0)

    def test_gradient_of_constant_is_zero(self):
        vg = ValueGrid(grid=np.linspace(-2, 2, 5), J=np.full((2, 5), 3.3),
                       policy_pi=np.zeros((1, 5, 1)), policy_c=np.zeros((1, 5)))
        for phi in (-3.0, -1.0, 0.0, 0.3, 2.0, 2.7):
            assert J_and_slope(vg, 0, phi)[1] == 0.0


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
            J, dJ = J_and_slope(vg_set1, k, self.PHI)
            assert np.array_equal(J, interpolate_J(vg_set1, k, self.PHI))
            assert np.array_equal(J, [interpolate_J(vg_set1, k, x) for x in self.PHI])
            assert np.array_equal(dJ, [J_and_slope(vg_set1, k, x)[1] for x in self.PHI])

    def test_interpolant_is_np_interp_inside_the_grid(self, vg_set1):
        inside = self.PHI[np.abs(self.PHI) < 2.0]
        assert np.array_equal(interpolate_J(vg_set1, 3, inside), np.interp(inside, vg_set1.grid, vg_set1.J[3]))

    def test_stage_array_broadcasts(self, vg_set1):
        stages = np.arange(vg_set1.K)
        phi = np.tile(self.PHI[:, None], (1, vg_set1.K))
        J, dJ = J_and_slope(vg_set1, stages, phi)
        for got, want in zip((J, dJ), zip(*(J_and_slope(vg_set1, k, self.PHI) for k in stages))):
            assert np.array_equal(got, np.stack(want, axis=1))

    def test_policy_lookup(self, p_set1, vg_set1):
        pi, c = policy_lookup(vg_set1, 2, self.PHI, p_set1)
        assert pi.shape == (self.PHI.size, p_set1.n) and c.shape == (self.PHI.size,)
        for i, x in enumerate(self.PHI):
            pi_i, c_i = policy_lookup(vg_set1, 2, x, p_set1)
            assert np.array_equal(pi[i], pi_i) and c[i] == c_i


def _probe_states(g):
    """Every node, the nodes' float neighbours, points between nodes and
    beyond both edges (at infinity, slope * (x - g_j) + y_j is NaN)."""
    inner = g[:-1] + np.array([[1 / 3], [1 / 2], [0.9]]) * np.diff(g)
    return np.concatenate([g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf), inner.ravel(),
                           [-np.inf, g[0] - 1.5, g[0] - 1e-3, g[-1] + 1e-3, g[-1] + 0.7, np.inf]])


class TestStackedLookup:
    """policy_lookup is np.interp column by column, then the projection into
    A, bit for bit, at one stage or all stages at once."""

    @staticmethod
    def _assert_is_interp(vg, p, xs):
        K, n = vg.policy_c.shape[0], p.n
        for k in range(K):
            want_pi, want_c = reference_policy_lookup(vg, k, xs, p)
            pi, c = policy_lookup(vg, k, xs, p)
            assert pi.shape == (xs.size, n) and pi.tobytes() == want_pi.tobytes() and c.tobytes() == want_c.tobytes()
            for i, x in enumerate(xs):
                pi, c = policy_lookup(vg, k, float(x), p)
                assert pi.tobytes() == want_pi[i].tobytes() and np.float64(c).tobytes() == want_c[i].tobytes()
        phi = np.stack([np.random.default_rng(k).permutation(xs) for k in range(K)], axis=1)
        want = [reference_policy_lookup(vg, k, phi[:, k], p) for k in range(K)]
        pi, c = policy_lookup(vg, np.arange(K), phi, p)
        assert pi.shape == (xs.size, K, n) and c.shape == (xs.size, K)
        assert pi.tobytes() == np.stack([w[0] for w in want], axis=1).tobytes()
        assert c.tobytes() == np.stack([w[1] for w in want], axis=1).tobytes()

    @pytest.mark.parametrize("set_id", [1, 2, 3, 4])
    def test_published_grids(self, solved_grid, set_id):
        p, vg = solved_grid(set_id, 1.5)
        self._assert_is_interp(vg, p, _probe_states(vg.grid))

    @pytest.mark.parametrize("grid", [[-2.0, -1.3, -0.2, 0.05, 0.9, 2.5], [-1.0, 1.0]], ids=["non-uniform", "two-node"])
    def test_synthetic_grids(self, grid):
        # Tables that the projection acts on: negative weights, 1'pi > 1,
        # consumption above its budget and below zero.
        p = market.parameter_set(1)
        rng = np.random.default_rng(len(grid))
        G = len(grid)
        vg = ValueGrid(grid=np.array(grid), J=np.zeros((p.K + 1, G)),
                       policy_pi=rng.uniform(-0.2, 0.6, (p.K, G, p.n)), policy_c=rng.uniform(-0.01, 0.5, (p.K, G)))
        self._assert_is_interp(vg, p, _probe_states(vg.grid))

    def test_signed_zeros_on_the_nodes(self):
        # On a node np.interp returns the node's own entry, -0.0 included,
        # where slope * 0 + y can give +0.0; the projection's max(., 0.0)
        # then returns +0.0 either way.
        p = market.parameter_set(1)
        G = 5
        pi = np.zeros((p.K, G, p.n))
        pi[:, ::2, 0] = -0.0
        pi[:, 1::2, 1] = 0.3
        c = np.full((p.K, G), -0.0)
        c[:, 1] = 0.01
        vg = ValueGrid(grid=np.linspace(-2.0, 2.0, G), J=np.zeros((p.K + 1, G)), policy_pi=pi, policy_c=c)
        self._assert_is_interp(vg, p, _probe_states(vg.grid))


class TestJAndSlope:
    """J_and_slope is the segment formulas of `reference_J_and_slope` bit
    for bit, at every stage from 0 to K, in scalar and array calls, and at
    all stages at once."""

    @staticmethod
    def _assert_is_reference(vg, xs):
        xs = np.concatenate([xs, [np.nan, -0.0]])
        stages = np.arange(vg.K + 1)
        with np.errstate(invalid="ignore"):  # (+-inf - g_j) * 0 on a flat row
            for k in stages:
                want_J, want_dJ = reference_J_and_slope(vg, k, xs)
                J, dJ = J_and_slope(vg, k, xs)
                assert J.shape == dJ.shape == xs.shape
                assert J.tobytes() == want_J.tobytes() and dJ.tobytes() == want_dJ.tobytes()
                for i, x in enumerate(xs):
                    J, dJ = J_and_slope(vg, k, float(x))
                    assert type(J) is float and type(dJ) is float
                    assert np.float64(J).tobytes() == want_J[i].tobytes()
                    assert np.float64(dJ).tobytes() == want_dJ[i].tobytes()
            phi = np.stack([np.random.default_rng(k).permutation(xs) for k in stages], axis=1)
            want_J, want_dJ = reference_J_and_slope(vg, stages, phi)
            J, dJ = J_and_slope(vg, stages, phi)
        assert J.shape == phi.shape and J.tobytes() == want_J.tobytes() and dJ.tobytes() == want_dJ.tobytes()

    @pytest.mark.parametrize("set_id", [1, 2, 3, 4])
    def test_published_grids(self, solved_grid, set_id):
        p, vg = solved_grid(set_id, 1.5)
        self._assert_is_reference(vg, _probe_states(vg.grid))

    @pytest.mark.parametrize("grid", [[-2.0, -1.3, -0.2, 0.05, 0.9, 2.5], [-1.0, 1.0]], ids=["non-uniform", "two-node"])
    def test_synthetic_grids(self, grid):
        p = market.parameter_set(1)
        G = len(grid)
        J = np.random.default_rng(G).normal(size=(p.K + 1, G))
        vg = ValueGrid(grid=np.array(grid), J=J, policy_pi=np.zeros((p.K, G, p.n)), policy_c=np.zeros((p.K, G)))
        self._assert_is_reference(vg, _probe_states(vg.grid))

    def test_stage_beyond_the_last_raises(self, vg_set1):
        with pytest.raises(IndexError):
            J_and_slope(vg_set1, vg_set1.K + 1, 0.0)


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

    @pytest.mark.parametrize("gamma", [1e-6, 1e-4, 0.5, 1.5, 20.0])
    def test_stage_value_is_the_best_share_of_a_dense_search(self, gamma):
        # J_k(phi_i) = max over s of (A (1-s)^e + B_i s^e) / e, e = 1 - gamma,
        # A = alpha delta R_f^e, B_i = beta^delta e EJ_i M_i and M_i the
        # portfolio moment of w* = pi / s.  At gamma <= 3e-4, A^(1/gamma) and
        # B^(1/gamma) underflow to 0, which made the share 0/0.
        p = market.parameter_set(1, gamma)
        grid, quad = nodes_of(p, 5)
        vg = backward_recursion(p, grid=grid, quad=quad)
        e = 1.0 - gamma
        w = vg.policy_pi[0] / (1.0 - vg.policy_c[0] / p.R_f)[:, None]
        growth = p.R_f + ((dp_solver.node_returns(p, quad, grid) - p.R_f) @ w[:, :, None])[:, :, 0]
        M = (quad.weights * growth**e).sum(axis=1)
        A = p.alpha * p.delta * p.R_f**e
        s = np.linspace(0.0, 1.0, 100_001)
        if e < 0.0:
            s = s[1:-1]  # both ends are -inf
        pt = build_phi_transition(grid, p)
        for k in range(p.K):
            B = p.beta**p.delta * e * (pt @ vg.J[k + 1]) * M
            best = ((A * (1.0 - s) ** e + B[:, None] * s**e) / e).max(axis=1)
            assert (vg.J[k] >= best - 1e-14 * np.abs(best)).all()
            np.testing.assert_allclose(vg.J[k], best, rtol=1e-7, atol=0.0)  # the grid step 1e-5

    def test_grid_refinement_stability(self, p_set1, vg_set1):
        vg41 = backward_recursion(p_set1, grid=np.linspace(-2, 2, 41))
        j21 = interpolate_J(vg_set1, 0, 0.0)
        j41 = interpolate_J(vg41, 0, 0.0)
        assert abs(j41 - j21) / abs(j21) < 0.01


def nodes_of(p, nodes=21, q=3):
    """(grid, quad) of an n-asset grid."""
    return np.linspace(-2.0, 2.0, nodes), build_quadrature(q, p.n)


def with_assets(n, R_f):
    """Set 1 with its first n assets (a fourth repeats the first one's
    loadings) and gross risk-free rate R_f."""
    p = market.parameter_set(1, 1.5)
    sigma = np.diag(np.resize(np.diag(p.sigma), n))
    sigma[:min(n, 3), :min(n, 3)] = p.sigma[:n, :n]
    p = dataclasses.replace(p, n=n, mu0=np.resize(p.mu0, n), mu1=np.resize(p.mu1, n), sigma=sigma,
                            sigma_phi1=np.resize(p.sigma_phi1, n), r_f=(R_f - 1.0) / p.delta)
    # 1 + r_f delta cancels to 1.00009e-12 at R_f = 1e-12.
    assert p.R_f == pytest.approx(R_f, rel=1e-4 if R_f < 1e-6 else 1e-12, abs=0.0)
    return p


class TestDefaultStart:
    @pytest.mark.parametrize("R_f", [1e-12, 5e-4, 1.001, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_simplex_centre_is_strictly_inside_every_portfolio_problem(self, R_f, n):
        p = with_assets(n, R_f)
        grid, quad = nodes_of(p, nodes=5)
        calls = []

        def solver(oracle, cons, x0, tol):
            calls.append((oracle, cons, x0))
            return concave.maximize(oracle, cons, x0, tol=tol)

        vg = backward_recursion(p, grid=grid, quad=quad, solver=solver)
        assert np.isfinite(vg.J).all()
        assert len(calls) == grid.size
        for oracle, (A, b), x0 in calls:
            np.testing.assert_array_equal(x0, np.full(n, 1.0 / (n + 1)))
            assert (b - A @ x0).min() > 0.0
            assert np.isfinite(at_point(oracle.value, x0))


class TestPortfolioBatch:
    """A grid solves its G portfolio problems as one lockstep batch, whose
    rows equal their own one-node solves."""

    @pytest.mark.parametrize("set_id, gamma, nodes, q", [
        (1, 1.5, 21, 3), (2, 1.5, 21, 3), (3, 1.5, 21, 3), (4, 1.5, 21, 3),
        (1, 5.0, 21, 3), (1, 1.5, 41, 5),
    ])
    def test_every_row_equals_its_one_node_solve(self, monkeypatch, set_id, gamma, nodes, q):
        p = market.parameter_set(set_id, gamma)
        grid, quad = nodes_of(p, nodes, q)
        calls = []
        batch = concave.maximize_batch

        def traced_batch(oracle, A, b, X0, **kwargs):
            calls.append((A, b, X0, kwargs))
            return batch(oracle, A, b, X0, **kwargs)

        monkeypatch.setattr(concave, "maximize_batch", traced_batch)
        backward_recursion(p, grid=grid, quad=quad)
        monkeypatch.setattr(concave, "maximize_batch", batch)
        assert len(calls) == 1          # one batch a grid, from one start, without warm points
        A, b, X0, kwargs = calls[0]
        assert kwargs == {"tol": dp_solver.NODE_TOL}
        A_w, b_w = dp_solver.portfolio_constraints(p.n)
        assert np.array_equal(A, np.tile(A_w, (nodes, 1, 1))) and np.array_equal(b, np.tile(b_w, (nodes, 1)))
        Rq = dp_solver.node_returns(p, quad, grid)
        sols = batch(dp_solver.portfolio_oracle(p, Rq, quad.weights), A, b, X0, tol=dp_solver.NODE_TOL)
        for i, sol in enumerate(sols):
            one = concave.maximize(dp_solver.portfolio_oracle(p, Rq[i:i + 1], quad.weights), (A_w, b_w), X0[i],
                                   tol=dp_solver.NODE_TOL)
            assert one.status == sol.status == concave.STATUS_CONVERGED
            assert (one.f, one.iterations, one.kkt_residual) == (sol.f, sol.iterations, sol.kkt_residual)
            assert np.array_equal(one.x, sol.x)

    def test_per_node_solver_gives_the_batched_grid(self, p_set1, vg_set1):
        # The traced grid replay calls a wrapped maximize node by node.
        starts = []

        def solver(oracle, cons, x0, tol):
            starts.append(x0)
            return concave.maximize(oracle, cons, x0, tol=tol)

        vg = backward_recursion(p_set1, solver=solver)
        assert len(starts) == vg_set1.grid.size
        assert np.array_equal(vg.J, vg_set1.J)
        assert np.array_equal(vg.policy_pi, vg_set1.policy_pi)
        assert np.array_equal(vg.policy_c, vg_set1.policy_c)

    def test_policy_is_the_portfolio_optimum_scaled_by_the_share_not_consumed(self, p_set1, vg_set1):
        # pi_k = s_k w* and c_k = R_f (1 - s_k): every stage's fractions are
        # proportional to one portfolio per node.
        s = 1.0 - vg_set1.policy_c / p_set1.R_f
        w = vg_set1.policy_pi / s[:, :, None]
        np.testing.assert_allclose(w, np.broadcast_to(w[0], w.shape), rtol=1e-12, atol=0.0)
        assert (w[0] >= 0.0).all() and (w[0].sum(axis=1) <= 1.0 + 1e-12).all()

    def test_set1_grid_takes_at_most_140_newton_steps(self, monkeypatch, p_set1):
        # Counts repeat exactly: 135 portfolio steps on the set-1 grid, where
        # joint (pi, c) node solves took 936 over its ten stages.
        counts = []
        batch = concave.maximize_batch

        def counted(*args, **kwargs):
            sols = batch(*args, **kwargs)
            counts.extend(sol.iterations for sol in sols)
            return sols

        monkeypatch.setattr(concave, "maximize_batch", counted)
        backward_recursion(p_set1)
        assert len(counts) == dp_solver.DEFAULT_GRID.size
        assert sum(counts) <= 140

    def test_node_failure_names_the_node_of_the_per_node_path(self, monkeypatch):
        # No solve can certify a KKT residual of 1e-20, below the rounding of
        # the gradient, at every node (the portfolio problems still certify
        # 1e-17), so some fail; both paths name the lowest failing node.
        monkeypatch.setattr(dp_solver, "NODE_TOL", 1e-20)
        p = market.parameter_set(1, 1.5)
        grid = np.linspace(-2.0, 2.0, 5)
        with pytest.raises(dp_solver.NodeSolveError) as batched:
            backward_recursion(p, grid=grid)
        with pytest.raises(dp_solver.NodeSolveError) as per_node:
            backward_recursion(p, grid=grid, solver=concave.maximize)
        assert batched.value.phi == per_node.value.phi
        assert str(batched.value) == str(per_node.value)
        assert str(batched.value).startswith(f"node solve failed at phi={batched.value.phi:.6g} (status=")


class TestJointReference:
    """The separated recursion gives the grid of joint (pi, c) node solves,
    stage by stage (`helpers.joint_backward_recursion`)."""

    @staticmethod
    def assert_matches(p, grid, quad, j_rtol=1e-13, policy_stages=None):
        vg = backward_recursion(p, grid=grid, quad=quad)
        ref = joint_backward_recursion(p, grid, quad)
        assert np.array_equal(vg.J[-1], ref.J[-1])
        np.testing.assert_allclose(vg.J[:-1], ref.J[:-1], rtol=j_rtol, atol=0.0)
        stages = slice(None) if policy_stages is None else policy_stages
        np.testing.assert_allclose(vg.policy_pi[stages], ref.policy_pi[stages], rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(vg.policy_c[stages], ref.policy_c[stages], rtol=0.0, atol=1e-10)
        return vg, ref

    @pytest.mark.parametrize("gamma", [1.5, 3.0, 5.0, 7.0])
    @pytest.mark.parametrize("set_id", [1, 2, 3, 4])
    def test_published_sets(self, set_id, gamma):
        p = market.parameter_set(set_id, gamma)
        self.assert_matches(p, *nodes_of(p))

    def test_fine_grid_and_five_point_rule(self, p_set1):
        self.assert_matches(p_set1, *nodes_of(p_set1, 41, 5))

    @pytest.mark.parametrize("gamma", [0.5, 0.7])
    def test_risk_tolerance_below_one(self, gamma):
        p = market.parameter_set(1, gamma)
        vg, _ = self.assert_matches(p, *nodes_of(p))
        assert (vg.J > 0.0).all()

    def test_no_consumption_utility(self, p_set1):
        # alpha = 0: a = 0, so s = 1 and c = 0 at every stage.
        p = dataclasses.replace(p_set1, alpha=0.0)
        vg, _ = self.assert_matches(p, *nodes_of(p))
        assert (vg.policy_c == 0.0).all()

    def test_no_terminal_utility(self, p_set1):
        # alpha = 1: J_K = 0, so EJ = 0 at stage K-1, where the growth guard
        # s >= U_FLOOR / min_q g_q(w*) binds and J is taken at that s; the
        # joint node consumes R_f - U_FLOOR there and invests nothing, so
        # only J is compared at that stage (to 1e-9 relative).
        p = dataclasses.replace(p_set1, alpha=1.0)
        grid, quad = nodes_of(p)
        vg, ref = self.assert_matches(p, grid, quad, j_rtol=1e-9, policy_stages=slice(0, p.K - 1))
        w = vg.policy_pi[0] / (1.0 - vg.policy_c[0] / p.R_f)[:, None]
        Rq = dp_solver.node_returns(p, quad, grid)
        growth = p.R_f + ((Rq - p.R_f) @ w[:, :, None])[:, :, 0]
        np.testing.assert_allclose(vg.policy_pi[-1], (dp_solver.U_FLOOR / growth.min(axis=1))[:, None] * w,
                                   rtol=1e-12, atol=0.0)
        cfg = dict(paths_per_run=4, runs=2, seed=3, gamma=p.gamma)
        lower = bounds.lower_bound(p, vg, bounds.RunConfig(**cfg))
        assert np.isfinite(lower.mean) and lower.flagged_paths == 0
        for kind in ("m1", "zero"):
            upper = bounds.upper_bound(p, vg, bounds.RunConfig(penalty_kind=kind, **cfg))
            assert np.isfinite(upper.mean) and upper.flagged_paths == 0


    def test_no_consumption_utility_upper_bounds(self, p_set1):
        # alpha = 0: every leg's dual-recovered plan has C_k = 0, outside the
        # CRRA domain, so each inner solve runs the barrier from its start.
        p = dataclasses.replace(p_set1, alpha=0.0)
        vg = backward_recursion(p)
        for kind in ("m1", "zero"):
            upper = bounds.upper_bound(p, vg, bounds.RunConfig(paths_per_run=16, runs=4, seed=7, penalty_kind=kind))
            assert np.isfinite(upper.mean) and upper.flagged_paths == 0

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
