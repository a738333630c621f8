import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbound import bounds, dp_solver, market, penalties
from dualbound.market import ShockPath
from dualbound.penalties import (
    PENALTY_KINDS,
    PenaltyContext,
    build_context,
    build_contexts,
    feasibility_check,
    penalty_form,
)

from helpers import reference_J_and_slope, single_asset_params


def all_cash_policy(k, phi, W):
    return np.zeros(3), 0.0


def _context_from_scalars(p, W=1.0, J=-2.0, gradJ=0.5, Z=1.0, Zt=0.0,
                          Pi=0.0, C=0.01, R=None):
    """Hand-built single-stage context for closed-form checks (n = 1)."""
    assert p.K == 1 and p.n == 1
    return PenaltyContext(
        W=np.array([W]),
        Pi=np.array([[Pi]]),
        C=np.array([C]),
        R=np.array([[R if R is not None else p.R_f]]),
        J=np.array([J]),
        gradJ=np.array([gradJ]),
        Z=np.array([[Z]]),
        Ztilde=np.array([[Zt]]),
    )


class TestBuildContext:
    def test_zero_shocks_all_cash_closed_forms(self):
        p = market.ModelParams.from_dict({**market.parameter_set(1).to_dict(), "phi0": 0.8})
        vg = dp_solver.backward_recursion(p, grid=np.linspace(-2, 2, 5))
        shocks = ShockPath(Z=np.zeros((10, 3)), Ztilde=np.zeros((10, 1)))
        ctx = build_context(p, vg, all_cash_policy, shocks)
        k = np.arange(10)
        np.testing.assert_allclose(ctx.W, p.W0 * p.R_f**k, rtol=1e-14)
        phi = 0.8 * (1 - p.lam * p.delta) ** k
        np.testing.assert_allclose(ctx.J, dp_solver.interpolate_J(vg, k, phi), rtol=1e-12)
        np.testing.assert_allclose(ctx.Pi, 0.0)
        np.testing.assert_allclose(ctx.C, 0.0)

    def test_antithetic_pair_mirrors_shocks(self, p_set1, vg_set1):
        rng = np.random.default_rng(5)
        sp = ShockPath(Z=rng.standard_normal((10, 3)), Ztilde=rng.standard_normal((10, 1)))
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        ctx = build_context(p_set1, vg_set1, policy, sp)
        ctx_anti = build_context(p_set1, vg_set1, policy, sp.antithetic())
        np.testing.assert_array_equal(ctx_anti.Z, -ctx.Z)
        np.testing.assert_array_equal(ctx_anti.Ztilde, -ctx.Ztilde)

    def test_single_stage_context_has_one_record(self):
        p = single_asset_params(K=1)
        vg = dp_solver.backward_recursion(p, grid=np.linspace(-2, 2, 5))
        sp = ShockPath(Z=np.zeros((1, 1)), Ztilde=np.zeros((1, 1)))
        ctx = build_context(p, vg, lambda k, phi, W: (np.zeros(1), 0.0), sp)
        assert ctx.K == 1
        assert ctx.W.shape == (1,)


    def test_J_and_slope_off_the_grid_match_the_segment_formulas(self, solved_grid):
        # A set-2 chunk whose states leave the grid at both edges.
        p, vg = solved_grid(2, 1.5)
        rng = np.random.default_rng(11)
        Z, Ztilde = rng.standard_normal((256, p.K, p.n)), rng.standard_normal((256, p.K, p.d))
        policy = dp_solver.make_grid_policy(vg, p)
        ctxs = build_contexts(p, vg, policy, Z, Ztilde)
        phi = market.simulate_paths(p, policy, Z, Ztilde).phi[:, :p.K]
        assert phi.min() < vg.grid[0] and phi.max() > vg.grid[-1]
        J, gradJ = reference_J_and_slope(vg, np.arange(p.K), phi)
        assert ctxs.J.tobytes() == J.tobytes() and ctxs.gradJ.tobytes() == gradJ.tobytes()

class TestM1Form:
    def test_zero_shocks_give_zero_form(self, p_set1, vg_set1):
        shocks = ShockPath(Z=np.zeros((10, 3)), Ztilde=np.zeros((10, 1)))
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        ctx = build_context(p_set1, vg_set1, policy, shocks)
        form = penalty_form("m1", ctx, p_set1)
        assert form.constant == 0.0
        assert np.all(form.lin_Pi == 0.0)
        assert np.all(form.lin_C == 0.0)

    def test_single_stage_hand_values(self):
        p = single_asset_params(gamma=1.5, K=1, sigma=0.2, sigma_phi1=0.3, sigma_phi2=0.0)
        ctx = _context_from_scalars(p, W=1.0, J=-2.0, gradJ=0.5, Z=1.0)
        form = penalty_form("m1", ctx, p)
        # constant: W^(1-gamma) gradJ sigma_phi1 sqrt(delta) Z = 0.5*0.3*sqrt(0.1)
        assert form.constant == pytest.approx(0.5 * 0.3 * math.sqrt(0.1), rel=1e-12)
        assert form.constant == pytest.approx(0.047434, abs=1e-6)
        # Pi coefficient: (1-gamma) W^(-gamma) J (sigma Z) sqrt(delta)
        expect = (1 - 1.5) * (-2.0) * 0.2 * math.sqrt(0.1) * 1.0
        assert form.lin_Pi[0, 0] == pytest.approx(expect, rel=1e-12)
        assert np.all(form.lin_C == 0.0)

    def test_m1_has_no_consumption_coefficients(self, p_set1, vg_set1):
        rng = np.random.default_rng(2)
        sp = ShockPath(Z=rng.standard_normal((10, 3)), Ztilde=rng.standard_normal((10, 1)))
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        form = penalty_form("m1", build_context(p_set1, vg_set1, policy, sp), p_set1)
        assert np.all(form.lin_C == 0.0)
        assert np.any(form.lin_Pi != 0.0)


class TestM2Form:
    def test_zero_shocks_give_zero_form(self, p_set1, vg_set1):
        shocks = ShockPath(Z=np.zeros((10, 3)), Ztilde=np.zeros((10, 1)))
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        form = penalty_form("m2", build_context(p_set1, vg_set1, policy, shocks), p_set1)
        assert form.constant == 0.0
        assert np.all(form.lin_Pi == 0.0) and np.all(form.lin_C == 0.0)

    def test_anchored_at_baseline_equals_m1_exactly(self, p_set1, vg_set1):
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        rng = np.random.default_rng(17)
        for _ in range(25):
            sp = ShockPath(Z=rng.standard_normal((10, 3)), Ztilde=rng.standard_normal((10, 1)))
            ctx = build_context(p_set1, vg_set1, policy, sp)
            v1 = penalty_form("m1", ctx, p_set1).evaluate(ctx.Pi, ctx.C)
            v2 = penalty_form("m2", ctx, p_set1).evaluate(ctx.Pi, ctx.C)
            assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-13)

    def test_single_stage_reduces_to_m1(self):
        # k = 0 has no previous decision to linearize around
        p = single_asset_params(K=1, sigma_phi1=0.3, sigma_phi2=0.1)
        ctx = _context_from_scalars(p, Z=0.7, Zt=-0.2)
        f1, f2 = penalty_form("m1", ctx, p), penalty_form("m2", ctx, p)
        assert f2.constant == f1.constant
        np.testing.assert_array_equal(f2.lin_Pi, f1.lin_Pi)
        np.testing.assert_array_equal(f2.lin_C, f1.lin_C)


class TestDirectFormula:
    """Evaluate the stage terms longhand and compare with the affine forms."""

    def _two_stage_ctx(self, p):
        return PenaltyContext(
            W=np.array([1.0, 1.1]),
            Pi=np.array([[0.3], [0.4]]),
            C=np.array([0.05, 0.06]),
            R=np.array([[1.05], [0.97]]),
            J=np.array([-2.0, -1.8]),
            gradJ=np.array([0.4, 0.35]),
            Z=np.array([[0.5], [0.8]]),
            Ztilde=np.array([[-0.3], [0.6]]),
        )

    def test_m1_equals_stagewise_sum(self):
        p = single_asset_params(K=2, sigma=0.2, sigma_phi1=0.3, sigma_phi2=0.1)
        ctx = self._two_stage_ctx(p)
        rng = np.random.default_rng(1)
        Pi, C = rng.random((2, 1)), rng.random(2)
        sd = math.sqrt(p.delta)
        total = 0.0
        for k in range(2):
            shock = ctx.gradJ[k] * (0.3 * ctx.Z[k, 0] + 0.1 * ctx.Ztilde[k, 0]) * sd
            psi12 = ctx.W[k] ** (1 - p.gamma) * shock
            psi3 = (1 - p.gamma) * ctx.W[k] ** (-p.gamma) * ctx.J[k] * Pi[k, 0] * 0.2 * sd * ctx.Z[k, 0]
            total += psi12 + psi3  # beta = 1
        assert penalty_form("m1", ctx, p).evaluate(Pi, C) == pytest.approx(total, rel=1e-12)

    def test_m2_equals_stagewise_taylor_sum(self):
        p = single_asset_params(K=2, sigma=0.2, sigma_phi1=0.3, sigma_phi2=0.1)
        ctx = self._two_stage_ctx(p)
        rng = np.random.default_rng(2)
        Pi, C = rng.random((2, 1)), rng.random(2)
        sd = math.sqrt(p.delta)
        total = 0.0
        for k in range(2):
            shock = ctx.gradJ[k] * (0.3 * ctx.Z[k, 0] + 0.1 * ctx.Ztilde[k, 0]) * sd
            lead = ctx.W[k] ** (1 - p.gamma)
            if k > 0:
                lead = lead + (1 - p.gamma) * ctx.W[k] ** (-p.gamma) * (
                    (ctx.R[k - 1, 0] - p.R_f) * (Pi[k - 1, 0] - ctx.Pi[k - 1, 0])
                    - (C[k - 1] - ctx.C[k - 1]))
            psi3 = (1 - p.gamma) * ctx.W[k] ** (-p.gamma) * ctx.J[k] * Pi[k, 0] * 0.2 * sd * ctx.Z[k, 0]
            total += lead * shock + psi3
        assert penalty_form("m2", ctx, p).evaluate(Pi, C) == pytest.approx(total, rel=1e-12)

    def test_m1_three_assets_against_loop(self, p_set1, vg_set1):
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        rng = np.random.default_rng(9)
        sp = ShockPath(Z=rng.standard_normal((10, 3)), Ztilde=rng.standard_normal((10, 1)))
        ctx = build_context(p_set1, vg_set1, policy, sp)
        Pi, C = rng.random((10, 3)), rng.random(10)
        sd = math.sqrt(p_set1.delta)
        total = 0.0
        for k in range(10):
            psi1 = ctx.W[k] ** (1 - p_set1.gamma) * ctx.gradJ[k] * float(
                np.dot(p_set1.sigma_phi1, ctx.Z[k])) * sd
            psi2 = ctx.W[k] ** (1 - p_set1.gamma) * ctx.gradJ[k] * p_set1.sigma_phi2 * ctx.Ztilde[k, 0] * sd
            psi3 = (1 - p_set1.gamma) * ctx.W[k] ** (-p_set1.gamma) * ctx.J[k] * float(
                np.dot(Pi[k], p_set1.sigma @ ctx.Z[k])) * sd
            total += psi1 + psi2 + psi3
        assert penalty_form("m1", ctx, p_set1).evaluate(Pi, C) == pytest.approx(total, rel=1e-11)


class TestStackedForms:
    @pytest.mark.parametrize("sid", [1, 2])
    def test_rows_equal_their_one_leg_calls(self, solved_grid, sid):
        # One 256-leg chunk; on set 2 some baseline states leave the grid.
        p, vg = solved_grid(sid, 1.5)
        policy = dp_solver.make_grid_policy(vg, p)
        legs = []
        for i in range(128):
            base = bounds.shock_path(p, 60 + sid, 0, i)
            legs += [base, base.antithetic()]
        Z, Ztilde = np.array([sp.Z for sp in legs]), np.array([sp.Ztilde for sp in legs])
        ctxs = build_contexts(p, vg, policy, Z, Ztilde)
        assert ctxs.W.shape == (256, p.K) and ctxs.Pi.shape == (256, p.K, p.n)
        if sid == 2:
            phi = market.simulate_paths(p, policy, Z, Ztilde).phi
            assert np.any((phi < vg.grid[0]) | (phi > vg.grid[-1]))
        rng = np.random.default_rng(sid)
        Pi, C = rng.random(ctxs.Pi.shape), rng.random(ctxs.C.shape)
        one_legs = [build_context(p, vg, policy, sp) for sp in legs]
        for i, ctx in enumerate(one_legs):
            for name in ("W", "Pi", "C", "R", "J", "gradJ", "Z", "Ztilde"):
                assert np.array_equal(getattr(penalties.take(ctxs, i), name), getattr(ctx, name))
        for kind in PENALTY_KINDS:
            forms = penalty_form(kind, ctxs, p)
            assert forms.constant.shape == (256,) and forms.lin_C.shape == (256, p.K)
            at_baseline = forms.evaluate(ctxs.Pi, ctxs.C)
            at_random = forms.evaluate(Pi, C)
            for i, ctx in enumerate(one_legs):
                one = penalty_form(kind, ctx, p)
                assert isinstance(one.constant, float) and one.constant == forms.constant[i]
                assert np.array_equal(one.lin_Pi, forms.lin_Pi[i])
                assert np.array_equal(one.lin_C, forms.lin_C[i])
                base_val = one.evaluate(ctx.Pi, ctx.C)
                assert type(base_val) is float and base_val == at_baseline[i]
                assert one.evaluate(Pi[i], C[i]) == at_random[i]

    def test_one_leg_form_equals_its_stack_of_one(self):
        p = single_asset_params(K=1)
        ctx = _context_from_scalars(p, Z=0.7, Zt=-0.2)
        stack = penalties.as_stack(ctx)
        assert stack.W.shape == (1, 1) and stack.Pi.shape == (1, 1, 1)
        for kind in PENALTY_KINDS:
            one, rows = penalty_form(kind, ctx, p), penalty_form(kind, stack, p)
            assert rows.constant.shape == (1,) and one.constant == rows.constant[0]
            assert np.array_equal(one.lin_Pi, rows.lin_Pi[0]) and np.array_equal(one.lin_C, rows.lin_C[0])


class TestAffinity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_evaluate_matches_finite_difference_slopes(self, seed):
        p = market.parameter_set(1)
        rng = np.random.default_rng(seed)
        ctx_rng = np.random.default_rng(seed + 1)
        form = penalties.PenaltyForm(
            constant=float(rng.normal()),
            lin_Pi=rng.normal(size=(10, 3)),
            lin_C=rng.normal(size=10),
        )
        Pi = ctx_rng.random((10, 3))
        C = ctx_rng.random(10)
        base = form.evaluate(Pi, C)
        k, j = int(rng.integers(10)), int(rng.integers(3))
        dPi = np.zeros((10, 3))
        dPi[k, j] = 1.0
        assert form.evaluate(Pi + dPi, C) - base == pytest.approx(form.lin_Pi[k, j], rel=1e-9, abs=1e-12)
        dC = np.zeros(10)
        dC[k] = 1.0
        assert form.evaluate(Pi, C + dC) - base == pytest.approx(form.lin_C[k], rel=1e-9, abs=1e-12)

    def test_zero_form_is_identically_zero(self, p_set1, vg_set1):
        rng = np.random.default_rng(0)
        sp = ShockPath(Z=rng.standard_normal((10, 3)), Ztilde=rng.standard_normal((10, 1)))
        ctx = build_context(p_set1, vg_set1, dp_solver.make_grid_policy(vg_set1, p_set1), sp)
        form = penalty_form("zero", ctx, p_set1)
        assert form.evaluate(rng.random((10, 3)), rng.random(10)) == 0.0


class TestFeasibility:
    def test_zero_penalty_trivially_passes(self, p_set1, vg_set1):
        rep = feasibility_check("zero", p_set1, vg_set1, n_paths=100, seed=1)
        assert rep.mean == 0.0 and rep.passed

    @pytest.mark.parametrize("kind", ["m1", "m2"])
    def test_zero_mean_under_baseline_policy(self, p_set1, vg_set1, kind):
        rep = feasibility_check(kind, p_set1, vg_set1, n_paths=1500, seed=11)
        assert rep.passed, f"{kind}: mean={rep.mean}, stderr={rep.stderr}"

    def test_biased_penalty_fails(self, p_set1, vg_set1):
        def biased(ctx, p):
            form = penalty_form("m1", ctx, p)
            return penalties.PenaltyForm(constant=form.constant + 1.0,
                                         lin_Pi=form.lin_Pi, lin_C=form.lin_C)

        rep = feasibility_check(biased, p_set1, vg_set1, n_paths=300, seed=3)
        assert not rep.passed
        assert rep.mean == pytest.approx(1.0, abs=0.2)

    def test_custom_callable_matches_builtin_kind(self, p_set1, vg_set1):
        def m1(ctx, p):
            return penalty_form("m1", ctx, p)

        # Two full chunks and a partial one, formed leg by leg for the callable.
        assert feasibility_check(m1, p_set1, vg_set1, n_paths=300, seed=8) == feasibility_check(
            "m1", p_set1, vg_set1, n_paths=300, seed=8)

    @pytest.mark.parametrize("kind", ["m1", "m2"])
    def test_equals_sequential_single_pair_recomputation(self, p_set1, vg_set1, kind):
        n_pairs = penalties.FEAS_CHUNK_PAIRS + 22  # one full chunk and a partial one
        rep = feasibility_check(kind, p_set1, vg_set1, n_paths=n_pairs, seed=4)
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        key = np.random.SeedSequence((4, 0x7EA5)).generate_state(2, np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        pair_means = np.empty(n_pairs)
        for i in range(n_pairs):
            shocks = ShockPath(Z=rng.standard_normal((10, 3)), Ztilde=rng.standard_normal((10, 1)))
            vals = []
            for sp in (shocks, shocks.antithetic()):
                ctx = build_context(p_set1, vg_set1, policy, sp)
                vals.append(penalty_form(kind, ctx, p_set1).evaluate(ctx.Pi, ctx.C))
            pair_means[i] = 0.5 * (vals[0] + vals[1])
        assert rep.mean == float(np.mean(pair_means))
        assert rep.stderr == float(np.std(pair_means, ddof=1) / math.sqrt(n_pairs))

    def test_negative_seed_has_its_own_stream(self, p_set1, vg_set1):
        neg = feasibility_check("m1", p_set1, vg_set1, n_paths=100, seed=-1)
        assert neg.mean == feasibility_check("m1", p_set1, vg_set1, n_paths=100, seed=2**64 - 1).mean
        assert neg.mean != feasibility_check("m1", p_set1, vg_set1, n_paths=100, seed=1).mean

    def test_requires_enough_paths(self, p_set1, vg_set1):
        with pytest.raises(ValueError, match="100"):
            feasibility_check("m1", p_set1, vg_set1, n_paths=10, seed=0)

    def test_unknown_kind_rejected(self, p_set1, vg_set1):
        with pytest.raises(ValueError, match="unknown penalty kind"):
            feasibility_check("m3", p_set1, vg_set1, n_paths=100, seed=0)
