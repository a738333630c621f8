import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbound import bounds, dp_solver, market
from dualbound.market import AdmissibilityError, ModelParams, ShockPath, parameter_set

from helpers import reference_simulate_paths, single_asset_params


class TestParameterSets:
    def test_set1_published_values(self):
        p = parameter_set(1)
        assert p.lam == 0.336
        assert p.sigma_phi2 == 0.284
        np.testing.assert_allclose(p.mu0, [0.081, 0.110, 0.130])
        np.testing.assert_allclose(p.sigma_phi1, [-0.741, -0.037, -0.060])

    def test_set2_published_values(self):
        p = parameter_set(2)
        assert p.lam == 1.671
        assert p.sigma_phi2 == 1.725
        np.testing.assert_allclose(p.mu1, [0.034, 0.059, 0.073])

    def test_set3_published_values(self):
        p = parameter_set(3)
        assert p.lam == 0.336
        assert p.sigma_phi2 == 0.288
        np.testing.assert_allclose(p.sigma_phi1, [-0.741, -0.040, -0.034])
        np.testing.assert_allclose(p.mu0, [0.142, 0.109, 0.089])

    def test_set4_published_values(self):
        p = parameter_set(4)
        np.testing.assert_allclose(p.mu1, [0.061, 0.060, 0.067])
        np.testing.assert_allclose(p.sigma_phi1, [-0.017, 0.212, 0.096])
        assert p.sigma_phi2 == 1.716

    def test_shared_experiment_constants(self):
        for sid in market.PARAMETER_SET_IDS:
            p = parameter_set(sid, gamma=3.0)
            assert (p.n, p.d, p.K) == (3, 1, 10)
            assert (p.r_f, p.delta, p.alpha, p.beta) == (0.01, 0.1, 0.5, 1.0)
            assert (p.phi0, p.W0, p.gamma) == (0.0, 1.0, 3.0)
            assert abs(p.K * p.delta - 1.0) < 1e-12

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter set"):
            parameter_set(5)

    def test_published_params_hashes(self):
        # Grid files and the CLI's --set check carry these hashes.
        hashes = {sid: parameter_set(sid, gamma=1.5).content_hash() for sid in market.PARAMETER_SET_IDS}
        assert hashes == {1: "3c311871680429fb", 2: "30069b076bdcd5ff",
                          3: "61d3539b00751164", 4: "cd037a6c25e4ba23"}


class TestParamsValidation:
    def test_rejects_upper_triangular_sigma(self):
        with pytest.raises(ValueError, match="lower-triangular"):
            single_asset_params().__class__(**{
                **_as_kwargs(parameter_set(1)),
                "sigma": np.array([[0.1, 0.2, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]),
            })

    def test_rejects_nonpositive_diagonal(self):
        kwargs = _as_kwargs(parameter_set(1))
        kwargs["sigma"] = np.diag([0.1, -0.1, 0.1])
        with pytest.raises(ValueError, match="positive diagonal"):
            ModelParams(**kwargs)

    def test_rejects_gamma_one(self):
        kwargs = _as_kwargs(parameter_set(1))
        kwargs["gamma"] = 1.0
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(**kwargs)

    def test_rejects_bad_delta(self):
        kwargs = _as_kwargs(parameter_set(1))
        kwargs["delta"] = 0.0
        with pytest.raises(ValueError, match="delta"):
            ModelParams(**kwargs)

    def test_json_round_trip(self):
        p = parameter_set(3, gamma=5.0)
        q = ModelParams.from_json(p.to_json())
        assert q.to_dict() == p.to_dict()

    def test_from_dict_rejects_unknown_field(self):
        data = parameter_set(1).to_dict()
        data["typo"] = 1
        with pytest.raises(ValueError, match="unknown"):
            ModelParams.from_dict(data)

    def test_from_dict_rejects_missing_field(self):
        data = parameter_set(1).to_dict()
        del data["mu0"]
        with pytest.raises(ValueError, match="missing"):
            ModelParams.from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("K", 10.5), ("K", True), ("n", 3.5), ("d", False), ("K", "10"), ("K", float("nan")),
    ])
    def test_from_dict_rejects_non_integral_counts(self, field, value):
        data = {**parameter_set(1).to_dict(), field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ModelParams.from_dict(data)

    def test_integral_float_counts_stored_as_int(self):
        data = {**parameter_set(1).to_dict(), "K": 2}
        q = ModelParams.from_dict({**data, "K": 2.0, "n": 3.0, "d": 1.0})
        assert (type(q.n), type(q.d), type(q.K)) == (int, int, int)
        assert q.content_hash() == ModelParams.from_dict(data).content_hash()
        assert q.to_json() == ModelParams.from_dict(data).to_json()

    def test_integral_reals_stored_as_float(self):
        p = parameter_set(1, gamma=3.0)
        q = ModelParams.from_dict({**p.to_dict(), "gamma": 3, "beta": 1, "W0": 1, "phi0": 0})
        assert {type(getattr(q, name)) for name in ("gamma", "beta", "W0", "phi0")} == {float}
        assert q.content_hash() == p.content_hash() == "962b7b22c4160cea"
        assert q.to_json() == p.to_json()

    @pytest.mark.parametrize("field, value", [
        ("gamma", True), ("alpha", False), ("gamma", "3"), ("r_f", None), ("beta", [1.0]),
    ])
    def test_from_dict_rejects_non_numeric_reals(self, field, value):
        data = {**parameter_set(1).to_dict(), field: value}
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            ModelParams.from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("gamma", math.inf), ("delta", math.inf), ("r_f", math.nan), ("phi0", -math.inf), ("W0", math.inf),
    ])
    def test_from_dict_rejects_non_finite_reals(self, field, value):
        data = {**parameter_set(1).to_dict(), field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams.from_dict(data)

    @pytest.mark.parametrize("field, value", [("mu0", math.inf), ("mu1", math.nan), ("sigma", -math.inf),
                                              ("sigma_phi1", math.nan)])
    def test_from_dict_rejects_non_finite_array_entries(self, field, value):
        data = json.loads(parameter_set(1).to_json())
        row = data[field][0] if field == "sigma" else data[field]
        row[0] = value
        with pytest.raises(ValueError, match=f"{field} must have finite entries"):
            ModelParams.from_dict(data)


class TestReduceLast:
    """`market.reduce_last` against numpy's own reduction over the last axis,
    bit for bit."""

    @staticmethod
    def _stacks(n):
        """Views of a (64, 10, n) stack with signed entries whose exponents
        spread over 1e-8..1e8: contiguous, strided on the leading axes, in
        Fortran order, strided on the last axis, one path (1, n) and one
        1-D row (n,)."""
        rng = np.random.default_rng(n)
        wide = rng.standard_normal((64, 10, 2 * n)) * 10.0 ** rng.uniform(-8.0, 8.0, (64, 10, 2 * n))
        a = np.ascontiguousarray(wide[..., :n])
        return [a, a[::3, 1::2], np.asfortranarray(a), wide[..., ::2], a[:1, 0], a[5, 3]]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sum_equals_numpys_bit_for_bit(self, n):
        for v in self._stacks(n):
            want, got = np.add.reduce(v, axis=-1), market.reduce_last(np.add, v)
            assert np.shape(got) == want.shape and np.asarray(got).tobytes() == np.asarray(want).tobytes(), v.shape

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_any_equals_numpys(self, n):
        for v in self._stacks(n):
            mask = v < -1.0
            want, got = np.logical_or.reduce(mask, axis=-1), market.reduce_last(np.logical_or, mask)
            assert np.asarray(got).dtype == bool and np.array_equal(got, want), v.shape

    def test_signed_zeros_infinities_and_nans_as_numpy(self):
        vals = [0.0, -0.0, 1.0, -1.0, 1e16, -1e16, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
        for n in (1, 2, 3):
            every = np.array(list(itertools.product(vals, repeat=n)))
            with np.errstate(invalid="ignore"):
                assert market.reduce_last(np.add, every).tobytes() == np.add.reduce(every, axis=-1).tobytes()

    @pytest.mark.parametrize("value", [-0.0, 2.5, np.nan])
    def test_zero_dimensional_input_as_numpy(self, value):
        for a in (np.float64(value), np.array(value)):
            got, want = market.reduce_last(np.add, a), np.add.reduce(a, axis=-1)
            assert np.ndim(got) == 0 and np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert market.reduce_last(np.logical_or, np.array(True)) == np.logical_or.reduce(np.array(True), axis=-1)

    def test_one_column_is_a_new_array(self):
        a = np.arange(6.0).reshape(6, 1)
        out = market.reduce_last(np.add, a)
        assert not np.shares_memory(out, a)
        out[:] = -1.0
        assert np.array_equal(a[:, 0], np.arange(6.0))

    def test_check_admissible_on_one_decision(self):
        p = parameter_set(1)
        assert market.check_admissible(np.array([0.2, 0.3, 0.1]), 0.1, p) is None
        assert "negative component" in market.check_admissible(np.array([0.2, -0.3, 0.1]), 0.1, p)
        assert "exceeds budget R_f(1 - 1'pi) = 0.4004" in market.check_admissible(np.array([0.2, 0.3, 0.1]), 0.5, p)


class TestStepState:
    def test_zero_everything_is_fixed_point(self):
        p = parameter_set(1)
        assert market.step_state(0.0, market.state_shocks(np.zeros(3), np.zeros(1), p), p) == 0.0

    def test_ou_drift_set1(self):
        p = parameter_set(1)
        out = market.step_state(1.0, market.state_shocks(np.zeros(3), np.zeros(1), p), p)
        assert out == pytest.approx(1.0 - 0.336 * 0.1, abs=1e-15)

    def test_extra_shock_loading_set1(self):
        p = parameter_set(1)
        out = market.step_state(0.0, market.state_shocks(np.zeros(3), np.array([1.0]), p), p)
        assert out == pytest.approx(0.284 * math.sqrt(0.1), rel=1e-12)

    def test_return_shock_loading_set1(self):
        p = parameter_set(1)
        out = market.state_shocks(np.array([0.0, 1.0, 0.0]), np.zeros(1), p)
        assert out == pytest.approx(-0.037 * math.sqrt(0.1), rel=1e-12)

    def test_shocks_of_every_stage_equal_each_stages(self):
        p = parameter_set(2)
        rng = np.random.default_rng(4)
        Z, Zt = rng.standard_normal((7, p.K, 3)), rng.standard_normal((7, p.K, 1))
        every = market.state_shocks(Z, Zt, p)
        assert every.shape == (7, p.K)
        for k in range(p.K):
            assert np.array_equal(every[:, k], market.state_shocks(Z[:, k], Zt[:, k], p))

    def test_ou_contraction_at_zero_shocks(self):
        # |phi'| <= |phi| whenever lam * delta lies in (0, 1]
        for lam in (0.336, 1.671, 9.999):
            p = single_asset_params(lam=lam)
            assert 0.0 < p.lam * p.delta <= 1.0
            for phi in (-1.7, -0.2, 0.4, 2.0):
                nxt = market.step_state(phi, market.state_shocks(np.zeros(1), np.zeros(1), p), p)
                assert abs(nxt) <= abs(phi)


class TestStepReturn:
    def test_set1_asset1_hand_value(self):
        p = parameter_set(1)
        R = market.step_return(0.0, np.zeros(3), p)
        log_r1 = (0.081 - 0.186**2 / 2) * 0.1
        assert log_r1 == pytest.approx(0.00637020, abs=1e-8)
        assert R[0] == pytest.approx(1.0063905, abs=1e-7)

    def test_deterministic_drift_limit(self):
        eps = 1e-10
        kwargs = _as_kwargs(parameter_set(1))
        kwargs["mu1"] = np.zeros(3)
        kwargs["sigma"] = np.eye(3) * eps
        p = ModelParams(**kwargs)
        R = market.step_return(0.7, np.zeros(3), p)
        np.testing.assert_allclose(R, np.exp(p.mu0 * p.delta), rtol=1e-9)

    def test_equals_numpys_sum_of_the_product_bit_for_bit(self):
        # sigma z is added a column at a time; signed zero shocks included.
        p = parameter_set(3)
        Z = np.random.default_rng(8).standard_normal((16, p.K, 3))
        Z[0], Z[1], Z[2, :, 1] = 0.0, -0.0, -0.0
        phi = np.linspace(-3.0, 3.0, 16 * p.K).reshape(16, p.K)
        want = np.exp(market.log_return_mean(phi, p) + (p.sigma * Z[..., None, :]).sum(axis=-1) * p.sqrt_delta)
        assert market.step_return(phi, Z, p).tobytes() == want.tobytes()

    def test_antithetic_log_symmetry(self):
        p = parameter_set(2)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(3)
        mid = 0.5 * (np.log(market.step_return(0.3, z, p)) + np.log(market.step_return(0.3, -z, p)))
        np.testing.assert_allclose(mid, market.log_return_mean(0.3, p), atol=1e-14)


class TestStepWealth:
    def test_all_cash(self):
        p = parameter_set(1)
        assert market.step_wealth(1.0, np.zeros(3), 0.0, np.full(3, 1.05), p) == pytest.approx(1.001)

    def test_fully_invested_first_asset(self):
        p = parameter_set(1)
        R = np.array([1.05, 1.2, 0.9])
        W = market.step_wealth(1.0, np.array([1.0, 0.0, 0.0]), 0.0, R, p)
        assert W == pytest.approx(1.05, abs=1e-15)

    def test_consumption_reduces_wealth(self):
        p = parameter_set(1)
        W = market.step_wealth(2.0, np.zeros(3), 0.5, np.ones(3), p)
        assert W == pytest.approx(2 * 1.001 - 0.5, abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_exactly_linear_in_decisions(self, seed):
        p = parameter_set(1)
        rng = np.random.default_rng(seed)
        R = np.exp(rng.normal(0, 0.1, size=3))
        W, Pi, C = 1.3, rng.random(3), 0.2
        base = market.step_wealth(W, Pi, C, R, p)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            slope = market.step_wealth(W, Pi + e, C, R, p) - base
            assert slope == pytest.approx(R[j] - p.R_f, abs=1e-12)
        assert market.step_wealth(W, Pi, C + 1.0, R, p) - base == pytest.approx(-1.0, abs=1e-12)


class TestSimulate:
    def test_all_cash_compounding(self):
        p = parameter_set(1)
        shocks = ShockPath(Z=np.zeros((10, 3)), Ztilde=np.zeros((10, 1)))
        path = market.simulate_policy_path(p, lambda k, phi, W: (np.zeros(3), 0.0), shocks)
        assert path.W[-1] == pytest.approx(p.W0 * p.R_f**10, rel=1e-14)
        assert np.all(path.C == 0.0)

    def test_consume_everything_hits_wealth_floor(self):
        p = parameter_set(1)
        shocks = ShockPath(Z=np.zeros((10, 3)), Ztilde=np.zeros((10, 1)))
        with pytest.raises(AdmissibilityError, match="stage 1"):
            market.simulate_policy_path(p, lambda k, phi, W: (np.zeros(3), p.R_f), shocks)

    def test_inadmissible_policy_names_stage(self):
        p = parameter_set(1)
        shocks = ShockPath(Z=np.zeros((10, 3)), Ztilde=np.zeros((10, 1)))

        def policy(k, phi, W):
            return (np.zeros(3), 2.0) if k == 3 else (np.zeros(3), 0.0)

        with pytest.raises(AdmissibilityError, match="stage 3"):
            market.simulate_policy_path(p, policy, shocks)

    def test_negative_weight_rejected(self):
        p = parameter_set(1)
        shocks = ShockPath(Z=np.zeros((10, 3)), Ztilde=np.zeros((10, 1)))
        with pytest.raises(AdmissibilityError, match="negative"):
            market.simulate_policy_path(p, lambda k, phi, W: (np.array([-0.1, 0, 0]), 0.0), shocks)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_admissible_policies_keep_wealth_positive(self, seed):
        p = parameter_set(1)
        rng = np.random.default_rng(seed)

        def policy(k, phi, W):
            raw = rng.random(3)
            pi = raw / raw.sum() * rng.uniform(0.0, 1.0)
            c = rng.uniform(0.0, 0.999) * p.R_f * (1.0 - pi.sum())
            return pi, c

        shocks = ShockPath(Z=rng.standard_normal((10, 3)), Ztilde=rng.standard_normal((10, 1)))
        for sp in (shocks, shocks.antithetic()):
            path = market.simulate_policy_path(p, policy, sp)
            assert np.all(path.W > 0.0)
            assert np.all(path.C >= 0.0)


class TestSimulatePaths:
    """The batch simulator against its own N = 1 calls, row by row."""

    @staticmethod
    def _legs(p, seed, pairs):
        legs = []
        for i in range(pairs):
            base = bounds.shock_path(p, seed, 0, i)
            legs += [base, base.antithetic()]
        return legs

    @pytest.mark.parametrize("set_id", [1, 2])
    def test_every_row_equals_its_single_path_simulation(self, set_id):
        p = parameter_set(set_id, gamma=1.5)
        vg = dp_solver.backward_recursion(p, grid=np.linspace(-2.0, 2.0, 5))
        policy = dp_solver.make_grid_policy(vg, p)
        legs = self._legs(p, seed=17, pairs=60)
        batch = market.simulate_paths(p, policy, np.array([sp.Z for sp in legs]),
                                      np.array([sp.Ztilde for sp in legs]))
        for i, sp in enumerate(legs):
            one = market.simulate_policy_path(p, policy, sp)
            for name in ("phi", "R", "W", "C", "Pi"):
                assert np.array_equal(getattr(batch, name)[i], getattr(one, name)), (i, name)
        if set_id == 2:  # both extrapolation branches are exercised
            assert batch.phi.min() < vg.grid[0] and batch.phi.max() > vg.grid[-1]

    @staticmethod
    def _assert_equals_reference(p, policy, Z, Ztilde):
        path, ref = market.simulate_paths(p, policy, Z, Ztilde), reference_simulate_paths(p, policy, Z, Ztilde)
        for name in ("phi", "R", "W", "C", "Pi"):
            got, want = getattr(path, name), getattr(ref, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("set_id", [1, 2, 3, 4])
    def test_equals_the_stage_by_stage_reference(self, set_id):
        # Grid policy on antithetic legs; set 2's states leave the grid.
        p = parameter_set(set_id, gamma=1.5)
        vg = dp_solver.backward_recursion(p, grid=np.linspace(-2.0, 2.0, 5))
        legs = self._legs(p, seed=23, pairs=40)
        self._assert_equals_reference(p, dp_solver.make_grid_policy(vg, p), np.array([sp.Z for sp in legs]),
                                      np.array([sp.Ztilde for sp in legs]))

    def test_equals_the_reference_on_one_asset(self):
        p = single_asset_params(K=10, lam=1.671, sigma_phi2=1.725)
        vg = dp_solver.backward_recursion(p, grid=np.linspace(-2.0, 2.0, 5))
        legs = self._legs(p, seed=5, pairs=30)
        self._assert_equals_reference(p, dp_solver.make_grid_policy(vg, p), np.array([sp.Z for sp in legs]),
                                      np.array([sp.Ztilde for sp in legs]))

    def test_equals_the_reference_under_clipped_fuzz(self):
        # Decisions a rounding error outside A, which the simulator clips.
        p = parameter_set(1)
        legs = self._legs(p, seed=9, pairs=25)

        def policy(k, phi, W):
            pi = np.stack([0.3 + 0.1 * np.tanh(phi), np.full(phi.shape, -1e-12),
                           0.2 * phi**2 / (1.0 + phi**2) + 0.01 * k], axis=-1)
            return pi, p.R_f * (1.0 - pi.sum(axis=-1)) * (1.0 + 1e-12)

        self._assert_equals_reference(p, policy, np.array([sp.Z for sp in legs]), np.array([sp.Ztilde for sp in legs]))

    @pytest.mark.parametrize("fault", ["budget", "negative pi", "negative c", "wealth floor"])
    def test_raises_the_references_error(self, fault):
        p = parameter_set(1)
        rng = np.random.default_rng(2)
        Z, Zt = rng.standard_normal((6, 10, 3)), rng.standard_normal((6, 10, 1))

        def policy(k, phi, W):
            pi, c = np.full(phi.shape + (3,), 0.2), np.full(phi.shape, 0.1)
            if fault == "budget":
                c[3, k == 4] = 1.0
            elif fault == "negative pi":
                pi[2:, k == 7, 1] = -0.01
            elif fault == "negative c":
                c[5, k == 1] = -0.5
            elif fault == "wealth floor":
                pi[4, k == 2], c[4, k == 2] = 0.0, p.R_f
            return pi, c

        with pytest.raises(AdmissibilityError) as want:
            reference_simulate_paths(p, policy, Z, Zt)
        with pytest.raises(AdmissibilityError) as got:
            market.simulate_paths(p, policy, Z, Zt)
        assert (got.value.row, got.value.stage, str(got.value)) == (want.value.row, want.value.stage, str(want.value))

    def test_first_failing_row_and_stage_are_reported(self):
        p = parameter_set(1)
        Z = np.zeros((3, 10, 3))
        Zt = np.zeros((3, 10, 1))

        def policy(k, phi, W):
            c = np.zeros(phi.shape)
            c[1, k == 6] = 2.0   # budget violation, row 1, stage 6
            c[2, k == 2] = p.R_f  # wealth hits the floor, row 2, stage 3
            return np.zeros(phi.shape + (3,)), c

        with pytest.raises(AdmissibilityError, match="stage 6: c = 2 exceeds budget") as err:
            market.simulate_paths(p, policy, Z, Zt)
        assert err.value.row == 1 and err.value.stage == 6

    def test_decides_every_stage_in_one_policy_call(self, p_set1, vg_set1):
        grid_policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        calls = []

        def policy(k, phi, W):
            calls.append((k.copy(), phi.shape, W))
            return grid_policy(k, phi, W)

        legs = self._legs(p_set1, seed=3, pairs=7)
        Z, Zt = np.array([sp.Z for sp in legs]), np.array([sp.Ztilde for sp in legs])
        market.simulate_paths(p_set1, policy, Z, Zt)
        assert len(calls) == 1
        k, shape, W = calls[0]
        assert np.array_equal(k, np.arange(p_set1.K)) and shape == (14, p_set1.K) and W is None

    @pytest.mark.parametrize("bad", ["one Ztilde row for all paths", "two Ztilde columns at d = 1"])
    def test_rejects_mis_shaped_shocks(self, bad):
        p = parameter_set(1)
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((5, p.K, p.n))
        Zt = rng.standard_normal((1, p.K, 1) if bad.startswith("one") else (5, p.K, 2))
        with pytest.raises(ValueError, match=rf"Z \(5, 10, 3\) and Ztilde \({Zt.shape[0]}, 10, {Zt.shape[2]}\)"):
            market.simulate_paths(p, lambda k, phi, W: (np.zeros(phi.shape + (3,)), np.zeros(phi.shape)), Z, Zt)


class TestShockPath:
    def test_antithetic_is_exact_negation(self):
        rng = np.random.default_rng(0)
        sp = ShockPath(Z=rng.standard_normal((10, 3)), Ztilde=rng.standard_normal((10, 1)))
        anti = sp.antithetic()
        assert np.array_equal(anti.Z, -sp.Z)
        assert np.array_equal(anti.Ztilde, -sp.Ztilde)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ShockPath(Z=np.zeros((10, 3)), Ztilde=np.zeros((9, 1)))


def _as_kwargs(p: ModelParams) -> dict:
    d = p.to_dict()
    d["lam"] = d.pop("lambda")
    for key in ("mu0", "mu1", "sigma", "sigma_phi1"):
        d[key] = np.asarray(d[key])
    return d
