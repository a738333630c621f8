import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbound import finite_mdp as fm

from helpers import deterministic_chain_mdp, matching_mdp, random_mdp, scaled_penalty


class TestSolveDp:
    def test_single_action_no_decision(self):
        mdp = fm.FiniteMDP(
            horizon=1, states=("s",), actions=("a0",), outcomes=("o",),
            outcome_probs=np.array([1.0]), transition=np.zeros((1, 1, 1), dtype=int),
            stage_reward=np.zeros((1, 1, 1)), terminal_reward=np.array([1.0]),
            initial_state=0)
        sv = fm.solve_dp(mdp)
        assert sv.values[0, 0] == 1.0

    def test_matching_game_value(self):
        sv = fm.solve_dp(matching_mdp())
        assert sv.values[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_deterministic_chain_picks_high_reward(self):
        mdp = deterministic_chain_mdp()
        sv = fm.solve_dp(mdp)
        assert sv.values[0, 0] == pytest.approx(2.0, abs=1e-15)
        assert np.all(sv.policy == 1)

    def test_terminal_values_equal_terminal_reward(self):
        rng = np.random.default_rng(0)
        mdp = random_mdp(rng)
        sv = fm.solve_dp(mdp)
        np.testing.assert_array_equal(sv.values[-1], mdp.terminal_reward)

    def test_ties_broken_by_lowest_action(self):
        mdp = fm.FiniteMDP(
            horizon=1, states=("s",), actions=("a0", "a1"), outcomes=("o",),
            outcome_probs=np.array([1.0]), transition=np.zeros((1, 2, 1), dtype=int),
            stage_reward=np.array([[[3.0, 3.0]]]), terminal_reward=np.array([0.0]),
            initial_state=0)
        assert fm.solve_dp(mdp).policy[0, 0] == 0


class TestOptimalPenaltyValue:
    def test_matching_game_both_outcomes(self):
        mdp = matching_mdp()
        sv = fm.solve_dp(mdp)
        s0 = fm.ScenarioSequence(outcomes=(0,), probability=0.5)
        s1 = fm.ScenarioSequence(outcomes=(1,), probability=0.5)
        assert fm.optimal_penalty(mdp, sv)((0,), s0) == pytest.approx(0.5, abs=1e-15)
        assert fm.optimal_penalty(mdp, sv)((0,), s1) == pytest.approx(-0.5, abs=1e-15)

    def test_deterministic_transition_gives_zero(self):
        mdp = deterministic_chain_mdp()
        sv = fm.solve_dp(mdp)
        scen = fm.ScenarioSequence(outcomes=(0, 0), probability=1.0)
        for seq in itertools.product(range(2), repeat=2):
            assert fm.optimal_penalty(mdp, sv)(seq, scen) == 0.0

    def test_length_mismatch_rejected(self):
        mdp = matching_mdp()
        sv = fm.solve_dp(mdp)
        with pytest.raises(ValueError, match="length"):
            fm.optimal_penalty(mdp, sv)((0, 1), fm.ScenarioSequence((0,), 0.5))

    @pytest.mark.parametrize("seed", range(8))
    def test_table_equals_brute_force_martingale_difference(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, max_horizon=4)
        if seed % 2:  # a per-stage probability table
            probs = rng.random((mdp.horizon, len(mdp.outcomes))) + 0.05
            mdp = dataclasses.replace(mdp, outcome_probs=probs / probs.sum(axis=1, keepdims=True))
        V = fm.solve_dp(mdp).values
        table = fm.optimal_penalty(mdp).table
        K, S, A, O = mdp.horizon, mdp.n_states, mdp.n_actions, len(mdp.outcomes)
        assert table.shape == (K, S, A, O)
        f, p = mdp.transition, mdp.outcome_probs
        for k, x, a, o in itertools.product(range(K), range(S), range(A), range(O)):
            mean = sum(p[k, o2] * V[k + 1, f[x, a, o2]] for o2 in range(O))
            assert table[k, x, a, o] == pytest.approx(V[k + 1, f[x, a, o]] - mean, abs=1e-14)


class TestInnerSolve:
    def test_perfect_foresight_zero_penalty(self):
        mdp = matching_mdp()
        scen = fm.ScenarioSequence(outcomes=(0,), probability=0.5)
        seq, val = fm.inner_solve(mdp, None, scen)
        assert seq == (0,)
        assert val == 1.0

    def test_optimal_penalty_makes_objective_constant(self):
        mdp = matching_mdp()
        sv = fm.solve_dp(mdp)
        mstar = fm.optimal_penalty(mdp, sv)
        scen = fm.ScenarioSequence(outcomes=(0,), probability=0.5)
        _, val = fm.inner_solve(mdp, mstar, scen)
        assert val == pytest.approx(0.5, abs=1e-15)
        # the objective is the same for every action once penalized
        for seq in ((0,), (1,)):
            obj = fm.pathwise_reward(mdp, seq, scen) - mstar(seq, scen)
            assert obj == pytest.approx(0.5, abs=1e-15)

    def test_deterministic_chain_equals_dp_value(self):
        mdp = deterministic_chain_mdp()
        scen = fm.ScenarioSequence(outcomes=(0, 0), probability=1.0)
        _, val = fm.inner_solve(mdp, None, scen)
        assert val == fm.solve_dp(mdp).values[0, 0]

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_stagewise_fast_path_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng)
        sv = fm.solve_dp(mdp)
        mstar = fm.optimal_penalty(mdp, sv)
        plain = lambda seq, scen: mstar(seq, scen)  # hides the stagewise structure
        for scen in fm.enumerate_scenarios(mdp):
            fast = fm.inner_solve(mdp, mstar, scen)
            slow = fm.inner_solve(mdp, plain, scen)
            assert fast[1] == pytest.approx(slow[1], abs=1e-12)
            assert fast[0] == slow[0]


class TestDualBound:
    def test_matching_game_zero_penalty(self):
        assert fm.dual_bound_exact(matching_mdp(), None) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_penalty_is_the_zero_table(self, seed, monkeypatch):
        # None resolves to one zero table for the whole scenario loop.
        mdp = random_mdp(np.random.default_rng(seed))
        assert len(list(fm.enumerate_scenarios(mdp))) > 1
        tables = []
        zero = fm.zero_penalty
        monkeypatch.setattr(fm, "zero_penalty", lambda m: tables.append(1) or zero(m))
        bound = fm.dual_bound_exact(mdp, None)
        assert len(tables) == 1
        assert bound == fm.dual_bound_exact(mdp, zero(mdp))

    def test_matching_game_optimal_penalty_strong_duality(self):
        mdp = matching_mdp()
        assert fm.dual_bound_exact(mdp, fm.optimal_penalty(mdp)) == pytest.approx(0.5, abs=1e-13)

    def test_enumeration_guard(self):
        mdp = random_mdp(np.random.default_rng(1), max_states=2, max_actions=2,
                         max_outcomes=3, max_horizon=3)
        with pytest.raises(fm.EnumerationGuardError):
            fm.enumerate_scenarios(mdp, guard=1)

    def test_scenario_probabilities_sum_to_one(self):
        for seed in range(5):
            mdp = random_mdp(np.random.default_rng(seed))
            scens = fm.enumerate_scenarios(mdp)
            assert abs(sum(s.probability for s in scens) - 1.0) <= 1e-12
            assert all(s.probability > 0 for s in scens)


class TestVerifyDuality:
    def test_matching_game_report(self):
        rep = fm.verify_duality(matching_mdp())
        assert rep.v0 == pytest.approx(0.5, abs=1e-15)
        assert rep.zero_penalty_bound == pytest.approx(1.0, abs=1e-15)
        assert rep.optimal_penalty_bound == pytest.approx(0.5, abs=1e-13)
        assert rep.passed

    def test_deterministic_mdp_all_three_equal(self):
        rep = fm.verify_duality(deterministic_chain_mdp())
        assert rep.v0 == rep.zero_penalty_bound == rep.optimal_penalty_bound == 2.0

    def test_failure_surfaces_as_error_with_report(self, monkeypatch):
        mdp = matching_mdp()
        monkeypatch.setattr(fm, "STRONG_TOL", -1.0)  # unattainable on purpose
        with pytest.raises(fm.DualityCheckError) as err:
            fm.verify_duality(mdp)
        assert isinstance(err.value.report, fm.DualityReport)

    @pytest.mark.parametrize("scale", [1e-7, 1e7, 1e12])
    def test_tolerances_scale_with_the_values(self, scale, monkeypatch):
        # Rounding on rewards of size 1e7 exceeds the absolute tolerances.
        for seed in range(20):
            mdp = random_mdp(np.random.default_rng(seed), max_horizon=4)
            mdp = dataclasses.replace(mdp, stage_reward=scale * mdp.stage_reward,
                                      terminal_reward=scale * mdp.terminal_reward)
            assert fm.verify_duality(mdp).passed
            with monkeypatch.context() as patch, pytest.raises(fm.DualityCheckError):
                patch.setattr(fm, "STRONG_TOL", -1.0)
                fm.verify_duality(mdp)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_instances_strong_duality(self, seed):
        mdp = random_mdp(np.random.default_rng(seed))
        rep = fm.verify_duality(mdp)
        assert abs(rep.optimal_penalty_bound - rep.v0) <= 1e-10
        assert rep.zero_penalty_bound >= rep.v0 - 1e-12


class TestDualFeasibleFamily:
    @pytest.mark.parametrize("factor", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_scaled_optimal_penalty_weak_duality(self, factor):
        for seed in range(10):
            mdp = random_mdp(np.random.default_rng(seed))
            sv = fm.solve_dp(mdp)
            pen = scaled_penalty(fm.optimal_penalty(mdp, sv), factor)
            bound = fm.dual_bound_exact(mdp, pen)
            assert bound >= sv.values[0, mdp.initial_state] - 1e-12

    def test_zero_mean_for_every_markov_policy(self):
        # exhaustive over all Markov policies of a small instance
        mdp = random_mdp(np.random.default_rng(42), max_states=2, max_actions=2,
                         max_outcomes=2, max_horizon=2)
        mstar = fm.optimal_penalty(mdp)
        K, S, A = mdp.horizon, mdp.n_states, mdp.n_actions
        for flat in itertools.product(range(A), repeat=K * S):
            policy = np.array(flat).reshape(K, S)
            mean = fm.expected_penalty_under_policy(mdp, mstar, policy)
            assert abs(mean) <= 1e-12

    def test_pathwise_identity_under_optimal_policy(self):
        # penalized objective along the argmax policy equals V0 on every scenario
        for seed in range(20):
            mdp = random_mdp(np.random.default_rng(seed))
            sv = fm.solve_dp(mdp)
            mstar = fm.optimal_penalty(mdp, sv)
            v0 = sv.values[0, mdp.initial_state]
            for scen in fm.enumerate_scenarios(mdp):
                seq = fm.policy_action_sequence(mdp, sv.policy, scen)
                obj = fm.pathwise_reward(mdp, seq, scen) - mstar(seq, scen)
                assert obj == pytest.approx(v0, abs=1e-12)


class TestValidationAndJson:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            fm.FiniteMDP(
                horizon=1, states=("s",), actions=("a",), outcomes=("o0", "o1"),
                outcome_probs=np.array([0.5, 0.4]),
                transition=np.zeros((1, 1, 2), dtype=int),
                stage_reward=np.zeros((1, 1, 1)), terminal_reward=np.zeros(1),
                initial_state=0)

    @pytest.mark.parametrize("field, value, message", [
        ("outcome_probs", np.array([np.nan, 0.5]), "sum to 1"),
        ("outcome_probs", np.array([np.nan, np.nan]), "sum to 1"),
        ("stage_reward", np.full((1, 1, 1), np.inf), "must be finite"),
        ("stage_reward", np.full((1, 1, 1), np.nan), "must be finite"),
        ("terminal_reward", np.array([-np.inf]), "must be finite"),
    ])
    def test_nan_probabilities_and_non_finite_rewards_rejected(self, field, value, message):
        fields = dict(horizon=1, states=("s",), actions=("a",), outcomes=("o0", "o1"),
                      outcome_probs=np.array([0.5, 0.5]), transition=np.zeros((1, 1, 2), dtype=int),
                      stage_reward=np.zeros((1, 1, 1)), terminal_reward=np.zeros(1), initial_state=0)
        with pytest.raises(ValueError, match=message):
            fm.FiniteMDP(**{**fields, field: value})

    def test_transition_must_be_total(self):
        with pytest.raises(ValueError, match="transition"):
            fm.FiniteMDP(
                horizon=1, states=("s",), actions=("a",), outcomes=("o",),
                outcome_probs=np.array([1.0]),
                transition=np.array([[[4]]]),
                stage_reward=np.zeros((1, 1, 1)), terminal_reward=np.zeros(1),
                initial_state=0)

    def test_per_stage_probability_table(self):
        mdp = fm.FiniteMDP(
            horizon=2, states=("s",), actions=("a",), outcomes=("o0", "o1"),
            outcome_probs=np.array([[0.5, 0.5], [1.0, 0.0]]),
            transition=np.zeros((1, 1, 2), dtype=int),
            stage_reward=np.zeros((2, 1, 1)), terminal_reward=np.zeros(1),
            initial_state=0)
        scens = fm.enumerate_scenarios(mdp)
        assert len(scens) == 2  # second stage has a single supported outcome

    @pytest.mark.parametrize("field, value", [
        ("transition", 0.5), ("horizon", 1.5), ("initial_state", 0.5), ("transition", float("nan")),
    ])
    def test_from_dict_rejects_non_integral_indices(self, field, value):
        data = matching_mdp().to_dict()
        if field == "transition":
            data["transition"][0][0][0] = value
        else:
            data[field] = value
        with pytest.raises(ValueError, match=f"{field} entries must be integers"):
            fm.FiniteMDP.from_dict(data)

    def test_json_round_trip(self):
        mdp = matching_mdp()
        again = fm.FiniteMDP.from_json(json.dumps(mdp.to_dict()))
        assert again.to_dict() == mdp.to_dict()
        assert fm.verify_duality(again).passed

    def test_json_round_trip_keeps_initial_state_with_integer_labels(self):
        # An integer initial_state is an index, so label 1 at index 0 must not move it.
        mdp = fm.FiniteMDP(
            horizon=1, states=(1, 0), actions=("a",), outcomes=("o",),
            outcome_probs=np.array([1.0]), transition=np.array([[[0]], [[1]]]),
            stage_reward=np.zeros((1, 2, 1)), terminal_reward=np.array([5.0, 0.0]),
            initial_state=0)
        again = fm.FiniteMDP.from_json(json.dumps(mdp.to_dict()))
        assert again.initial_state == 0
        assert fm.solve_dp(again).values[0, again.initial_state] == 5.0

    def test_string_initial_state_is_a_label(self):
        data = matching_mdp().to_dict()
        data["initial_state"] = "match"
        assert fm.FiniteMDP.from_dict(data).initial_state == 1

    @pytest.mark.parametrize("init, message", [
        (True, "initial_state must be a state index or label, got True"),
        (False, "initial_state must be a state index or label, got False"),
        ("nope", "initial_state 'nope' is not one of the states ['start', 'match', 'miss']"),
    ])
    def test_from_dict_rejects_a_bool_or_unknown_initial_state(self, init, message):
        data = matching_mdp().to_dict()
        data["initial_state"] = init
        with pytest.raises(ValueError) as err:
            fm.FiniteMDP.from_dict(data)
        assert str(err.value) == message
