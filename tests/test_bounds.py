import concurrent.futures
import dataclasses
import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbound import bounds, concave, dp_solver, dual, market, penalties
from dualbound.bounds import (
    RunConfig,
    certainty_equivalent,
    duality_gap,
    lower_bound,
    path_utility,
    shock_path,
    upper_bound,
)
from dualbound.dual import assemble_inner
from helpers import (
    at_point,
    inner_objective_grid_search,
    known_optimum,
    random_feasible_fractions,
    single_asset_params,
    slack,
    synthetic_value_grid,
    warm_solve,
)


class TestCertaintyEquivalent:
    def test_table_values(self):
        assert certainty_equivalent(-5.480, 1.5) == pytest.approx(0.1332, abs=1e-4)
        assert certainty_equivalent(-42.887, 3.0) == pytest.approx(0.1080, abs=1e-4)

    def test_reciprocal_utility_case(self):
        # gamma = 2 means U(x) = -1/x, so CE(-10) = 0.1 exactly
        assert certainty_equivalent(-10.0, 2.0) == pytest.approx(0.1, rel=1e-14)

    def test_domain_error_on_sign_violation(self):
        with pytest.raises(ValueError, match="positive"):
            certainty_equivalent(5.0, 1.5)

    @given(st.floats(0.01, 10.0), st.floats(1.1, 6.0))
    @settings(max_examples=50)
    def test_inverts_the_utility(self, ce, gamma):
        value = ce ** (1 - gamma) / (1 - gamma)
        assert certainty_equivalent(value, gamma) == pytest.approx(ce, rel=1e-9)


class TestShockStreams:
    def test_deterministic_given_seed_run_path(self, p_set1):
        a = shock_path(p_set1, 99, 3, 7)
        b = shock_path(p_set1, 99, 3, 7)
        assert np.array_equal(a.Z, b.Z) and np.array_equal(a.Ztilde, b.Ztilde)

    def test_distinct_across_runs_and_paths(self, p_set1):
        base = shock_path(p_set1, 99, 0, 0)
        assert not np.array_equal(base.Z, shock_path(p_set1, 99, 0, 1).Z)
        assert not np.array_equal(base.Z, shock_path(p_set1, 99, 1, 0).Z)
        assert not np.array_equal(base.Z, shock_path(p_set1, 100, 0, 0).Z)

    def test_negative_seed_has_its_own_stream(self, p_set1):
        assert not np.array_equal(shock_path(p_set1, -1, 0, 0).Z, shock_path(p_set1, 2**63 - 1, 0, 0).Z)

    def test_shapes(self, p_set1):
        sp = shock_path(p_set1, 0, 0, 0)
        assert sp.Z.shape == (10, 3) and sp.Ztilde.shape == (10, 1)

    @pytest.mark.parametrize("seed", [0, 42, -1, 2**63 - 1, -2**63, 2**63, 2**64 - 1])
    def test_stream_is_the_explicitly_keyed_philox(self, p_set1, seed):
        # The stream of (seed, run, path) is pinned: Philox keyed with
        # SeedSequence((seed mod 2**64, run, path)).generate_state(2, uint64).
        for run, idx in ((0, 0), (1, 5), (9, 99), (3, 12345)):
            key = np.random.SeedSequence((seed % 2**64, run, idx)).generate_state(2, np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            sp = shock_path(p_set1, seed, run, idx)
            assert np.array_equal(sp.Z, rng.standard_normal((10, 3)))
            assert np.array_equal(sp.Ztilde, rng.standard_normal((10, 1)))


KEY_SEEDS = [-2**63, -1, 0, 1, 2**32 - 1, 2**32, 2**63 - 1]


class TestChunkKeyedShocks:
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_keys_equal_seed_sequence(self, seed):
        # Seeds below 2**32 (mod 2**64) are one entropy word, the others two.
        edges = [0, 1, 2**32 - 1]
        rand = np.random.default_rng(seed % 2**32).integers(0, 2**32, 5).tolist()
        runs, paths = map(np.ravel, np.meshgrid(edges + rand, edges + rand[::-1], indexing="ij"))
        keys = bounds._philox_keys(seed, runs, paths)
        assert keys.shape == (len(runs), 2) and keys.dtype == np.uint64
        for run, path, key in zip(runs.tolist(), paths.tolist(), keys):
            expect = np.random.SeedSequence((seed % 2**64, run, path)).generate_state(2, np.uint64)
            assert np.array_equal(key, expect), (run, path)

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_chunk_rows_equal_shock_path(self, p_set1, seed, antithetic):
        # Pairs 5..17 of 7-path runs: the chunk starts inside run 0 and ends in run 2.
        cfg = RunConfig(paths_per_run=7, runs=3, seed=seed, antithetic=antithetic)
        Z, Ztilde = bounds._chunk_shocks(p_set1, cfg, (5, 18))
        legs = 2 if antithetic else 1
        assert Z.shape == (13 * legs, 10, 3) and Ztilde.shape == (13 * legs, 10, 1)
        for j, q in enumerate(range(5, 18)):
            base = shock_path(p_set1, seed, *divmod(q, cfg.paths_per_run))
            expect = (base, base.antithetic()) if antithetic else (base,)
            for leg, sp in enumerate(expect):
                assert np.array_equal(Z[j * legs + leg], sp.Z)
                assert np.array_equal(Ztilde[j * legs + leg], sp.Ztilde)


class TestRunConfig:
    def test_needs_two_runs(self):
        with pytest.raises(ValueError, match="runs"):
            RunConfig(paths_per_run=10, runs=1, seed=0)

    def test_rejects_unknown_penalty(self):
        with pytest.raises(ValueError, match="penalty"):
            RunConfig(paths_per_run=10, runs=2, seed=0, penalty_kind="m9")

    @pytest.mark.parametrize("paths, runs", [(2**32, 2), (10, 2**32)])
    def test_rejects_indices_beyond_one_key_word(self, paths, runs):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            RunConfig(paths_per_run=paths, runs=runs, seed=0)
        RunConfig(paths_per_run=min(paths, 2**32 - 1), runs=min(runs, 2**32 - 1), seed=0)

    @pytest.mark.parametrize("bound", [lower_bound, upper_bound])
    def test_bound_refuses_a_gamma_other_than_the_parameters(self, p_set1, vg_set1, bound):
        # The CSV row names cfg.gamma, so a gamma-3 label on a gamma-1.5
        # bound would misname it.  An unset gamma labels nothing.
        cfg = RunConfig(paths_per_run=2, runs=2, seed=1, gamma=3.0)
        with pytest.raises(ValueError, match=r"cfg.gamma = 3.0 does not match the parameters' gamma = 1.5"):
            bound(p_set1, vg_set1, cfg)
        assert bound(p_set1, vg_set1, dataclasses.replace(cfg, gamma=None)).config.gamma is None


def _wealth_emptying_grid(p):
    """Consumption 0.01 up to phi = 1, rising to the whole budget at phi = 2:
    wealth reaches zero on the paths whose state climbs far enough."""
    vg = synthetic_value_grid(p, policy_c=0.01)
    policy_c = vg.policy_c.copy()
    policy_c[:, -1] = 5.0
    return dp_solver.ValueGrid(grid=vg.grid, J=vg.J, policy_pi=vg.policy_pi, policy_c=policy_c)


class TestLowerBound:
    def test_deterministic_all_cash_policy(self):
        # alpha = 0 and an all-cash zero-consumption nodal policy: every path
        # pays U(W0 R_f^K), so the run means agree exactly and stderr is 0.
        p = market.ModelParams.from_dict({**market.parameter_set(1).to_dict(), "alpha": 0.0})
        vg = synthetic_value_grid(p)
        cfg = RunConfig(paths_per_run=4, runs=3, seed=5, gamma=p.gamma, parameter_set_id=1)
        est = lower_bound(p, vg, cfg)
        expect = (p.W0 * p.R_f**p.K) ** (1 - p.gamma) / (1 - p.gamma)
        assert est.mean == pytest.approx(expect, rel=1e-12)
        assert est.stderr == 0.0
        assert est.kind == "lower" and est.penalty == "none"

    def test_grid_policy_magnitude(self, p_set1, vg_set1):
        cfg = RunConfig(paths_per_run=40, runs=4, seed=11, gamma=1.5, parameter_set_id=1)
        est = lower_bound(p_set1, vg_set1, cfg)
        assert -5.7 < est.mean < -5.3
        assert est.stderr > 0.0
        assert min(est.run_means) <= est.mean <= max(est.run_means)

    def test_set2_gamma3_benchmark_magnitude(self):
        # Spot check of a second parameter set at the published run size; 1%
        # relative mirrors the tolerance scale of the gated benchmark checks.
        p = market.parameter_set(2, gamma=3.0)
        vg = dp_solver.backward_recursion(p)
        cfg = RunConfig(paths_per_run=100, runs=10, seed=42, gamma=3.0, parameter_set_id=2)
        est = lower_bound(p, vg, cfg)
        assert est.mean == pytest.approx(-42.585, rel=0.01)

    def test_path_error_carries_replay_info(self):
        p = market.parameter_set(1)
        vg = synthetic_value_grid(p, policy_c=5.0)  # violates the budget at stage 0
        cfg = RunConfig(paths_per_run=2, runs=2, seed=123)
        with pytest.raises(bounds.PathError, match=r"seed=123, run=0, path=0"):
            lower_bound(p, vg, cfg)

    def test_reproducible_across_worker_counts(self, p_set1, vg_set1):
        cfg = RunConfig(paths_per_run=6, runs=2, seed=21, gamma=1.5)
        serial = lower_bound(p_set1, vg_set1, cfg, workers=1)
        parallel = lower_bound(p_set1, vg_set1, cfg, workers=2)
        assert np.array_equal(serial.run_means, parallel.run_means)

    @pytest.mark.parametrize("chunk", [3, bounds.LOWER_CHUNK_PAIRS])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_means_equal_single_path_recomputation(self, p_set1, vg_set1, monkeypatch, chunk, workers):
        monkeypatch.setattr(bounds, "LOWER_CHUNK_PAIRS", chunk)
        cfg = RunConfig(paths_per_run=10, runs=3, seed=31, gamma=1.5)
        est = lower_bound(p_set1, vg_set1, cfg, workers=workers)
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        expect = []
        for r in range(cfg.runs):
            vals = []
            for i in range(cfg.paths_per_run):
                base = shock_path(p_set1, cfg.seed, r, i)
                for sp in (base, base.antithetic()):
                    path = market.simulate_policy_path(p_set1, policy, sp)
                    vals.append(path_utility(p_set1, path.C, float(path.W[-1])))
            expect.append(float(np.mean(vals)))
        assert np.array_equal(est.run_means, expect)
        assert est.total_paths == 60

    def test_path_error_names_first_failing_path_inside_a_chunk(self, monkeypatch):
        p = market.parameter_set(1)
        vg = _wealth_emptying_grid(p)
        cfg = RunConfig(paths_per_run=12, runs=3, seed=6)
        policy = dp_solver.make_grid_policy(vg, p)

        def first_failure():
            for r in range(cfg.runs):
                for i in range(cfg.paths_per_run):
                    base = shock_path(p, cfg.seed, r, i)
                    for sp in (base, base.antithetic()):
                        try:
                            market.simulate_policy_path(p, policy, sp)
                        except market.AdmissibilityError as exc:
                            return r, i, str(exc)

        r, i, message = first_failure()
        assert (r, i) == (1, 3)  # flat pair 15
        # Chunks of 2 put it second in pairs 14..15, chunks of 5 first in pairs
        # 15..19, and chunks of 10 sixth in pairs 10..19, which start in run 0.
        for chunk in (2, 5, 10):
            monkeypatch.setattr(bounds, "LOWER_CHUNK_PAIRS", chunk)
            with pytest.raises(bounds.PathError) as err:
                lower_bound(p, vg, cfg)
            assert f"(seed=6, run={r}, path={i}): {message}" in str(err.value)

    def test_lower_task_peak_per_leg(self, p_set1, vg_set1):
        # A whole 256-pair task (shocks, states and returns, one policy
        # lookup for all K stages, the wealth chain and the utilities):
        # measured 1.81 KB a leg.  The bound leaves about 10% margin; a
        # simulator that also holds asset-major copies of the clipped
        # decisions, and a lookup that gathers all n + 1 columns of nodal
        # values at once beside their slopes, measured 2.67 KB a leg and
        # breaks it.  A first call also allocates one-time state, so the
        # task runs once untraced.
        bounds._init_worker(p_set1, vg_set1, RunConfig(paths_per_run=256, runs=2, seed=5, gamma=1.5))
        assert bounds._lower_task((0, 256)).shape == (512,)
        tracemalloc.start()
        try:
            bounds._lower_task((0, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e3 * 512


class TestAssembleInner:
    def _setup(self, p, vg, seed=0, kind="m1"):
        policy = dp_solver.make_grid_policy(vg, p)
        sp = shock_path(p, seed, 0, 0)
        ctx = penalties.build_context(p, vg, policy, sp)
        form = penalties.penalty_form(kind, ctx, p)
        return ctx, form, assemble_inner(p, form, ctx)

    def test_start_point_is_strictly_feasible(self, p_set1, vg_set1):
        for seed in range(5):
            _, _, (oracle, cons, x0) = self._setup(p_set1, vg_set1, seed=seed)
            assert np.min(slack(cons, x0)) > 0.0
            assert np.isfinite(at_point(oracle.value, x0))

    def test_gradient_matches_finite_differences(self, p_set1, vg_set1):
        ctx, form, (oracle, cons, x0) = self._setup(p_set1, vg_set1, seed=2, kind="m2")
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(20):
            # random strictly feasible point built from admissible fractions
            x = _random_inner_point(rng, p_set1, ctx)
            g = at_point(oracle.gradient, x)
            for j in rng.choice(x.size, size=6, replace=False):
                e = np.zeros(x.size)
                e[j] = h
                fd = (at_point(oracle.value, x + e) - at_point(oracle.value, x - e)) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_objective_at_baseline_is_utility_minus_penalty(self, p_set1, vg_set1):
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        for seed in range(5):
            sp = shock_path(p_set1, seed, 0, 0)
            path = market.simulate_policy_path(p_set1, policy, sp)
            ctx = penalties.build_context(p_set1, vg_set1, policy, sp)
            form = penalties.penalty_form("m1", ctx, p_set1)
            oracle, cons, _ = assemble_inner(p_set1, form, ctx)
            x_base = np.concatenate([np.concatenate([ctx.Pi[k], [ctx.C[k]]]) for k in range(10)])
            direct = path_utility(p_set1, path.C, float(path.W[-1])) - form.evaluate(ctx.Pi, ctx.C)
            assert at_point(oracle.value, x_base) == pytest.approx(direct, rel=1e-11)

    def test_single_period_matches_grid_search(self):
        p = single_asset_params(gamma=1.5, K=1)
        vg = dp_solver.backward_recursion(p, grid=np.linspace(-2, 2, 5))
        policy = dp_solver.make_grid_policy(vg, p)
        for kind in ("zero", "m1"):
            for seed in (0, 1, 2):
                sp = shock_path(p, seed, 0, 0)
                ctx = penalties.build_context(p, vg, policy, sp)
                form = penalties.penalty_form(kind, ctx, p)
                oracle, cons, x0 = assemble_inner(p, form, ctx)
                sol = concave.maximize(oracle, cons, x0, tol=1e-8)
                assert sol.status == concave.STATUS_CONVERGED
                ref, _ = inner_objective_grid_search(p, form, ctx, step=1e-3)
                assert sol.f >= ref - 1e-12
                assert sol.f == pytest.approx(ref, abs=1e-4)

    def test_batch_rows_equal_their_one_leg_solves(self, p_set1, vg_set1):
        # Legs of several runs and all three penalty kinds in one batch,
        # each bit-identical to maximize(cons=(A, b, warm, duals)).
        p = p_set1
        policy = dp_solver.make_grid_policy(vg_set1, p)
        legs, kinds = [], []
        for j, (r, i) in enumerate([(0, 0), (0, 1), (1, 0), (2, 5), (3, 2), (3, 3)]):
            base = shock_path(p, 17, r, i)
            legs += [base, base.antithetic()]
            kinds += [penalties.PENALTY_KINDS[j % 3]] * 2
        ctxs = penalties.build_contexts(p, vg_set1, policy, np.array([sp.Z for sp in legs]),
                                        np.array([sp.Ztilde for sp in legs]))
        stacks = {kind: penalties.penalty_form(kind, ctxs, p) for kind in penalties.PENALTY_KINDS}
        forms = penalties.PenaltyForm(
            constant=np.array([stacks[kind].constant[i] for i, kind in enumerate(kinds)]),
            lin_Pi=np.array([stacks[kind].lin_Pi[i] for i, kind in enumerate(kinds)]),
            lin_C=np.array([stacks[kind].lin_C[i] for i, kind in enumerate(kinds)]))
        oracle, A, b, X0 = dual.assemble_inner_batch(p, forms, ctxs)
        assert A.shape == (12, 51, 40) and b.shape == (12, 51) and X0.shape == (12, 40)
        warm, duals, _ = dual._dual_plan(p, forms, ctxs)
        assert duals.shape == b.shape
        ends, at = _dual_search(p, forms, ctxs)
        batch = concave.maximize_batch(oracle, A, b, X0, tol=dual.INNER_TOL,
                                       max_newton=dual.INNER_MAX_NEWTON, warm=warm, duals=duals)
        for sp, kind, leg_warm, leg_duals, leg_start, leg_ends, leg_at, got in zip(
                legs, kinds, warm, duals, X0, ends.T, at.transpose(2, 0, 1), batch):
            ctx = penalties.build_context(p, vg_set1, policy, sp)
            form = penalties.penalty_form(kind, ctx, p)
            one_ends, one_at = _dual_search(p, penalties.as_stack(form), penalties.as_stack(ctx))
            assert np.array_equal(one_ends[:, 0], leg_ends) and np.array_equal(one_at[..., 0], leg_at)
            problem = assemble_inner(p, form, ctx)
            assert np.array_equal(problem[1][2], leg_warm, equal_nan=True)
            assert np.array_equal(problem[1][3], leg_duals, equal_nan=True)
            assert np.array_equal(problem[2], leg_start)
            one = concave.maximize(*problem, tol=dual.INNER_TOL, max_newton=dual.INNER_MAX_NEWTON)
            assert np.array_equal(got.x, one.x)
            assert (got.f, got.kkt_residual, got.iterations, got.status) == (
                one.f, one.kkt_residual, one.iterations, one.status)
            assert one.status == concave.STATUS_CONVERGED

    @pytest.mark.parametrize("kind, kb_per_leg", [("m1", 75), ("m2", 75), ("zero", 90)])
    def test_upper_chunk_solve_peak_per_leg(self, p_set1, vg_set1, kind, kb_per_leg):
        # The solver's per-leg temporaries on the dense inner problems that
        # the one-leg replay and the weak-duality tests solve.  On this batch
        # (16 pairs, 40-dim legs) the barrier from the interior start peaks
        # at about 62 KB a leg for each penalty, as much in its centring as in
        # its crossovers' face systems.  The dual search and the dense
        # certificate at the recovered optima with their multipliers take
        # about 7 KB.
        p, cfg = p_set1, RunConfig(paths_per_run=16, runs=2, seed=5, penalty_kind=kind, gamma=1.5)
        policy = dp_solver.make_grid_policy(vg_set1, p)
        ctxs = penalties.build_contexts(p, vg_set1, policy, *bounds._chunk_shocks(p, cfg, (0, 16)))
        forms = penalties.penalty_form(kind, ctxs, p)
        oracle, A, b, X0 = dual.assemble_inner_batch(p, forms, ctxs)
        assert len(X0) == 32
        # No plan, and the recovered optima with their multipliers.
        for use in (0, 2):
            tracemalloc.start()
            try:
                plan = dual._dual_plan(p, forms, ctxs) if use else ()
                concave.maximize_batch(oracle, A, b, X0, tol=dual.INNER_TOL, max_newton=dual.INNER_MAX_NEWTON,
                                       **dict(zip(("warm", "duals"), plan)))
                del plan
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= kb_per_leg * 1e3 * len(X0)

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_upper_task_stages_peak_per_leg(self, p_set1, vg_set1, kind):
        # A whole 64-pair task (shocks, contexts, forms, dual search,
        # recovered optima and multipliers, and the certificate, which
        # reads f and its gradient off the wealth chain): measured 5.1 KB a
        # leg for m1 and m2 and 5.0 KB for zero, the dual search's peak;
        # the certificate stays below it, and every leg certifies.  The
        # bound leaves about 18% margin.  A first call also allocates
        # one-time state, so the task runs once untraced.
        bounds._init_worker(p_set1, vg_set1, RunConfig(paths_per_run=64, runs=2, seed=5, penalty_kind=kind,
                                                       gamma=1.5))
        values, flagged = bounds._upper_task((0, 64))
        assert len(values) == 128 and flagged == 0
        tracemalloc.start()
        try:
            bounds._upper_task((0, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e3 * 128

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_forty_stage_task_peak_per_leg(self, forty_stage_grid, kind):
        # A whole task at K = 40 (D = 160), 16 pairs: measured 24.8 KB a leg
        # for m1 and m2 and 19.7 KB for zero, and every leg certifies.  The
        # bound leaves about 12% margin; a dense objective stack of
        # D (K + 2) floats a leg (54 KB) held for all of a task's legs, or
        # for a few at a time, breaks it.
        p, vg = forty_stage_grid
        bounds._init_worker(p, vg, RunConfig(paths_per_run=16, runs=2, seed=5, penalty_kind=kind, gamma=1.5))
        values, flagged = bounds._upper_task((0, 16))
        assert len(values) == 32 and flagged == 0
        tracemalloc.start()
        try:
            bounds._upper_task((0, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28e3 * 32


class TestInnerOracle:
    """`dual.inner_oracle`, the inner objective read off the wealth chain,
    at points near the `_dual_plan` optima of set-1 m1 and m2 legs."""

    @staticmethod
    def _legs(p, vg, kind, pairs=4):
        """(forms, ctxs, X) of the legs of flat pairs [0, pairs) at seed 5,
        X each leg's recovered optimum moved by up to 1% of each amount."""
        cfg = RunConfig(paths_per_run=pairs, runs=2, seed=5, penalty_kind=kind)
        ctxs = penalties.build_contexts(p, vg, dp_solver.make_grid_policy(vg, p),
                                        *bounds._chunk_shocks(p, cfg, (0, pairs)))
        forms = penalties.penalty_form(kind, ctxs, p)
        warm = dual._dual_plan(p, forms, ctxs)[0]
        rng = np.random.default_rng(9)
        return forms, ctxs, warm * rng.uniform(0.99, 1.01, warm.shape) + 1e-3 * rng.uniform(0.0, 1.0, warm.shape)

    @pytest.mark.parametrize("kind", ["m1", "m2"])
    def test_matches_utility_and_finite_differences(self, p_set1, vg_set1, kind):
        p = p_set1
        forms, ctxs, X = self._legs(p, vg_set1, kind)
        B, D = X.shape
        oracle, rows = dual.inner_oracle(p, forms, ctxs.R), np.arange(B)
        x = X.reshape(B, p.K, p.n + 1)
        Pi, C = x[..., :p.n], x[..., p.n]
        W = np.full(B, p.W0)
        for k in range(p.K):
            W = W * p.R_f + ((ctxs.R[:, k] - p.R_f) * Pi[:, k]).sum(axis=1) - C[:, k]
        f = oracle.value(X, rows)
        np.testing.assert_allclose(f, path_utility(p, C, W) - forms.evaluate(Pi, C), rtol=1e-13)
        g, H = oracle.gradient(X, rows), oracle.hessian(X, rows)
        h = 1e-7
        for j in range(D):
            e = np.zeros(D)
            e[j] = h
            fd = (oracle.value(X + e, rows) - oracle.value(X - e, rows)) / (2 * h)
            np.testing.assert_allclose(g[:, j], fd, rtol=1e-6, atol=1e-6)
            fd_g = (oracle.gradient(X + e, rows) - oracle.gradient(X - e, rows)) / (2 * h)
            np.testing.assert_allclose(H[:, :, j], fd_g, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("kind", ["m1", "m2"])
    def test_rows_equal_their_one_row_calls_and_leave_the_domain_alone(self, p_set1, vg_set1, kind):
        # Leg 2 consumes -1e-3 at stage 3 and leg 5 consumes all its wealth
        # and more at the last stage (W_K < 0): both evaluate to -inf, and
        # every other row, in any order and alone, keeps its bits.
        p = p_set1
        forms, ctxs, X = self._legs(p, vg_set1, kind)
        B, D = X.shape
        oracle = dual.inner_oracle(p, forms, ctxs.R)
        c_idx = np.arange(p.K) * (p.n + 1) + p.n
        X[2, c_idx[3]] = -1e-3
        X[5, c_idx[-1]] += 10.0
        rows = np.random.default_rng(3).permutation(B)
        with np.errstate(invalid="ignore"):  # legs 2 and 5 have no derivatives there
            f, g, H = (fn(X[rows], rows) for fn in (oracle.value, oracle.gradient, oracle.hessian))
        out = np.isin(rows, [2, 5])
        assert np.isneginf(f[out]).all() and np.isfinite(f[~out]).all()
        for at, i in enumerate(rows.tolist()):
            if i in (2, 5):
                continue
            one = dual.inner_oracle(p, penalties.take(forms, [i]), ctxs.R[i:i + 1])
            for oracle_i, row in ((oracle, np.array([i])), (one, np.array([0]))):
                assert oracle_i.value(X[i:i + 1], row)[0] == f[at]
                assert np.array_equal(oracle_i.gradient(X[i:i + 1], row)[0], g[at])
                assert np.array_equal(oracle_i.hessian(X[i:i + 1], row)[0], H[at])

    def test_a_call_with_no_points_returns_empty_arrays(self, p_set1, vg_set1):
        p = p_set1
        forms, ctxs, X = self._legs(p, vg_set1, "m2", pairs=1)
        oracle, D = dual.inner_oracle(p, forms, ctxs.R), X.shape[1]
        none, rows = np.empty((0, D)), np.empty(0, dtype=int)
        assert oracle.value(none, rows).shape == (0,)
        assert oracle.gradient(none, rows).shape == (0, D)
        assert oracle.hessian(none, rows).shape == (0, D, D)


def _upper_leg_by_leg(p, vg, cfg):
    """Run means and flagged count of a per-leg loop of shock_path ->
    build_context -> penalty_form -> assemble_inner -> maximize, in which a
    leg that does not certify at its warm point (0 Newton steps) takes G at
    its one-leg lam_K in place of its solve and is flagged."""
    policy = dp_solver.make_grid_policy(vg, p)
    run_means, flagged = [], 0
    for r in range(cfg.runs):
        vals = []
        for i in range(cfg.paths_per_run):
            base = shock_path(p, cfg.seed, r, i)
            for sp in (base, base.antithetic()):
                ctx = penalties.build_context(p, vg, policy, sp)
                form = penalties.penalty_form(cfg.penalty_kind, ctx, p)
                sol = concave.maximize(*assemble_inner(p, form, ctx), tol=dual.INNER_TOL,
                                       max_newton=dual.INNER_MAX_NEWTON)
                if sol.iterations == 0 and sol.status == concave.STATUS_CONVERGED:
                    vals.append(sol.f)
                else:
                    form, ctx = penalties.as_stack(form), penalties.as_stack(ctx)
                    vals.append(float(_dual_value(p, form, ctx, dual._dual_plan(p, form, ctx)[2])[0]))
                    flagged += 1
        run_means.append(float(np.mean(vals)))
    return run_means, flagged


class TestWorkerPool:
    def test_pool_is_no_larger_than_the_task_list(self, p_set1, vg_set1, monkeypatch):
        # A stand-in executor records its size and runs the tasks in this process.
        sizes = []

        class InProcess:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        cfg = RunConfig(paths_per_run=3, runs=3, seed=8, gamma=1.5)
        serial = lower_bound(p_set1, vg_set1, cfg).run_means
        est = lower_bound(p_set1, vg_set1, cfg, workers=64)  # one task of 9 pairs: no pool
        assert sizes == []
        assert np.array_equal(est.run_means, serial)
        monkeypatch.setattr(bounds, "LOWER_CHUNK_PAIRS", 1)
        est = lower_bound(p_set1, vg_set1, cfg, workers=64)
        assert sizes == [9]
        assert np.array_equal(est.run_means, serial)
        cfg = RunConfig(paths_per_run=2, runs=2, seed=8, penalty_kind="zero", gamma=1.5)
        upper_bound(p_set1, vg_set1, cfg, workers=64)  # one task of 4 pairs: no pool
        assert sizes == [9]
        monkeypatch.setattr(bounds, "UPPER_TASK_PAIRS", 1)
        upper_bound(p_set1, vg_set1, cfg, workers=64)
        assert sizes == [9, 4]


def _coarse_grid(p):
    """p and its grid solved on 5 nodes with 3 quadrature points a dimension."""
    return p, dp_solver.backward_recursion(p, grid=np.linspace(-2.0, 2.0, 5), quad=dp_solver.build_quadrature(3, p.n))


def _root_weights(p):
    """The utility weights to the power 1/gamma, as `_floor_chain` takes them."""
    return dual._utility_weights(p) ** (1.0 / p.gamma)


def _dual_search(p, forms, ctxs):
    """`dual._dual_search` of a stack of legs: (ends, at)."""
    return dual._dual_search(p, dual._candidate_lines(p, forms, ctxs), forms, _root_weights(p))


def _sides(p, forms, ctxs, e):
    """Where each leg's lam_K lies against the breakpoint e between the two
    pieces its search keeps, read off G' (`dual._floor_chain`) just below
    and just above e: "low" in the low piece, "high" in the high piece,
    "tie" at e where G' jumps across 0, and "one" where the leg has no
    breakpoint (e = inf)."""
    lines, w = dual._candidate_lines(p, forms, ctxs), _root_weights(p)
    at = np.where(e < np.inf, e, 1.0)
    below, above = (dual._floor_chain(p, lines, forms.lin_C, forms.constant, w, at * factor)[1]
                    for factor in (1.0 - 1e-9, 1.0 + 1e-9))
    return np.select([e == np.inf, below >= 0.0, above < 0.0], ["one", "low", "high"], "tie")


def _dual_value(p, forms, ctxs, lam_K):
    """G of `dual._floor_chain` at lam_K, where lam_K is finite and
    positive, and at 1 elsewhere: any lam_K > 0 bounds the inner maximum."""
    lam_K = np.where((lam_K > 0.0) & (lam_K < np.inf), lam_K, 1.0)
    return dual._floor_chain(p, dual._candidate_lines(p, forms, ctxs), forms.lin_C, forms.constant,
                               _root_weights(p), lam_K)[0]


@pytest.fixture(scope="module")
def forty_stage_grid(p_set1):
    """Set 1 at K = 40 (delta 0.025, inner dimension D = 160) and its grid
    solved on 5 nodes."""
    p = dataclasses.replace(p_set1, K=40, delta=1 / 40)
    return p, dp_solver.backward_recursion(p, grid=np.linspace(-2.0, 2.0, 5))


@pytest.fixture(scope="module")
def small_gross_riskfree_rate():
    # R_f = 1 + r_f delta = 5e-4 on a 5-node grid: consumption of about 2e-4
    # makes the inner problems badly scaled (gradients about 1.5e4).
    data = market.parameter_set(1, gamma=1.5).to_dict()
    data.update(r_f=-9.995, K=2)
    return _coarse_grid(market.ModelParams.from_dict(data))


def _withhold_plans(monkeypatch):
    """Withhold the recovered optimum and multipliers (NaN) of every leg
    whose first normal draw is positive, one leg of each antithetic pair,
    in `dual._dual_plan`, whose N = 1 call `assemble_inner` makes too;
    each leg keeps its lam_K.  Which legs lose their plan depends only on
    each leg, so such a leg misses the certificate in its task and in its
    one-leg solve alike, and reports G at its lam_K."""
    plan = dual._dual_plan

    def withheld(p, forms, ctxs):
        warm, duals, lam_K = plan(p, forms, ctxs)
        miss = ctxs.Z[:, 0, 0] > 0.0
        warm[miss], duals[miss] = np.nan, np.nan
        return warm, duals, lam_K

    monkeypatch.setattr(dual, "_dual_plan", withheld)


@pytest.fixture(scope="module")
def upper_reference(p_set1, vg_set1):
    """Run means and flagged count of `_upper_leg_by_leg`, per penalty, for
    10 pairs x 2 runs at seed 33, with the plans of `_withhold_plans`
    withheld."""
    cache = {}

    def reference(cfg):
        if cfg not in cache:
            with pytest.MonkeyPatch.context() as patched:
                _withhold_plans(patched)
                cache[cfg] = _upper_leg_by_leg(p_set1, vg_set1, cfg)
        return cache[cfg]
    return reference


def _record_upper_spans(monkeypatch):
    """Record each task's span of `upper_bound`."""
    spans, task = [], bounds._upper_task
    monkeypatch.setattr(bounds, "_upper_task", lambda span: spans.append(span) or task(span))
    return spans


class TestUpperBound:
    @pytest.mark.parametrize("penalty", ["m1", "zero"])
    @pytest.mark.parametrize("task_pairs, spans", [
        # Tasks of 6 pairs: the run boundary at pair 10 lies inside the task
        # [6, 12), and the last task, [18, 20), is shorter than the others.
        (6, [(0, 6), (6, 12), (12, 18), (18, 20)]),
        # Tasks of 8 pairs: the second task straddles the run boundary.
        (8, [(0, 8), (8, 16), (16, 20)]),
        # The default size: one task.
        (bounds.UPPER_TASK_PAIRS, [(0, 20)]),
        # One task, shorter than its 32 pairs.
        (32, [(0, 20)]),
    ], ids=["task6", "task8", "default-size", "task32"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_means_equal_single_leg_recomputation(self, p_set1, vg_set1, upper_reference, monkeypatch,
                                                      penalty, task_pairs, spans, workers):
        # Half the legs miss the certificate (`_withhold_plans`) and report
        # G at their lam_K; the other half are certified in their task.
        # Every leg equals its one-leg value whatever its task, and each
        # missed leg is flagged.
        monkeypatch.setattr(bounds, "UPPER_TASK_PAIRS", task_pairs)
        _withhold_plans(monkeypatch)   # a forked worker inherits the patch
        cfg = RunConfig(paths_per_run=10, runs=2, seed=33, penalty_kind=penalty, gamma=1.5)
        # The recorder runs in this process only; a pool pickles its task by name.
        recorded = _record_upper_spans(monkeypatch) if workers == 1 else spans
        est = upper_bound(p_set1, vg_set1, cfg, workers=workers)
        run_means, flagged = upper_reference(cfg)
        assert np.array_equal(est.run_means, run_means)
        assert est.flagged_paths == flagged == 20
        assert est.total_paths == 40
        assert recorded == spans

    def test_task_size_scales_with_the_inner_dimension(self, p_set1, vg_set1, forty_stage_grid, monkeypatch):
        # At K = 10 (D = 40) a task spans 64 pairs, at K = 40 (D = 160) 16.
        # With the plans of one leg a pair withheld, every leg's value is
        # still its own, so the run means equal those of one task for all
        # the legs.
        p40, vg40 = forty_stage_grid
        assert bounds._upper_task_pairs(p_set1) == bounds.UPPER_TASK_PAIRS == 64
        assert bounds._upper_task_pairs(p40) == 16
        _withhold_plans(monkeypatch)
        for p, vg, pairs, spans in (
                (p_set1, vg_set1, (40, 2), [(0, 64), (64, 80)]),
                (p40, vg40, (9, 2), [(0, 16), (16, 18)])):
            cfg = RunConfig(paths_per_run=pairs[0], runs=pairs[1], seed=5, penalty_kind="m1", gamma=1.5)
            with monkeypatch.context() as patched:
                recorded = _record_upper_spans(patched)
                tasked = upper_bound(p, vg, cfg)
                assert recorded == spans and tasked.flagged_paths == pairs[0] * pairs[1]
            with monkeypatch.context() as patched:
                patched.setattr(bounds, "UPPER_TASK_PAIRS", 1000)
                recorded = _record_upper_spans(patched)
                assert np.array_equal(upper_bound(p, vg, cfg).run_means, tasked.run_means)
                assert recorded == [(0, 2 * pairs[0])]

    def test_path_error_names_first_failing_path_inside_a_chunk(self, monkeypatch):
        p = market.parameter_set(1)
        vg = _wealth_emptying_grid(p)
        cfg = RunConfig(paths_per_run=12, runs=3, seed=6)
        policy = dp_solver.make_grid_policy(vg, p)

        def first_failure():
            for r in range(cfg.runs):
                for i in range(cfg.paths_per_run):
                    base = shock_path(p, cfg.seed, r, i)
                    for sp in (base, base.antithetic()):
                        try:
                            penalties.build_context(p, vg, policy, sp)
                        except market.AdmissibilityError as exc:
                            return r, i, str(exc)

        r, i, message = first_failure()
        monkeypatch.setattr(bounds, "UPPER_TASK_PAIRS", 8)
        assert (r, i) == (1, 3)  # flat pair 15, the last of its task [8, 16)
        with pytest.raises(bounds.PathError) as err:
            upper_bound(p, vg, cfg)
        assert f"upper-bound path failed (seed=6, run={r}, path={i}): {message}" in str(err.value)

    def test_leg_without_a_finite_dual_value_raises_path_error_naming_it(self, p_set1, vg_set1, monkeypatch):
        # Tasks of 6 pairs: the second task holds flat pairs [6, 12), and
        # pair 9 is (run, path) (1, 4).  Its antithetic leg's
        # whole plan is withheld, lam_K too, so it misses the certificate
        # and its G is not finite; every other leg certifies.
        named = -shock_path(p_set1, 7, 1, 4).Z
        plan = dual._dual_plan

        def withheld(p, forms, ctxs):
            warm, duals, lam_K = plan(p, forms, ctxs)
            miss = (ctxs.Z == named).all(axis=(1, 2))
            warm[miss], duals[miss], lam_K[miss] = np.nan, np.nan, np.nan
            return warm, duals, lam_K

        monkeypatch.setattr(dual, "_dual_plan", withheld)
        monkeypatch.setattr(bounds, "UPPER_TASK_PAIRS", 6)
        cfg = RunConfig(paths_per_run=5, runs=3, seed=7, penalty_kind="m1", gamma=1.5)
        with pytest.raises(bounds.PathError, match=r"upper-bound path failed \(seed=7, run=1, path=4\): "
                                                   r"the inner problem's dual value is not finite"):
            upper_bound(p_set1, vg_set1, cfg)

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_missed_leg_reports_its_one_leg_dual_value(self, p_set1, vg_set1, monkeypatch, kind):
        # One leg of each pair misses the certificate (`_withhold_plans`)
        # and reports G at its lam_K: bit for bit its one-leg value, at least
        # a tight cold barrier solve's f less 1e-12 |f| and within 1e-12 |f|
        # of it, and flagged.  The other legs keep their certified f bit for
        # bit.  The bound builds no dense problem and calls no solver.
        p, cfg = p_set1, RunConfig(paths_per_run=16, runs=2, seed=5, penalty_kind=kind, gamma=1.5)
        bounds._init_worker(p, vg_set1, cfg)
        certified, flagged = bounds._upper_task((0, 32))
        assert flagged == 0
        _withhold_plans(monkeypatch)
        with monkeypatch.context() as patched:
            def refuse(name):
                def called(*args, **kwargs):
                    raise AssertionError(f"upper_bound called {name}")
                return called

            patched.setattr(dual, "assemble_inner_batch", refuse("assemble_inner_batch"))
            patched.setattr(concave, "maximize_batch", refuse("maximize_batch"))
            est = upper_bound(p, vg_set1, cfg)
            values, flagged = bounds._upper_task((0, 32))
        values = np.array(values)
        assert est.flagged_paths == flagged == 32
        assert np.array_equal(est.run_means, [np.mean(values[:32]), np.mean(values[32:])])
        ctxs = penalties.build_contexts(p, vg_set1, dp_solver.make_grid_policy(vg_set1, p),
                                        *bounds._chunk_shocks(p, cfg, (0, 32)))
        forms = penalties.penalty_form(kind, ctxs, p)
        miss = ctxs.Z[:, 0, 0] > 0.0
        assert np.array_equal(values[~miss], np.array(certified)[~miss])
        for leg in np.flatnonzero(miss):
            form, ctx = penalties.take(forms, [leg]), penalties.take(ctxs, [leg])
            assert values[leg] == _dual_value(p, form, ctx, dual._dual_plan(p, form, ctx)[2])[0]
        oracle, A, b, X0 = dual.assemble_inner_batch(p, forms, ctxs)
        cold = concave.maximize_batch(oracle, A, b, X0, tol=1e-10, max_newton=dual.INNER_MAX_NEWTON)
        assert all(sol.status == concave.STATUS_CONVERGED for sol in cold)
        G, f = values[miss], np.array([sol.f for sol in cold])[miss]
        assert (G >= f - 1e-12 * np.abs(f)).all() and (np.abs(G - f) <= 1e-12 * np.abs(f)).all()

    @pytest.mark.parametrize("gamma, kind", [(3.0, "m2"), (5.0, "m1")])
    def test_published_size_set1_flags_no_leg(self, solved_grid, gamma, kind):
        # Set 1 at 30 pairs x 10 runs, seed 42: each of these flagged one leg
        # whose guessed crossover faces (near-active slack cut) all failed.
        p, vg = solved_grid(1, gamma)
        cfg = RunConfig(paths_per_run=30, runs=10, seed=42, penalty_kind=kind, gamma=gamma, parameter_set_id=1)
        assert upper_bound(p, vg, cfg).flagged_paths == 0

    @pytest.mark.parametrize("sid", [2, 4])
    def test_published_size_gamma3_m2_flags_no_leg(self, solved_grid, sid):
        # Sets 2 and 4 at 30 pairs x 10 runs, seed 42: each once held a leg
        # that flagged on the barrier path.  Those legs now certify from their
        # dual-recovered warm points; the cold-path test below reaches them.
        p, vg = solved_grid(sid, 3.0)
        cfg = RunConfig(paths_per_run=30, runs=10, seed=42, penalty_kind="m2", gamma=3.0, parameter_set_id=sid)
        assert upper_bound(p, vg, cfg).flagged_paths == 0

    @pytest.mark.parametrize("sid", [2, 4])
    def test_published_size_gamma3_m2_cold_path_flags_no_leg(self, solved_grid, monkeypatch, sid):
        # The same legs' dense inner problems solved without warm points, so
        # that each runs the barrier from its interior start, 16 pairs at a
        # time.  Each set holds one leg whose last barrier stages reach a
        # rounding-level Newton decrement while Newton still contracts;
        # stopping there, without `_center`'s contraction guard, flags it.
        # `upper_bound` never runs the barrier, so this is the barrier's test
        # at the inner dimension D = 40.
        face_newton, faces = concave._face_newton, []

        def counted_faces(oracle, A, *args):
            faces.append(A.shape[2])
            return face_newton(oracle, A, *args)

        monkeypatch.setattr(concave, "_face_newton", counted_faces)
        p, vg = solved_grid(sid, 3.0)
        cfg = RunConfig(paths_per_run=30, runs=10, seed=42, penalty_kind="m2", gamma=3.0, parameter_set_id=sid)
        policy, sols = dp_solver.make_grid_policy(vg, p), []
        for span in bounds._spans(cfg, 16):
            ctxs = penalties.build_contexts(p, vg, policy, *bounds._chunk_shocks(p, cfg, span))
            sols += concave.maximize_batch(*dual.assemble_inner_batch(p, penalties.penalty_form("m2", ctxs, p), ctxs),
                                           tol=dual.INNER_TOL, max_newton=dual.INNER_MAX_NEWTON)
        assert len(sols) == 600 and all(sol.status == concave.STATUS_CONVERGED for sol in sols)
        assert min(sol.iterations for sol in sols) > 0
        assert faces and set(faces) == {p.K * (p.n + 1)}

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_small_gross_riskfree_rate_flags_no_leg(self, small_gross_riskfree_rate, kind):
        # Badly scaled legs: one whose crossovers all fail depends on the
        # barrier-KKT test of the t_cap stage.
        p, vg = small_gross_riskfree_rate
        est = upper_bound(p, vg, RunConfig(paths_per_run=4, runs=2, seed=1, penalty_kind=kind))
        assert est.total_paths == 16
        assert est.flagged_paths == 0

    @pytest.mark.parametrize("kind", ["m1", "zero"])
    def test_small_gross_riskfree_rate_over_ten_stages_certifies_without_a_start(self, kind):
        # Set 1 at R_f = 5e-4 and K = 10: the grid policy spends its whole
        # bond budget, so the interior start of most legs is not strictly
        # feasible (24 of these 32).  Every leg still certifies at its
        # recovered optimum, which is checked before the start, and equals
        # its one-leg solve.
        data = market.parameter_set(1, gamma=1.5).to_dict()
        data.update(r_f=-9.995)
        p = market.ModelParams.from_dict(data)
        assert p.K == 10
        vg = dp_solver.backward_recursion(p)
        cfg = RunConfig(paths_per_run=8, runs=2, seed=42, penalty_kind=kind)
        ctxs = penalties.build_contexts(p, vg, dp_solver.make_grid_policy(vg, p), *bounds._chunk_shocks(p, cfg, (0, 16)))
        _, A, b, X0 = dual.assemble_inner_batch(p, penalties.penalty_form(kind, ctxs, p), ctxs)
        assert ((b - concave.stacked_matvec(A, X0)).min(axis=1) <= 0.0).sum() >= 16
        est = upper_bound(p, vg, cfg)
        run_means, flagged = _upper_leg_by_leg(p, vg, cfg)
        assert est.flagged_paths == flagged == 0
        assert np.array_equal(est.run_means, run_means)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_at_either_end_certifies_every_leg(self, p_set1, monkeypatch, alpha):
        # At alpha 0 (alpha 1) the consumption (bequest) amounts carry no
        # utility and sit on their floor AMOUNT_FLOOR, whose rows take the
        # prices of those amounts as multipliers; every leg certifies at its
        # dual-recovered optimum, with no Newton step and no face Newton
        # call.  Its f is at least the barrier's from the interior start, to
        # 1e-10 relative (the barrier accepts W_K up to 1e-10 under its
        # floor), and at most G at the ends of the two pieces its search
        # keeps.
        p = dataclasses.replace(p_set1, alpha=alpha)
        vg = dp_solver.backward_recursion(p)
        face_newton, faces = concave._face_newton, []

        def counted_faces(*args):
            faces.append(args)
            return face_newton(*args)

        monkeypatch.setattr(concave, "_face_newton", counted_faces)
        for kind in penalties.PENALTY_KINDS:
            cfg = RunConfig(paths_per_run=16, runs=2, seed=5, penalty_kind=kind, gamma=1.5)
            est = upper_bound(p, vg, cfg)
            assert est.total_paths == 64 and est.flagged_paths == 0 and not faces
            ctxs = penalties.build_contexts(p, vg, dp_solver.make_grid_policy(vg, p),
                                            *bounds._chunk_shocks(p, cfg, (0, 32)))
            forms = penalties.penalty_form(kind, ctxs, p)
            oracle, A, b, X0 = dual.assemble_inner_batch(p, forms, ctxs)
            warm, duals, _ = dual._dual_plan(p, forms, ctxs)
            sols = concave.maximize_batch(oracle, A, b, X0, tol=dual.INNER_TOL,
                                          max_newton=dual.INNER_MAX_NEWTON, warm=warm, duals=duals)
            assert [(sol.status, sol.iterations) for sol in sols] == [(concave.STATUS_CONVERGED, 0)] * 64
            assert not faces
            f = np.array([sol.f for sol in sols])
            assert np.array_equal(est.run_means, [np.mean(f[:32]), np.mean(f[32:])])
            cold = concave.maximize_batch(oracle, A, b, X0, tol=dual.INNER_TOL, max_newton=dual.INNER_MAX_NEWTON)
            assert all(sol.status == concave.STATUS_CONVERGED for sol in cold)
            assert (f >= np.array([sol.f for sol in cold]) - 1e-10 * np.abs(f)).all()
            for lam_K in _dual_search(p, forms, ctxs)[0]:
                assert (f <= _dual_value(p, forms, ctxs, lam_K)).all()
            faces.clear()

    def test_forty_stage_bounds_do_not_depend_on_the_blas_thread_count(self):
        # Set 1 at K = 40 (inner dimension D = 160): the grid and the m1, m2
        # and zero bounds of 8 pairs x 2 runs, seed 5, run in a process with
        # one OpenBLAS thread and in one with two.  Every leg certifies at
        # its dual-recovered optimum and makes no D = 160 LAPACK call, so
        # the bytes agree.
        script = (
            "import dataclasses, hashlib\n"
            "from dualbound import bounds, dp_solver, market\n"
            "p = market.parameter_set(1, gamma=1.5)\n"
            "p = dataclasses.replace(p, K=40, delta=1 / 40)\n"
            "vg = dp_solver.backward_recursion(p)\n"
            "h = hashlib.sha256(vg.J.tobytes())\n"
            "for kind in ('m1', 'm2', 'zero'):\n"
            "    cfg = bounds.RunConfig(paths_per_run=8, runs=2, seed=5, penalty_kind=kind, gamma=1.5)\n"
            "    est = bounds.upper_bound(p, vg, cfg)\n"
            "    assert est.flagged_paths == 0\n"
            "    h.update(est.run_means.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = str(Path(bounds.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src] + [q for q in [os.environ.get("PYTHONPATH")] if q]))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    def test_gamma20_upper_bounds_flag_no_leg_and_exceed_the_lower_bound(self, solved_grid):
        # At gamma 20 the crossover from the recovered optima certified
        # almost no leg and the barrier flagged them, which put the m1
        # "upper" bound below the lower bound; the dual's own multipliers
        # certify every leg.
        p, vg = solved_grid(1, 20.0)
        lo = lower_bound(p, vg, RunConfig(paths_per_run=30, runs=4, seed=42, gamma=20.0))
        for kind in penalties.PENALTY_KINDS:
            up = upper_bound(p, vg, RunConfig(paths_per_run=16, runs=4, seed=42, penalty_kind=kind, gamma=20.0))
            assert up.flagged_paths == 0
            assert up.ce_mean > lo.ce_mean

    @pytest.mark.parametrize("case", ["gamma 20", "K 20", "K 40", "R_f 5e-4", "alpha 0", "alpha 1"])
    def test_every_leg_certifies_with_no_newton_step(self, p_set1, solved_grid, small_gross_riskfree_rate,
                                                     monkeypatch, case):
        # The exact dual search across the configurations that stretch it:
        # high risk aversion, longer floor chains (47-85 pieces a leg at
        # K = 40 against 12-25 at K = 10), the R_f = 5e-4 legs that reach the
        # outermost pieces, and amounts without utility on their floors.  Every leg of every
        # penalty certifies at its recovered optimum in its task's certificate
        # pass, so no leg is flagged and none takes a Newton step.
        name, value = case.split()
        if name == "gamma":
            p, vg = solved_grid(1, 20.0)
        elif name == "R_f":
            p, vg = small_gross_riskfree_rate
        else:
            p = dataclasses.replace(p_set1, **({"K": int(value), "delta": 1.0 / int(value)} if name == "K"
                                               else {"alpha": float(value)}))
            vg = dp_solver.backward_recursion(p)
        spans = _record_upper_spans(monkeypatch)
        pairs = 8 if p.K == 40 else 16
        for kind in penalties.PENALTY_KINDS:
            est = upper_bound(p, vg, RunConfig(paths_per_run=pairs, runs=2, seed=7, penalty_kind=kind))
            assert est.total_paths == 4 * pairs and est.flagged_paths == 0
        assert len(spans) == 3

    def test_exceeds_lower_bound_statistically(self, p_set1, vg_set1):
        lo = lower_bound(p_set1, vg_set1, RunConfig(paths_per_run=30, runs=4, seed=3, gamma=1.5))
        for kind in ("zero", "m1", "m2"):
            cfg = RunConfig(paths_per_run=6, runs=4, seed=3, penalty_kind=kind, gamma=1.5)
            up = upper_bound(p_set1, vg_set1, cfg)
            combined = 3.0 * np.hypot(lo.stderr, up.stderr)
            assert up.mean >= lo.mean - combined
            assert up.flagged_paths == 0

    def test_pathwise_foresight_dominance_zero_penalty(self, p_set1, vg_set1):
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        for seed in range(10):
            sp = shock_path(p_set1, seed, 0, 0)
            path = market.simulate_policy_path(p_set1, policy, sp)
            realized = path_utility(p_set1, path.C, float(path.W[-1]))
            ctx = penalties.build_context(p_set1, vg_set1, policy, sp)
            form = penalties.penalty_form("zero", ctx, p_set1)
            oracle, cons, x0 = assemble_inner(p_set1, form, ctx)
            sol = concave.maximize(oracle, cons, x0, tol=1e-6)
            assert sol.f >= realized - 1e-9

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_every_leg_is_at_least_its_baseline_objective(self, p_set1, vg_set1, kind):
        # The baseline decisions are feasible in their leg's inner problem,
        # so its optimum f is at least utility(baseline) - M(baseline), up to
        # rounding, on every leg.
        # The legs are solved here from their plans as one batch, and their
        # optima give the bound's run means.
        cfg = RunConfig(paths_per_run=4, runs=2, seed=11, penalty_kind=kind, gamma=1.5)
        est = upper_bound(p_set1, vg_set1, cfg)
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        Z, Ztilde = bounds._chunk_shocks(p_set1, cfg, (0, 8))
        ctxs = penalties.build_contexts(p_set1, vg_set1, policy, Z, Ztilde)
        forms = penalties.penalty_form(kind, ctxs, p_set1)
        warm, duals, _ = dual._dual_plan(p_set1, forms, ctxs)
        sols = concave.maximize_batch(*dual.assemble_inner_batch(p_set1, forms, ctxs), tol=dual.INNER_TOL,
                                      max_newton=dual.INNER_MAX_NEWTON, warm=warm, duals=duals)
        f = np.array([sol.f for sol in sols])
        assert f.size == est.total_paths == 16
        assert np.array_equal(est.run_means, [np.mean(f[:8]), np.mean(f[8:])])
        path = market.simulate_paths(p_set1, policy, Z, Ztilde)
        M = forms.evaluate(path.Pi, path.C)
        utility = path_utility(p_set1, path.C, path.W[:, -1])
        assert np.all(f >= utility - M - 1e-12 * (1.0 + np.abs(utility) + np.abs(M)))

    def test_reproducible_across_worker_counts(self, p_set1, vg_set1):
        cfg = RunConfig(paths_per_run=3, runs=2, seed=8, penalty_kind="m1", gamma=1.5)
        serial = upper_bound(p_set1, vg_set1, cfg, workers=1)
        parallel = upper_bound(p_set1, vg_set1, cfg, workers=2)
        assert np.array_equal(serial.run_means, parallel.run_means)

    def test_antithetic_off_agrees_within_noise(self, p_set1, vg_set1):
        on = upper_bound(p_set1, vg_set1,
                         RunConfig(paths_per_run=10, runs=4, seed=9, penalty_kind="m1",
                                   antithetic=True, gamma=1.5))
        off = upper_bound(p_set1, vg_set1,
                          RunConfig(paths_per_run=20, runs=4, seed=10, penalty_kind="m1",
                                    antithetic=False, gamma=1.5))
        assert on.total_paths == off.total_paths
        assert abs(on.mean - off.mean) <= 3.0 * np.hypot(on.stderr, off.stderr)


class TestDualFace:
    """The 1-D Lagrangian dual of the inner problem (`dual._floor_chain`),
    whose search over the pieces between its breakpoints
    (`dual._breakpoints`, `dual._dual_search`) gives each leg the primal
    optimum it recovers (`dual._dual_plan`), the warm point of its inner
    solve."""

    @staticmethod
    def _chunk(p, vg, kind, seed, pairs):
        """The legs of flat pairs [0, pairs), posed as `upper_bound` poses
        them: (forms, ctxs, (oracle, A, b, X0)) with the interior start X0."""
        cfg = RunConfig(paths_per_run=pairs, runs=2, seed=seed, penalty_kind=kind)
        policy = dp_solver.make_grid_policy(vg, p)
        ctxs = penalties.build_contexts(p, vg, policy, *bounds._chunk_shocks(p, cfg, (0, pairs)))
        forms = penalties.penalty_form(kind, ctxs, p)
        return forms, ctxs, dual.assemble_inner_batch(p, forms, ctxs)

    @staticmethod
    def _check_weak_duality(p, vg, kind, seed, pairs):
        """Solve the legs of flat pairs [0, pairs) as `upper_bound` does and
        check that G at the ends of the two pieces each leg's search keeps and
        at a random lam_K is at least its certified optimum.  Check that every leg with a
        recovered point certifies it by its multipliers, with 0 Newton steps
        and an f within 1e-13 relative of the crossover's from that point
        (`helpers.warm_solve`), and that the point is within 1e-8 of the
        crossover's optimum relative to its largest coordinate.  Returns the
        legs that have one."""
        forms, ctxs, (oracle, A, b, X0) = TestDualFace._chunk(p, vg, kind, seed, pairs)
        warm, duals, _ = dual._dual_plan(p, forms, ctxs)
        sols = concave.maximize_batch(oracle, A, b, X0, tol=dual.INNER_TOL, max_newton=dual.INNER_MAX_NEWTON,
                                      warm=warm, duals=duals)
        crossed = warm_solve(oracle, A, b, X0, warm, dual.INNER_TOL)
        assert [sol.status for sol in sols] == [concave.STATUS_CONVERGED] * 2 * pairs
        assert [sol.status for sol in crossed] == [concave.STATUS_CONVERGED] * 2 * pairs
        f, f_crossed = np.array([sol.f for sol in sols]), np.array([sol.f for sol in crossed])
        ends = _dual_search(p, forms, ctxs)[0]
        assert (ends[0] < ends[1]).all() and (ends[1] <= ends[2]).all()
        rng = np.random.default_rng(seed)
        for lam_K in (*ends, np.where(ends[1] < np.inf, ends[1], 1.0) * np.exp(rng.uniform(-2.0, 2.0, f.size))):
            assert (_dual_value(p, forms, ctxs, lam_K) >= f - 1e-12 * np.abs(f)).all()
        used = np.isfinite(warm).all(axis=1)
        assert (np.isnan(warm) == ~used[:, None]).all() and (np.isnan(duals) == ~used[:, None]).all()
        steps = np.array([sol.iterations for sol in sols])
        assert (steps[used] == 0).all()
        assert np.array_equal(np.array([sol.x for sol in sols])[used], warm[used])
        assert (np.abs(f - f_crossed) <= 1e-13 * np.abs(f_crossed))[used].all()
        x = np.array([sol.x for sol in crossed])
        assert (np.abs(warm - x).max(axis=1) <= 1e-8 * np.abs(x).max(axis=1))[used].all()
        return used

    @pytest.mark.parametrize("gamma", [1.5, 3.0, 5.0])
    @pytest.mark.parametrize("sid", [1, 2, 3, 4])
    def test_dual_bounds_every_certified_optimum(self, solved_grid, sid, gamma):
        p, vg = solved_grid(sid, gamma)
        for kind in penalties.PENALTY_KINDS:
            assert self._check_weak_duality(p, vg, kind, seed=sid, pairs=4).all()

    def test_dual_bounds_the_optimum_at_a_small_riskfree_rate(self, small_gross_riskfree_rate):
        p, vg = small_gross_riskfree_rate
        for kind in penalties.PENALTY_KINDS:
            assert self._check_weak_duality(p, vg, kind, seed=1, pairs=4).all()

    def test_dual_bounds_the_optimum_of_a_twenty_stage_leg(self):
        data = market.parameter_set(1, gamma=3.0).to_dict()
        data.update(K=20)
        p, vg = _coarse_grid(market.ModelParams.from_dict(data))
        for kind in penalties.PENALTY_KINDS:
            assert self._check_weak_duality(p, vg, kind, seed=2, pairs=2).all()

    def test_tied_legs_start_at_their_optimum(self, p_set1, vg_set1):
        # A leg whose G' jumps across 0 at the breakpoint between its two
        # pieces has lam_K there and splits the stage whose candidate changes
        # between the two candidates.
        forms, ctxs, _ = self._chunk(p_set1, vg_set1, "m1", 5, 16)
        ends, at = _dual_search(p_set1, forms, ctxs)
        assert ((at[0] != at[1]).sum(axis=0) == 1).all()
        tied = _sides(p_set1, forms, ctxs, ends[1]) == "tie"
        assert tied.sum() >= 8
        used = self._check_weak_duality(p_set1, vg_set1, "m1", seed=5, pairs=16)
        assert used[tied].all()

    @pytest.mark.parametrize("kind", ["m1", "m2"])
    def test_breakpoints_are_where_the_maximal_candidates_change(self, p_set1, vg_set1, kind):
        # On 2,000 log-spaced lam_K from a tenth of each leg's first
        # breakpoint to ten times its last, `_floor_chain` marks other
        # maximal candidates only across a breakpoint, and just below and
        # just above each breakpoint it marks different ones.
        p = p_set1
        forms, ctxs, _ = self._chunk(p, vg_set1, kind, 5, 4)
        lines, w = dual._candidate_lines(p, forms, ctxs), _root_weights(p)
        edge = dual._breakpoints(lines)[0]
        assert edge.shape == (8, p.K * p.n + 2)

        def top(leg, lam_K):
            rows = np.full(lam_K.size, leg)
            return dual._floor_chain(p, (lines[0][..., rows], lines[1][..., rows]), forms.lin_C[rows],
                                       forms.constant[rows], w, lam_K)[2]

        for leg, row in enumerate(edge):
            e = row[1:][row[1:] < np.inf]
            assert e.size >= 10 and (np.diff(e) > 0.0).all()
            grid = np.geomspace(e[0] / 10.0, e[-1] * 10.0, 2000)
            tops = top(leg, grid)
            changes = np.flatnonzero((tops[1:] != tops[:-1]).any(axis=(1, 2)))
            crossed = np.searchsorted(e, grid[changes + 1]) - np.searchsorted(e, grid[changes])
            assert changes.size and (crossed >= 1).all()
            assert (top(leg, e * (1.0 - 1e-9)) != top(leg, e * (1.0 + 1e-9))).any(axis=(1, 2)).all()

    def test_outermost_pieces_ties_and_single_pieces_certify(self, p_set1, vg_set1, small_gross_riskfree_rate):
        # The outermost pieces, (0, e_first) and (e_last, inf), take no G'
        # evaluation: G' at the breakpoint along each piece's candidates
        # decides, and Newton steps clipped to the piece find lam_K.  The
        # R_f = 5e-4 legs (K = 2, 3-7 pieces) reach both outermost pieces,
        # and ties next to them; the zero penalty's legs have no breakpoint
        # and one piece, (0, inf).  Each such leg certifies at its
        # recovered optimum with 0 Newton steps.
        p, vg = small_gross_riskfree_rate
        forms, ctxs, _ = self._chunk(p, vg, "m1", 1, 16)
        ends = _dual_search(p, forms, ctxs)[0]
        side = _sides(p, forms, ctxs, ends[1])
        assert ((side == "low") & (ends[0] == 0.0)).sum() >= 2
        assert ((side == "high") & (ends[2] == np.inf)).sum() >= 2
        assert ((side == "tie") & ((ends[0] == 0.0) | (ends[2] == np.inf))).sum() >= 2
        assert self._check_weak_duality(p, vg, "m1", seed=1, pairs=16).all()
        forms, ctxs, _ = self._chunk(p_set1, vg_set1, "zero", 5, 4)
        ends = _dual_search(p_set1, forms, ctxs)[0]
        assert (ends.T == [0.0, np.inf, np.inf]).all()
        assert self._check_weak_duality(p_set1, vg_set1, "zero", seed=5, pairs=4).all()

    @pytest.mark.parametrize("kind, cap", [("m1", 7), ("m2", 7), ("zero", 2)])
    def test_floor_chain_calls_per_task(self, p_set1, vg_set1, monkeypatch, kind, cap):
        # A 64-pair set-1 task bisects over its legs' 13-25 pieces, about 5
        # evaluations of the floor chain (13 for the search it replaced);
        # the zero penalty's legs have one piece and evaluate none (3-4).
        chain, calls = dual._floor_chain, []

        def counted(*args):
            calls.append(args[-1].size)
            return chain(*args)

        monkeypatch.setattr(dual, "_floor_chain", counted)
        cfg = RunConfig(paths_per_run=64, runs=2, seed=5, penalty_kind=kind, gamma=1.5)
        bounds._init_worker(p_set1, vg_set1, cfg)
        values, flagged = bounds._upper_task((0, 64))
        assert len(values) == 128 and flagged == 0
        assert len(calls) <= cap

    def test_start_that_is_not_strictly_feasible_is_reported_only_without_a_certificate(self, p_set1, vg_set1):
        # Interior starts outside the feasible set on legs 3 and 5: leg 3
        # still certifies at its warm point, before its start is checked;
        # leg 5, its plan withheld, is reported infeasible, and the other
        # legs certify from theirs.
        forms, ctxs, (oracle, A, b, X0) = self._chunk(p_set1, vg_set1, "m2", 5, 4)
        bad = X0.copy()
        bad[[3, 5]] = -1.0
        warm, duals, _ = dual._dual_plan(p_set1, forms, ctxs)
        assert np.isfinite(warm).all() and np.isfinite(duals).all()
        warm[5], duals[5] = np.nan, np.nan
        sols = concave.maximize_batch(oracle, A, b, bad, tol=dual.INNER_TOL, max_newton=dual.INNER_MAX_NEWTON,
                                      warm=warm, duals=duals)
        assert [(sol.status, sol.iterations) for sol in sols] == [(concave.STATUS_CONVERGED, 0)] * 5 + [
            (concave.STATUS_INFEASIBLE, 0)] + [(concave.STATUS_CONVERGED, 0)] * 2
        assert np.array_equal(sols[3].x, warm[3]) and sols[5].f == -np.inf

    @pytest.mark.parametrize("corruption", ["negative", "slack row", "stationarity"])
    def test_corrupted_multipliers_fall_back_to_the_barrier(self, p_set1, vg_set1, corruption):
        # One leg's multipliers corrupted: a held row's made negative, 1e-12
        # put on a row its point does not hold (too little to move its
        # stationarity past tol), or all scaled by 1.01.  That leg runs the
        # barrier from its interior start, as without a plan, and converges;
        # the others still certify with 0 Newton steps.
        forms, ctxs, (oracle, A, b, X0) = self._chunk(p_set1, vg_set1, "m1", 5, 4)
        warm, duals, _ = dual._dual_plan(p_set1, forms, ctxs)
        held = b - concave.stacked_matvec(A, warm) <= 1e-10 * (1.0 + np.abs(b))
        bad, leg = duals.copy(), 3
        if corruption == "negative":
            row = np.flatnonzero(held[leg] & (duals[leg] > 0.0))[0]
            bad[leg, row] = -duals[leg, row]
        elif corruption == "slack row":
            bad[leg, np.flatnonzero(~held[leg])[0]] = 1e-12
        else:
            bad[leg] *= 1.01
        AT = np.ascontiguousarray(A.transpose(0, 2, 1))
        stationarity = concave._stationarity(oracle.gradient(warm, np.arange(len(warm))),
                                             concave.stacked_matvec(AT, bad))
        assert (stationarity > dual.INNER_TOL)[leg] == (corruption != "slack row")
        assert (bad[leg] >= 0.0).all() == (corruption != "negative")
        solve = functools.partial(concave.maximize_batch, oracle, A, b, X0, tol=dual.INNER_TOL,
                                  max_newton=dual.INNER_MAX_NEWTON)
        sols, cold = solve(warm=warm, duals=bad), solve()
        assert [sol.status for sol in sols] == [concave.STATUS_CONVERGED] * len(sols)
        assert [sol.iterations > 0 for sol in sols] == [i == leg for i in range(len(sols))]
        assert np.array_equal(sols[leg].x, cold[leg].x)
        assert (sols[leg].f, sols[leg].kkt_residual, sols[leg].iterations) == (
            cold[leg].f, cold[leg].kkt_residual, cold[leg].iterations)

    def test_plan_does_not_depend_on_the_stack(self, p_set1, vg_set1):
        # The legs of four pairs under all three penalties: alone, in one
        # stack and in a shuffled stack.
        take = penalties.take
        parts = [self._chunk(p_set1, vg_set1, kind, 5, 4)[:2] for kind in penalties.PENALTY_KINDS]
        forms = penalties.PenaltyForm(*(np.concatenate([np.asarray(getattr(form, f.name)) for form, _ in parts])
                                        for f in dataclasses.fields(penalties.PenaltyForm)))
        ctxs = take(parts[0][1], np.tile(np.arange(8), 3))
        warm, duals, lam_K = dual._dual_plan(p_set1, forms, ctxs)
        X0 = dual.assemble_inner_batch(p_set1, forms, ctxs)[3]
        order = np.random.default_rng(0).permutation(len(warm))
        shuffled = dual._dual_plan(p_set1, take(forms, order), take(ctxs, order))
        assert np.array_equal(shuffled[0], warm[order], equal_nan=True)
        assert np.array_equal(shuffled[1], duals[order], equal_nan=True)
        assert np.array_equal(shuffled[2], lam_K[order])
        for i in range(len(warm)):
            _, (_, _, leg_warm, leg_duals), leg_start = dual.assemble_inner(p_set1, take(forms, i), take(ctxs, i))
            assert np.array_equal(leg_warm, warm[i], equal_nan=True) and np.array_equal(leg_start, X0[i])
            assert np.array_equal(leg_duals, duals[i], equal_nan=True)
            assert dual._dual_plan(p_set1, take(forms, [i]), take(ctxs, [i]))[2][0] == lam_K[i]

    def test_no_leg_falls_back_to_the_barrier(self, solved_grid, monkeypatch):
        # Set 2, gamma 5, m2 and set 4, gamma 5, m1 (8 pairs x 10 runs, seed
        # 5) sent 3 and 5 of 160 legs to the barrier from the interior start:
        # their face Newton steps from it were dropped, although the dual
        # face was right.  From the recovered optimum every leg certifies in
        # its task's certificate pass: no leg is flagged, and the solver
        # never runs.
        solve, solved = concave.maximize_batch, []
        monkeypatch.setattr(concave, "maximize_batch", lambda *args, **kwargs: solved.append(args) or solve(
            *args, **kwargs))
        spans = _record_upper_spans(monkeypatch)
        for sid, kind in ((2, "m2"), (4, "m1")):
            p, vg = solved_grid(sid, 5.0)
            est = upper_bound(p, vg, RunConfig(paths_per_run=8, runs=10, seed=5, penalty_kind=kind))
            assert est.total_paths == 160 and est.flagged_paths == 0
        assert len(spans) == 4 and not solved


    def test_seed43_set2_gamma5_m2_leg_converges(self, solved_grid):
        # At 30 pairs x 10 runs, flat pair 268 (run 8, path 28; leg 8 of the
        # 34th chunk of 8 pairs) ended at the t_cap exit unconverged: its
        # barrier crossovers found no verifiable face.  The crossover from its
        # dual-recovered optimum certifies.
        p, vg = solved_grid(2, 5.0)
        cfg = RunConfig(paths_per_run=30, runs=10, seed=43, penalty_kind="m2", gamma=5.0, parameter_set_id=2)
        bounds._init_worker(p, vg, cfg)
        values, flagged = bounds._upper_task((268, 269))
        assert len(values) == 2 and flagged == 0


def _record_certificates(monkeypatch):
    """Record (S, b, kkt, certified, F) of each `concave.certificate` call,
    b as wide as S."""
    rule, calls = concave.certificate, []

    def recorded(S, b, nu, F, terms, tol):
        done, kkt = rule(S, b, nu, F, terms, tol)
        calls.append((S, np.broadcast_to(b, S.shape), kkt, done, F))
        return done, kkt

    monkeypatch.setattr(concave, "certificate", recorded)
    return calls


class TestTaskCertificate:
    """`dual._certify_legs`, each upper-bound task's certificate read off
    the wealth chain, against `concave._certify`'s test of the same legs on
    their dense `assemble_inner_batch` problems: both call one decision
    rule, `concave.certificate`."""

    @staticmethod
    def _both(monkeypatch, p, vg, kind, corrupt=lambda warm, duals, b: None):
        """The two certificates' recorded calls (`_record_certificates`),
        dense then structured, on the legs of 8 pairs at seed 3, their plans
        changed in place by `corrupt(warm, duals, b)`."""
        forms, ctxs, (oracle, A, b, X0) = TestDualFace._chunk(p, vg, kind, 3, 8)
        warm, duals, _ = dual._dual_plan(p, forms, ctxs)
        corrupt(warm, duals, b)
        calls = _record_certificates(monkeypatch)
        sols = concave.maximize_batch(oracle, A, b, X0, tol=dual.INNER_TOL, max_newton=dual.INNER_MAX_NEWTON,
                                      warm=warm, duals=duals)
        certified, f = dual._certify_legs(p, forms, ctxs.R, warm, duals)
        assert len(calls) == 2
        dense, structured = calls
        assert np.array_equal(certified, structured[3]) and np.array_equal(f, structured[4], equal_nan=True)
        assert [sol.iterations == 0 and sol.status == concave.STATUS_CONVERGED for sol in sols] == dense[3].tolist()
        return dense, structured

    @pytest.mark.parametrize("case", [f"set {sid} {gamma}" for sid in (1, 2, 3, 4) for gamma in (1.5, 5.0)]
                             + ["alpha 0", "alpha 1", "K 20", "K 40"])
    def test_structured_certificate_equals_the_dense_one(self, p_set1, solved_grid, monkeypatch, case):
        # The slacks and relative stationarity agree to 1e-12 (measured:
        # 1.0e-15 and 2.2e-13), f bit for bit, and every leg certifies in
        # both.  The alpha and K cases run on a coarse grid.
        name, *value = case.split()
        if name == "set":
            p, vg = solved_grid(int(value[0]), float(value[1]))
        else:
            p, vg = _coarse_grid(dataclasses.replace(p_set1, **({"K": int(value[0]), "delta": 1.0 / int(value[0])}
                                                              if name == "K" else {"alpha": float(value[0])})))
        for kind in penalties.PENALTY_KINDS:
            (S, b, kkt, done, F), (S1, b1, kkt1, done1, F1) = self._both(monkeypatch, p, vg, kind)
            assert np.array_equal(b, b1) and np.array_equal(F, F1)
            assert done.all() and done1.all()
            assert np.abs(S - S1).max() <= 1e-12 and np.abs(kkt - kkt1).max() <= 1e-12

    def test_corrupted_plans_are_rejected_by_both(self, p_set1, vg_set1, monkeypatch):
        # Leg 1: a zero multiplier of a Pi row set to -1e-9.  Leg 3: every multiplier scaled by 1.01.  Leg 4: a Pi row it
        # holds broken by 2e-10 (1 + |b|), twice the tolerance.  Leg 6: a
        # NaN warm point and multipliers.  Both tests reject exactly those
        # legs, under each penalty.
        def corrupt(warm, duals, b):
            m = 2 * p_set1.K + 1
            duals[1, np.flatnonzero(duals[1, m:] == 0.0)[0] + m] = -1e-9
            duals[3] *= 1.01
            held = np.flatnonzero(warm[4].reshape(p_set1.K, -1)[:, :p_set1.n].reshape(-1) == 0.0)[0]
            warm[4, held // p_set1.n * (p_set1.n + 1) + held % p_set1.n] = -2e-10 * (1.0 + abs(b[4, m + held]))
            warm[6], duals[6] = np.nan, np.nan

        for kind in penalties.PENALTY_KINDS:
            dense, structured = self._both(monkeypatch, p_set1, vg_set1, kind, corrupt)
            assert np.flatnonzero(~dense[3]).tolist() == np.flatnonzero(~structured[3]).tolist() == [1, 3, 4, 6]

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_steps_the_wealth_chain_once(self, p_set1, vg_set1, monkeypatch, kind):
        # The slacks, f and grad f share one `_wealth` call, and f is the
        # oracle's bit for bit.
        forms, ctxs, _ = TestDualFace._chunk(p_set1, vg_set1, kind, 3, 8)
        warm, duals, _ = dual._dual_plan(p_set1, forms, ctxs)
        f_oracle = dual.inner_oracle(p_set1, forms, ctxs.R).value(warm, np.arange(len(warm)))
        chain, chains = dual._wealth, []
        monkeypatch.setattr(dual, "_wealth", lambda *args: chains.append(1) or chain(*args))
        certified, f = dual._certify_legs(p_set1, forms, ctxs.R, warm, duals)
        assert certified.all() and len(chains) == 1
        assert f.tobytes() == f_oracle.tobytes()

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_certified_task_builds_and_solves_no_dense_problem(self, p_set1, vg_set1, monkeypatch, kind):
        # A 64-pair set-1 task certifies every leg in its certificate pass,
        # so it calls neither the dense assembly nor the solver.
        calls = []
        for module, name in ((dual, "assemble_inner_batch"), (concave, "maximize_batch")):
            monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: calls.append(name))
        bounds._init_worker(p_set1, vg_set1, RunConfig(paths_per_run=64, runs=2, seed=5, penalty_kind=kind))
        values, flagged = bounds._upper_task((0, 64))
        assert len(values) == 128 and np.isfinite(values).all() and flagged == 0
        assert calls == []


class TestRobustnessMatrix:
    @pytest.mark.parametrize("gamma", [1.5, 3.0, 5.0])
    @pytest.mark.parametrize("sid", [1, 2, 3, 4])
    def test_grid_converges_and_small_upper_bounds_flag_no_leg(self, solved_grid, sid, gamma):
        # backward_recursion raises NodeSolveError on a node that does not converge.
        p, vg = solved_grid(sid, gamma)
        for kind in ("m1", "zero"):
            cfg = RunConfig(paths_per_run=6, runs=2, seed=3, penalty_kind=kind, gamma=gamma,
                            parameter_set_id=sid)
            assert upper_bound(p, vg, cfg).flagged_paths == 0


class TestKnownOptimum:
    """Set 1 with mu1 = 0, where returns are i.i.d. and the optimal value
    V* is known (`known_optimum`): the grid policy's lower bound estimates
    it, and every penalty's upper bound lies above it."""

    @pytest.fixture(scope="class", params=[0.0, 0.5], ids=["alpha0", "alpha0.5"])
    def iid(self, request):
        data = market.parameter_set(1, gamma=1.5).to_dict()
        data.update(mu1=[0.0, 0.0, 0.0], alpha=request.param)
        p = market.ModelParams.from_dict(data)
        return p, dp_solver.backward_recursion(p), known_optimum(p)

    def test_lower_bound_lies_within_three_stderr(self, iid):
        p, vg, v_star = iid
        est = lower_bound(p, vg, RunConfig(paths_per_run=500, runs=10, seed=11))
        assert abs(est.mean - v_star) <= 3.0 * est.stderr

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_upper_bound_lies_above(self, iid, kind):
        p, vg, v_star = iid
        est = upper_bound(p, vg, RunConfig(paths_per_run=50, runs=10, seed=11, penalty_kind=kind))
        assert est.flagged_paths == 0
        assert est.mean >= v_star - 3.0 * est.stderr


class TestDualityGap:
    def test_zero_gap_when_upper_equals_lower(self, p_set1, vg_set1):
        lo = lower_bound(p_set1, vg_set1, RunConfig(paths_per_run=5, runs=2, seed=1, gamma=1.5))
        gap = duality_gap(lo, lo)
        assert gap["value_gap_frac"] == 0.0 and gap["ce_gap_frac"] == 0.0

    def test_takes_the_tighter_upper_bound(self):
        def fake(mean, ce):
            cfg = RunConfig(paths_per_run=2, runs=2, seed=0)
            return bounds.BoundEstimate(kind="upper", penalty="m1",
                                        run_means=np.array([mean, mean]), mean=mean,
                                        stderr=0.0, ce_mean=ce, ce_stderr=0.0, config=cfg)
        lo = fake(-5.480, 0.1332)
        u1 = fake(-5.391, 0.1376)
        u2 = fake(-5.392, 0.1376)
        gap = duality_gap(lo, u1, u2)
        assert gap["value_gap_frac"] == pytest.approx((5.480 - 5.392) / 5.480, rel=1e-12)
        assert gap["ce_gap_frac"] == pytest.approx((0.1376 - 0.1332) / 0.1332, rel=1e-12)


class TestCsv:
    def test_schema_and_determinism(self, p_set1, vg_set1):
        cfg = RunConfig(paths_per_run=3, runs=2, seed=4, gamma=1.5, parameter_set_id=1)
        est = lower_bound(p_set1, vg_set1, cfg)
        text = bounds.csv_rows([est])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(bounds.CSV_COLUMNS)
        fields = lines[1].split(",")
        assert fields[0] == "1" and fields[2] == "lower"
        assert text == bounds.csv_rows([lower_bound(p_set1, vg_set1, cfg)])


def _random_inner_point(rng, p, ctx):
    """Strictly feasible decision vector built from admissible fractions."""
    x = np.empty(p.K * (p.n + 1))
    W = p.W0
    for k in range(p.K):
        pi, c = random_feasible_fractions(rng, p)
        c = max(c, 1e-6)
        x[k * (p.n + 1): k * (p.n + 1) + p.n] = W * pi
        x[k * (p.n + 1) + p.n] = W * c
        W = W * p.R_f + float(np.dot(ctx.R[k] - p.R_f, W * pi)) - W * c
    return x
