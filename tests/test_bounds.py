import concurrent.futures
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbound import bounds, concave, dp_solver, market, penalties
from dualbound.bounds import (
    RunConfig,
    assemble_inner,
    certainty_equivalent,
    duality_gap,
    lower_bound,
    path_utility,
    shock_path,
    upper_bound,
)
from helpers import (
    at_point,
    dual_start,
    inner_objective_grid_search,
    random_feasible_fractions,
    single_asset_params,
    slack,
    synthetic_value_grid,
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
        # Legs of several runs and all three penalty kinds in one batch.
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
        oracle, A, b, X0 = bounds.assemble_inner_batch(p, forms, ctxs)
        assert A.shape == (12, 51, 40) and b.shape == (12, 51) and X0.shape == (12, 40)
        face, start = dual_start(p, forms, ctxs, oracle, A, b, X0)
        bracket = np.stack(bounds._dual_bracket(p, forms, ctxs)[:2], axis=1)
        batch = concave.maximize_batch(oracle, A, b, start, tol=bounds.INNER_TOL,
                                       max_newton=bounds.INNER_MAX_NEWTON, face=face)
        for sp, kind, leg_face, leg_start, leg_bracket, got in zip(legs, kinds, face, start, bracket, batch):
            ctx = penalties.build_context(p, vg_set1, policy, sp)
            form = penalties.penalty_form(kind, ctx, p)
            one_bracket = bounds._dual_bracket(p, penalties.as_stack(form), penalties.as_stack(ctx))[:2]
            assert np.array_equal(np.concatenate(one_bracket), leg_bracket)
            problem = assemble_inner(p, form, ctx)
            assert np.array_equal(problem[1][2], leg_face)
            assert np.array_equal(problem[2], leg_start)
            one = concave.maximize(*problem, tol=bounds.INNER_TOL, max_newton=bounds.INNER_MAX_NEWTON)
            assert np.array_equal(got.x, one.x)
            assert (got.f, got.kkt_residual, got.iterations, got.status) == (
                one.f, one.kkt_residual, one.iterations, one.status)
            assert one.status == concave.STATUS_CONVERGED

    @pytest.mark.parametrize("kind, kb_per_leg", [("m1", 75), ("m2", 75), ("zero", 90)])
    def test_upper_chunk_solve_peak_per_leg(self, p_set1, vg_set1, kind, kb_per_leg):
        # The solver's per-leg temporaries cap UPPER_CHUNK_PAIRS.  On this
        # batch (16 pairs, 40-dim legs) the barrier from the interior start,
        # the path of a leg whose dual face does not certify, peaks at about
        # 69 (m1), 70 (m2) and 62 KB (zero) a leg, in its crossovers' reduced
        # face systems.  The dual face and start and the crossover onto the
        # face, the path of every other leg, take about 47.5 (m1), 47 (m2)
        # and 40 KB (zero).
        p, cfg = p_set1, RunConfig(paths_per_run=16, runs=2, seed=5, penalty_kind=kind, gamma=1.5)
        policy = dp_solver.make_grid_policy(vg_set1, p)
        ctxs = penalties.build_contexts(p, vg_set1, policy, *bounds._chunk_shocks(p, cfg, (0, 16)))
        forms = penalties.penalty_form(kind, ctxs, p)
        oracle, A, b, X0 = bounds.assemble_inner_batch(p, forms, ctxs)
        assert len(X0) == 32
        for warm in (False, True):
            tracemalloc.start()
            try:
                face, start = dual_start(p, forms, ctxs, oracle, A, b, X0) if warm else (None, X0)
                concave.maximize_batch(oracle, A, b, start, tol=bounds.INNER_TOL, max_newton=bounds.INNER_MAX_NEWTON,
                                       face=face)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= kb_per_leg * 1e3 * len(X0)

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_upper_task_stages_peak_per_leg(self, p_set1, vg_set1, kind):
        # A task's stages before its slices (shocks, contexts, forms, dual
        # search) on a 64-pair task: measured 4.3 KB a leg for each penalty,
        # of which the slices keep 1.3 KB; the bound leaves about 40%
        # margin.  A first call also allocates one-time state, so
        # the stages run once untraced.
        p, cfg = p_set1, RunConfig(paths_per_run=64, runs=2, seed=5, penalty_kind=kind, gamma=1.5)
        policy = dp_solver.make_grid_policy(vg_set1, p)

        def stages():
            ctxs = penalties.build_contexts(p, vg_set1, policy, *bounds._chunk_shocks(p, cfg, (0, 64)))
            forms = penalties.penalty_form(kind, ctxs, p)
            return bounds._dual_plan(p, forms, ctxs)

        assert len(stages().usable) == 128
        tracemalloc.start()
        try:
            stages()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e3 * 128


def _upper_leg_by_leg(p, vg, cfg):
    """Run means and flagged count of a per-leg loop of shock_path ->
    build_context -> penalty_form -> assemble_inner -> maximize."""
    policy = dp_solver.make_grid_policy(vg, p)
    run_means, flagged = [], 0
    for r in range(cfg.runs):
        vals = []
        for i in range(cfg.paths_per_run):
            base = shock_path(p, cfg.seed, r, i)
            for sp in (base, base.antithetic()):
                ctx = penalties.build_context(p, vg, policy, sp)
                form = penalties.penalty_form(cfg.penalty_kind, ctx, p)
                sol = concave.maximize(*assemble_inner(p, form, ctx), tol=bounds.INNER_TOL,
                                       max_newton=bounds.INNER_MAX_NEWTON)
                vals.append(sol.f)
                flagged += sol.status != concave.STATUS_CONVERGED
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
        monkeypatch.setattr(bounds, "UPPER_CHUNK_PAIRS", 1)
        monkeypatch.setattr(bounds, "UPPER_SLICES_PER_TASK", 1)
        upper_bound(p_set1, vg_set1, cfg, workers=64)
        assert sizes == [9, 4]


def _coarse_grid(p):
    """p and its grid solved on 5 nodes with 3 quadrature points a dimension."""
    return p, dp_solver.backward_recursion(p, grid=np.linspace(-2.0, 2.0, 5), quad=dp_solver.build_quadrature(3, p.n))


@pytest.fixture(scope="module")
def small_gross_riskfree_rate():
    # R_f = 1 + r_f delta = 5e-4 on a 5-node grid: consumption of about 2e-4
    # makes the inner problems badly scaled (gradients about 1.5e4).
    data = market.parameter_set(1, gamma=1.5).to_dict()
    data.update(r_f=-9.995, K=2)
    return _coarse_grid(market.ModelParams.from_dict(data))


@pytest.fixture(scope="module")
def upper_reference(p_set1, vg_set1):
    """Run means and flagged count of `_upper_leg_by_leg`, per penalty, for
    10 pairs x 2 runs at seed 33."""
    cache = {}

    def reference(cfg):
        if cfg not in cache:
            cache[cfg] = _upper_leg_by_leg(p_set1, vg_set1, cfg)
        return cache[cfg]
    return reference


def _record_upper_calls(monkeypatch):
    """Record each task's span and each slice's leg count of `upper_bound`."""
    spans, slices = [], []
    task, solve = bounds._upper_task, bounds._upper_slice
    monkeypatch.setattr(bounds, "_upper_task", lambda span: spans.append(span) or task(span))

    def counted(*args):
        sols = solve(*args)
        slices.append(len(sols))
        return sols

    monkeypatch.setattr(bounds, "_upper_slice", counted)
    return spans, slices


class TestUpperBound:
    @pytest.mark.parametrize("penalty", ["m1", "zero"])
    @pytest.mark.parametrize("slice_pairs, per_task, spans, slices", [
        # Tasks of 6 pairs: the run boundary at pair 10 lies inside the slice
        # [9, 12), and the last task, [18, 20), is shorter than one slice.
        (3, 2, [(0, 6), (6, 12), (12, 18), (18, 20)], [6] * 6 + [4]),
        # One slice a task: the second task straddles the run boundary.
        (8, 1, [(0, 8), (8, 16), (16, 20)], [16, 16, 8]),
        # The default sizes: one task, whose first slice holds both runs.
        (bounds.UPPER_CHUNK_PAIRS, bounds.UPPER_SLICES_PER_TASK, [(0, 20)], [32, 8]),
        # A task shorter than one slice.
        (32, 1, [(0, 20)], [40]),
    ], ids=["slice3-two-a-task", "slice8-one-a-task", "default-sizes", "task-below-a-slice"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_means_equal_single_leg_recomputation(self, p_set1, vg_set1, upper_reference, monkeypatch,
                                                      penalty, slice_pairs, per_task, spans, slices, workers):
        monkeypatch.setattr(bounds, "UPPER_CHUNK_PAIRS", slice_pairs)
        monkeypatch.setattr(bounds, "UPPER_SLICES_PER_TASK", per_task)
        cfg = RunConfig(paths_per_run=10, runs=2, seed=33, penalty_kind=penalty, gamma=1.5)
        # The recorders run in this process only; a pool pickles its task by name.
        recorded = _record_upper_calls(monkeypatch) if workers == 1 else (spans, slices)
        est = upper_bound(p_set1, vg_set1, cfg, workers=workers)
        run_means, flagged = upper_reference(cfg)
        assert np.array_equal(est.run_means, run_means)
        assert est.flagged_paths == flagged
        assert est.total_paths == 40
        assert recorded == (spans, slices)

    def test_task_size_scales_with_the_inner_dimension(self, p_set1, vg_set1, monkeypatch):
        # At K = 10 (D = 40) a task spans 64 pairs and a slice 16; at K = 40
        # (D = 160) 16 and 4.  Every leg's optimum is its own, so the run
        # means equal those of one slice for all the legs.
        p40 = dataclasses.replace(p_set1, K=40, delta=1 / 40)
        assert bounds._upper_chunk_pairs(p_set1) == bounds.UPPER_CHUNK_PAIRS == 16
        assert bounds._upper_chunk_pairs(p40) == 4 and bounds.UPPER_SLICES_PER_TASK == 4
        vg40 = dp_solver.backward_recursion(p40, grid=np.linspace(-2.0, 2.0, 5))
        for p, vg, pairs, spans, slices in (
                (p_set1, vg_set1, (40, 2), [(0, 64), (64, 80)], [32] * 5),
                (p40, vg40, (9, 2), [(0, 16), (16, 18)], [8] * 4 + [4])):
            cfg = RunConfig(paths_per_run=pairs[0], runs=pairs[1], seed=5, penalty_kind="m1", gamma=1.5)
            with monkeypatch.context() as patched:
                recorded = _record_upper_calls(patched)
                sliced = upper_bound(p, vg, cfg)
                assert recorded == (spans, slices)
            with monkeypatch.context() as patched:
                patched.setattr(bounds, "UPPER_CHUNK_PAIRS", 1000)
                patched.setattr(bounds, "UPPER_SLICES_PER_TASK", 1)
                recorded = _record_upper_calls(patched)
                assert np.array_equal(upper_bound(p, vg, cfg).run_means, sliced.run_means)
                assert recorded == ([(0, 2 * pairs[0])], [4 * pairs[0]])

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
        monkeypatch.setattr(bounds, "UPPER_CHUNK_PAIRS", 2)
        assert (r, i) == (1, 3)  # flat pair 15, the last of its task [8, 16)
        with pytest.raises(bounds.PathError) as err:
            upper_bound(p, vg, cfg)
        assert f"upper-bound path failed (seed=6, run={r}, path={i}): {message}" in str(err.value)

    def test_infeasible_inner_start_raises_path_error_naming_its_leg(self, p_set1, vg_set1, monkeypatch):
        # Slices of 3 pairs, two a task: the second task holds flat pairs
        # [6, 12), and its second slice pairs 9, 10, 11, i.e. (run, path)
        # (1, 4), (2, 0), (2, 1); that slice's leg 1 is the antithetic leg of
        # (1, 4).  Every slice assembles its own problems.
        assemble = bounds.assemble_inner_batch
        calls = []

        def broken(p, forms, ctxs):
            oracle, A, b, X0 = assemble(p, forms, ctxs)
            calls.append(len(X0))
            if len(calls) == 4:
                X0 = X0.copy()
                X0[1] = -1.0
            return oracle, A, b, X0

        monkeypatch.setattr(bounds, "assemble_inner_batch", broken)
        monkeypatch.setattr(bounds, "UPPER_CHUNK_PAIRS", 3)
        monkeypatch.setattr(bounds, "UPPER_SLICES_PER_TASK", 2)
        cfg = RunConfig(paths_per_run=5, runs=3, seed=7, penalty_kind="m1", gamma=1.5)
        with pytest.raises(bounds.PathError, match=r"upper-bound path failed \(seed=7, run=1, path=4\)"):
            upper_bound(p_set1, vg_set1, cfg)
        assert calls == [6, 6, 6, 6]

    @pytest.mark.parametrize("gamma, kind", [(3.0, "m2"), (5.0, "m1")])
    def test_published_size_set1_flags_no_leg(self, solved_grid, gamma, kind):
        # Set 1 at 30 pairs x 10 runs, seed 42: each of these flagged one leg
        # whose guessed crossover faces (near-active slack cut) all failed.
        p, vg = solved_grid(1, gamma)
        cfg = RunConfig(paths_per_run=30, runs=10, seed=42, penalty_kind=kind, gamma=gamma, parameter_set_id=1)
        assert upper_bound(p, vg, cfg).flagged_paths == 0

    @pytest.mark.parametrize("sid", [2, 4])
    def test_published_size_gamma3_m2_flags_no_leg(self, solved_grid, sid):
        # Sets 2 and 4 at 30 pairs x 10 runs, seed 42: each holds one leg whose
        # every crossover fails and whose last barrier stages stopped centering
        # at a rounding-level Newton decrement while Newton still contracted.
        p, vg = solved_grid(sid, 3.0)
        cfg = RunConfig(paths_per_run=30, runs=10, seed=42, penalty_kind="m2", gamma=3.0, parameter_set_id=sid)
        assert upper_bound(p, vg, cfg).flagged_paths == 0

    @pytest.mark.parametrize("kind", ["m1", "m2", "zero"])
    def test_small_gross_riskfree_rate_flags_no_leg(self, small_gross_riskfree_rate, kind):
        # Badly scaled legs: one whose crossovers all fail depends on the
        # barrier-KKT test of the t_cap stage.
        p, vg = small_gross_riskfree_rate
        est = upper_bound(p, vg, RunConfig(paths_per_run=4, runs=2, seed=1, penalty_kind=kind))
        assert est.total_paths == 16
        assert est.flagged_paths == 0

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
    def test_every_leg_is_at_least_its_baseline_objective(self, p_set1, vg_set1, monkeypatch, kind):
        # The baseline decisions are feasible in their leg's inner problem,
        # so its optimum f is at least utility(baseline) - M(baseline), up to
        # rounding, on every leg.
        cfg = RunConfig(paths_per_run=4, runs=2, seed=11, penalty_kind=kind, gamma=1.5)
        solved = []
        batch = concave.maximize_batch

        def recorded(*args, **kwargs):
            sols = batch(*args, **kwargs)
            solved.extend(sols)
            return sols

        monkeypatch.setattr(concave, "maximize_batch", recorded)
        est = upper_bound(p_set1, vg_set1, cfg)
        f = np.array([sol.f for sol in solved])
        assert f.size == est.total_paths == 16
        assert np.array_equal(est.run_means, [np.mean(f[:8]), np.mean(f[8:])])
        policy = dp_solver.make_grid_policy(vg_set1, p_set1)
        Z, Ztilde = bounds._chunk_shocks(p_set1, cfg, (0, 8))
        path = market.simulate_paths(p_set1, policy, Z, Ztilde)
        M = penalties.penalty_form(kind, penalties.build_contexts(p_set1, vg_set1, policy, Z, Ztilde),
                                   p_set1).evaluate(path.Pi, path.C)
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
    """The 1-D Lagrangian dual of the inner problem (`bounds._floor_chain`),
    whose search (`bounds._dual_bracket`) gives each leg its warm face and
    the primal optimum it recovers (`bounds._dual_plan`), which
    `bounds._blend_start` makes its start."""

    @staticmethod
    def _chunk(p, vg, kind, seed, pairs):
        """The legs of flat pairs [0, pairs), posed as `upper_bound` poses
        them: (forms, ctxs, (oracle, A, b, X0)) with the interior start X0."""
        cfg = RunConfig(paths_per_run=pairs, runs=2, seed=seed, penalty_kind=kind)
        policy = dp_solver.make_grid_policy(vg, p)
        ctxs = penalties.build_contexts(p, vg, policy, *bounds._chunk_shocks(p, cfg, (0, pairs)))
        forms = penalties.penalty_form(kind, ctxs, p)
        return forms, ctxs, bounds.assemble_inner_batch(p, forms, ctxs)

    @staticmethod
    def _check_weak_duality(p, vg, kind, seed, pairs):
        """Solve the legs of flat pairs [0, pairs) as `upper_bound` does and
        check that G at both ends of each leg's search bracket and at a random
        lam_K is at least its certified optimum, and that the start recovered
        from the dual, where a leg uses it, is within 1e-8 of that optimum
        relative to its largest coordinate.  Returns the legs that use it."""
        forms, ctxs, (oracle, A, b, X0) = TestDualFace._chunk(p, vg, kind, seed, pairs)
        face, start = dual_start(p, forms, ctxs, oracle, A, b, X0)
        sols = concave.maximize_batch(oracle, A, b, start, tol=bounds.INNER_TOL,
                                      max_newton=bounds.INNER_MAX_NEWTON, face=face)
        assert [sol.status for sol in sols] == [concave.STATUS_CONVERGED] * 2 * pairs
        f = np.array([sol.f for sol in sols])
        lo, hi, _, _ = bounds._dual_bracket(p, forms, ctxs)
        assert (lo > 0.0).all() and (hi < np.inf).all()
        rng = np.random.default_rng(seed)
        for lam_K in (lo, hi, hi * np.exp(rng.uniform(-2.0, 2.0, hi.size))):
            G = bounds._floor_chain(p, ctxs.R, forms.lin_Pi, forms.lin_C, forms.constant, lam_K)[0]
            assert (G >= f - 1e-12 * np.abs(f)).all()
        x = np.array([sol.x for sol in sols])
        used = (start != X0).any(axis=1)
        assert (np.abs(start - x).max(axis=1) <= 1e-8 * np.abs(x).max(axis=1))[used].all()
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
        # A leg whose bracket ends differ at one stage, one candidate each,
        # has lam_K at their tie and splits that stage between the two.
        forms, ctxs, _ = self._chunk(p_set1, vg_set1, "m1", 5, 16)
        _, _, top_lo, top_hi = bounds._dual_bracket(p_set1, forms, ctxs)
        stages = (top_lo != top_hi).any(axis=2).sum(axis=1)
        assert (stages == 1).sum() >= 8
        used = self._check_weak_duality(p_set1, vg_set1, "m1", seed=5, pairs=16)
        assert used[stages == 1].all()

    def test_open_bracket_and_two_tied_stages_keep_the_interior_start(self, p_set1, vg_set1, monkeypatch):
        forms, ctxs, (oracle, A, b, X0) = self._chunk(p_set1, vg_set1, "m1", 5, 16)
        face, start = dual_start(p_set1, forms, ctxs, oracle, A, b, X0)
        search = bounds._dual_bracket
        lo, hi, top_lo, top_hi = search(p_set1, forms, ctxs)
        is_tied = (top_lo != top_hi).any(axis=(1, 2))
        tied, untied = np.flatnonzero(is_tied), np.flatnonzero(~is_tied)
        # Legs untied[0] and untied[1] lose their low and high end; leg
        # tied[0] gets a second tied stage, whose high end holds another
        # candidate.
        k = int(np.flatnonzero((top_lo[tied[0]] == top_hi[tied[0]]).all(axis=1))[0])
        top_hi[tied[0], k] = np.roll(top_hi[tied[0], k], 1)
        lo[untied[0]], hi[untied[1]] = 0.0, np.inf
        monkeypatch.setattr(bounds, "_dual_bracket", lambda *args: (lo, hi, top_lo, top_hi))
        got_face, got = dual_start(p_set1, forms, ctxs, oracle, A, b, X0)
        changed = sorted([untied[0], untied[1], tied[0]])
        assert np.array_equal(got[changed], X0[changed])
        assert (start[changed] != X0[changed]).any(axis=1).all()
        others = np.setdiff1d(np.arange(len(X0)), changed)
        assert np.array_equal(got[others], start[others])
        assert np.array_equal(np.delete(got_face, tied[0], axis=0), np.delete(face, tied[0], axis=0))

    def test_start_that_is_not_strictly_feasible_keeps_the_interior_start(self, p_set1, vg_set1):
        # A start outside the feasible set blends into one that is not
        # strictly feasible: the leg keeps it, and its solve reports it.
        forms, ctxs, (oracle, A, b, X0) = self._chunk(p_set1, vg_set1, "m2", 5, 4)
        bad = X0.copy()
        bad[3] = -1.0
        start = dual_start(p_set1, forms, ctxs, oracle, A, b, bad)[1]
        assert np.array_equal(start[3], bad[3])
        assert (start[[0, 1, 2, 4]] != bad[[0, 1, 2, 4]]).any(axis=1).all()

    def test_start_does_not_depend_on_the_stack(self, p_set1, vg_set1):
        # The legs of four pairs under all three penalties: alone, in one
        # stack and in a shuffled stack.
        take = penalties.take
        parts = [self._chunk(p_set1, vg_set1, kind, 5, 4)[:2] for kind in penalties.PENALTY_KINDS]
        forms = penalties.PenaltyForm(*(np.concatenate([np.asarray(getattr(form, f.name)) for form, _ in parts])
                                        for f in dataclasses.fields(penalties.PenaltyForm)))
        ctxs = take(parts[0][1], np.tile(np.arange(8), 3))
        face, start = dual_start(p_set1, forms, ctxs, *bounds.assemble_inner_batch(p_set1, forms, ctxs))
        order = np.random.default_rng(0).permutation(len(start))
        forms_s, ctxs_s = take(forms, order), take(ctxs, order)
        face_s, start_s = dual_start(p_set1, forms_s, ctxs_s, *bounds.assemble_inner_batch(p_set1, forms_s, ctxs_s))
        assert np.array_equal(face_s, face[order]) and np.array_equal(start_s, start[order])
        for i in range(len(start)):
            _, (_, _, leg_face), leg_start = bounds.assemble_inner(p_set1, take(forms, i), take(ctxs, i))
            assert np.array_equal(leg_face, face[i]) and np.array_equal(leg_start, start[i])

    def test_no_leg_falls_back_to_the_barrier(self, solved_grid, monkeypatch):
        # Set 2, gamma 5, m2 and set 4, gamma 5, m1 (8 pairs x 10 runs, seed
        # 5) sent 3 and 5 of 160 legs to the barrier from the interior start:
        # their face Newton steps from it were dropped, although the dual
        # face was right.  From the recovered start every leg certifies.
        barrier, sent = concave._barrier, []

        def counted(oracle, live, *args):
            sent.append(live.size)
            return barrier(oracle, live, *args)

        monkeypatch.setattr(concave, "_barrier", counted)
        for sid, kind in ((2, "m2"), (4, "m1")):
            p, vg = solved_grid(sid, 5.0)
            sent.clear()
            est = upper_bound(p, vg, RunConfig(paths_per_run=8, runs=10, seed=5, penalty_kind=kind))
            assert est.total_paths == 160 and len(sent) == 5   # one solve a 16-pair slice
            assert sum(sent) == 0 and est.flagged_paths == 0


    def test_seed43_set2_gamma5_m2_leg_converges(self, solved_grid):
        # At 30 pairs x 10 runs, flat pair 268 (run 8, path 28; leg 8 of the
        # 34th chunk of 8 pairs) ended at the t_cap exit unconverged: its
        # barrier crossovers found no verifiable face.  The dual face certifies.
        p, vg = solved_grid(2, 5.0)
        cfg = RunConfig(paths_per_run=30, runs=10, seed=43, penalty_kind="m2", gamma=5.0, parameter_set_id=2)
        bounds._init_worker(p, vg, cfg)
        values, flagged = bounds._upper_task((268, 269))
        assert len(values) == 2 and flagged == 0


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
