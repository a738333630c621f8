"""Monte Carlo lower and dual upper bounds on the expected utility.

Lower bounds simulate the grid policy; upper bounds solve one perfect-
foresight inner problem per path (utility minus penalty, concave after
eliminating wealth by forward substitution).  Statistics follow the
run-of-runs protocol: per-run means over paths, mean and standard error
across run means.  Path i of run r draws its Gaussians from a counter-based
generator keyed by (seed, r, i); the antithetic partner negates the draws,
so results are independent of worker count and replayable per path.  A
chunk derives the Philox keys of all its pairs with one vectorized copy of
numpy's SeedSequence hash and draws each pair's stream through one reused
generator, bit-identical to `shock_path`.  Both bounds cut the flat
(run, path) list into fixed-size chunks that cross run boundaries.  A
lower-bound chunk simulates its legs as one batch, each path bit-identical
to its one-path simulation.  An upper-bound task draws the shocks, builds
the contexts and penalties and runs the dual search of all its legs at
once, and then solves their inner problems in slices of a quarter of the
task, the size the solver's memory allows, each slice as one lockstep
batch; every leg is bit-identical to its one-problem solve.  Neither the
tasks nor the slices depend on the worker count.

Each inner solve is warm-started from the inner problem's Lagrangian dual,
which the floor chain of the wealth multipliers makes a function of the
terminal multiplier lambda_K alone (`_floor_chain`): a search of lambda_K
(`_dual_bracket`) finds where the dual's slope changes sign, and
`_dual_plan` reads two things off the final bracket.  The face holds each
row whose dual candidate is maximal at neither end; the plan is the primal
optimum the dual recovers (the consumption that lambda prices and the
wealth that the maximal candidates carry).  `_blend_start` moves it a hair
toward the interior start so that it is strictly feasible, and that is the
leg's start.  The solver's crossover certifies the face from that start by
exact KKT, in about two face Newton steps, or falls back to the barrier;
the reported value is the primal optimum either way.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import concave, dp_solver, penalties
from .market import AdmissibilityError, ModelParams, ShockPath, simulate_paths

INNER_TOL = 1e-6
INNER_MAX_NEWTON = 200
AMOUNT_FLOOR = 1e-10
# (run, path) pairs per lower-bound task, simulated as one batch.
LOWER_CHUNK_PAIRS = 256
# (run, path) pairs per upper-bound slice, whose inner problems are solved
# as one batch, at inner dimension D = 40 (K = 10, n = 3);
# `_upper_chunk_pairs` scales it by 40 / D.  A larger batch pays less
# per-call overhead a leg but holds more solver temporaries, which grow like
# D^2 a leg: at K = 10 about 38-47 KB on the warm crossover and 62-70 KB
# where a leg falls back to the barrier, at K = 40 about 1 MB.  Measured when
# each slice was its own task: on the set-1 `dual-bound` benchmark, 16 pairs
# instead of 8 cut wall time by 16% for +3% peak RSS, and 32 pairs cut 3%
# more for +10%; at K = 40, 4 pairs take 5-9% less time a leg than 16 at a
# third of the tracemalloc peak, and 1 pair, a (40 / D)^2 scaling, 3-6% more.
UPPER_CHUNK_PAIRS = 16
# Slices per upper-bound task.  A task draws its shocks, builds its contexts
# and penalties and runs the dual search once for all its slices, work that
# pays a fixed cost a call: on the `dual-bound` benchmark, 64-pair tasks
# take a fifth less wall time than 16-pair ones, and their own stages peak
# at about 4.3 KB a leg, a tenth of a slice's solve.  A multiple of the
# slice keeps the task's memory scaling with D like the slices'.
UPPER_SLICES_PER_TASK = 4
# The search of `_dual_bracket` stops a leg at this relative bracket width,
# or after this many floor-chain evaluations.
DUAL_REL_WIDTH = 1e-6
DUAL_MAX_EVALS = 40
# `_dual_plan`'s Newton steps on lam_K per leg, at most; the set-1, -2 and
# -4 legs measured take at most 4.
DUAL_NEWTON_STEPS = 20
# Fraction of the interior start that `_blend_start` blends into the
# recovered optimum, so that the start is strictly feasible.  On 192 set-1
# legs (m1/m2/zero, 16 pairs x 2, seed 5) the inner solves average 2.07,
# 2.18, 2.14, 2.09, 2.72, 3.09 and 4.14 face Newton steps at blends of
# 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4 and 1e-2, every leg certifying; the
# smallest blends differ by which legs need a second face, so 1e-9 keeps a
# margin over rounding at no measurable cost.
DUAL_START_BLEND = 1e-9

CSV_COLUMNS = (
    "parameter_set", "gamma", "bound_type", "penalty", "value_mean", "value_stderr",
    "ce_mean", "ce_stderr", "paths_per_run", "runs", "seed", "flagged_paths",
)


class PathError(RuntimeError):
    """A path-level failure, carrying the (seed, run, path) triple for replay."""


@dataclass(frozen=True)
class RunConfig:
    paths_per_run: int
    runs: int
    seed: int
    antithetic: bool = True
    penalty_kind: str = "zero"
    gamma: Optional[float] = None
    parameter_set_id: Optional[int] = None

    def __post_init__(self):
        if self.paths_per_run < 1:
            raise ValueError("paths_per_run must be >= 1")
        if self.runs < 2:
            raise ValueError("runs must be >= 2 (stderr needs at least two run means)")
        if self.penalty_kind not in penalties.PENALTY_KINDS:
            raise ValueError(f"penalty_kind must be one of {penalties.PENALTY_KINDS}")
        if not (-2**63 <= self.seed < 2**63):
            raise ValueError("seed must fit in 64 bits")
        # Each run and path index is one 32-bit word of its stream's key.
        if self.paths_per_run >= 2**32 or self.runs >= 2**32:
            raise ValueError("paths_per_run and runs must be below 2**32")


@dataclass(frozen=True)
class BoundEstimate:
    kind: str                 # "lower" | "upper"
    penalty: str
    run_means: np.ndarray
    mean: float
    stderr: float
    ce_mean: float
    ce_stderr: float
    config: RunConfig
    flagged_paths: int = 0
    total_paths: int = 0

    def to_dict(self) -> dict:
        """Every field but `config`, run means as a list."""
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "config"}
        record["run_means"] = self.run_means.tolist()
        return record


def certainty_equivalent(value: float, gamma: float) -> float:
    """Deterministic wealth with the same CRRA utility: ((1-gamma) value)^(1/(1-gamma))."""
    base = (1.0 - gamma) * value
    if base <= 0.0:
        raise ValueError(f"(1-gamma)*value = {base:.6g} must be positive for the CE transform")
    return base ** (1.0 / (1.0 - gamma))


def shock_path(p: ModelParams, seed: int, run: int, idx: int) -> ShockPath:
    """Counter-based Gaussian stream for path idx of run (seeded, order-free).

    The seed enters as its residue mod 2**64, one distinct key per 64-bit seed.
    Philox keys itself with SeedSequence((seed, run, idx)).generate_state(2, uint64).
    """
    rng = np.random.Generator(np.random.Philox((seed % 2**64, run, idx)))
    return ShockPath(Z=rng.standard_normal((p.K, p.n)),
                     Ztilde=rng.standard_normal((p.K, p.d)))


def path_utility(p: ModelParams, C: np.ndarray, W_K):
    """Realized objective: discounted CRRA of consumption and bequest.

    C is (K,) with a float W_K for one trajectory (returns a float), or
    (N, K) with W_K of shape (N,) for N trajectories (returns an array).
    """
    gamma = p.gamma
    k = np.arange(p.K)
    W_K = np.asarray(W_K, dtype=float)
    total = np.zeros(W_K.shape)
    if p.alpha > 0.0:
        total += p.alpha * p.delta * np.sum(p.beta ** (k * p.delta) * C ** (1.0 - gamma), axis=-1) / (1.0 - gamma)
    if p.alpha < 1.0:
        total += (1.0 - p.alpha) * p.beta ** (p.K * p.delta) * W_K ** (1.0 - gamma) / (1.0 - gamma)
    return float(total) if total.ndim == 0 else total


# Worker-process state, installed once per process by the pool initializer so
# that tasks only carry (run, path) indices.
_STATE: dict = {}


def _init_worker(p, vg, cfg):
    _STATE["p"] = p
    _STATE["vg"] = vg
    _STATE["cfg"] = cfg
    _STATE["policy"] = dp_solver.make_grid_policy(vg, p)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const, mult):
    """SeedSequence's `hashmix` on uint32 arrays, advancing its own multiplier."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _philox_keys(seed: int, runs, paths) -> np.ndarray:
    """Philox keys of the (seed, run, path) streams as an (N, 2) uint64 array.

    Row j is SeedSequence((seed % 2**64, runs[j], paths[j])).generate_state(2,
    uint64), computed for all rows at once.  Run and path indices must be
    below 2**32, so that each is one entropy word; the seed is one word below
    2**32 and two words above.
    """
    s = seed % 2**64
    words = (s, runs, paths, 0) if s < 2**32 else (s & _MASK32, s >> 32, runs, paths)
    entropy = np.empty((4, len(runs)), dtype=np.uint32)
    for row, word in zip(entropy, words):
        row[:] = word
    # Three entropy words fill the four-word pool with a hashed 0, as a fourth
    # word of 0 would.
    hash_a = _hasher(_INIT_A, _MULT_A)
    pool = [hash_a(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    hash_b = _hasher(_INIT_B, _MULT_B)
    state = [hash_b(word).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _chunk_shocks(p, cfg, span):
    """Shocks of the legs of flat pairs [start, stop), in (pair, base/antithetic)
    order; pair j's base leg equals `shock_path` of its (run, path)."""
    runs, paths = np.divmod(np.arange(*span), cfg.paths_per_run)
    K, n, d = p.K, p.n, p.d
    draws = np.empty((len(runs), K * (n + d)))
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    # A fresh generator's state: counter 0 and an empty output buffer.
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, key in zip(draws, _philox_keys(cfg.seed, runs, paths).tolist()):
        state["state"]["key"] = key
        bitgen.state = state
        rng.standard_normal(out=row)   # Z's K*n draws, then Ztilde's K*d
    if cfg.antithetic:
        draws = np.stack([draws, -draws], axis=1).reshape(-1, K * (n + d))
    return draws[:, :K * n].reshape(-1, K, n), draws[:, K * n:].reshape(-1, K, d)


def _path_error(which, cfg, span, leg, reason):
    """PathError naming the (seed, run, path) of leg `leg` of flat pairs [start, stop)."""
    r, i = divmod(span[0] + leg // (2 if cfg.antithetic else 1), cfg.paths_per_run)
    return PathError(f"{which}-bound path failed (seed={cfg.seed}, run={r}, path={i}): {reason}")


def _lower_task(span):
    """Utilities of the legs of flat pairs [start, stop), simulated as one batch."""
    p, cfg, policy = _STATE["p"], _STATE["cfg"], _STATE["policy"]
    try:
        path = simulate_paths(p, policy, *_chunk_shocks(p, cfg, span))
    except AdmissibilityError as exc:
        raise _path_error("lower", cfg, span, exc.row, exc) from exc
    return path_utility(p, path.C, path.W[:, -1])


def _upper_task(span):
    """Inner optima and cap flags of the legs of flat pairs [start, stop).

    The task builds the contexts and forms of all its legs and runs their
    dual search as one stack (`_dual_plan`); then each slice of
    `_upper_chunk_pairs(p)` pairs solves its legs as one batch
    (`_upper_slice`), each first on its leg's dual face from the start its
    dual recovers.  A leg whose start is not strictly feasible has no inner
    optimum (its f is -inf) and raises PathError."""
    p, vg, cfg, policy = _STATE["p"], _STATE["vg"], _STATE["cfg"], _STATE["policy"]
    try:
        ctxs = penalties.build_contexts(p, vg, policy, *_chunk_shocks(p, cfg, span))
    except AdmissibilityError as exc:
        raise _path_error("upper", cfg, span, exc.row, exc) from exc
    forms = penalties.penalty_form(cfg.penalty_kind, ctxs, p)
    plan = _dual_plan(p, forms, ctxs)
    ctxs = _Baseline(ctxs.R, ctxs.Pi, ctxs.C)   # frees the rest while the slices run
    step = _upper_chunk_pairs(p) * (2 if cfg.antithetic else 1)
    values, flagged = [], 0
    for first in range(0, len(plan.usable), step):
        for leg, sol in enumerate(_upper_slice(p, forms, ctxs, plan, slice(first, first + step)), first):
            if sol.status == concave.STATUS_INFEASIBLE:
                raise _path_error("upper", cfg, span, leg, "the inner problem's start is not strictly feasible")
            values.append(sol.f)
            flagged += sol.status != concave.STATUS_CONVERGED
    return values, flagged


@dataclass(frozen=True)
class _Baseline:
    """The fields of a stack of contexts that `assemble_inner_batch` reads."""

    R: np.ndarray    # (B, K, n) realized gross returns
    Pi: np.ndarray   # (B, K, n) baseline invested amounts
    C: np.ndarray    # (B, K) baseline consumption amounts


def _upper_slice(p, forms, ctxs, plan, legs: slice):
    """Solutions of the inner problems of legs `legs` of a task's stacks,
    solved as one batch.  Called once per slice, so that a slice's problem
    stacks are freed before the next slice's are built."""
    forms, ctxs, plan = (penalties.take(x, legs) for x in (forms, ctxs, plan))
    oracle, A, b, X0 = assemble_inner_batch(p, forms, ctxs)
    X0 = _blend_start(plan, oracle, A, b, X0)
    return concave.maximize_batch(oracle, A, b, X0, tol=INNER_TOL, max_newton=INNER_MAX_NEWTON, face=plan.face)


def _run_tasks(task_fn, tasks, p, vg, cfg, workers):
    # A fork-started pool forks all its workers up front; start no idle ones.
    workers = min(workers, len(tasks))
    if workers <= 1:
        _init_worker(p, vg, cfg)
        return [task_fn(t) for t in tasks]
    # Imported here: it loads multiprocessing, which a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(p, vg, cfg)) as pool:
        return list(pool.map(task_fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _spans(cfg: RunConfig, chunk: int) -> list:
    """The flat (run, path) list cut into [start, stop) tasks of `chunk` pairs,
    across run boundaries."""
    n_pairs = cfg.runs * cfg.paths_per_run
    return [(start, min(start + chunk, n_pairs)) for start in range(0, n_pairs, chunk)]


def _upper_chunk_pairs(p: ModelParams) -> int:
    """Pairs per upper-bound slice for inner problems of dimension D = K (n + 1)."""
    return max(1, UPPER_CHUNK_PAIRS * 40 // (p.K * (p.n + 1)))


def _collect(cfg: RunConfig, values) -> np.ndarray:
    """Fixed-order reduction of per-leg values, in (run, path, base/antithetic)
    order, into per-run means."""
    values = np.asarray(values, dtype=float)
    per_run = values.size // cfg.runs
    return np.array([float(np.mean(values[r * per_run:(r + 1) * per_run])) for r in range(cfg.runs)])


def _estimate(kind: str, cfg: RunConfig, p: ModelParams, run_means: np.ndarray,
              total: int, flagged: int) -> BoundEstimate:
    mean = float(np.mean(run_means))
    stderr = float(np.std(run_means, ddof=1) / math.sqrt(cfg.runs))
    ces = np.array([certainty_equivalent(v, p.gamma) for v in run_means])
    return BoundEstimate(
        kind=kind,
        penalty=cfg.penalty_kind if kind == "upper" else "none",
        run_means=run_means,
        mean=mean,
        stderr=stderr,
        ce_mean=float(np.mean(ces)),
        ce_stderr=float(np.std(ces, ddof=1) / math.sqrt(cfg.runs)),
        config=cfg,
        flagged_paths=flagged,
        total_paths=total,
    )


def lower_bound(p: ModelParams, vg: dp_solver.ValueGrid, cfg: RunConfig,
                workers: int = 1) -> BoundEstimate:
    """Expected utility of the grid policy, by policy simulation.

    The flat (run, path) list is cut into tasks of LOWER_CHUNK_PAIRS pairs
    (across run boundaries), each simulated as one `simulate_paths` batch.
    """
    values = np.concatenate(_run_tasks(_lower_task, _spans(cfg, LOWER_CHUNK_PAIRS), p, vg, cfg, workers))
    return _estimate("lower", cfg, p, _collect(cfg, values), values.size, flagged=0)


def upper_bound(p: ModelParams, vg: dp_solver.ValueGrid, cfg: RunConfig,
                workers: int = 1) -> BoundEstimate:
    """Dual bound: mean of per-path inner optima under the configured penalty.

    The flat (run, path) list is cut into tasks of UPPER_SLICES_PER_TASK
    slices of `_upper_chunk_pairs(p)` pairs (across run boundaries).  Each
    task runs the dual search of all its legs at once (`_dual_plan`), and
    each slice solves the inner problems of its legs as one
    `concave.maximize_batch` call; every leg's optimum is bit-identical to
    its own `assemble_inner` + `maximize`, so the results depend on neither
    size.  Each solve starts with a crossover onto its leg's dual face from
    the primal optimum its dual recovers, which certifies almost every leg
    in about two face Newton steps; a leg it does not certify runs the
    barrier from that start.  Either way the leg's value is the primal
    optimum f.

    Paths whose inner solve stops at the iteration cap keep the last iterate
    and are counted in flagged_paths.  That iterate understates the inner
    maximum, which biases the bound down and can make it no upper bound at
    all; the estimate is a valid upper bound only when flagged_paths == 0.
    """
    results = _run_tasks(_upper_task, _spans(cfg, UPPER_SLICES_PER_TASK * _upper_chunk_pairs(p)),
                         p, vg, cfg, workers)
    values = [f for task_values, _ in results for f in task_values]
    flagged = sum(task_flagged for _, task_flagged in results)
    return _estimate("upper", cfg, p, _collect(cfg, values), len(values), flagged=flagged)


def _utility_weights(p: ModelParams) -> np.ndarray:
    """CRRA weights of (C_0, ..., C_{K-1}, W_K) in the inner objective."""
    return np.append(p.alpha * p.delta * p.beta ** (np.arange(p.K) * p.delta),
                     (1.0 - p.alpha) * p.beta ** (p.K * p.delta))


def assemble_inner_batch(p: ModelParams, forms, ctxs):
    """Inner problems of B path legs, stacked for `concave.maximize_batch`.

    `forms` and `ctxs` are stacks of B legs (see `penalties.penalty_form`);
    of the contexts only R, Pi and C are read (`_Baseline`).  Leg i maximizes utility minus its form over x = (Pi_0, C_0, ...,
    Pi_{K-1}, C_{K-1}) along its context.  Wealth is eliminated by forward
    substitution, making every W_k affine in x; constraints are the per-stage
    budget C_k <= R_f (W_k - 1'Pi_k), floors on C_k and W_K, and last the
    nonnegativity of Pi.
    Returns (oracle, A, b, X0) with A (B, m, D), b (B, m) and the interior
    start X0 (B, D), toward which `_blend_start` moves each leg's plan; the
    oracle evaluates point j on leg rows[j].  All per-leg arithmetic is
    elementwise or a stacked BLAS slice, so leg i gives the same problem
    alone or in any batch.
    """
    K, n = p.K, p.n
    B = ctxs.C.shape[0]
    D = K * (n + 1)
    Rf = p.R_f
    excess = ctxs.R - Rf                             # (B, K, n)
    pi_idx = np.arange(D).reshape(K, n + 1)[:, :n]   # Pi_k coordinates, (K, n)
    c_idx = np.arange(K) * (n + 1) + n               # C_k coordinates, (K,)

    # W_k(x) = w_const[k] + w_coef[:, k] . x  for k = 0..K
    w_coef = np.zeros((B, K + 1, D))
    w_const = np.zeros(K + 1)
    w_const[0] = p.W0
    for k in range(K):
        w_coef[:, k + 1] = Rf * w_coef[:, k]
        w_coef[:, k + 1, pi_idx[k]] += excess[:, k]
        w_coef[:, k + 1, c_idx[k]] -= 1.0
        w_const[k + 1] = Rf * w_const[k]
    a_term = w_coef[:, K]

    # Rows: (budget_k, floor_k) for each stage, the bequest floor, then -Pi <= 0.
    m = 2 * K + 1 + K * n
    A = np.zeros((B, m, D))
    b = np.zeros((B, m))
    budget = 2 * np.arange(K)   # budget_k's row; floor_k's is the next
    A[:, budget] = -Rf * w_coef[:, :K]
    A[:, budget[:, None], pi_idx] += Rf
    A[:, budget, c_idx] += 1.0
    A[:, budget + 1, c_idx] = -1.0
    b[:, budget] = Rf * w_const[:K]
    b[:, budget + 1] = -AMOUNT_FLOOR
    A[:, 2 * K] = -a_term
    b[:, 2 * K] = w_const[K] - AMOUNT_FLOOR
    A[:, 2 * K + 1:] = -np.eye(D)[pi_idx.reshape(-1)]

    # The utility terms are CRRA in Y = (C_0, ..., C_{K-1}, W_K), which is
    # affine in x, and the penalty is lin'x + constant.
    P = np.zeros((B, D, K + 2))
    P[:, c_idx, np.arange(K)] = 1.0
    P[:, :, K] = a_term
    P[:, pi_idx, K + 1] = forms.lin_Pi
    P[:, c_idx, K + 1] = forms.lin_C
    z0 = np.zeros((B, K + 2))
    z0[:, K] = w_const[K]
    z0[:, K + 1] = forms.constant
    oracle = concave.crra_oracle(P, z0, _utility_weights(p), p.gamma)

    # Start: baseline decisions pulled a tenth of the way toward a strictly
    # interior trajectory built forward with the realized returns, so the
    # barrier starts near its central path instead of on the boundary.  The
    # interior path puts eta of wealth into the risky assets, split evenly,
    # and consumes eta; scaling eta by min(1, R_f), as `dp_solver._default_start`
    # scales the Bellman nodes' centred start, keeps the budget
    # C_k <= R_f (W_k - 1'Pi_k) slack for any R_f > 0.
    x_base = np.zeros((B, D))
    x_base[:, pi_idx] = ctxs.Pi
    x_base[:, c_idx] = ctxs.C
    eta = 0.1 * min(1.0, Rf)
    x_int = np.zeros((B, D))
    Wk = np.full(B, p.W0)
    for k in range(K):
        x_int[:, pi_idx[k]] = (eta * Wk / n)[:, None]
        x_int[:, c_idx[k]] = eta * Wk
        invested = (excess[:, k, None, :] @ x_int[:, pi_idx[k], None])[:, 0, 0]
        Wk = Wk * Rf + invested - eta * Wk
    X0 = 0.9 * x_base + 0.1 * x_int
    return oracle, A, b, X0


def assemble_inner(p: ModelParams, form: penalties.PenaltyForm, ctx: penalties.PenaltyContext):
    """Inner problem of one path leg as (oracle, (A, b, face), start), its
    dual face and start; the N = 1 call of `_dual_plan`, which `upper_bound`
    makes per task, and of `assemble_inner_batch` and `_blend_start`, which
    it makes per slice, for `concave.maximize`."""
    form, ctx = penalties.as_stack(form), penalties.as_stack(ctx)
    plan = _dual_plan(p, form, ctx)
    oracle, A, b, X0 = assemble_inner_batch(p, form, ctx)
    return oracle, (A[0], b[0], plan.face[0]), _blend_start(plan, oracle, A, b, X0)[0]


def _floor_chain(p: ModelParams, R, lin_Pi, lin_C, constant, lam_K):
    """The inner problem's Lagrangian dual G and its slope G' at lam_K, along
    the floor chain, for each leg of a stack: R (B, K, n) and the form's
    lin_Pi (B, K, n), lin_C (B, K) and constant (B,).

    Stage k's candidates for lambda_k are the bond's R_f lambda_{k+1} and
    asset j's R_kj lambda_{k+1} - lin_Pi[k, j].  lambda_k is their maximum,
    and its slope in lam_K is the largest gross return among the maximal
    candidates times lambda_{k+1}'s.  With y_k = lin_C[k] + lambda_k / R_f,

        G = lambda_0 W_0 - constant + sum_k c(w_k, y_k) + c(w_K, lam_K),
        c(w, y) = sup_C w C^(1-gamma)/(1-gamma) - y C = gamma/(1-gamma) C y,

    at C = (y / w)^(-1/gamma), and dc/dy = -C.  Any lam_K > 0 gives G >= the
    inner maximum (weak duality; the floors on C_k and W_K only lower it).
    Returns (G, G', top) with top (B, K, n+1) marking the maximal
    candidates, the bond first.  A leg with some y_k <= 0 has G = +inf, and
    G' = -inf so that a search moves its lam_K up.
    """
    B, K = lam_K.size, p.K
    # Stage-major candidate lines (K, B, n+1), the bond's first.
    gross = np.concatenate([np.full((K, B, 1), p.R_f), R.transpose(1, 0, 2)], axis=2)
    offset = np.concatenate([np.zeros((K, B, 1)), lin_Pi.transpose(1, 0, 2)], axis=2)
    lam = np.empty((K + 1, B))
    lam[K] = lam_K
    for k in range(K - 1, -1, -1):
        lam[k] = np.maximum.reduce(gross[k] * lam[k + 1, :, None] - offset[k], axis=1)
    top = gross * lam[1:, :, None] - offset == lam[:-1, :, None]
    # d lambda_k / d lam_K: the product of the stage growths from K-1 down to k.
    growth = np.maximum.reduce(np.where(top, gross, 0.0), axis=2)
    slopes = np.multiply.accumulate(growth[::-1], axis=0)[::-1]
    # Leg-major copies, so that each leg's sums over k run on a contiguous
    # row in the same order whatever B is.
    lams, slopes = np.ascontiguousarray(lam[:-1].T), np.ascontiguousarray(slopes.T)
    y = lin_C + lams / p.R_f
    feasible = y.min(axis=1) > 0.0
    y = np.where(feasible[:, None], y, 1.0)
    w = _utility_weights(p) ** (1.0 / p.gamma)
    C = w[:K] * y ** (-1.0 / p.gamma)
    C_K = w[K] * lam_K ** (-1.0 / p.gamma)
    G = (lams[:, 0] * p.W0 - constant
         + p.gamma / (1.0 - p.gamma) * ((C * y).sum(axis=1) + C_K * lam_K))
    dG = slopes[:, 0] * p.W0 - (C * slopes).sum(axis=1) / p.R_f - C_K
    return np.where(feasible, G, np.inf), np.where(feasible, dG, -np.inf), top.transpose(1, 0, 2)


def _dual_bracket(p: ModelParams, forms, ctxs) -> tuple:
    """Each leg's search of lam_K for the sign change of G' (`_floor_chain`).

    Multipliers lambda_k on the wealth equations W_{k+1} = R_f B_k + R_k'Pi_k
    (bond holding B_k = W_k - 1'Pi_k - C_k / R_f) make the inner problem's
    dual a function of lambda_K alone: every stage of the optimum holds
    something, so lambda_k sits on its floor max(R_f lambda_{k+1},
    max_j(R_kj lambda_{k+1} - lin_Pi[k, j])) (Boyd & Vandenberghe 2004,
    5.1-5.5).  The search starts at the baseline's terminal marginal utility
    w_K W_K^-gamma, doubles or halves lam_K until G' changes sign, then takes
    tangent-intersection steps, bisecting where the intersection is not
    inside the bracket.  A leg stops when its bracket's relative width is at
    most DUAL_REL_WIDTH, when its two ends mark the same candidates maximal
    (each candidate is maximal on an interval of lam_K, so every lam_K
    between them then does too), or after DUAL_MAX_EVALS evaluations.

    Returns (lo, hi, top_lo, top_hi): each leg's bracket, G' < 0 at lo and
    >= 0 at hi, with the maximal candidates at its ends.  A side not found
    within the cap reads lo = 0 or hi = inf and takes the other's candidates.
    Every operation acts leg by leg, so a leg gets the same bracket alone or
    in any stack.
    """
    K = p.K
    W_K = p.R_f * ctxs.W[:, -1] + ((ctxs.R[:, -1] - p.R_f) * ctxs.Pi[:, -1]).sum(axis=1) - ctxs.C[:, -1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = _utility_weights(p)[K] * W_K ** -p.gamma
        x = np.where(np.isfinite(x) & (x > 0.0), x, 1.0)  # w_K = 0 where alpha = 1
        G, dG, top = _floor_chain(p, ctxs.R, forms.lin_Pi, forms.lin_C, forms.constant, x)
        below = dG < 0.0
        lo, hi = np.where(below, x, 0.0), np.where(below, np.inf, x)
        G_lo, G_hi, dG_lo, dG_hi = G, G.copy(), dG, dG.copy()
        top_lo, top_hi = top, top.copy()
        for _ in range(DUAL_MAX_EVALS - 1):
            bracketed = (lo > 0.0) & (hi < np.inf)
            searching = ~bracketed | ((hi - lo > DUAL_REL_WIDTH * hi) & ~(top_lo == top_hi).all(axis=(1, 2)))
            j = np.flatnonzero(searching)
            if j.size == 0:
                break
            a, z = lo[j], hi[j]
            cut = (G_hi[j] - G_lo[j] + dG_lo[j] * a - dG_hi[j] * z) / (dG_lo[j] - dG_hi[j])
            x = np.where(z == np.inf, 2.0 * a, np.where(a == 0.0, 0.5 * z,
                         np.where((cut > a) & (cut < z), cut, 0.5 * (a + z))))
            G, dG, top = _floor_chain(p, ctxs.R[j], forms.lin_Pi[j], forms.lin_C[j], forms.constant[j], x)
            below = dG < 0.0
            up, down = j[below], j[~below]
            lo[up], G_lo[up], dG_lo[up], top_lo[up] = x[below], G[below], dG[below], top[below]
            hi[down], G_hi[down], dG_hi[down], top_hi[down] = x[~below], G[~below], dG[~below], top[~below]
    return lo, hi, top_lo, top_hi


@dataclass(frozen=True)
class _DualPlan:
    """What each leg of a stack takes from its dual search (`_dual_plan`)."""

    face: np.ndarray     # (B, m) bool: the face, in the row order of `assemble_inner_batch`
    x: np.ndarray        # (B, D): the primal optimum the dual recovers
    usable: np.ndarray   # (B,) bool: whether x may start the leg's solve


def _dual_plan(p: ModelParams, forms, ctxs) -> _DualPlan:
    """Each leg's dual face and recovered optimum, from one `_dual_bracket`
    search.

    A candidate that is maximal at neither end of the bracket has a positive
    multiplier, so its holding is zero: the face holds the budget row of
    stage k (B_k = 0) where the bond is such a candidate, and the row
    Pi_kj >= 0 where asset j is; no consumption or bequest floor.

    The start is the primal optimum that the dual recovers (Boyd &
    Vandenberghe 2004, 5.5.5).  Where the bracket's ends mark the same
    candidates, every lambda_k is affine in lam_K between them, and Newton
    steps on G', clipped to the bracket, give lam_K; where they differ at
    one stage, one candidate at each end, lam_K is where those two tie.
    Then C_k = (y_k / w_k)^(-1/gamma) and stage k invests
    rest_k = W_k - C_k / R_f in its maximal candidate, W_k forward from W_0.
    The tied stage puts in its high end's candidate the share of its rest
    at which W_K = C_K: W_K - C_K is G' along the low end's candidates at
    share 0 and along the high end's at share 1, and affine in between.  A
    leg's recovered point is not usable where its bracket is open or it
    ties at two stages.  Every operation acts leg by leg.
    """
    K, n, Rf, gamma = p.K, p.n, p.R_f, p.gamma
    lo, hi, top_lo, top_hi = _dual_bracket(p, forms, ctxs)
    B = lo.size
    held = top_lo | top_hi                      # (B, K, n+1): bond, then the assets
    face = np.zeros((B, 2 * K + 1 + K * n), dtype=bool)
    face[:, :2 * K:2] = ~held[:, :, 0]
    face[:, 2 * K + 1:] = ~held[:, :, 1:].reshape(-1, K * n)

    # The gross return and offset of each stage's maximal candidate at the
    # low end ([0]) and the high end ([1]).
    at = np.stack([top_lo, top_hi]).argmax(axis=3)[..., None]
    gross, offset = (np.take_along_axis(line[None], at, 3)[..., 0] for line in (
        np.concatenate([np.full((B, K, 1), Rf), ctxs.R], axis=2),
        np.concatenate([np.zeros((B, K, 1)), forms.lin_Pi], axis=2)))
    differ = at[0, ..., 0] != at[1, ..., 0]
    tied = differ.any(axis=1)
    usable = (lo > 0.0) & (hi < np.inf) & (differ.sum(axis=1) <= 1)
    # lambda_k = slope_k lam_K + icpt_k along the low end's candidates, and
    # the slopes along the high end's, which differ up to the tie.
    slope, icpt = np.ones((2, B, K + 1)), np.zeros((B, K + 1))
    for k in range(K - 1, -1, -1):
        slope[..., k] = gross[..., k] * slope[..., k + 1]
        icpt[:, k] = gross[0, :, k] * icpt[:, k + 1] - offset[0, :, k]
    w = _utility_weights(p) ** (1.0 / gamma)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tie = (offset[0] - offset[1]) / (gross[0] - gross[1])   # lambda_{k+1} where the ends' candidates tie
        lam_K = np.where(tied, np.where(differ, (tie - icpt[:, 1:]) / slope[0, :, 1:], 0.0).sum(axis=1), hi)
        run = usable & ~tied
        for step in range(DUAL_NEWTON_STEPS + 1):
            y = forms.lin_C + (slope[0, :, :K] * lam_K[:, None] + icpt[:, :K]) / Rf
            C, C_K = w[:K] * y ** (-1.0 / gamma), w[K] * lam_K ** (-1.0 / gamma)
            # G' along each end's candidates: W_K, all of each stage's rest
            # in that candidate, less C_K.
            dG = slope[..., 0] * p.W0 - (C * slope[..., :K]).sum(axis=2) / Rf - C_K
            if step == DUAL_NEWTON_STEPS or not run.any():
                break
            # The Newton step in C_K, in which G' is linear for the zero
            # penalty; gamma G'' = curv.
            curv = (C / y * slope[0, :, :K] ** 2).sum(axis=1) / Rf ** 2 + C_K / lam_K
            nxt = np.clip((C_K * (1.0 + dG[0] / (lam_K * curv)) / w[K]) ** -gamma, lo, hi)
            run &= np.abs(nxt - lam_K) > 1e-13 * lam_K
            lam_K = np.where(run, nxt, lam_K)
        # The tied stage puts the share of its rest in the high end's
        # candidate at which W_K = C_K; W_K is affine in that share.
        share = np.where(differ, (dG[0] / (dG[0] - dG[1]))[:, None], 0.0)
        growth = gross[0] + share * (gross[1] - gross[0])
        W, rest = np.full(B, p.W0), np.empty((B, K, 1))
        for k in range(K):
            rest[:, k, 0] = W - C[:, k] / Rf
            W = rest[:, k, 0] * growth[:, k]
        share = share[..., None]
        hold = rest * (top_lo * (1.0 - share) + (top_hi > top_lo) * share)
        hold[:, :, 0] = C   # the bond's place takes C_k, last in x's stage order
    return _DualPlan(face, np.roll(hold, -1, axis=2).reshape(B, -1), usable)


def _blend_start(plan: _DualPlan, oracle, A, b, X0) -> np.ndarray:
    """Each leg's start: its recovered optimum moved DUAL_START_BLEND of the
    way toward its interior start X0, or X0 where the plan is not usable or
    the blend is not strictly feasible with a finite objective."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start = (1.0 - DUAL_START_BLEND) * plan.x + DUAL_START_BLEND * X0
        usable = plan.usable & ((b - concave.stacked_matvec(A, start)).min(axis=1) > 0.0)
        usable &= np.isfinite(oracle.value(start, np.arange(len(X0))))
    return np.where(usable[:, None], start, X0)



def gap_fraction(lower: float, uppers) -> float:
    """Gap of the tightest (smallest) upper bound, as a fraction of |lower|."""
    return (min(uppers) - lower) / abs(lower)


def duality_gap(lower: BoundEstimate, upper_m1: BoundEstimate,
                upper_m2: Optional[BoundEstimate] = None) -> dict:
    """Tightest-upper-bound gap, as a fraction of the lower bound (value and CE)."""
    uppers = [u for u in (upper_m1, upper_m2) if u is not None]
    return {
        "value_gap_frac": gap_fraction(lower.mean, [u.mean for u in uppers]),
        "ce_gap_frac": gap_fraction(lower.ce_mean, [u.ce_mean for u in uppers]),
    }


def csv_rows(estimates, header: bool = True) -> str:
    """Render BoundEstimates into the CSV schema (locale-free '.' decimals)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(CSV_COLUMNS)
    for est in estimates:
        cfg = est.config
        writer.writerow([
            cfg.parameter_set_id if cfg.parameter_set_id is not None else "custom",
            repr(cfg.gamma) if cfg.gamma is not None else "",
            est.kind,
            est.penalty,
            repr(est.mean),
            repr(est.stderr),
            repr(est.ce_mean),
            repr(est.ce_stderr),
            cfg.paths_per_run,
            cfg.runs,
            cfg.seed,
            est.flagged_paths,
        ])
    return buf.getvalue()
