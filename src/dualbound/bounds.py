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
the contexts and penalties, runs the dual search and checks the
certificate of all its legs at once.  Every leg is bit-identical to its
one-leg computation, and the tasks do not depend on the worker count.

Each leg's bound comes from the inner problem's Lagrangian dual, which the
floor chain of the wealth multipliers makes a function of the terminal
multiplier lambda_K alone (`_floor_chain`).  Every gross return is
positive, so each wealth multiplier is a convex, increasing, piecewise-linear
function of lambda_K: `_breakpoints` finds each leg's breakpoints in one
pass, `_dual_search` bisects the dual's slope over the pieces between them
to two adjacent pieces, and `_dual_plan` finds in them, in closed form or by
Newton steps along one piece, where that slope changes sign.  It reads off
there the primal optimum the dual recovers (the consumption that lambda
prices and the wealth that the maximal candidates carry) and the
multipliers of its rows (each candidate's gap below lambda_k, and on a
floored amount's floor row the price its utility leaves).  The task
certifies each leg by the KKT conditions at that point with those
multipliers (Boyd & Vandenberghe 2004, 5.5.3), the test
`concave.maximize_batch` makes with them as `warm` and `duals`, but read
off the wealth chain in O(K n) a leg (`_certify_legs`), so that a certified
leg needs neither its (m, D) rows nor a Newton step; it reports the primal
optimum f.  A leg it misses reports G at its lambda_K, an upper bound on
its inner maximum by weak duality.
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
# (run, path) pairs per block of an upper-bound task's certificate at inner
# dimension D = 40 (K = 10, n = 3); `_upper_chunk_pairs` scales it by 40 / D.
# `_certify_legs` builds the objective stacks of a block's legs at a time,
# about D (K + 2) floats a leg (3.8 KB at D = 40, 54 KB at D = 160), so the
# block keeps them below the dual search's peak: stacks of a whole task at
# once raised its tracemalloc peak from 5.1 to 8.3 KB a leg at K = 10, and
# from 30 to 71 KB at K = 40.
UPPER_CHUNK_PAIRS = 16
# Certificate blocks per upper-bound task.  A task draws its shocks, builds
# its contexts and penalties, runs the dual search and checks the
# certificate once for all its legs, work that pays a fixed cost a call: on
# the `dual-bound` benchmark, 64-pair tasks took a fifth less wall time than
# 16-pair ones, and a task peaks at about 5.1 KB a leg, in the dual search.
# A multiple of the block keeps the task's memory scaling with D like the
# blocks'.
UPPER_SLICES_PER_TASK = 4
# `_dual_plan`'s Newton steps on lam_K per leg, at most.  From the breakpoint
# that ends its piece, every leg measured (sets 1-4 at gamma 1.5 to 20, K = 20
# and 40, R_f = 5e-4, alpha 0 and 1) takes at most 4, and a zero-penalty leg
# 1.
DUAL_NEWTON_STEPS = 20

CSV_COLUMNS = (
    "parameter_set", "gamma", "bound_type", "penalty", "value_mean", "value_stderr",
    "ce_mean", "ce_stderr", "paths_per_run", "runs", "seed", "flagged_paths",
)


class PathError(RuntimeError):
    """A path-level failure, carrying the (seed, run, path) triple for replay."""


class EstimateError(RuntimeError):
    """A bound whose run means admit no certainty equivalent."""


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
    """Inner upper bounds of the legs of flat pairs [start, stop), and the
    count of those not certified.

    The task builds the contexts and forms of all its legs and runs their
    dual search as one stack (`_dual_plan`).  It then certifies all its
    legs at the optima their duals recover in one pass (`_certify_legs`,
    whose objective stacks take `_upper_chunk_pairs(p)` pairs at a time);
    a certified leg reports its optimum's f.  A leg that misses reports its
    dual value G at its lam_K (`_floor_chain`, on the missed legs only), a
    bound by weak duality, and is counted; one whose G is not finite raises
    PathError."""
    p, vg, cfg, policy = _STATE["p"], _STATE["vg"], _STATE["cfg"], _STATE["policy"]
    try:
        ctxs = penalties.build_contexts(p, vg, policy, *_chunk_shocks(p, cfg, span))
    except AdmissibilityError as exc:
        raise _path_error("upper", cfg, span, exc.row, exc) from exc
    forms = penalties.penalty_form(cfg.penalty_kind, ctxs, p)
    warm, duals, lam_K = _dual_plan(p, forms, ctxs)
    block = _upper_chunk_pairs(p) * (2 if cfg.antithetic else 1)
    certified, values = _certify_legs(p, forms, ctxs.R, warm, duals, block)
    missed = np.flatnonzero(~certified)
    if missed.size:
        legs = penalties.take(forms, missed)
        values[missed] = _floor_chain(p, _candidate_lines(p, legs, penalties.take(ctxs, missed)), legs.lin_C,
                                      legs.constant, _utility_weights(p) ** (1.0 / p.gamma), lam_K[missed])[0]
        bad = missed[~np.isfinite(values[missed])]
        if bad.size:
            raise _path_error("upper", cfg, span, int(bad[0]), "the inner problem's dual value is not finite")
    return values.tolist(), missed.size


def _certify_legs(p: ModelParams, forms, R, warm, duals, block: int) -> tuple:
    """(certified, f) of a stack of legs with returns R at their
    `_dual_plan` points and multipliers: `concave.certificate`, the test
    `maximize_batch` makes on their `assemble_inner_batch` problems, with
    each quantity read off the wealth chain in O(K n) a leg instead of the
    (B, m, D) rows; and f at each point, `crra_oracle`'s bits from the
    objective stacks of `block` legs at a time.

    With x = (Pi_k, C_k), W_0 = W0 and W_{k+1} = R_f W_k + (R_k - R_f)'Pi_k
    - C_k, the rows' slacks are R_f (W_k - 1'Pi_k) - C_k (budget), C_k -
    AMOUNT_FLOOR (floor), W_K - AMOUNT_FLOOR (bequest) and Pi_kj.  With
    om = w_K W_K^-gamma, df/dPi_kj = om (R_kj - R_f) R_f^(K-1-k) - lin_Pi
    and df/dC_k = w_k C_k^-gamma - om R_f^(K-1-k) - lin_C.  With
    mu_{K-1} = nu_bequest and mu_k = R_f (mu_{k+1} + nu_budget,k+1),
    (A'nu)_C_k = nu_budget,k + mu_k - nu_floor,k and (A'nu)_Pi_kj =
    R_f nu_budget,k - (R_kj - R_f) mu_k - nu_Pi,kj.
    """
    K, n, Rf, gamma = p.K, p.n, p.R_f, p.gamma
    B = len(warm)
    excess = R - Rf
    Pi, C = warm.reshape(B, K, n + 1)[..., :n], warm[:, n::n + 1]
    nu = duals[:, :2 * K].reshape(B, K, 2)   # each stage's (budget, floor)
    weight = _utility_weights(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        flow, W, mu = (excess * Pi).sum(axis=2) - C, np.full((B, K + 1), p.W0), np.empty((B, K))
        mu[:, K - 1] = duals[:, 2 * K]
        for k in range(K):
            W[:, k + 1] = Rf * W[:, k] + flow[:, k]
        for k in range(K - 2, -1, -1):
            mu[:, k] = Rf * (mu[:, k + 1] + nu[:, k + 1, 0])
        budget = Rf * (W[:, :K] - Pi.sum(axis=2)) - C
        S = np.concatenate([np.stack([budget, C - AMOUNT_FLOOR], axis=2).reshape(B, -1), W[:, K:] - AMOUNT_FLOOR,
                            Pi.reshape(B, -1)], axis=1)
        om = (weight[K] * W[:, K] ** -gamma)[:, None] * Rf ** np.arange(K - 1, -1, -1.0)
        grad, ATnu = np.empty((2, B, K, n + 1))
        grad[..., :n] = om[..., None] * excess - forms.lin_Pi
        grad[..., n] = weight[:K] * C ** -gamma - om - forms.lin_C
        ATnu[..., :n] = Rf * nu[..., :1] - excess * mu[..., None] - duals[:, 2 * K + 1:].reshape(B, K, n)
        ATnu[..., n] = nu[..., 0] + mu - nu[..., 1]
        F = np.concatenate([concave.crra_value(warm[i:i + block], *_objective(
            p, penalties.take(forms, slice(i, i + block)), excess[i:i + block]), weight, gamma)
            for i in range(0, B, block)])
        certified, _ = concave.certificate(S, _row_bounds(p)[0], duals, F,
                                           lambda ok: (grad.reshape(B, -1), ATnu.reshape(B, -1)), INNER_TOL)
    return certified, F


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
    """Pairs per certificate block for inner problems of dimension D = K (n + 1)."""
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
    ces = np.empty(cfg.runs)
    for r, v in enumerate(run_means.tolist()):
        try:
            ces[r] = certainty_equivalent(v, p.gamma)
        except ValueError as exc:
            raise EstimateError(f"{kind} bound: run {r} has mean {v:.6g}, of the wrong sign: {exc}") from exc
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
    """Dual bound: mean of per-path inner upper bounds under the configured
    penalty.

    The flat (run, path) list is cut into tasks of UPPER_SLICES_PER_TASK
    blocks of `_upper_chunk_pairs(p)` pairs (across run boundaries).  Each
    task runs the dual search of all its legs at once (`_dual_plan`) and
    checks the KKT conditions at the primal optimum each leg's dual
    recovers, with the dual's row multipliers, from the wealth chain
    (`_certify_legs`).  A certified leg reports that optimum's f,
    bit-identical to its own `assemble_inner` + `maximize`, with no inner
    problem built and no Newton step; every leg measured (sets 1-4 at gamma
    1.5 to 20, alpha 0 to 1, K = 10 to 40, R_f = 5e-4) certifies.  A leg
    the check misses reports its dual value G at its lam_K, an upper bound
    on its inner maximum by weak duality, bit-identical to its one-leg
    value; it is counted in flagged_paths, valid but not certified to be
    the maximum.  So the results depend on neither the task size nor the
    worker count.
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


def _row_bounds(p: ModelParams) -> tuple:
    """The inner problem's b (m,), the same for every leg, and W_K's
    constant R_f^K W_0 (see `assemble_inner_batch`)."""
    K = p.K
    w_const = np.multiply.accumulate(np.append(p.W0, np.full(K, p.R_f)))   # R_f^k W_0
    b = np.zeros(2 * K + 1 + K * p.n)
    b[:2 * K:2] = p.R_f * w_const[:K]
    b[1:2 * K:2] = -AMOUNT_FLOOR
    b[2 * K] = w_const[K] - AMOUNT_FLOOR
    return b, w_const[K]


def _objective(p: ModelParams, forms, excess) -> tuple:
    """The inner objective of legs with excess returns R - R_f (B, K, n) as
    `concave.crra_oracle`'s (P, z0): CRRA in Y = (C_0, ..., C_{K-1}, W_K),
    less the penalty lin'x + constant.  W_K's coefficients are stage k's
    (R_k - R_f, -1) times R_f, K-1-k times in turn, and its constant
    R_f^K W_0, as forward substitution rounds them."""
    K, n = p.K, p.n
    B, D = len(excess), K * (n + 1)
    a_term = np.concatenate([excess, np.full((B, K, 1), -1.0)], axis=2)
    for k in range(K - 1, 0, -1):
        a_term[:, :k] *= p.R_f
    c_idx = np.arange(K) * (n + 1) + n
    P = np.zeros((B, D, K + 2))
    P[:, c_idx, np.arange(K)] = 1.0
    P[:, :, K] = a_term.reshape(B, D)
    P[:, np.arange(D).reshape(K, n + 1)[:, :n], K + 1] = forms.lin_Pi
    P[:, c_idx, K + 1] = forms.lin_C
    z0 = np.zeros((B, K + 2))
    z0[:, K] = _row_bounds(p)[1]
    z0[:, K + 1] = forms.constant
    return P, z0


def assemble_inner_batch(p: ModelParams, forms, ctxs):
    """Inner problems of B path legs, stacked for `concave.maximize_batch`.

    `forms` and `ctxs` are stacks of B legs (see `penalties.penalty_form`);
    of the contexts only R, Pi and C are read.  Leg i maximizes utility
    minus its form over x = (Pi_0, C_0, ..., Pi_{K-1}, C_{K-1}) along its
    context.  Wealth is eliminated by forward substitution, making every
    W_k affine in x; constraints are the per-stage budget
    C_k <= R_f (W_k - 1'Pi_k), floors on C_k and W_K, and last the
    nonnegativity of Pi.
    Returns (oracle, A, b, X0) with A (B, m, D), b (B, m) and the interior
    start X0 (B, D); the oracle evaluates point j on leg rows[j].  All
    per-leg arithmetic is elementwise or a stacked BLAS slice, so leg i
    gives the same problem alone or in any batch.
    """
    K, n = p.K, p.n
    B = ctxs.C.shape[0]
    D = K * (n + 1)
    Rf = p.R_f
    excess = ctxs.R - Rf                             # (B, K, n)
    pi_idx = np.arange(D).reshape(K, n + 1)[:, :n]   # Pi_k coordinates, (K, n)
    c_idx = np.arange(K) * (n + 1) + n               # C_k coordinates, (K,)
    P, z0 = _objective(p, forms, excess)
    # W_k(x) = R_f^k W_0 + w_coef[:, k] . x  for k < K; W_K's row is P[:, :, K].
    w_coef = np.zeros((B, K, D))
    for k in range(K - 1):
        w_coef[:, k + 1] = Rf * w_coef[:, k]
        w_coef[:, k + 1, pi_idx[k]] += excess[:, k]
        w_coef[:, k + 1, c_idx[k]] -= 1.0
    b, _ = _row_bounds(p)

    # Rows: (budget_k, floor_k) for each stage, the bequest floor, then -Pi <= 0.
    A = np.zeros((B, b.size, D))
    b = np.tile(b, (B, 1))
    budget = 2 * np.arange(K)   # budget_k's row; floor_k's is the next
    A[:, budget] = -Rf * w_coef
    A[:, budget[:, None], pi_idx] += Rf
    A[:, budget, c_idx] += 1.0
    A[:, budget + 1, c_idx] = -1.0
    A[:, 2 * K] = -P[:, :, K]
    A[:, 2 * K + 1:] = -np.eye(D)[pi_idx.reshape(-1)]
    oracle = concave.crra_oracle(P, z0, _utility_weights(p), p.gamma)

    # Start: baseline decisions pulled a tenth of the way toward a strictly
    # interior trajectory built forward with the realized returns, so the
    # barrier starts near its central path instead of on the boundary.  The
    # interior path puts eta of wealth into the risky assets, split evenly,
    # and consumes eta; scaling eta by min(1, R_f) keeps the budget
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
    """Inner problem of one path leg as (oracle, (A, b, warm, duals), X0),
    its warm point, that point's row multipliers and its interior start, for
    `concave.maximize`; the N = 1 call of `_dual_plan`, which `upper_bound`
    makes per task, and of `assemble_inner_batch`.  A certified leg's
    `maximize` gives `upper_bound`'s f bit for bit."""
    form, ctx = penalties.as_stack(form), penalties.as_stack(ctx)
    warm, duals, _ = _dual_plan(p, form, ctx)
    oracle, A, b, X0 = assemble_inner_batch(p, form, ctx)
    return oracle, (A[0], b[0], warm[0], duals[0]), X0[0]


def _candidate_lines(p: ModelParams, forms, ctxs) -> tuple:
    """Each stage's candidate lines for lambda_k as (gross, offset), each
    (n+1, K, B), the bond's last, in the order of x's stage coordinates
    (see `_floor_chain`)."""
    B, K, n = ctxs.R.shape
    gross, offset = np.full((n + 1, K, B), p.R_f), np.zeros((n + 1, K, B))
    gross[:n] = ctxs.R.transpose(2, 1, 0)
    offset[:n] = forms.lin_Pi.transpose(2, 1, 0)
    return gross, offset


def _floor_chain(p: ModelParams, lines, lin_C, constant, w, lam_K):
    """The inner problem's Lagrangian dual G and its slope G' at lam_K, along
    the floor chain, for each leg of a stack: its candidate lines
    (`_candidate_lines`), the form's lin_C (B, K) and constant (B,), and
    w = `_utility_weights(p)` ** (1/gamma).

    Stage k's candidates for lambda_k are the bond's R_f lambda_{k+1} and
    asset j's R_kj lambda_{k+1} - lin_Pi[k, j].  lambda_k is their maximum,
    and its slope in lam_K is the largest gross return among the maximal
    candidates times lambda_{k+1}'s.  With y_k = lin_C[k] + lambda_k / R_f,

        G = lambda_0 W_0 - constant + sum_k c(w_k, y_k) + c(w_K, lam_K),
        c(w, y) = sup_C w C^(1-gamma)/(1-gamma) - y C = gamma/(1-gamma) C y,

    at C = (y / w)^(-1/gamma), and dc/dy = -C.  Any lam_K > 0 gives G >= the
    inner maximum (weak duality; the floors on C_k and W_K only lower it).
    Returns (G, G', top) with top (B, K, n+1) marking the maximal
    candidates, the bond last.  A leg with some y_k <= 0 has G = +inf and
    G' = -inf: its lam_K is below the minimizer.
    """
    gross, offset = lines
    B, K = lam_K.size, p.K
    lam = np.empty((K + 1, B))
    lam[K] = lam_K
    for k in range(K - 1, -1, -1):
        lam[k] = np.maximum.reduce(gross[:, k] * lam[k + 1] - offset[:, k], axis=0)
    top = gross * lam[1:] - offset == lam[:-1]
    # d lambda_k / d lam_K: the product of the stage growths from K-1 down to k.
    growth = np.maximum.reduce(np.where(top, gross, 0.0), axis=0)
    slopes = np.multiply.accumulate(growth[::-1], axis=0)[::-1]
    # Leg-major copies, so that each leg's sums over k run on a contiguous
    # row in the same order whatever B is.
    lams, slopes = np.ascontiguousarray(lam[:-1].T), np.ascontiguousarray(slopes.T)
    y = lin_C + lams / p.R_f
    feasible = y.min(axis=1) > 0.0
    y = np.where(feasible[:, None], y, 1.0)
    C = w[:K] * y ** (-1.0 / p.gamma)
    C_K = w[K] * lam_K ** (-1.0 / p.gamma)
    G = (lams[:, 0] * p.W0 - constant
         + p.gamma / (1.0 - p.gamma) * ((C * y).sum(axis=1) + C_K * lam_K))
    dG = slopes[:, 0] * p.W0 - (C * slopes).sum(axis=1) / p.R_f - C_K
    return np.where(feasible, G, np.inf), np.where(feasible, dG, -np.inf), top.transpose(2, 1, 0)


def _breakpoints(lines) -> tuple:
    """Each leg's breakpoints in lam_K, where a stage's maximal candidate
    changes, from its candidate lines (`_candidate_lines`).

    Every gross return is positive, so stage k's floor h_k(v) = max_j(g_kj v
    - o_kj) is convex, increasing and piecewise linear in v = lambda_{k+1},
    and so is each lambda_k in lam_K, a composition of such floors
    (Rockafellar 1970, section 5).  Candidate j is maximal on the interval
    of v between its ties (o_j - o_i) / (g_j - g_i) with the flatter lines i
    (the largest) and with the steeper ones (the smallest), where that
    interval is not empty; at its right end a steeper candidate takes over.
    The inverse floors h_m^-1(v) = min_i (v + o_mi) / g_mi, m = k+1, ...,
    K-1, map that end to lam_K; an end that maps to lam_K <= 0 lies below
    lambda_{k+1}(0+) and is never reached.  A stage has at most n
    breakpoints, so a leg has at most K n.

    Returns (edge, right, steep): edge (B, K n + 2) each leg's breakpoints
    in increasing order after a 0 and padded with +inf, so that its piece i
    is (edge[i], edge[i+1]); right (n+1, K, B) each candidate's right end in
    lam_K, +inf where it has none; and steep (K, B) each stage's steepest
    candidate, maximal above all its right ends.  Every operation acts leg
    by leg.
    """
    gross, offset = lines
    J, K, B = gross.shape
    left, right = np.full((J, K, B), -np.inf), np.full((J, K, B), np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(J):
            tie = (offset - offset[i]) / (gross - gross[i])
            np.maximum(left, np.where(gross > gross[i], tie, -np.inf), out=left)
            np.minimum(right, np.where(gross < gross[i], tie, np.inf), out=right)
        # A candidate never maximal maps to lam_K <= 0 from 0, and so does
        # every tie at some v <= 0.
        right = np.where(left < right, right, 0.0)
        # The inverse floors keep an end <= 0 there and +inf at +inf, so
        # where no leg has another (the zero penalty) neither they nor the
        # ordering below need run.
        reached = ((right > 0.0) & (right < np.inf)).any()
        if reached:
            for m in range(1, K):
                part, right[:, :m] = right[:, :m].copy(), np.inf
                for i in range(J):
                    np.minimum(right[:, :m], (part + offset[i, m]) / gross[i, m], out=right[:, :m])
    right = np.where(right > 0.0, right, np.inf)
    e = right.transpose(2, 1, 0).reshape(B, -1)
    if reached:
        # Each end's place in its leg's order is the count of ends below it,
        # one candidate at a time: numpy's sort code would add about 0.2 MB of
        # resident pages to a process that sorts nothing else.  Every +inf
        # goes to the last column.
        below = np.stack([(e[:, None, :] < end[:, :, None]).sum(axis=2) for end in right.transpose(0, 2, 1)], axis=2)
        place = np.where(e < np.inf, below.reshape(B, -1) + 1, K * J + 1)
    edge = np.full((B, K * J + 2), np.inf)
    edge[:, 0] = 0.0
    if reached:
        np.put_along_axis(edge, place, e, axis=1)
    return edge[:, :K * (J - 1) + 2], right, gross.argmax(axis=0)


def _dual_search(p: ModelParams, lines, forms, w) -> tuple:
    """Each leg's two adjacent pieces around the sign change of G'
    (`_floor_chain`), by bisection over the pieces of `_breakpoints`.

    G is convex in lam_K, so G' increases.  A leg starts with its outermost
    pieces, 0 and its last, and evaluates G' at the midpoint of the piece
    halfway between its two, which takes the low one's place where G' < 0
    there and the high one's where not.  It stops when its two pieces are
    adjacent, after about log2 of its piece count evaluations; the outermost
    pieces are never evaluated, and a leg with no breakpoint evaluates
    nothing.  Returns (ends, at): ends (3, B) the low piece's left end, the
    breakpoint where the two meet and the high piece's right end, (0, inf,
    inf) where a leg has no breakpoint and one piece; and at (2, K, B) each
    stage's maximal candidate on the low and the high piece, the one with
    the first right end at or above the piece's, or the steepest where
    there is none.  Every operation acts leg by leg.
    """
    edge, right, steep = _breakpoints(lines)
    high = (edge < np.inf).sum(axis=1) - 1
    low = 0 * high
    while (j := np.flatnonzero(high - low > 1)).size:
        piece = (low[j] + high[j]) >> 1   # a shift: numpy's integer // adds 64 KB of resident code
        x = 0.5 * (edge[j, piece] + edge[j, piece + 1])
        below = _floor_chain(p, (lines[0][..., j], lines[1][..., j]), forms.lin_C[j], forms.constant[j], w, x)[1] < 0.0
        low[j], high[j] = np.where(below, piece, low[j]), np.where(below, high[j], piece)
    ends = edge[np.arange(len(edge)), low + np.arange(3)[:, None]]
    ahead = np.where(right[:, None] >= ends[1:, None], right[:, None], np.inf)
    return ends, np.where(ahead.min(axis=0) < np.inf, ahead.argmin(axis=0), steep)


def _dual_plan(p: ModelParams, forms, ctxs) -> tuple:
    """Each leg's primal optimum as its dual recovers it (Boyd & Vandenberghe
    2004, 5.5.5), (B, D) in the coordinates of `assemble_inner_batch`, its
    rows' multipliers, (B, m) in the rows' order there, and its lam_K (B,).

    Each lambda_k is affine in lam_K on each piece between the breakpoints
    of `_breakpoints`, and `_dual_search` finds two adjacent pieces around
    the sign change of G', which meet at a breakpoint e.  G' at e along
    each piece's candidates decides: where G' along the low piece's is >= 0
    at e, lam_K is in the low piece; where G' along the high piece's is < 0
    at e, it is in the high piece; and otherwise G' jumps across 0 at e and
    lam_K = e.  In a piece, Newton steps on G' from e, clipped to the piece,
    give lam_K; a leg with no breakpoint starts them at lam_K = 1.
    C_k = max((y_k / w_k)^(-1/gamma), AMOUNT_FLOOR) and C_K the same way, so
    an amount whose utility weight w is 0 sits on its floor.  A floored
    amount adds nothing to the curvature of those Newton steps, which are
    taken in lam_K^(-1/gamma), where G' is linear for the zero penalty: its
    first step lands on lam_K = (b / a)^gamma for G' = a - b lam_K^(-1/gamma).
    Then stage k invests rest_k = W_k - C_k / R_f in its maximal candidate,
    W_k forward from W_0.  At lam_K = e the stage whose candidate changes
    there puts in the high piece's candidate the share of its rest at which
    W_K = C_K: W_K - C_K is G' along the low piece's candidates at share 0
    and along the high piece's at share 1, and affine in between.  The
    multipliers take lambda_k = slope_k lam_K + icpt_k along the low piece's
    candidates and lambda_K = lam_K: lambda_k / R_f - lambda_{k+1} on the
    budget row of stage k (-R_f B_k <= 0), lambda_k - (R_kj lambda_{k+1} -
    lin_Pi[k, j]) on the row -Pi_kj <= 0, exactly 0 for every candidate
    maximal on either piece, y_k - w_k C_k^(-gamma) on the floor row of a
    floored C_k, lam_K - w_K C_K^(-gamma) on the bequest floor row where C_K
    is floored, and exactly 0 on every other floor row.  Every operation
    acts leg by leg.
    """
    K, Rf, gamma = p.K, p.R_f, p.gamma
    lines = _candidate_lines(p, forms, ctxs)
    weight = _utility_weights(p)
    w = weight ** (1.0 / gamma)
    ends, at = _dual_search(p, lines, forms, w)
    B = ends.shape[1]
    # Each stage's candidate on the low piece ([0]) and the high piece ([1]),
    # and lambda_k = slope_k lam_K + icpt_k along each.
    gross, offset = (np.take_along_axis(line, at, 0).transpose(0, 2, 1) for line in lines)
    at = at.transpose(0, 2, 1)
    slope, icpt = np.ones((2, B, K + 1)), np.zeros((2, B, K + 1))
    for k in range(K - 1, -1, -1):
        slope[..., k] = gross[..., k] * slope[..., k + 1]
        icpt[..., k] = gross[..., k] * icpt[..., k + 1] - offset[..., k]

    def marginal(lam_K):
        """y and the amounts C, C_K along the low piece's candidates, and G'
        along each piece's (2, B), at lam_K."""
        y = forms.lin_C + (slope[0, :, :K] * lam_K[:, None] + icpt[0, :, :K]) / Rf
        C = np.maximum(w[:K] * y ** (-1.0 / gamma), AMOUNT_FLOOR)
        C_K = np.maximum(w[K] * lam_K ** (-1.0 / gamma), AMOUNT_FLOOR)
        # G' along each piece's candidates: W_K, all of each stage's rest in
        # that candidate, less C_K.
        return y, C, C_K, slope[..., 0] * p.W0 - (C * slope[..., :K]).sum(axis=2) / Rf - C_K

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam_K = np.where(ends[1] < np.inf, ends[1], 1.0)
        dG = marginal(lam_K)[3]
        in_low = (dG[0] >= 0.0) | (ends[1] == np.inf)
        in_high = ~in_low & ~(dG[1] >= 0.0)
        # A leg in one piece takes its candidates twice and its ends as the
        # bounds of lam_K; a tied leg keeps both pieces.
        pick = np.stack([in_high, ~in_low])[..., None]
        at, gross, slope, icpt = (np.where(pick, a[1], a[0]) for a in (at, gross, slope, icpt))
        lower, upper = np.where(in_high, ends[1:], ends[:2])
        run = in_low | in_high
        for step in range(DUAL_NEWTON_STEPS + 1):
            y, C, C_K, dG = marginal(lam_K)
            floored, floored_K = C == AMOUNT_FLOOR, C_K == AMOUNT_FLOOR
            if step == DUAL_NEWTON_STEPS or not run.any():
                break
            # The Newton step in lam_K^(-1/gamma); gamma G'' = curv, to which
            # a floored amount adds nothing.
            curv = ((np.where(floored, 0.0, C / y) * slope[0, :, :K] ** 2).sum(axis=1) / Rf ** 2
                    + np.where(floored_K, 0.0, C_K / lam_K))
            nxt = np.clip(lam_K * (1.0 + dG[0] / (lam_K * curv)) ** -gamma, lower, upper)
            run &= np.abs(nxt - lam_K) > 1e-13 * lam_K
            lam_K = np.where(run, nxt, lam_K)
        # The tied stage puts the share of its rest in the high piece's
        # candidate at which W_K = C_K; W_K is affine in that share.
        share = np.where(at[0] != at[1], (dG[0] / (dG[0] - dG[1]))[:, None], 0.0)
        growth = gross[0] + share * (gross[1] - gross[0])
        W, rest = np.full(B, p.W0), np.empty((B, K, 1))
        for k in range(K):
            rest[:, k, 0] = W - C[:, k] / Rf
            W = rest[:, k, 0] * growth[:, k]
        top = at[..., None] == np.arange(p.n + 1)
        hold = rest * np.where(top[0], 1.0 - share[..., None], top[1] * share[..., None])
        hold[:, :, p.n] = C   # the bond's place takes C_k, as in x's stage order
        # The rows' multipliers: each candidate's gap below lambda_k along the
        # low piece's candidates, the bond's per unit of the budget row (-R_f B_k).
        lam = slope[0] * lam_K[:, None] + icpt[0]
        gaps = lines[0].transpose(2, 1, 0) * lam[:, 1:, None]   # in place from here, to spare the task's memory
        gaps -= lines[1].transpose(2, 1, 0)
        np.subtract(lam[:, :K, None], gaps, out=gaps)
        gaps[top[0] | top[1]] = 0.0
        duals = np.zeros((B, 2 * K + 1 + K * p.n))
        duals[:, :2 * K:2] = gaps[:, :, p.n] / Rf
        # A floored amount's floor row takes the price its utility leaves.
        duals[:, 1:2 * K:2] = np.where(floored, y - weight[:K] * C ** -gamma, 0.0)
        duals[:, 2 * K] = np.where(floored_K, lam_K - weight[K] * C_K ** -gamma, 0.0)
        duals[:, 2 * K + 1:] = gaps[:, :, :p.n].reshape(B, -1)
    return hold.reshape(B, -1), duals, lam_K


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
