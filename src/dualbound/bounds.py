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
to its one-path simulation; an upper-bound chunk solves the inner problems
of its legs as one lockstep batch, each bit-identical to its one-problem
solve.  Neither chunk size depends on the worker count.
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
# (run, path) pairs per upper-bound task, solved as one batch, at inner
# dimension D = 40 (K = 10, n = 3); `_upper_chunk_pairs` scales it by 40 / D.
# A larger batch pays less per-call overhead a leg but holds more solver
# temporaries, which grow like D^2 a leg: at K = 10 about 62 KB (m1) to 87 KB
# (zero), at K = 40 about 1 MB.  On the set-1 `dual-bound` benchmark, 16 pairs
# instead of 8 cut wall time by 16% for +3% peak RSS; 32 pairs cut 3% more
# for +10%.  At K = 40, 4 pairs take 5-9% less time a leg than 16 at a third
# of the tracemalloc peak; 1 pair, a (40 / D)^2 scaling, takes 3-6% more.
UPPER_CHUNK_PAIRS = 16

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
    legs = 2 if cfg.antithetic else 1
    Z = np.empty((len(runs) * legs, K, n))
    Ztilde = np.empty((len(runs) * legs, K, d))
    Z[::legs] = draws[:, :K * n].reshape(-1, K, n)
    Ztilde[::legs] = draws[:, K * n:].reshape(-1, K, d)
    if cfg.antithetic:
        np.negative(Z[0::2], out=Z[1::2])
        np.negative(Ztilde[0::2], out=Ztilde[1::2])
    return Z, Ztilde


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
    """Inner optima and cap flags of the legs of flat pairs [start, stop),
    solved as one batch.  A leg whose start is not strictly feasible has no
    inner optimum (its f is -inf) and raises PathError."""
    p, vg, cfg, policy = _STATE["p"], _STATE["vg"], _STATE["cfg"], _STATE["policy"]
    try:
        ctxs = penalties.build_contexts(p, vg, policy, *_chunk_shocks(p, cfg, span))
    except AdmissibilityError as exc:
        raise _path_error("upper", cfg, span, exc.row, exc) from exc
    forms = penalties.penalty_form(cfg.penalty_kind, ctxs, p)
    sols = concave.maximize_batch(*assemble_inner_batch(p, forms, ctxs),
                                  tol=INNER_TOL, max_newton=INNER_MAX_NEWTON)
    for leg, sol in enumerate(sols):
        if sol.status == concave.STATUS_INFEASIBLE:
            raise _path_error("upper", cfg, span, leg, "the inner problem's start is not strictly feasible")
    return [sol.f for sol in sols], sum(sol.status != concave.STATUS_CONVERGED for sol in sols)


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
    """Pairs per upper-bound task for inner problems of dimension D = K (n + 1)."""
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

    The flat (run, path) list is cut into tasks of `_upper_chunk_pairs(p)`
    pairs (across run boundaries), and each task solves the inner problems of
    its legs as one `concave.maximize_batch` call; every leg's optimum is
    bit-identical to its own `assemble_inner` + `maximize`, so the results do
    not depend on the task size.

    Paths whose inner solve stops at the iteration cap keep the last iterate
    and are counted in flagged_paths.  That iterate understates the inner
    maximum, which biases the bound down and can make it no upper bound at
    all; the estimate is a valid upper bound only when flagged_paths == 0.
    """
    results = _run_tasks(_upper_task, _spans(cfg, _upper_chunk_pairs(p)), p, vg, cfg, workers)
    values = [f for task_values, _ in results for f in task_values]
    flagged = sum(task_flagged for _, task_flagged in results)
    return _estimate("upper", cfg, p, _collect(cfg, values), len(values), flagged=flagged)


def assemble_inner_batch(p: ModelParams, forms, ctxs):
    """Inner problems of B path legs, stacked for `concave.maximize_batch`.

    `forms` and `ctxs` are stacks of B legs (see `penalties.penalty_form`).
    Leg i maximizes utility minus its form over x = (Pi_0, C_0, ...,
    Pi_{K-1}, C_{K-1}) along its context.  Wealth is eliminated by forward
    substitution, making every W_k affine in x; constraints are the per-stage
    budget C_k <= R_f (W_k - 1'Pi_k), floors on C_k and W_K, and last the
    nonnegativity of Pi.
    Returns (oracle, A, b, X0) with A (B, m, D), b (B, m) and X0 (B, D); the
    oracle evaluates point j on leg rows[j].  All per-leg arithmetic is
    elementwise or a stacked BLAS slice, so leg i gives the same problem
    alone or in any batch.
    """
    K, n = p.K, p.n
    B = ctxs.W.shape[0]
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
    for k in range(K):
        A[:, 2 * k] = -Rf * w_coef[:, k]
        A[:, 2 * k, pi_idx[k]] += Rf
        A[:, 2 * k, c_idx[k]] += 1.0
        b[:, 2 * k] = Rf * w_const[k]
        A[:, 2 * k + 1, c_idx[k]] = -1.0
        b[:, 2 * k + 1] = -AMOUNT_FLOOR
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
    weights = np.append(p.alpha * p.delta * p.beta ** (np.arange(K) * p.delta),
                        (1.0 - p.alpha) * p.beta ** (K * p.delta))
    oracle = concave.crra_oracle(P, z0, weights, p.gamma)

    # Start: baseline decisions pulled a tenth of the way toward a strictly
    # interior trajectory built forward with the realized returns, so the
    # barrier starts near its central path instead of on the boundary.  The
    # interior path puts eta of wealth into the risky assets, split evenly,
    # and consumes eta; scaling eta by R_f (as `dp_solver._default_start`
    # does) keeps the budget C_k <= R_f (W_k - 1'Pi_k) slack for any R_f > 0.
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
    """Inner problem of one path leg as (oracle, (A, b), start); the N = 1
    call of `assemble_inner_batch`, for `concave.maximize`."""
    oracle, A, b, X0 = assemble_inner_batch(p, penalties.as_stack(form), penalties.as_stack(ctx))
    return oracle, (A[0], b[0]), X0[0]


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
