"""Monte Carlo lower and dual upper bounds on the expected utility.

Lower bounds simulate the grid policy; upper bounds solve one perfect-
foresight inner problem per path (utility minus penalty, concave after
eliminating wealth by forward substitution).  Statistics follow the
run-of-runs protocol: per-run means over paths, mean and standard error
across run means.  Path i of run r draws its Gaussians from a counter-based
generator keyed by (seed, r, i); the antithetic partner negates the draws,
so results are independent of worker count and replayable per path.  A
lower-bound run simulates its paths in fixed-size batches, each path
bit-identical to its one-path simulation.  An upper bound cuts the flat
(run, path) list into fixed-size chunks and solves the inner problems of a
chunk's legs as one lockstep batch, each bit-identical to its one-problem
solve.  Neither chunk size depends on the worker count.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import concave, dp_solver, penalties
from .market import AdmissibilityError, ModelParams, ShockPath, simulate_paths

INNER_TOL = 1e-6
INNER_MAX_NEWTON = 200
AMOUNT_FLOOR = 1e-10
LOWER_CHUNK_PAIRS = 64  # paths (antithetic pairs) per lower-bound simulation batch
# (run, path) pairs per upper-bound task, solved as one batch.  The solver's
# stacked temporaries grow with the batch: 8 pairs (16 legs) add about 2 MB to
# the peak RSS of a process, 32 pairs about 11 MB for about 15% more speed.
UPPER_CHUNK_PAIRS = 8

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


def _chunk_shocks(p, cfg, pairs):
    """Shocks of the legs of the (run, path) pairs, in (pair, base/antithetic) order."""
    legs = 2 if cfg.antithetic else 1
    Z = np.empty((len(pairs) * legs, p.K, p.n))
    Ztilde = np.empty((len(pairs) * legs, p.K, p.d))
    for j, (r, i) in enumerate(pairs):
        base = shock_path(p, cfg.seed, r, i)
        Z[j * legs], Ztilde[j * legs] = base.Z, base.Ztilde
        if cfg.antithetic:
            np.negative(base.Z, out=Z[j * legs + 1])
            np.negative(base.Ztilde, out=Ztilde[j * legs + 1])
    return Z, Ztilde


def _path_error(which, cfg, pairs, leg, reason):
    """PathError naming the (seed, run, path) of leg `leg` of the pairs' legs."""
    r, i = pairs[leg // (2 if cfg.antithetic else 1)]
    return PathError(f"{which}-bound path failed (seed={cfg.seed}, run={r}, path={i}): {reason}")


def _lower_task(r):
    """Mean utility over the legs of run r, in (path, base/antithetic) order."""
    p, cfg, policy = _STATE["p"], _STATE["cfg"], _STATE["policy"]
    values = []
    for start in range(0, cfg.paths_per_run, LOWER_CHUNK_PAIRS):
        pairs = [(r, i) for i in range(start, min(start + LOWER_CHUNK_PAIRS, cfg.paths_per_run))]
        try:
            path = simulate_paths(p, policy, *_chunk_shocks(p, cfg, pairs))
        except AdmissibilityError as exc:
            raise _path_error("lower", cfg, pairs, exc.row, exc) from exc
        values.append(path_utility(p, path.C, path.W[:, -1]))
    return float(np.mean(np.concatenate(values)))


def _upper_task(span):
    """Inner optima and cap flags of the legs of flat pairs [start, stop),
    solved as one batch.  A leg whose start is not strictly feasible has no
    inner optimum (its f is -inf) and raises PathError."""
    p, vg, cfg, policy = _STATE["p"], _STATE["vg"], _STATE["cfg"], _STATE["policy"]
    pairs = [divmod(q, cfg.paths_per_run) for q in range(*span)]
    try:
        ctxs = penalties.build_contexts(p, vg, policy, *_chunk_shocks(p, cfg, pairs))
    except AdmissibilityError as exc:
        raise _path_error("upper", cfg, pairs, exc.row, exc) from exc
    forms = penalties.penalty_form(cfg.penalty_kind, ctxs, p)
    sols = concave.maximize_batch(*assemble_inner_batch(p, forms, ctxs),
                                  tol=INNER_TOL, max_newton=INNER_MAX_NEWTON)
    for leg, sol in enumerate(sols):
        if sol.status == concave.STATUS_INFEASIBLE:
            raise _path_error("upper", cfg, pairs, leg, "the inner problem's start is not strictly feasible")
    return [sol.f for sol in sols], sum(sol.status != concave.STATUS_CONVERGED for sol in sols)


def _run_tasks(task_fn, tasks, p, vg, cfg, workers):
    # A fork-started pool forks all its workers up front; start no idle ones.
    workers = min(workers, len(tasks))
    if workers <= 1:
        _init_worker(p, vg, cfg)
        return [task_fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(p, vg, cfg)) as pool:
        return list(pool.map(task_fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


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
    """Expected utility of the grid policy, by policy simulation (one task per run)."""
    run_means = np.array(_run_tasks(_lower_task, list(range(cfg.runs)), p, vg, cfg, workers))
    total = cfg.runs * cfg.paths_per_run * (2 if cfg.antithetic else 1)
    return _estimate("lower", cfg, p, run_means, total, flagged=0)


def upper_bound(p: ModelParams, vg: dp_solver.ValueGrid, cfg: RunConfig,
                workers: int = 1) -> BoundEstimate:
    """Dual bound: mean of per-path inner optima under the configured penalty.

    The flat (run, path) list is cut into tasks of UPPER_CHUNK_PAIRS pairs
    (across run boundaries), and each task solves the inner problems of its
    legs as one `concave.maximize_batch` call; every leg's optimum is
    bit-identical to its own `assemble_inner` + `maximize`.

    Paths whose inner solve stops at the iteration cap keep the last iterate
    and are counted in flagged_paths.  That iterate understates the inner
    maximum, which biases the bound down and can make it no upper bound at
    all; the estimate is a valid upper bound only when flagged_paths == 0.
    """
    n_pairs = cfg.runs * cfg.paths_per_run
    tasks = [(start, min(start + UPPER_CHUNK_PAIRS, n_pairs))
             for start in range(0, n_pairs, UPPER_CHUNK_PAIRS)]
    results = _run_tasks(_upper_task, tasks, p, vg, cfg, workers)
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


def duality_gap(lower: BoundEstimate, upper_m1: BoundEstimate,
                upper_m2: Optional[BoundEstimate] = None) -> dict:
    """Tightest-upper-bound gap, as a fraction of the lower bound (value and CE)."""
    uppers = [u for u in (upper_m1, upper_m2) if u is not None]
    best_value = min(u.mean for u in uppers)
    best_ce = min(u.ce_mean for u in uppers)
    return {
        "value_gap_frac": (best_value - lower.mean) / abs(lower.mean),
        "ce_gap_frac": (best_ce - lower.ce_mean) / abs(lower.ce_mean),
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
