"""Monte Carlo lower and dual upper bounds on the expected utility.

Lower bounds simulate the grid policy; upper bounds solve one perfect-
foresight inner problem per path (utility minus penalty, concave after
eliminating wealth by forward substitution).  Statistics follow the
run-of-runs protocol: per-run means over paths, mean and standard error
across run means.  Path i of run r draws its Gaussians from a counter-based
generator keyed by (seed, r, i); the antithetic partner negates the draws,
so results are independent of worker count and replayable per path.  A
lower-bound run simulates its paths in fixed-size batches, each path
bit-identical to its one-path simulation.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import concave, dp_solver, penalties
from .market import AdmissibilityError, ModelParams, ShockPath, simulate_paths

INNER_TOL = 1e-6
INNER_MAX_NEWTON = 200
AMOUNT_FLOOR = 1e-10
LOWER_CHUNK_PAIRS = 64  # paths (antithetic pairs) per lower-bound simulation batch

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
        return {
            "kind": self.kind,
            "penalty": self.penalty,
            "run_means": self.run_means.tolist(),
            "mean": self.mean,
            "stderr": self.stderr,
            "ce_mean": self.ce_mean,
            "ce_stderr": self.ce_stderr,
            "flagged_paths": self.flagged_paths,
            "total_paths": self.total_paths,
        }


def certainty_equivalent(value: float, gamma: float) -> float:
    """Deterministic wealth with the same CRRA utility: ((1-gamma) value)^(1/(1-gamma))."""
    base = (1.0 - gamma) * value
    if base <= 0.0:
        raise ValueError(f"(1-gamma)*value = {base:.6g} must be positive for the CE transform")
    return base ** (1.0 / (1.0 - gamma))


def shock_path(p: ModelParams, seed: int, run: int, idx: int) -> ShockPath:
    """Counter-based Gaussian stream for path idx of run (seeded, order-free).

    The seed enters as its residue mod 2**64, one distinct key per 64-bit seed.
    """
    key = np.random.SeedSequence((seed % 2**64, run, idx)).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
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


def _path_legs(p, cfg, r, i):
    base = shock_path(p, cfg.seed, r, i)
    return (base, base.antithetic()) if cfg.antithetic else (base,)


def _lower_task(r):
    """Mean utility over the legs of run r, in (path, base/antithetic) order."""
    p, cfg, policy = _STATE["p"], _STATE["cfg"], _STATE["policy"]
    legs = 2 if cfg.antithetic else 1
    values = np.empty(cfg.paths_per_run * legs)
    for start in range(0, cfg.paths_per_run, LOWER_CHUNK_PAIRS):
        stop = min(start + LOWER_CHUNK_PAIRS, cfg.paths_per_run)
        Z = np.empty(((stop - start) * legs, p.K, p.n))
        Ztilde = np.empty(((stop - start) * legs, p.K, p.d))
        for j, i in enumerate(range(start, stop)):
            base = shock_path(p, cfg.seed, r, i)
            Z[j * legs], Ztilde[j * legs] = base.Z, base.Ztilde
            if cfg.antithetic:
                np.negative(base.Z, out=Z[j * legs + 1])
                np.negative(base.Ztilde, out=Ztilde[j * legs + 1])
        try:
            path = simulate_paths(p, policy, Z, Ztilde)
        except AdmissibilityError as exc:
            i = start + exc.row // legs
            raise PathError(f"lower-bound path failed (seed={cfg.seed}, run={r}, path={i}): {exc}") from exc
        values[start * legs:stop * legs] = path_utility(p, path.C, path.W[:, -1])
    return float(np.mean(values))


def _upper_task(args):
    r, i = args
    p, vg, cfg, policy = _STATE["p"], _STATE["vg"], _STATE["cfg"], _STATE["policy"]
    out = []
    for sp in _path_legs(p, cfg, r, i):
        try:
            ctx = penalties.build_context(p, vg, policy, sp)
        except Exception as exc:
            raise PathError(f"upper-bound path failed (seed={cfg.seed}, run={r}, path={i}): {exc}") from exc
        form = penalties.penalty_form(cfg.penalty_kind, ctx, p)
        oracle, cons, x0 = assemble_inner(p, form, ctx)
        sol = concave.maximize(oracle, cons, x0, tol=INNER_TOL, max_newton=INNER_MAX_NEWTON)
        out.append((sol.f, sol.status != concave.STATUS_CONVERGED))
    return out


def _run_tasks(task_fn, tasks, p, vg, cfg, workers):
    if workers <= 1:
        _init_worker(p, vg, cfg)
        return [task_fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(p, vg, cfg)) as pool:
        return list(pool.map(task_fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _collect(cfg: RunConfig, per_task_values) -> tuple:
    """Fixed-order reduction of task outputs into per-run means."""
    run_means = np.empty(cfg.runs)
    idx = 0
    total = 0
    for r in range(cfg.runs):
        vals: list = []
        for _ in range(cfg.paths_per_run):
            vals.extend(per_task_values[idx])
            idx += 1
        run_means[r] = float(np.mean(vals))
        total += len(vals)
    return run_means, total


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

    Paths whose inner solve stops at the iteration cap keep the last iterate
    and are counted in flagged_paths.  That iterate understates the inner
    maximum, which biases the bound down and can make it no upper bound at
    all; the estimate is a valid upper bound only when flagged_paths == 0.
    """
    tasks = [(r, i) for r in range(cfg.runs) for i in range(cfg.paths_per_run)]
    results = _run_tasks(_upper_task, tasks, p, vg, cfg, workers)
    values = [[v for (v, _) in task] for task in results]
    flagged = sum(fl for task in results for (_, fl) in task)
    run_means, total = _collect(cfg, values)
    return _estimate("upper", cfg, p, run_means, total, flagged=flagged)


def assemble_inner(p: ModelParams, form: penalties.PenaltyForm, ctx: penalties.PenaltyContext):
    """Inner problem over x = (Pi_0, C_0, ..., Pi_{K-1}, C_{K-1}).

    Wealth is eliminated by forward substitution, making every W_k affine in
    x; constraints are the nonnegativity of Pi, floors on C_k and W_K, and
    the per-stage budget C_k <= R_f (W_k - 1'Pi_k).
    """
    K, n = p.K, p.n
    D = K * (n + 1)
    Rf = p.R_f
    excess = ctx.R - Rf  # (K, n)

    def pi_slice(k):
        return slice(k * (n + 1), k * (n + 1) + n)

    def c_index(k):
        return k * (n + 1) + n

    # W_k(x) = w_const[k] + w_coef[k] . x  for k = 0..K
    w_coef = np.zeros((K + 1, D))
    w_const = np.zeros(K + 1)
    w_const[0] = p.W0
    for k in range(K):
        w_coef[k + 1] = Rf * w_coef[k]
        w_coef[k + 1, pi_slice(k)] += excess[k]
        w_coef[k + 1, c_index(k)] -= 1.0
        w_const[k + 1] = Rf * w_const[k]
    a_term = w_coef[K]

    rows = []
    rhs = []
    for k in range(K):
        row = -Rf * w_coef[k]
        row[pi_slice(k)] += Rf
        row[c_index(k)] += 1.0
        rows.append(row)
        rhs.append(Rf * w_const[k])
        floor_row = np.zeros(D)
        floor_row[c_index(k)] = -1.0
        rows.append(floor_row)
        rhs.append(-AMOUNT_FLOOR)
    rows.append(-a_term)
    rhs.append(w_const[K] - AMOUNT_FLOOR)
    A = np.array(rows)
    b = np.array(rhs)
    mask = np.zeros(D, dtype=bool)
    for k in range(K):
        mask[pi_slice(k)] = True
    cons = concave.LinearConstraints(A=A, b=b, nonneg_mask=mask)

    # The utility terms are CRRA in Y = (C_0, ..., C_{K-1}, W_K), which is
    # affine in x; one stacked product per call gives Y and the penalty's
    # linear part.
    gamma = p.gamma
    c_idx = np.array([c_index(k) for k in range(K)])
    lin = np.zeros(D)
    for k in range(K):
        lin[pi_slice(k)] = form.lin_Pi[k]
        lin[c_index(k)] = form.lin_C[k]
    P = np.zeros((D, K + 2))
    P[c_idx, np.arange(K)] = 1.0
    P[:, K] = a_term
    P[:, K + 1] = lin
    z0 = np.zeros(K + 2)
    z0[K] = w_const[K]
    z0[K + 1] = form.constant
    weights = np.append(p.alpha * p.delta * p.beta ** (np.arange(K) * p.delta),
                        (1.0 - p.alpha) * p.beta ** (K * p.delta))
    value_weights = weights / (1.0 - gamma)
    dY = np.ascontiguousarray(P[:, :K + 1].T)                # dY/dx, (K+1, D)
    grad_rows = weights[:, None] * dY                        # gradient: Y^-gamma @ grad_rows - lin
    hess_cols = np.ascontiguousarray(-gamma * grad_rows.T)   # Hessian: (hess_cols * Y^(-gamma-1)) @ dY

    def utility_args(X):
        """Y and the penalty lin'x + constant."""
        Z = (X[:, None, :] @ P)[:, 0] + z0
        return Z[:, :K + 1], Z[:, K + 1]

    def value(X, rows):
        Y, penalty = utility_args(X)
        if (Y > 0.0).all():
            return (value_weights * Y ** (1.0 - gamma)).sum(axis=1) - penalty
        inside = Y.min(axis=1) > 0.0
        if not inside.any():
            return np.full(X.shape[0], -np.inf)
        Y = np.where(inside[:, None], Y, 1.0)
        return np.where(inside, (value_weights * Y ** (1.0 - gamma)).sum(axis=1) - penalty, -np.inf)

    def gradient(X, rows):
        Y, _ = utility_args(X)
        return ((Y ** (-gamma))[:, None, :] @ grad_rows)[:, 0] - lin

    def hessian(X, rows):
        Y, _ = utility_args(X)
        return (hess_cols * (Y ** (-gamma - 1.0))[:, None, :]) @ dY

    oracle = concave.ObjectiveOracle(value=value, gradient=gradient, hessian=hessian)

    # Start: baseline decisions pulled slightly toward a strictly interior
    # low-exposure trajectory built forward with the realized returns.
    x_base = np.zeros(D)
    for k in range(K):
        x_base[pi_slice(k)] = ctx.Pi[k]
        x_base[c_index(k)] = ctx.C[k]
    eta = 1e-3
    x_int = np.zeros(D)
    Wk = p.W0
    for k in range(K):
        x_int[pi_slice(k)] = eta * Wk / n
        x_int[c_index(k)] = eta * Wk
        Wk = Wk * Rf + float(np.dot(excess[k], x_int[pi_slice(k)])) - eta * Wk
    x0 = (1.0 - 1e-4) * x_base + 1e-4 * x_int
    return oracle, cons, x0


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
