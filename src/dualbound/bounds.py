"""Monte Carlo lower and dual upper bounds on the expected utility.

Lower bounds simulate the grid policy; upper bounds take each path's inner
bound from `dual.leg_bounds`.  Statistics follow the run-of-runs protocol:
per-run means over paths, mean and standard error across run means.  Path
i of run r draws its Gaussians from a counter-based generator keyed by
(seed, r, i); the antithetic partner negates the draws, so results are
independent of worker count and replayable per path.  A chunk derives the
Philox keys of all its pairs with one vectorized copy of numpy's
SeedSequence hash and draws each pair's stream through one reused
generator, bit-identical to `shock_path`.  Both bounds cut the flat
(run, path) list into fixed-size chunks that cross run boundaries.  A
lower-bound chunk simulates its legs as one batch, each path bit-identical
to its one-path simulation.  An upper-bound task draws the shocks, builds
the contexts and penalties and bounds all its legs at once.  Every leg is
bit-identical to its one-leg computation, and the tasks do not depend on
the worker count.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import dp_solver, dual, penalties
from .dual import INNER_MAX_NEWTON, INNER_TOL, assemble_inner  # perfbench's names; ROADMAP item 1 retires them
from .market import AdmissibilityError, ModelParams, ShockPath, simulate_paths

# (run, path) pairs per lower-bound task, simulated as one batch.
LOWER_CHUNK_PAIRS = 256
# (run, path) pairs per upper-bound task at inner dimension D = 40 (K = 10,
# n = 3); `_upper_task_pairs` scales it by 40 / D.  A task draws its shocks,
# builds its contexts and penalties, runs the dual search and checks the
# certificate once for all its legs, work that pays a fixed cost a call: on
# the `dual-bound` benchmark, 64-pair tasks took a fifth less wall time than
# 16-pair ones.  A task's tracemalloc peak is about 5.2 KB a leg at D = 40
# and 25 KB at D = 160, so the scaling keeps a task's memory about the same
# at every D.
UPPER_TASK_PAIRS = 64

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
    """Inner upper bounds of the legs of flat pairs [start, stop) and the
    count of those not certified (`dual.leg_bounds`); a leg whose bound is
    not finite raises PathError."""
    p, vg, cfg, policy = _STATE["p"], _STATE["vg"], _STATE["cfg"], _STATE["policy"]
    try:
        ctxs = penalties.build_contexts(p, vg, policy, *_chunk_shocks(p, cfg, span))
    except AdmissibilityError as exc:
        raise _path_error("upper", cfg, span, exc.row, exc) from exc
    values, missed = dual.leg_bounds(p, penalties.penalty_form(cfg.penalty_kind, ctxs, p), ctxs)
    bad = missed[~np.isfinite(values[missed])]
    if bad.size:
        raise _path_error("upper", cfg, span, int(bad[0]), "the inner problem's dual value is not finite")
    return values.tolist(), missed.size


def _run_tasks(task_fn, tasks, p, vg, cfg, workers):
    if cfg.gamma is not None and cfg.gamma != p.gamma:   # the gamma a bound's CSV row names
        raise ValueError(f"cfg.gamma = {cfg.gamma!r} does not match the parameters' gamma = {p.gamma!r}")
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


def _upper_task_pairs(p: ModelParams) -> int:
    """Pairs per upper-bound task for inner problems of dimension D = K (n + 1)."""
    return max(1, UPPER_TASK_PAIRS * 40 // (p.K * (p.n + 1)))


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
    penalty, in tasks of `_upper_task_pairs(p)` pairs across run boundaries;
    a leg `dual.leg_bounds` does not certify is counted in flagged_paths.
    The results depend on neither the task size nor the worker count."""
    results = _run_tasks(_upper_task, _spans(cfg, _upper_task_pairs(p)), p, vg, cfg, workers)
    values = [f for task_values, _ in results for f in task_values]
    flagged = sum(task_flagged for _, task_flagged in results)
    return _estimate("upper", cfg, p, _collect(cfg, values), len(values), flagged=flagged)


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
