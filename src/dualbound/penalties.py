"""Per-path penalty construction for the dual (perfect-foresight) bounds.

Penalties are represented as affine forms in the invested amounts Pi_k and
consumption amounts C_k: a decision-independent constant plus linear
coefficients per stage.  Two concrete penalties are built from a baseline
policy and the grid value function:

  m1 -- per stage k, three shock-linear terms: two decision-independent ones
        carrying W_k^(1-gamma) grad J_k times the state loadings, and one
        affine in Pi_k carrying (1-gamma) W_k^(-gamma) J_k times sigma Z;
  m2 -- same, with the two decision-independent terms Taylor-expanded to first
        order around the previous-stage baseline decisions, adding linear
        coefficients on (Pi_{k-1}, C_{k-1}).

Both have zero mean under any non-anticipative policy, which
`feasibility_check` verifies by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import dp_solver
from .market import ModelParams, ShockPath, as_batch_policy, simulate_paths

PENALTY_KINDS = ("zero", "m1", "m2")
FEAS_CHUNK_PAIRS = 128  # antithetic pairs whose contexts are built in one batch


@dataclass(frozen=True)
class PenaltyForm:
    """Affine decomposition M(Pi, C) = constant + sum_k lin_Pi[k]'Pi_k + lin_C[k] C_k."""

    constant: float
    lin_Pi: np.ndarray  # (K, n)
    lin_C: np.ndarray   # (K,)

    def evaluate(self, Pi: np.ndarray, C: np.ndarray) -> float:
        return self.constant + float(np.sum(self.lin_Pi * Pi)) + float(np.dot(self.lin_C, C))


def zero_form(K: int, n: int) -> PenaltyForm:
    return PenaltyForm(constant=0.0, lin_Pi=np.zeros((K, n)), lin_C=np.zeros(K))


@dataclass(frozen=True)
class PenaltyContext:
    """Decision-independent data collected along one baseline trajectory.

    Arrays are indexed by stage k = 0..K-1; R[k] is the gross return realized
    over period [k, k+1], so the return known at time k is R[k-1].
    """

    phi: np.ndarray     # (K,) baseline states at stages 0..K-1
    W: np.ndarray       # (K,) baseline wealth at stages 0..K-1
    Pi: np.ndarray      # (K, n) baseline invested amounts
    C: np.ndarray       # (K,) baseline consumption amounts
    R: np.ndarray       # (K, n) realized gross returns
    J: np.ndarray       # (K,) value interpolant at the baseline states
    gradJ: np.ndarray   # (K,) its slope at the baseline states
    Z: np.ndarray       # (K, n)
    Ztilde: np.ndarray  # (K, d)

    @property
    def K(self) -> int:
        return self.phi.shape[0]


def build_contexts(p: ModelParams, vg: dp_solver.ValueGrid, policy, Z: np.ndarray,
                   Ztilde: np.ndarray) -> list:
    """Contexts of N baseline trajectories, simulated as one batch.

    `policy(k, phi[N], W[N]) -> (pi[N, n], c[N])` is a batch policy; Z is
    (N, K, n) and Ztilde (N, K, d).  Context i is bit-identical to the one
    `build_context` gives for path i alone.
    """
    path = simulate_paths(p, policy, Z, Ztilde)
    K = p.K
    stages = np.arange(K)
    J = dp_solver.interpolate_J(vg, stages, path.phi[:, :K])
    gradJ = dp_solver.gradient_J(vg, stages, path.phi[:, :K])
    return [
        PenaltyContext(phi=path.phi[i, :K], W=path.W[i, :K], Pi=path.Pi[i], C=path.C[i], R=path.R[i],
                       J=J[i], gradJ=gradJ[i], Z=Z[i], Ztilde=Ztilde[i])
        for i in range(Z.shape[0])
    ]


def build_context(p: ModelParams, vg: dp_solver.ValueGrid, policy, shocks: ShockPath) -> PenaltyContext:
    """Run the one-path policy `(k, phi, W) -> (pi, c)` along the shocks and
    evaluate J and its slope; the N = 1 call of `build_contexts`."""
    return build_contexts(p, vg, as_batch_policy(policy), shocks.Z[None], shocks.Ztilde[None])[0]


def _stage_terms(ctx: PenaltyContext, p: ModelParams) -> tuple:
    """Per-stage discount beta^(k delta) and shock term grad J_k(phi_k) *
    (loadings . shocks) * sqrt(delta), summed over both state loadings."""
    sd = p.sqrt_delta
    disc = p.beta ** (np.arange(ctx.K) * p.delta)
    base1 = ctx.gradJ * (ctx.Z @ p.sigma_phi1) * sd
    base2 = ctx.gradJ * (p.sigma_phi2 * ctx.Ztilde[:, 0]) * sd
    return disc, base1 + base2


def _m1(ctx: PenaltyContext, p: ModelParams, disc: np.ndarray, base: np.ndarray) -> PenaltyForm:
    gamma = p.gamma
    constant = float(np.sum(disc * ctx.W ** (1.0 - gamma) * base))
    sigZ = ctx.Z @ p.sigma.T * p.sqrt_delta  # row k = (sigma Z_{k+1})' sqrt(delta)
    lin_Pi = (disc * (1.0 - gamma) * ctx.W ** (-gamma) * ctx.J)[:, None] * sigZ
    return PenaltyForm(constant=constant, lin_Pi=lin_Pi, lin_C=np.zeros(ctx.K))


def m1_form(ctx: PenaltyContext, p: ModelParams) -> PenaltyForm:
    """Discretized value-function penalty; only the Pi_k coefficients depend on decisions."""
    return _m1(ctx, p, *_stage_terms(ctx, p))


def m2_form(ctx: PenaltyContext, p: ModelParams) -> PenaltyForm:
    """M1 with the decision-independent terms linearized around the previous
    stage's baseline decisions; anchored so that it equals M1 at the baseline."""
    K = ctx.K
    gamma = p.gamma
    disc, base = _stage_terms(ctx, p)
    m1 = _m1(ctx, p, disc, base)
    # Stage k >= 1 linearizes in (Pi_{k-1}, C_{k-1}) at frozen W_{k-1}:
    # d/dPi_{k-1} W_k = R_k - R_f, d/dC_{k-1} W_k = -1.
    slope = disc[1:] * (1.0 - gamma) * ctx.W[1:] ** (-gamma) * base[1:]
    excess_prev = ctx.R[:-1] - p.R_f
    lin_Pi = m1.lin_Pi.copy()
    lin_Pi[:-1] += slope[:, None] * excess_prev
    lin_C = np.zeros(K)
    lin_C[:-1] = -slope
    anchor = np.sum(excess_prev * ctx.Pi[:-1], axis=1) - ctx.C[:-1]
    constant = m1.constant - float(np.sum(slope * anchor))
    return PenaltyForm(constant=constant, lin_Pi=lin_Pi, lin_C=lin_C)


def penalty_form(kind: str, ctx: PenaltyContext, p: ModelParams) -> PenaltyForm:
    if kind == "zero":
        return zero_form(ctx.K, p.n)
    if kind == "m1":
        return m1_form(ctx, p)
    if kind == "m2":
        return m2_form(ctx, p)
    raise ValueError(f"unknown penalty kind {kind!r}; valid: {PENALTY_KINDS}")


@dataclass(frozen=True)
class FeasibilityReport:
    kind: str
    n_pairs: int
    mean: float
    stderr: float
    passed: bool

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n_pairs": self.n_pairs, "mean": self.mean,
                "stderr": self.stderr, "passed": self.passed}


def feasibility_check(kind, p: ModelParams, vg: dp_solver.ValueGrid,
                      policy=None, n_paths: int = 10_000, seed: int = 0) -> FeasibilityReport:
    """Monte Carlo zero-mean check of a penalty under the baseline policy.

    Samples n_paths antithetic pairs, evaluates the penalty at the baseline
    decisions, and passes iff |mean| <= 3 * stderr (pair averages are the
    i.i.d. observations).  `kind` is one of PENALTY_KINDS or a callable
    (ctx, params) -> PenaltyForm for custom penalties; either is applied to
    one leg at a time.  `policy` is a batch policy (see `build_contexts`),
    by default the grid policy.  The pairs come from one sequential stream
    keyed by the seed; chunks of pairs are simulated as one batch.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    form_fn = kind if callable(kind) else (lambda ctx, params: penalty_form(kind, ctx, params))
    kind_name = kind if isinstance(kind, str) else getattr(kind, "__name__", "custom")
    if isinstance(kind, str) and kind not in PENALTY_KINDS:
        raise ValueError(f"unknown penalty kind {kind!r}; valid: {PENALTY_KINDS}")
    if policy is None:
        policy = dp_solver.make_grid_policy(vg, p)
    rng = np.random.Generator(np.random.Philox(key=np.random.SeedSequence(
        (seed % 2**64, 0x7EA5)).generate_state(2, np.uint64)))
    K, n, d = p.K, p.n, p.d
    pair_means = np.empty(n_paths)
    for start in range(0, n_paths, FEAS_CHUNK_PAIRS):
        m = min(FEAS_CHUNK_PAIRS, n_paths - start)
        # Pair i draws its K*n return shocks, then its K*d state shocks.
        draws = rng.standard_normal((m, K * (n + d)))
        Z = np.empty((m, 2, K, n))
        Ztilde = np.empty((m, 2, K, d))
        Z[:, 0] = draws[:, :K * n].reshape(m, K, n)
        Ztilde[:, 0] = draws[:, K * n:].reshape(m, K, d)
        np.negative(Z[:, 0], out=Z[:, 1])
        np.negative(Ztilde[:, 0], out=Ztilde[:, 1])
        ctxs = build_contexts(p, vg, policy, Z.reshape(2 * m, K, n), Ztilde.reshape(2 * m, K, d))
        vals = np.array([form_fn(ctx, p).evaluate(ctx.Pi, ctx.C) for ctx in ctxs])
        pair_means[start:start + m] = 0.5 * (vals[0::2] + vals[1::2])
    mean = float(np.mean(pair_means))
    stderr = float(np.std(pair_means, ddof=1) / math.sqrt(n_paths))
    passed = abs(mean) <= 3.0 * stderr or (mean == 0.0 and stderr == 0.0)
    return FeasibilityReport(kind=kind_name, n_pairs=n_paths, mean=mean, stderr=stderr, passed=passed)
