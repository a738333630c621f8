"""Penalty construction for the dual (perfect-foresight) bounds.

Penalties are represented as affine forms in the invested amounts Pi_k and
consumption amounts C_k: a decision-independent constant plus linear
coefficients per stage.  Two concrete penalties are built from a baseline
policy and the grid value function:

  m1 -- per stage k, three shock-linear terms: two decision-independent ones
        carrying W_k^(1-gamma) grad J_k times the state loadings, and one
        affine in Pi_k carrying (1-gamma) W_k^(-gamma) J_k times sigma Z;
  m2 -- same, with the two decision-independent terms replaced by their
        first-order Taylor terms around the previous-stage baseline decisions,
        adding linear coefficients on (Pi_{k-1}, C_{k-1}); it equals m1 at
        the baseline decisions.

Contexts and forms are struct-of-arrays: a stack of N legs carries a leading
N axis on every field, one leg none, and the same code serves both.  Every
operation acts leg by leg (elementwise, last-axis sums, matmul by a loading
matrix), so row i of a stack is bit-identical to the one-leg call of leg i.

Both penalties have zero mean under any non-anticipative policy, which
`feasibility_check` verifies by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
import numpy as np

from . import dp_solver
from .market import ModelParams, ShockPath, as_batch_policy, simulate_paths

PENALTY_KINDS = ("zero", "m1", "m2")
FEAS_CHUNK_PAIRS = 128  # antithetic pairs whose contexts are built in one batch


@dataclass(frozen=True)
class PenaltyForm:
    """Affine decomposition M(Pi, C) = constant + sum_k lin_Pi[k]'Pi_k + lin_C[k] C_k."""

    constant: float | np.ndarray  # float, or (N,) for a stack
    lin_Pi: np.ndarray            # (K, n), or (N, K, n)
    lin_C: np.ndarray             # (K,), or (N, K)

    def evaluate(self, Pi: np.ndarray, C: np.ndarray):
        """M at one leg's decisions (a float) or at each leg's of a stack (N,)."""
        terms = self.lin_Pi * Pi
        total = (self.constant + terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1)
                 + (self.lin_C * C).sum(axis=-1))
        return float(total) if np.ndim(total) == 0 else total


@dataclass(frozen=True)
class PenaltyContext:
    """Decision-independent data collected along baseline trajectories.

    Arrays are indexed by stage k = 0..K-1, after a leading N axis in a stack
    of N legs; R[k] is the gross return realized over period [k, k+1], so the
    return known at time k is R[k-1].
    """

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
        return self.W.shape[-1]


def as_stack(x):
    """A one-leg context or form as a stack of one leg (a view)."""
    return type(x)(*(np.asarray(getattr(x, f.name))[None] for f in fields(x)))


def take(x, legs):
    """Legs `legs` of a stacked context or form, or of any dataclass of
    leg-major arrays, as views where numpy indexing gives them; an integer
    gives the one-leg context or form."""
    # Keyword arguments from a dict, not a tuple from a generator: CPython
    # sizes such a tuple for ten items and shrinks it, so each one freed
    # parks in the free list of its final size, which grows to 2,000 tuples
    # (about 0.27 MB for the 3- and 8-field tuples of forms and contexts).
    return type(x)(**{name: value[legs] for name, value in vars(x).items()})


def build_contexts(p: ModelParams, vg: dp_solver.ValueGrid, policy, Z: np.ndarray,
                   Ztilde: np.ndarray) -> PenaltyContext:
    """The stacked context of N baseline trajectories, simulated as one batch.

    `policy(k, phi[N], W[N]) -> (pi[N, n], c[N])` is a batch policy; Z is
    (N, K, n) and Ztilde (N, K, d).  Leg i is bit-identical to the context
    `build_context` gives for path i alone.
    """
    path = simulate_paths(p, policy, Z, Ztilde)
    K = p.K
    stages = np.arange(K)
    return PenaltyContext(W=path.W[:, :K], Pi=path.Pi, C=path.C, R=path.R,
                          J=dp_solver.interpolate_J(vg, stages, path.phi[:, :K]),
                          gradJ=dp_solver.gradient_J(vg, stages, path.phi[:, :K]),
                          Z=Z, Ztilde=Ztilde)


def build_context(p: ModelParams, vg: dp_solver.ValueGrid, policy, shocks: ShockPath) -> PenaltyContext:
    """Run the one-path policy `(k, phi, W) -> (pi, c)` along the shocks and
    evaluate J and its slope; the one-leg view of the N = 1 `build_contexts`."""
    return take(build_contexts(p, vg, as_batch_policy(policy), shocks.Z[None], shocks.Ztilde[None]), 0)


def penalty_form(kind: str, ctx: PenaltyContext, p: ModelParams) -> PenaltyForm:
    """The `kind` form of a one-leg context, or the forms of every leg of a
    stacked context as one stacked form."""
    if kind not in PENALTY_KINDS:
        raise ValueError(f"unknown penalty kind {kind!r}; valid: {PENALTY_KINDS}")
    lin_C = np.zeros(ctx.W.shape)
    if kind == "zero":
        return PenaltyForm(lin_C.sum(axis=-1), np.zeros(ctx.Pi.shape), lin_C)  # 0.0, or zeros (N,)
    gamma = p.gamma
    sd = p.sqrt_delta
    # Per stage: the discount beta^(k delta) and the shock term grad J_k(phi_k)
    # * (loadings . shocks) * sqrt(delta), summed over both state loadings.
    disc = p.beta ** (np.arange(ctx.K) * p.delta)
    base = (ctx.gradJ * (ctx.Z @ p.sigma_phi1) * sd
            + ctx.gradJ * (p.sigma_phi2 * ctx.Ztilde[..., 0]) * sd)
    # m1: a decision-independent constant and coefficients on Pi_k only.
    constant = (disc * ctx.W ** (1.0 - gamma) * base).sum(axis=-1)
    sigZ = ctx.Z @ p.sigma.T * sd  # row k = (sigma Z_{k+1})' sqrt(delta)
    lin_Pi = (disc * (1.0 - gamma) * ctx.W ** (-gamma) * ctx.J)[..., None] * sigZ
    if kind == "m2":
        # Stage k >= 1 linearizes in (Pi_{k-1}, C_{k-1}) at frozen W_{k-1}:
        # d/dPi_{k-1} W_k = R_k - R_f, d/dC_{k-1} W_k = -1.
        slope = disc[1:] * (1.0 - gamma) * ctx.W[..., 1:] ** (-gamma) * base[..., 1:]
        excess_prev = ctx.R[..., :-1, :] - p.R_f
        lin_Pi[..., :-1, :] += slope[..., None] * excess_prev
        lin_C[..., :-1] = -slope
        anchor = (excess_prev * ctx.Pi[..., :-1, :]).sum(axis=-1) - ctx.C[..., :-1]
        constant = constant - (slope * anchor).sum(axis=-1)
    return PenaltyForm(constant, lin_Pi, lin_C)


@dataclass(frozen=True)
class FeasibilityReport:
    kind: str
    n_pairs: int
    mean: float
    stderr: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def feasibility_check(kind, p: ModelParams, vg: dp_solver.ValueGrid,
                      n_paths: int = 10_000, seed: int = 0) -> FeasibilityReport:
    """Monte Carlo zero-mean check of a penalty under the grid policy.

    Samples n_paths antithetic pairs, evaluates the penalty at the baseline
    decisions, and passes iff |mean| <= 3 * stderr (pair averages are the
    i.i.d. observations).  `kind` is one of PENALTY_KINDS or a callable
    (ctx, params) -> PenaltyForm for custom penalties; either is formed and
    evaluated for a chunk of legs at a time, so a callable gets each chunk's
    stacked context.  The pairs come from one sequential stream keyed by the
    seed; chunks of pairs are simulated as one batch.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    kind_name = kind if isinstance(kind, str) else getattr(kind, "__name__", "custom")
    if isinstance(kind, str) and kind not in PENALTY_KINDS:
        raise ValueError(f"unknown penalty kind {kind!r}; valid: {PENALTY_KINDS}")
    policy = dp_solver.make_grid_policy(vg, p)
    # Philox keys itself with SeedSequence(seed).generate_state(2, uint64).
    rng = np.random.Generator(np.random.Philox((seed % 2**64, 0x7EA5)))
    K, n, d = p.K, p.n, p.d
    pair_means = np.empty(n_paths)
    for start in range(0, n_paths, FEAS_CHUNK_PAIRS):
        m = min(FEAS_CHUNK_PAIRS, n_paths - start)
        # Pair i draws its K*n return shocks, then its K*d state shocks.
        draws = rng.standard_normal((m, K * (n + d)))
        legs = np.stack([draws, -draws], axis=1).reshape(2 * m, K * (n + d))
        ctxs = build_contexts(p, vg, policy, legs[:, :K * n].reshape(2 * m, K, n),
                              legs[:, K * n:].reshape(2 * m, K, d))
        form = kind(ctxs, p) if callable(kind) else penalty_form(kind, ctxs, p)
        vals = form.evaluate(ctxs.Pi, ctxs.C)
        pair_means[start:start + m] = 0.5 * (vals[0::2] + vals[1::2])
    mean = float(np.mean(pair_means))
    stderr = float(np.std(pair_means, ddof=1) / math.sqrt(n_paths))
    passed = abs(mean) <= 3.0 * stderr or (mean == 0.0 and stderr == 0.0)
    return FeasibilityReport(kind=kind_name, n_pairs=n_paths, mean=mean, stderr=stderr, passed=passed)
