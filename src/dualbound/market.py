"""Discretized market dynamics: mean-reverting state, lognormal returns, wealth recursion.

The model family is a one-dimensional Ornstein-Uhlenbeck market state driving
the drift of n risky assets, advanced on a fixed grid of K periods of length
delta.  All stepping functions are stateless and take one path or a batch of
paths along a leading axis.  Path simulation runs a policy of wealth
fractions over a whole batch of paths at once and enforces the admissible
set

    A = {(pi, c) : pi >= 0, c >= 0, c <= R_f (1 - 1'pi)}

with strictly positive wealth along the way.  Per-path arithmetic is
elementwise or a reduction over the last axis, never a product across the
batch, so every path comes out bit-identical at any batch size.

A sum (or `any`) over a short last axis, the n assets, is taken column by
column (`reduce_last`), in the order numpy reduces an axis shorter than 8,
so the bits are numpy's at a fraction of a reduction call's fixed cost.
States and returns do not depend on the decisions, and a policy decides
fractions of wealth from the stage and the state alone, so the simulator
forms the state's shock terms of all K stages at once (`state_shocks`),
steps the states, calls the policy once for every stage, and leaves only
the wealth to its stage loop.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

WEALTH_FLOOR = 1e-12
FEAS_TOL = 1e-9


class AdmissibilityError(ValueError):
    """A policy decision left the admissible set, or wealth hit the floor.

    `row` is the index of the failing path within its simulated batch.
    """

    def __init__(self, stage: int, message: str, row: int = 0):
        self.stage = stage
        self.row = row
        super().__init__(f"stage {stage}: {message}")


@dataclass(frozen=True)
class ModelParams:
    """Market and preference constants of the discretized portfolio problem.

    sigma is lower-triangular with positive diagonal (per sqrt-year units);
    mu0/mu1 are per-year drift intercept and state loading; lam is the
    mean-reversion rate of the market state; sigma_phi1 (length n) and
    sigma_phi2 (scalar, d=1) load the state on the return shocks Z and the
    extra shock Ztilde.  Preferences: CRRA coefficient gamma (> 0, != 1),
    consumption weight alpha in [0, 1], discount base beta.
    """

    n: int
    d: int
    mu0: np.ndarray
    mu1: np.ndarray
    sigma: np.ndarray
    r_f: float
    lam: float
    sigma_phi1: np.ndarray
    sigma_phi2: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    K: int
    phi0: float = 0.0
    W0: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if f.type in ("int", int):
                object.__setattr__(self, f.name, _integer(getattr(self, f.name), f.name))
            elif f.type in ("float", float):
                object.__setattr__(self, f.name, _real(getattr(self, f.name), f.name))
        for name, shape in (("mu0", (self.n,)), ("mu1", (self.n,)), ("sigma", (self.n, self.n)),
                            ("sigma_phi1", (self.n,))):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), shape, name))
        self._validate()

    def _validate(self):
        if self.n < 1 or self.d != 1:
            raise ValueError(f"need n >= 1 and d == 1, got n={self.n}, d={self.d}")
        if self.K < 1 or not self.delta > 0:
            raise ValueError(f"need K >= 1 and delta > 0, got K={self.K}, delta={self.delta}")
        if not np.allclose(self.sigma, np.tril(self.sigma)):
            raise ValueError("sigma must be lower-triangular")
        if np.any(np.diag(self.sigma) <= 0):
            raise ValueError("sigma must have strictly positive diagonal")
        if not self.R_f > 0:
            raise ValueError(f"R_f = 1 + r_f*delta = {self.R_f} must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.gamma > 0 or self.gamma == 1.0:
            raise ValueError(f"gamma must be positive and != 1, got {self.gamma}")
        if not self.W0 > 0:
            raise ValueError(f"W0 must be positive, got {self.W0}")

    @property
    def R_f(self) -> float:
        # Simple-rate convention: 1 + r_f*delta, not e^{r_f*delta}.
        return 1.0 + self.r_f * self.delta

    @property
    def sqrt_delta(self) -> float:
        return math.sqrt(self.delta)

    @property
    def sigma_sq(self) -> np.ndarray:
        """Per-asset instantaneous variances, the diagonal of sigma sigma'."""
        return np.sum(self.sigma * self.sigma, axis=1)

    @property
    def phi_step_var(self) -> float:
        """Conditional variance of phi_{k+1} given phi_k."""
        s1 = float(np.dot(self.sigma_phi1, self.sigma_phi1))
        return (s1 + self.sigma_phi2**2) * self.delta

    def to_dict(self) -> dict:
        """Every field under its JSON key, arrays as nested lists."""
        return {_JSON_KEYS.get(f.name, f.name): _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        """The inverse of `to_dict`; every field is required, even those with defaults."""
        keys = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
        for which, names in (("unknown", set(data) - set(keys)), ("missing", set(keys) - set(data))):
            if names:
                raise ValueError(f"{which} ModelParams fields: {sorted(names)}")
        return cls(**{name: data[key] for key, name in keys.items()})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        import hashlib

        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


# The JSON key of each field whose key differs from its name.
_JSON_KEYS = {"lam": "lambda"}


def _plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def _integer(value, name: str) -> int:
    """value as an int; a bool or a number with a fractional part is an error, not truncated."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """value as a float, so 3 and 3.0 hash alike; a bool, a non-number or a
    non-finite number is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _frozen_array(a, shape, name: str) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries, got {arr.tolist()!r}")
    arr.flags.writeable = False
    return arr


# Published parameter sets.  Sets 1/3 have slow mean reversion and small state
# volatility; sets 2/4 have fast mean reversion and large state volatility.
_PARAMETER_SETS = {
    1: {
        "mu0": [0.081, 0.110, 0.130],
        "mu1": [0.034, 0.059, 0.073],
        "sigma": [[0.186, 0.0, 0.0], [0.228, 0.083, 0.0], [0.251, 0.139, 0.069]],
        "lambda": 0.336,
        "sigma_phi1": [-0.741, -0.037, -0.060],
        "sigma_phi2": 0.284,
    },
    2: {
        "mu0": [0.081, 0.110, 0.130],
        "mu1": [0.034, 0.059, 0.073],
        "sigma": [[0.186, 0.0, 0.0], [0.228, 0.083, 0.0], [0.251, 0.139, 0.069]],
        "lambda": 1.671,
        "sigma_phi1": [-0.017, 0.149, 0.058],
        "sigma_phi2": 1.725,
    },
    3: {
        "mu0": [0.142, 0.109, 0.089],
        "mu1": [0.065, 0.049, 0.049],
        "sigma": [[0.256, 0.0, 0.0], [0.217, 0.054, 0.0], [0.207, 0.062, 0.062]],
        "lambda": 0.336,
        "sigma_phi1": [-0.741, -0.040, -0.034],
        "sigma_phi2": 0.288,
    },
    4: {
        "mu0": [0.142, 0.109, 0.089],
        "mu1": [0.061, 0.060, 0.067],
        "sigma": [[0.256, 0.0, 0.0], [0.217, 0.054, 0.0], [0.206, 0.062, 0.062]],
        "lambda": 1.671,
        "sigma_phi1": [-0.017, 0.212, 0.096],
        "sigma_phi2": 1.716,
    },
}

PARAMETER_SET_IDS = tuple(sorted(_PARAMETER_SETS))


def parameter_set(set_id: int, gamma: float = 1.5) -> ModelParams:
    """Published parameter set 1..4; gamma is supplied per experiment."""
    if set_id not in _PARAMETER_SETS:
        raise ValueError(f"unknown parameter set {set_id}; valid ids: {list(PARAMETER_SET_IDS)}")
    tbl = _PARAMETER_SETS[set_id]
    return ModelParams(
        n=3,
        d=1,
        mu0=np.array(tbl["mu0"]),
        mu1=np.array(tbl["mu1"]),
        sigma=np.array(tbl["sigma"]),
        r_f=0.01,
        lam=tbl["lambda"],
        sigma_phi1=np.array(tbl["sigma_phi1"]),
        sigma_phi2=tbl["sigma_phi2"],
        alpha=0.5,
        beta=1.0,
        gamma=gamma,
        delta=0.1,
        K=10,
        phi0=0.0,
        W0=1.0,
    )


@dataclass(frozen=True)
class ShockPath:
    """One realization of the Gaussian drivers: Z is K x n, Ztilde is K x d."""

    Z: np.ndarray
    Ztilde: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        Zt = np.asarray(self.Ztilde, dtype=float)
        if Z.ndim != 2 or Zt.ndim != 2 or Z.shape[0] != Zt.shape[0]:
            raise ValueError(f"bad shock shapes {Z.shape}, {Zt.shape}")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "Ztilde", Zt)

    def antithetic(self) -> "ShockPath":
        """Elementwise negation; exact in IEEE arithmetic."""
        return ShockPath(Z=-self.Z, Ztilde=-self.Ztilde)


@dataclass
class MarketPath:
    """Simulated trajectories: states, gross returns, wealth and consumption.

    Shapes are for one path; a batch of N paths carries a leading N axis.
    """

    phi: np.ndarray    # (K+1,)
    R: np.ndarray      # (K, n); row k is the gross return over period [k, k+1]
    W: np.ndarray      # (K+1,)
    C: np.ndarray      # (K,) consumption amounts C_k = c_k * W_k
    Pi: np.ndarray     # (K, n) invested amounts Pi_k = pi_k * W_k


def reduce_last(ufunc, a):
    """`ufunc.reduce(a, axis=-1)` over a short last axis, one column at a time.

    numpy reduces an axis shorter than 8 from its identity (+0.0 for add)
    through the columns left to right, so this gives its bits, signed zeros
    and NaNs included, without a reduction call's fixed cost (about six
    times the column calls' on a (512, 10, 3) stack).  Longer axes, such
    as the K stages, keep numpy's pairwise `sum`.
    """
    a = np.asarray(a)
    if a.ndim == 0:   # one column, as numpy takes it
        a = a.reshape(1)
    out = ufunc(ufunc.identity, a[..., 0])
    for j in range(1, a.shape[-1]):
        out = ufunc(out, a[..., j])
    return out


def state_shocks(z: np.ndarray, ztilde: np.ndarray, p: ModelParams):
    """The market state's shock term (sigma_phi1'z + sigma_phi2 ztilde) sqrt(delta)
    of shocks z (..., n) and ztilde (..., d), one per leading index."""
    return (reduce_last(np.add, p.sigma_phi1 * z) + p.sigma_phi2 * ztilde[..., 0]) * p.sqrt_delta


def step_state(phi_k, shock_k, p: ModelParams):
    """Advance the market state one period: the OU drift, then the shock term
    `state_shocks` gives for the period (a state or an (N,) batch)."""
    return phi_k + -p.lam * phi_k * p.delta + shock_k


def log_return_mean(phi_k, p: ModelParams) -> np.ndarray:
    """Per-period mean of log gross returns at state phi_k (shape (..., n))."""
    mu_k = p.mu0 + p.mu1 * np.asarray(phi_k, dtype=float)[..., None]
    return (mu_k - 0.5 * p.sigma_sq) * p.delta


def step_return(phi_k, z: np.ndarray, p: ModelParams) -> np.ndarray:
    """Gross returns over one period given state phi_k and shock z (..., n)."""
    sigma_z = 0.0   # sigma z a column at a time, in `reduce_last`'s order
    for j in range(p.n):
        sigma_z = sigma_z + p.sigma[:, j] * z[..., j, None]
    return np.exp(log_return_mean(phi_k, p) + sigma_z * p.sqrt_delta)


def step_wealth(W_k, Pi_k: np.ndarray, C_k, R_next: np.ndarray, p: ModelParams):
    """Wealth recursion in invested amounts; exactly linear in (Pi_k, C_k)."""
    return W_k * p.R_f + reduce_last(np.add, (R_next - p.R_f) * Pi_k) - C_k


def _admissibility(pi: np.ndarray, c, p: ModelParams, tol: float) -> tuple:
    """Masks (negative pi, negative c, over budget) and the budget R_f(1 - 1'pi),
    over the leading axes of pi (..., n) and c (...)."""
    budget = p.R_f * (1.0 - reduce_last(np.add, pi))
    return reduce_last(np.logical_or, pi < -tol), c < -tol, c > budget + tol, budget


def check_admissible(pi: np.ndarray, c: float, p: ModelParams, tol: float = FEAS_TOL) -> Optional[str]:
    """Return a violation description for (pi, c) outside A, or None."""
    pi = np.asarray(pi, dtype=float)
    neg_pi, neg_c, over, budget = _admissibility(pi, c, p, tol)
    if neg_pi:
        return f"pi has negative component {float(np.min(pi)):.3e}"
    if neg_c:
        return f"c = {float(c):.3e} is negative"
    if over:
        return f"c = {float(c):.6g} exceeds budget R_f(1 - 1'pi) = {float(budget):.6g}"
    return None


# A policy decides wealth fractions (pi, c) from the stage and the state:
# the grid policy is wealth-independent under CRRA, so the simulator
# decides every stage before it steps wealth and passes W = None.  The
# one-path form takes (k, phi, W) and gives (pi[n], c); the batch form
# takes stages k (K,) and states phi (N, K) and gives pi (N, K, n), c (N, K).
Policy = Callable[[int, float, None], tuple]
BatchPolicy = Callable[[np.ndarray, np.ndarray, None], tuple]


def as_batch_policy(policy: Policy) -> BatchPolicy:
    """Adapt a one-path policy `(k, phi, W) -> (pi, c)` to a batch of one
    path, called stage by stage in stage order with W = None."""

    def batch(k, phi, W):
        pis, cs = zip(*(policy(k_j, phi_j, None) for k_j, phi_j in zip(k.tolist(), phi[0])))
        return np.array(pis, dtype=float)[None], np.array(cs, dtype=float)[None]

    return batch


def _wealth_paths(p: ModelParams, pi: np.ndarray, c: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Wealth W (N, K+1) from W0 under fractions pi (N, K, n) and c (N, K)
    of each stage's wealth and returns R (N, K, n): `step_wealth` on
    Pi_k = W_k pi_k and C_k = W_k c_k, its asset sum in `reduce_last`'s
    order.  The excess returns are taken once, asset- and stage-major."""
    N, K, n = pi.shape
    excess = np.subtract(R.T, p.R_f, order="C")   # (n, K, N)
    W = np.empty((K + 1, N))
    W[0] = p.W0
    for k in range(K):
        W_k = W[k]
        gain = 0.0
        for j in range(n):
            gain = gain + excess[j, k] * (W_k * pi[:, k, j])
        W[k + 1] = W_k * p.R_f + gain - W_k * c[:, k]
    return np.ascontiguousarray(W.T)


def simulate_paths(p: ModelParams, policy: BatchPolicy, Z: np.ndarray, Ztilde: np.ndarray) -> MarketPath:
    """Run `policy(k[K], phi[N, K], None) -> (pi[N, K, n], c[N, K])` along N
    shock paths.

    Z is (N, K, n) and Ztilde (N, K, d), or ValueError; the result carries a
    leading N axis.  States and returns do not depend on the decisions, so
    they are stepped first, then the policy decides all K stages in one
    call, and the stage loop steps only the wealth.  The admissibility of
    every decision and the wealth floor are checked once the paths are
    complete.  Raises AdmissibilityError for the lowest-numbered failing
    path (its `row`), naming the stage of its first failure.
    """
    K, n = p.K, p.n
    Z = np.asarray(Z, dtype=float)
    Ztilde = np.asarray(Ztilde, dtype=float)
    if Z.ndim != 3 or Z.shape[1:] != (K, n) or Ztilde.shape != (Z.shape[0], K, p.d):
        raise ValueError(f"need shocks Z (N, {K}, {n}) and Ztilde (N, {K}, {p.d}), "
                         f"got Z {Z.shape} and Ztilde {Ztilde.shape}")
    N = Z.shape[0]
    shock = state_shocks(Z, Ztilde, p)
    phi = np.empty((N, K + 1))
    phi[:, 0] = p.phi0
    for k in range(K):
        phi[:, k + 1] = step_state(phi[:, k], shock[:, k], p)
    R = step_return(phi[:, :K], Z, p)
    raw_pi, raw_c = policy(np.arange(K), phi[:, :K], None)
    raw_pi = np.broadcast_to(np.asarray(raw_pi, dtype=float), (N, K, n))
    raw_c = np.broadcast_to(np.asarray(raw_c, dtype=float), (N, K))
    # Clip float-level fuzz so the wealth recursion sees a point of A.
    pi = np.maximum(raw_pi, 0.0, order="C")
    c = np.maximum(raw_c, 0.0, order="C")
    np.minimum(c, p.R_f * (1.0 - reduce_last(np.add, pi)), out=c)
    W = _wealth_paths(p, pi, c, R)
    Pi = np.multiply(pi, W[:, :K, None], out=pi)  # the amounts W_k pi_k and W_k c_k, in place
    C = np.multiply(c, W[:, :K], out=c)
    # Failure events in time order: decision k at 2k, wealth W_{k+1} at 2k+1.
    events = np.empty((N, 2 * K), dtype=bool)
    neg_pi, neg_c, over, _ = _admissibility(raw_pi, raw_c, p, FEAS_TOL)
    events[:, 0::2] = neg_pi | neg_c | over
    events[:, 1::2] = W[:, 1:] <= WEALTH_FLOOR
    failed = np.flatnonzero(events.any(axis=1))
    if failed.size:
        row = int(failed[0])
        first = int(np.argmax(events[row]))
        k = first // 2
        if first % 2 == 0:
            raise AdmissibilityError(k, check_admissible(raw_pi[row, k], raw_c[row, k], p), row=row)
        raise AdmissibilityError(
            k + 1, f"wealth {W[row, k + 1]:.3e} at or below floor {WEALTH_FLOOR:g}", row=row)
    return MarketPath(phi=phi, R=R, W=W, C=C, Pi=Pi)


def simulate_policy_path(p: ModelParams, policy: Policy, shocks: ShockPath) -> MarketPath:
    """Run `policy(k, phi_k, None) -> (pi, c)` along one shock path.

    The N = 1 call of `simulate_paths`, deciding stage by stage.  Raises
    AdmissibilityError naming the stage if the policy leaves A or wealth
    falls to the floor.
    """
    b = simulate_paths(p, as_batch_policy(policy), shocks.Z[None], shocks.Ztilde[None])
    return MarketPath(phi=b.phi[0], R=b.R[0], W=b.W[0], C=b.C[0], Pi=b.Pi[0])
