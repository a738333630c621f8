"""Grid-based backward recursion for the per-unit-wealth value function J_k(phi).

The market state is discretized on a sorted node grid; its one-step law is a
row-stochastic cell-mass matrix.  Return expectations use a tensorized
Gauss-Hermite rule frozen at the current node, taken independently of the
state expectation.  Each node maximization is a small concave program; the
G nodes of a stage are solved together as one lockstep batch of the barrier
engine, each warm-started from its own optimum at stage k+1.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from . import concave
from .market import ModelParams, log_return_mean

logger = logging.getLogger(__name__)

SERIAL_VERSION = 2
U_FLOOR = 1e-10  # lower guard on portfolio growth at quadrature nodes
NODE_TOL = 1e-8  # solver tolerance of every Bellman node

DEFAULT_GRID = np.linspace(-2.0, 2.0, 21)
DEFAULT_QUAD_POINTS = 3


class NodeSolveError(RuntimeError):
    """Inner solver failed to converge at a Bellman node."""

    def __init__(self, k: int, phi: float, status: str):
        self.k = k
        self.phi = phi
        super().__init__(f"node solve failed at stage k={k}, phi={phi:.6g} (status={status})")


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Hermite rule for a standard normal vector."""

    nodes: np.ndarray    # (Q, n)
    weights: np.ndarray  # (Q,)

    @property
    def count(self) -> int:
        return self.nodes.shape[0]


def build_quadrature(q: int, n: int) -> QuadratureRule:
    """q points per dimension, tensorized over n dimensions (probabilists' weights)."""
    if q not in (3, 5, 7):
        raise ValueError(f"unsupported quadrature order q={q}; use 3, 5 or 7")
    if n > 4:
        raise ValueError(f"tensor rule limited to n <= 4 dimensions, got {n}")
    x, w = np.polynomial.hermite_e.hermegauss(q)
    w = w / w.sum()
    nodes = np.array(list(itertools.product(x, repeat=n)))
    weights = np.prod(np.array(list(itertools.product(w, repeat=n))), axis=1)
    return QuadratureRule(nodes=nodes, weights=weights)


_SQRT_HALF = math.sqrt(0.5)


def _norm_cdf(x: float) -> float:
    """Standard normal CDF on the C library's erf/erfc, with the branches of
    cephes' ndtr: erf near the centre, erfc of |z| in the tails (reflected on
    the right), so neither tail loses digits to cancellation."""
    z = x * _SQRT_HALF
    if abs(z) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(z)
    y = 0.5 * math.erfc(abs(z))
    return 1.0 - y if z > 0.0 else y


_norm_cdf_array = np.vectorize(_norm_cdf, otypes=[float])


def _checked_grid(grid, context: str = "") -> np.ndarray:
    """The state grid as a float array; ValueError, its message prefixed by
    context, unless it is 1-d with at least two finite, strictly increasing
    nodes."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.isfinite(grid)) or not np.all(np.diff(grid) > 0):
        raise ValueError(f"{context}grid must be a sorted 1-d array of at least two nodes, "
                         "strictly increasing and finite")
    return grid


def build_phi_transition(grid: np.ndarray, p: ModelParams) -> np.ndarray:
    """Row-stochastic (G, G) transition of the state grid.

    Discretizes N(phi_i (1 - lam*delta), phi_step_var) onto midpoint cells:
    cell j collects the normal mass between the midpoints around node j; the
    outermost cells extend to +-infinity.  A zero-variance law degenerates to
    unit mass on the nearest node.
    """
    grid = _checked_grid(grid)
    G = grid.size
    mids = 0.5 * (grid[:-1] + grid[1:])
    var = p.phi_step_var
    means = grid * (1.0 - p.lam * p.delta)
    if var <= 0.0:
        P = np.zeros((G, G))
        P[np.arange(G), np.argmin(np.abs(grid - means[:, None]), axis=1)] = 1.0
        return P
    cdf = _norm_cdf_array((mids - means[:, None]) / math.sqrt(var))   # (G, G-1)
    P = np.diff(cdf, axis=1, prepend=0.0, append=1.0)
    return P / P.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class ValueGrid:
    """Nodal values and policy of the backward recursion."""

    grid: np.ndarray        # (G,)
    J: np.ndarray           # (K+1, G)
    policy_pi: np.ndarray   # (K, G, n)
    policy_c: np.ndarray    # (K, G)

    @property
    def K(self) -> int:
        return self.J.shape[0] - 1


def node_returns(p: ModelParams, quad: QuadratureRule, phi) -> np.ndarray:
    """Gross returns at every joint quadrature node, state frozen at phi.

    One state gives (Q, n); an (G,) array of states gives (G, Q, n).
    """
    log_r = log_return_mean(phi, p)[..., None, :] + (quad.nodes @ p.sigma.T) * p.sqrt_delta
    return np.exp(log_r)


def bellman_oracle(p: ModelParams, Rq: np.ndarray, wq: np.ndarray, EJ: np.ndarray) -> concave.ObjectiveOracle:
    """Objectives of a batch of node maximizations over x = (pi, c).

    Node i has returns Rq[i] (Q, n) and continuation value EJ[i]:
    alpha*delta*c^(1-gamma)/(1-gamma) + beta^delta * EJ * E_q[u^(1-gamma)]
    with u = R_f + (Rq - R_f)'pi - c, as a `concave.crra_oracle` with one
    column per quadrature node, a c column where alpha > 0 (at alpha = 0,
    c = 0 stays inside the domain) and a zero penalty.
    """
    B, Q, n = Rq.shape
    J = Q + (p.alpha > 0.0)
    P = np.zeros((B, n + 1, J + 1))
    P[:, :n, :Q] = (Rq - p.R_f).transpose(0, 2, 1)
    P[:, n, :Q] = -1.0
    z0 = np.zeros((B, J + 1))
    z0[:, :Q] = p.R_f
    w = np.empty((B, J))
    w[:, :Q] = p.beta**p.delta * (1.0 - p.gamma) * np.asarray(EJ, dtype=float)[:, None] * wq
    if p.alpha > 0.0:
        P[:, n, Q] = 1.0
        w[:, Q] = p.alpha * p.delta
    return concave.crra_oracle(P, z0, w, p.gamma)


def node_constraints(p: ModelParams, Rq: np.ndarray) -> tuple:
    """Rows (A, b), A x <= b over x = (pi, c), of one node (Rq of shape
    (Q, n)) or of every node (Rq of shape (G, Q, n)): the budget
    c + R_f 1'pi <= R_f, the growth guards u >= U_FLOOR per quadrature
    node, then -x <= 0 for pi, c >= 0."""
    n = p.n
    Q = Rq.shape[-2]
    A = np.zeros(Rq.shape[:-2] + (1 + Q + n + 1, n + 1))
    A[..., 0, :n] = p.R_f
    A[..., 0, n] = 1.0
    A[..., 1:Q + 1, :n] = -(Rq - p.R_f)
    A[..., 1:Q + 1, n] = 1.0
    A[..., Q + 1:, :] = -np.eye(n + 1)
    b = np.zeros(A.shape[:-1])
    b[..., 0] = p.R_f
    b[..., 1:Q + 1] = p.R_f - U_FLOOR
    return A, b


def _default_start(p: ModelParams) -> np.ndarray:
    """Every coordinate of (pi, c) at min(1, R_f) / (n + 2): at R_f = 1 the
    analytic centre of the budget simplex, and strictly inside the budget and
    the growth guards for every R_f > 0."""
    return np.full(p.n + 1, min(1.0, p.R_f) / (p.n + 2))


def backward_recursion(
    p: ModelParams,
    grid: Optional[np.ndarray] = None,
    quad: Optional[QuadratureRule] = None,
    pt: Optional[np.ndarray] = None,
    solver: Optional[Callable] = None,
) -> ValueGrid:
    """Solve the stage recursion on the grid, storing values and policy.

    Node returns and constraints depend only on phi, so they are built once.
    Each stage solves its G nodes as one `concave.maximize_batch` call from
    the default start.  Below stage K-1 the batch gets the stage k+1 optima
    as its warm points.  Optima and faces barely move from stage to stage,
    so the solver's crossover from node i's stage k+1 optimum onto the rows
    it holds certifies most nodes without a barrier stage.  A per-node
    `solver(oracle, cons, x0, tol=)`, such as a wrapped `concave.maximize`,
    is called instead G times per stage in node order with the same problems,
    starts and rows cons = (A[i], b[i]), or (A[i], b[i], warm[i]) below stage
    K-1, and gives the same grid.
    pt is the (G, G) transition of `build_phi_transition`.
    """
    grid = DEFAULT_GRID.copy() if grid is None else np.asarray(grid, dtype=float)
    quad = quad if quad is not None else build_quadrature(DEFAULT_QUAD_POINTS, p.n)
    pt = pt if pt is not None else build_phi_transition(grid, p)
    G = grid.size
    K = p.K
    J = np.empty((K + 1, G))
    policy_pi = np.empty((K, G, p.n))
    policy_c = np.empty((K, G))
    J[K] = (1.0 - p.alpha) / (1.0 - p.gamma)
    Rq = node_returns(p, quad, grid)
    A, b = node_constraints(p, Rq)
    X0 = np.tile(_default_start(p), (G, 1))
    warm = None
    for k in range(K - 1, -1, -1):
        EJ = pt @ J[k + 1]
        # Built before the last stage's oracle is freed: freeing that first
        # cost a loop of 41-node q = 5 grid solves about 5,400 page faults a
        # solve instead of 80, and about 10% of its time.
        oracle = bellman_oracle(p, Rq, quad.weights, EJ)
        if solver is None:
            sols = concave.maximize_batch(oracle, A, b, X0, tol=NODE_TOL, warm=warm)
        else:
            cons = (A, b) if warm is None else (A, b, warm)
            sols = [solver(bellman_oracle(p, Rq[i:i + 1], quad.weights, EJ[i:i + 1]), tuple(c[i] for c in cons),
                           X0[i], tol=NODE_TOL) for i in range(G)]
        if logger.isEnabledFor(logging.DEBUG):
            for i, sol in enumerate(sols):
                logger.debug("node k=%d phi=%+.3f: %d newton steps, %s, kkt %.2e",
                             k, grid[i], sol.iterations, sol.status, sol.kkt_residual)
        for i, sol in enumerate(sols):
            if sol.status != concave.STATUS_CONVERGED:
                raise NodeSolveError(k, float(grid[i]), sol.status)
        warm = np.array([sol.x for sol in sols])
        J[k] = [sol.f for sol in sols]
        policy_pi[k] = warm[:, : p.n]
        policy_c[k] = warm[:, p.n]
    return ValueGrid(grid=grid, J=J, policy_pi=policy_pi, policy_c=policy_c)


def _segments(g: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
    """Index j of the grid segment [g[j], g[j+1]] holding x; edge segments extend outward."""
    j = np.searchsorted(g, x, side=side) - 1
    return np.minimum(np.maximum(j, 0), g.size - 2)


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def interpolate_J(vg: ValueGrid, k, phi):
    """Piecewise-linear nodal interpolation; linear continuation beyond the grid.

    k (a stage or an array of stages) broadcasts against phi (one state or
    an array of states); a scalar k and phi give a float.  Inside the grid
    this is np.interp, exact at the nodes.
    """
    g, J = vg.grid, vg.J
    x = np.asarray(phi, dtype=float)
    j = _segments(g, x, "right")
    slope = (J[k, j + 1] - J[k, j]) / (g[j + 1] - g[j])
    anchor = np.where(x >= g[-1], g.size - 1, j)
    return _scalar_or_array(J[k, anchor] + (x - g[anchor]) * slope)


def gradient_J(vg: ValueGrid, k, phi):
    """Slope of the interpolant; averaged adjacent slopes exactly at interior nodes.

    k and phi broadcast as in `interpolate_J`.
    """
    g, J = vg.grid, vg.J
    k = np.minimum(k, vg.K)
    x = np.asarray(phi, dtype=float)
    j = _segments(g, x, "left")  # g[j] < x <= g[j+1] inside the grid
    left = (J[k, j + 1] - J[k, j]) / (g[j + 1] - g[j])
    i = np.minimum(j + 1, g.size - 2)  # the segment right of node j+1
    right = (J[k, i + 1] - J[k, i]) / (g[i + 1] - g[i])
    at_node = (x == g[j + 1]) & (x < g[-1])
    return _scalar_or_array(np.where(at_node, 0.5 * (left + right), left))


def policy_lookup(vg: ValueGrid, k: int, phi, p: ModelParams) -> tuple:
    """Componentwise interpolation of the nodal policy, projected back into A.

    Beyond the outermost nodes the nearest nodal policy is used (constant
    extrapolation) before projection.  phi is one state, giving (pi[n], c),
    or an (N,) array of states, giving (pi[N, n], c[N]).
    """
    g = vg.grid
    x = np.asarray(phi, dtype=float).reshape(-1)  # np.interp extrapolates constantly
    n = vg.policy_pi.shape[2]
    pi = np.empty((x.size, n))
    for j in range(n):
        pi[:, j] = np.interp(x, g, vg.policy_pi[k, :, j])
    c = np.interp(x, g, vg.policy_c[k])
    np.maximum(pi, 0.0, out=pi)
    total = pi.sum(axis=-1)
    pi /= np.maximum(total, 1.0)[:, None]  # back onto the simplex where 1'pi > 1
    c = np.minimum(np.maximum(c, 0.0), p.R_f * (1.0 - np.minimum(total, 1.0)))
    if np.ndim(phi) == 0:
        return pi[0], float(c[0])
    return pi, c


def make_grid_policy(vg: ValueGrid, p: ModelParams):
    """Stage policy callback for simulation; wealth-independent under CRRA.

    Takes one state or an (N,) batch of states, like `policy_lookup`.
    """

    def policy(k: int, phi, W):
        return policy_lookup(vg, k, phi, p)

    return policy


def value_grid_to_dict(vg: ValueGrid, p: ModelParams) -> dict:
    return {
        "version": SERIAL_VERSION,
        "params_hash": p.content_hash(),
        "params": p.to_dict(),
        **{f.name: getattr(vg, f.name).tolist() for f in fields(ValueGrid)},
    }


def value_grid_from_dict(data: dict) -> tuple:
    if not isinstance(data, dict):
        raise ValueError("value-grid file must hold a JSON object")
    version = data.get("version")
    if version != SERIAL_VERSION:
        raise ValueError(f"unsupported value-grid file version {version!r}")
    p = ModelParams.from_dict(data["params"])
    if data.get("params_hash") != p.content_hash():
        raise ValueError("value-grid file is corrupt: params hash mismatch")
    vg = ValueGrid(**{f.name: np.asarray(data[f.name], dtype=float) for f in fields(ValueGrid)})
    G = _checked_grid(vg.grid, "value-grid file is corrupt: ").size
    for name, shape in (("J", (p.K + 1, G)), ("policy_pi", (p.K, G, p.n)), ("policy_c", (p.K, G))):
        entries = getattr(vg, name)
        if entries.shape != shape:
            raise ValueError(f"value-grid file is corrupt: {name} has shape {entries.shape}, expected {shape}")
        if not np.isfinite(entries).all():  # json reads NaN and Infinity
            raise ValueError(f"value-grid file is corrupt: {name} has non-finite entries")
    return vg, p


def save_value_grid(path: str, vg: ValueGrid, p: ModelParams) -> None:
    with open(path, "w") as fh:
        json.dump(value_grid_to_dict(vg, p), fh, sort_keys=True)
        fh.write("\n")


def load_value_grid(path: str):
    with open(path) as fh:
        return value_grid_from_dict(json.load(fh))
