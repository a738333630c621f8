"""Grid-based backward recursion for the per-unit-wealth value function J_k(phi).

The market state is discretized on a sorted node grid; its one-step law is a
row-stochastic cell-mass matrix.  Return expectations use a tensorized
Gauss-Hermite rule frozen at the current node, taken independently of the
state expectation.  Under CRRA utility each node's Bellman maximization
separates into a portfolio problem that no stage changes and a consumption
share in closed form: the G portfolio problems of a grid are solved once,
as one lockstep batch of the barrier engine, and each stage is arithmetic
(`backward_recursion`).  J, its slope (`J_and_slope`) and the stored policy
(`policy_lookup`, np.interp's arithmetic bit for bit) are gathered through
one search (`_place`) from tables of one layout, stacked once per grid.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import concave
from .market import ModelParams, log_return_mean, reduce_last

SERIAL_VERSION = 2
U_FLOOR = 1e-10  # lower guard on portfolio growth at quadrature nodes
NODE_TOL = 1e-8  # solver tolerance of every node's portfolio problem

DEFAULT_GRID = np.linspace(-2.0, 2.0, 21)
DEFAULT_QUAD_POINTS = 3


class NodeSolveError(RuntimeError):
    """The portfolio problem of a grid node did not converge, or a stage's
    value or policy at the node is not finite."""

    def __init__(self, phi: float, status: str):
        self.phi = phi
        super().__init__(f"node solve failed at phi={phi:.6g} (status={status})")


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Hermite rule for a standard normal vector."""

    nodes: np.ndarray    # (Q, n)
    weights: np.ndarray  # (Q,)


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

    @cached_property
    def J_table(self) -> tuple:
        """(values, slopes) of J in the layout of `_tables`: one row over the
        K + 1 stages, for `J_and_slope`."""
        return _tables(self.J[None], self.grid)

    @cached_property
    def policy_table(self) -> tuple:
        """(values, slopes) of the nodal policy in the layout of `_tables`,
        stacked asset-major for `policy_lookup`: row j < n for pi_j and row n
        for c over the K stages.  Built from the nodal arrays on first use."""
        K, G, n = self.policy_pi.shape
        values = np.empty((n + 1, K, G))
        values[:n] = self.policy_pi.transpose(2, 0, 1)
        values[n] = self.policy_c
        return _tables(values, self.grid)


def _tables(values: np.ndarray, grid: np.ndarray) -> tuple:
    """Nodal values (rows, stages, G) and their segment slopes, each as a
    (rows, stages G) array whose column k G + i holds stage k at node i.
    slopes[:, k G + i] is the slope of segment [grid[i], grid[i+1]], as
    np.interp forms it; at i = G - 1 it repeats the last segment's, so both
    edge segments extend outward."""
    rows, stages, G = values.shape
    slopes = np.empty(values.shape)
    np.divide(np.diff(values, axis=2), np.diff(grid), out=slopes[:, :, :-1])
    slopes[:, :, -1] = slopes[:, :, -2]
    return values.reshape(rows, stages * G), slopes.reshape(rows, stages * G)


def node_returns(p: ModelParams, quad: QuadratureRule, phi) -> np.ndarray:
    """Gross returns at every joint quadrature node, state frozen at phi.

    One state gives (Q, n); an (G,) array of states gives (G, Q, n).
    """
    log_r = log_return_mean(phi, p)[..., None, :] + (quad.nodes @ p.sigma.T) * p.sqrt_delta
    return np.exp(log_r)


def portfolio_oracle(p: ModelParams, Rq: np.ndarray, wq: np.ndarray) -> concave.ObjectiveOracle:
    """Portfolio objectives E_q[g^(1-gamma)]/(1-gamma) of a batch of nodes, in
    the fractions w of the wealth not consumed that go into the risky assets.

    Node i has returns Rq[i] (Q, n) and growth g = R_f + (Rq[i] - R_f)'w at
    each quadrature node, as a `concave.crra_oracle` with one column per
    quadrature node and a zero penalty.
    """
    B, Q, n = Rq.shape
    P = np.zeros((B, n, Q + 1))
    P[:, :, :Q] = (Rq - p.R_f).transpose(0, 2, 1)
    z0 = np.zeros((B, Q + 1))
    z0[:, :Q] = p.R_f
    return concave.crra_oracle(P, z0, wq, p.gamma)


def portfolio_constraints(n: int) -> tuple:
    """Rows (A, b), A w <= b, of every node's portfolio problem: 1'w <= 1,
    then -w <= 0.  Growth is positive on all of it, since R_f > 0 and every
    gross return is."""
    return np.vstack([np.ones(n), -np.eye(n)]), np.append(1.0, np.zeros(n))


def backward_recursion(
    p: ModelParams,
    grid: Optional[np.ndarray] = None,
    quad: Optional[QuadratureRule] = None,
    pt: Optional[np.ndarray] = None,
    solver: Optional[Callable] = None,
) -> ValueGrid:
    """Solve the stage recursion on the grid, storing values and policy.

    Node i maximizes alpha delta c^(1-gamma)/(1-gamma)
    + beta^delta EJ_i E_q[u^(1-gamma)] over (pi, c), with growth
    u = R_f + (Rq_i - R_f)'pi - c.  Under CRRA the problem separates
    (Samuelson 1969; Merton 1969): with s = 1 - c / R_f and pi = s w,
    u = s g(w), g(w) = R_f + (Rq_i - R_f)'w, the rows become w >= 0,
    1'w <= 1 and s <= 1, and the objective
        A (1 - s)^(1-gamma)/(1-gamma) + beta^delta EJ_i s^(1-gamma) M_i(w),
    A = alpha delta R_f^(1-gamma), M_i(w) = E_q[g(w)^(1-gamma)].  Since
    (1-gamma) EJ_i >= 0, the best w maximizes M_i(w)/(1-gamma) whatever the
    stage: one portfolio problem per node, solved once per grid as one
    `concave.maximize_batch` call from the simplex centre w_j = 1/(n+1).
    Each stage is then closed form in B = beta^delta (1-gamma) EJ_i M_i,
    written scale-free in hi = max(A, B) and q = (min(A, B) / hi)^(1/gamma),
    so that neither A^(1/gamma) nor B^(1/gamma) under- or overflows:
        s = (1 if B > A else q) / (1 + q),  J_k = hi (1 + q)^gamma / (1-gamma),
        pi = s w*,  c = R_f (1 - s).
    The joint node's growth guards u >= U_FLOOR become
    s >= U_FLOOR / min_q g_q(w*), which binds only where EJ_i = 0 (alpha = 1
    at stage K-1); there J is evaluated at the clamped s.  A stage value or
    share out of float range raises NodeSolveError at its first node.

    A per-node `solver(oracle, cons, x0, tol=)`, such as a wrapped
    `concave.maximize`, is called instead G times in node order with the same
    portfolio problems, starts and rows cons = (A, b), and gives the same grid.
    pt is the (G, G) transition of `build_phi_transition`.
    """
    grid = DEFAULT_GRID.copy() if grid is None else np.asarray(grid, dtype=float)
    quad = quad if quad is not None else build_quadrature(DEFAULT_QUAD_POINTS, p.n)
    pt = pt if pt is not None else build_phi_transition(grid, p)
    G = grid.size
    Rq = node_returns(p, quad, grid)
    A_w, b_w = portfolio_constraints(p.n)
    w0 = np.full(p.n, 1.0 / (p.n + 1))
    if solver is None:
        sols = concave.maximize_batch(portfolio_oracle(p, Rq, quad.weights), np.tile(A_w, (G, 1, 1)),
                                      np.tile(b_w, (G, 1)), np.tile(w0, (G, 1)), tol=NODE_TOL)
    else:
        sols = [solver(portfolio_oracle(p, Rq[i:i + 1], quad.weights), (A_w, b_w), w0, tol=NODE_TOL)
                for i in range(G)]
    for i, sol in enumerate(sols):
        if sol.status != concave.STATUS_CONVERGED:
            raise NodeSolveError(float(grid[i]), sol.status)
    w = np.array([sol.x for sol in sols])
    e = 1.0 - p.gamma
    M = e * np.array([sol.f for sol in sols])
    s_min = U_FLOOR / (p.R_f + ((Rq - p.R_f) @ w[:, :, None])[:, :, 0]).min(axis=1)
    A = p.alpha * p.delta * p.R_f**e
    J = np.empty((p.K + 1, G))
    policy_pi = np.empty((p.K, G, p.n))
    policy_c = np.empty((p.K, G))
    J[p.K] = (1.0 - p.alpha) / e
    for k in range(p.K - 1, -1, -1):
        # A value out of float range shows as a non-finite J or s, checked below.
        with np.errstate(over="ignore", invalid="ignore"):
            B = p.beta**p.delta * e * (pt @ J[k + 1]) * M
            hi = np.maximum(A, B)
            q = (np.minimum(A, B) / hi) ** (1.0 / p.gamma)
            s = np.where(B > A, 1.0, q) / (1.0 + q)
            J[k] = hi * (1.0 + q) ** p.gamma / e
            low = s < s_min
            s[low] = s_min[low]
            J[k, low] = (A * (1.0 - s[low]) ** e + B[low] * s[low] ** e) / e
        bad = np.flatnonzero(~(np.isfinite(J[k]) & np.isfinite(s)))
        if bad.size:
            raise NodeSolveError(float(grid[bad[0]]), f"non-finite value or policy at stage {k}")
        policy_pi[k] = s[:, None] * w
        policy_c[k] = p.R_f * (1.0 - s)
    return ValueGrid(grid=grid, J=J, policy_pi=policy_pi, policy_c=policy_c)


def _place(vg: ValueGrid, k, phi) -> tuple:
    """States phi at stages k on the grid: the states x (M,), flattened
    over the broadcast shape of k and phi; dx = x - g_i at node i, with
    g_i <= x < g_{i+1} (the first node left of the grid, the last at or
    right of its end or for NaN); the table columns k G + i; the shape."""
    g = vg.grid
    shape = np.broadcast(k, phi).shape
    x = np.broadcast_to(np.asarray(phi, dtype=float), shape).reshape(-1)
    columns = g.searchsorted(x, side="right")
    columns -= 1
    np.maximum(columns, 0, out=columns)
    dx = g.take(columns)
    np.subtract(x, dx, out=dx)
    stage_columns = columns.reshape(shape)
    stage_columns += k * g.size
    return x, dx, columns, shape


def J_and_slope(vg: ValueGrid, k, phi) -> tuple:
    """J and its slope at stages k and states phi, from one placement.

    k (a stage or an array of stages) broadcasts against phi (one state or
    an array of states); a scalar k and phi give floats.  J is the
    piecewise-linear nodal interpolant, np.interp inside the grid and
    continued linearly beyond both edges.  The slope is that of the segment
    holding phi, and the mean of the two adjacent segments' exactly at an
    interior node.
    """
    g = vg.grid
    (values,), (slopes,) = vg.J_table
    x, dx, columns, shape = _place(vg, k, phi)
    dJ = slopes.take(columns)
    J = values.take(columns)
    J += dx * dJ
    node = (dx == 0.0) & (g[0] < x) & (x < g[-1])
    dJ[node] = 0.5 * (slopes.take(columns[node] - 1) + dJ[node])
    return (float(J[0]), float(dJ[0])) if shape == () else (J.reshape(shape), dJ.reshape(shape))


def interpolate_J(vg: ValueGrid, k, phi):
    """J of `J_and_slope`: a float for a scalar k and phi, else an array."""
    return J_and_slope(vg, k, phi)[0]


def policy_lookup(vg: ValueGrid, k, phi, p: ModelParams) -> tuple:
    """Componentwise interpolation of the nodal policy, projected back into A.

    k (a stage or an array of stages) broadcasts against phi (one state or
    an array of states), as in `J_and_slope`; the result is pi (..., n)
    and c (...) over their broadcast shape, pi[n] and a float c for a
    scalar k and phi.  Each column is np.interp's, bit for bit and branch
    by branch: the first node's value left of the grid, the last node's at
    or right of the last node, a node's own value on it, and
    slope (x - g_j) + y_j between nodes g_j < x < g_{j+1}.  One placement
    (`_place`) serves all n + 1 columns and all stages, whose rows are
    gathered from `ValueGrid.policy_table`.
    """
    values, slopes = vg.policy_table
    x, dx, columns, shape = _place(vg, k, phi)
    on = (dx <= 0.0) | (x >= vg.grid[-1])  # left of the grid, on node j, or at or right of its end: y_j
    np.copyto(dx, 0.0, where=on)  # so that slope * dx stays finite at x = +-inf
    out = slopes.take(columns, axis=1)
    out *= dx
    for column, nodal in zip(out, values):  # one (M,) gather of nodal values at a time
        y = nodal.take(columns)
        column += y
        np.copyto(column, y, where=on)
    n = values.shape[0] - 1
    pi, c = out[:n], out[n]
    np.maximum(pi, 0.0, out=pi)
    total = reduce_last(np.add, pi.T)
    pi /= np.maximum(total, 1.0)  # back onto the simplex where 1'pi > 1
    np.maximum(c, 0.0, out=c)
    np.minimum(c, p.R_f * (1.0 - np.minimum(total, 1.0)), out=c)
    pi = pi.T.reshape(shape + (n,))
    return (pi, float(c[0])) if shape == () else (pi, c.reshape(shape))


def make_grid_policy(vg: ValueGrid, p: ModelParams):
    """Stage policy callback for simulation: wealth fractions from (stage,
    state), independent of wealth under CRRA.

    Takes the arguments of `policy_lookup` and a wealth it does not read.
    """
    vg.policy_table  # the grid's stacked tables, built here once

    def policy(k, phi, W):
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
