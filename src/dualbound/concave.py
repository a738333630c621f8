"""Maximize a smooth concave objective over a small dense polyhedron.

Log-barrier interior-point method with damped Newton centering and
backtracking line search.  Problems here are tiny (dimension <= ~40, a few
dozen inequality rows), so dense linear algebra per Newton step is cheap and
exact Hessians are supplied analytically by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LinearConstraints:
    """Feasible set {x : A x <= b, x_i >= 0 for masked coordinates}."""

    A: np.ndarray
    b: np.ndarray
    nonneg_mask: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        mask = np.asarray(self.nonneg_mask, dtype=bool).reshape(-1)
        if A.shape[0] != b.shape[0] or (A.size and A.shape[1] != mask.shape[0]):
            raise ValueError(f"inconsistent constraint shapes A={A.shape}, b={b.shape}, mask={mask.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "nonneg_mask", mask)

    @property
    def dim(self) -> int:
        return self.nonneg_mask.shape[0]

    def expanded(self) -> tuple:
        """All rows as (A_full, b_full), folding the nonneg mask into -x_i <= 0."""
        idx = np.flatnonzero(self.nonneg_mask)
        extra = -np.eye(self.dim)[idx]
        A_full = np.vstack([self.A, extra]) if self.A.size else extra
        b_full = np.concatenate([self.b, np.zeros(len(idx))])
        return A_full, b_full

    def slack(self, x: np.ndarray) -> np.ndarray:
        A_full, b_full = self.expanded()
        return b_full - A_full @ x

    def max_violation(self, x: np.ndarray) -> float:
        s = self.slack(x)
        return float(max(0.0, -np.min(s))) if s.size else 0.0


@dataclass(frozen=True)
class ObjectiveOracle:
    """Concave objective: value (-inf outside the domain), gradient and Hessian."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


@dataclass
class Solution:
    x: np.ndarray
    f: float
    kkt_residual: float
    iterations: int
    status: str
    trace_f: list = field(default_factory=list)


def maximize(
    oracle: ObjectiveOracle,
    cons: LinearConstraints,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_newton: int = 200,
) -> Solution:
    """Barrier method for  max f(x)  s.t.  A x <= b, masked x_i >= 0.

    x0 must be strictly feasible and inside the oracle's domain.  Converged
    means the barrier duality measure (rows / t) and the gradient-based KKT
    residual both fall below tol.
    """
    A, b = cons.expanded()
    m_rows = A.shape[0]
    x = np.array(x0, dtype=float)
    s = b - A @ x
    fx = float(oracle.value(x))
    if (s.size and np.min(s) <= 0.0) or not np.isfinite(fx):
        return Solution(x=x, f=-np.inf, kkt_residual=np.inf, iterations=0, status=STATUS_INFEASIBLE)
    if m_rows == 0:
        raise ValueError("unconstrained problems are not supported; add at least one row")

    mu = 20.0
    t = 1.0
    t_cap = 2.0 * m_rows / tol  # at the cap the duality measure m/t is tol/2
    total_newton = 0
    # The accepted point carries its objective, slacks and log-barrier sum, so
    # each Newton step evaluates the oracle only at line-search trial points.
    log_s = np.sum(np.log(s))
    best_x, best_f = x.copy(), fx
    trace: list = []

    while True:
        # Centering: damped Newton on f(x) + (1/t) sum log s_i.  Intermediate
        # stages center lightly (decrement stop); the final accuracy comes from
        # the active-set polish below.
        for _ in range(80):
            if total_newton >= max_newton:
                return Solution(x=best_x, f=best_f, kkt_residual=_kkt(oracle, A, best_x, b, t),
                                iterations=total_newton, status=STATUS_MAX_ITER, trace_f=trace)
            inv_s = 1.0 / s
            grad_f = oracle.gradient(x)
            g = grad_f - (A.T @ inv_s) / t
            if float(np.max(np.abs(g))) <= 0.5 * tol * max(1.0, float(np.max(np.abs(grad_f)))):
                break
            H = oracle.hessian(x) - (A.T * (inv_s**2)) @ A / t
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                jitter = 1e-12 * (1.0 + float(np.abs(H).max()))
                step = np.linalg.solve(H - jitter * np.eye(H.shape[0]), -g)
            dec2 = float(np.dot(g, step))  # Newton decrement^2; >= 0 for concave models
            if dec2 <= 0.0:
                break  # float noise floor of the Newton system; as centered as we get
            total_newton += 1
            base = fx + log_s / t
            # Fraction-to-boundary cap keeps the first trial step well scaled.
            Astep = A @ step
            tight = Astep > 0.0
            alpha = 1.0
            if np.any(tight):
                alpha = min(1.0, 0.99 * float(np.min(s[tight] / Astep[tight])))
            accepted = False
            for _ in range(60):
                cand = x + alpha * step
                f_cand = float(oracle.value(cand))
                if np.isfinite(f_cand):
                    s_cand = b - A @ cand
                    if np.min(s_cand) > 0.0:
                        log_cand = np.sum(np.log(s_cand))
                        val = f_cand + log_cand / t
                        if np.isfinite(val) and val >= base + 0.25 * alpha * dec2:
                            x, s, fx, log_s = cand, s_cand, f_cand, log_cand
                            accepted = True
                            break
                alpha *= 0.5
            if fx > best_f:
                best_f, best_x = fx, x.copy()
            if not accepted or dec2 / 2.0 <= 1e-12 * (1.0 + abs(base)):
                break
        trace.append(fx)
        gap = m_rows / t
        if gap <= max(1e-3, tol):
            # Crossover: exact KKT on the guessed active face certifies a
            # concave optimum directly (comp. slackness makes the measure 0).
            polished = _active_set_polish(oracle, A, b, x, fx)
            if polished is not None:
                x_pol, f_pol, kkt_pol, its = polished
                total_newton += its
                trace.append(f_pol)
                if kkt_pol <= tol:
                    return Solution(x=x_pol, f=f_pol, kkt_residual=kkt_pol,
                                    iterations=total_newton, status=STATUS_CONVERGED, trace_f=trace)
        if gap <= tol:
            kkt = _kkt(oracle, A, x, b, t)
            if kkt <= tol:
                return Solution(x=x, f=fx, kkt_residual=kkt,
                                iterations=total_newton, status=STATUS_CONVERGED, trace_f=trace)
            if t >= t_cap:
                # Duality measure is below tol but stationarity was not certified.
                return Solution(x=best_x, f=best_f, kkt_residual=kkt,
                                iterations=total_newton, status=STATUS_MAX_ITER, trace_f=trace)
        t = min(t * mu, t_cap)


def _active_set_polish(oracle: ObjectiveOracle, A: np.ndarray, b: np.ndarray,
                       x0: np.ndarray, f0: float):
    """Newton crossover onto the active face guessed from the barrier point.

    Runs a small active-set loop: rows violated by the face optimum are added,
    rows with negative multipliers are dropped.  A result is returned only
    when the full KKT conditions verify (feasibility of every row within
    tolerance, nonnegative multipliers, objective not worse than the barrier
    point), so a wrong guess is harmless.
    Returns (x, f, relative_stationarity, newton_steps) or None.
    """
    s = b - A @ x0
    b_scale = 1.0 + np.abs(b)
    active = set(np.flatnonzero(s <= 1e-5 * b_scale).tolist())
    total_steps = 0
    seen = set()
    for _ in range(6):
        key = frozenset(active)
        if key in seen:
            return None
        seen.add(key)
        act = np.array(sorted(active), dtype=int)
        result = _polish_on_face(oracle, A, b, act, x0)
        if result is None:
            return None
        x, f_new, nu_a, stationarity, steps = result
        total_steps += steps
        s_new = b - A @ x
        violated = np.flatnonzero(s_new < -1e-10 * b_scale)
        if violated.size:
            active |= set(violated.tolist())
            continue
        nu_floor = -1e-8 * (1.0 + (float(np.max(np.abs(nu_a))) if len(act) else 0.0))
        negative = [int(act[j]) for j in np.flatnonzero(nu_a < nu_floor)] if len(act) else []
        if negative:
            active -= set(negative)
            continue
        if np.isfinite(f_new) and f_new >= f0 - 1e-10 * (1.0 + abs(f0)):
            return x, f_new, stationarity, total_steps
        return None
    return None


def _polish_on_face(oracle: ObjectiveOracle, A: np.ndarray, b: np.ndarray,
                    active: np.ndarray, x0: np.ndarray):
    """Equality-constrained Newton on the face A_act x = b_act.

    Newton contracts on a face that holds the optimum.  A step no shorter than
    the one before marks a wrong face (off the optimum's face the objective can
    lack curvature and the iterates diverge), unless the step is at rounding
    level, where the face is solved and the step test ends the loop.
    Returns (x, f, multipliers, relative stationarity, steps) or None when the
    iteration leaves the objective domain or stops contracting.
    """
    Aa = A[active]
    ba = b[active]
    x = x0.copy()
    m = x.size
    KKT = np.zeros((m + len(active), m + len(active)))
    KKT[:m, m:] = Aa.T
    KKT[m:, :m] = Aa
    nu_a = np.zeros(len(active))
    steps = 0
    last = np.inf
    for _ in range(12):
        g = oracle.gradient(x)
        KKT[:m, :m] = oracle.hessian(x)
        rhs = np.concatenate([-g, ba - Aa @ x])
        if not (np.all(np.isfinite(KKT)) and np.all(np.isfinite(rhs))):
            return None
        try:
            sol_vec = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            try:
                sol_vec, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
            except np.linalg.LinAlgError:
                return None
        if not np.all(np.isfinite(sol_vec)):
            return None
        dx = sol_vec[:m]
        nu_a = -sol_vec[m:]  # block system solves grad f + Aa' nu = 0
        steps += 1
        size = float(np.max(np.abs(dx)))
        if size >= last and size > 1e-12 * (1.0 + float(np.max(np.abs(x)))):
            return None
        last = size
        alpha = 1.0
        moved = False
        for _ in range(30):
            cand = x + alpha * dx
            f_cand = oracle.value(cand)
            if np.isfinite(f_cand):
                x, f_x = cand, f_cand
                moved = True
                break
            alpha *= 0.5
        if not moved:
            return None
        if size <= 1e-14 * (1.0 + float(np.max(np.abs(x)))):
            break
    grad = oracle.gradient(x)
    scale = max(1.0, float(np.max(np.abs(grad))))
    stationarity = float(np.max(np.abs(grad - Aa.T @ nu_a))) / scale
    return x, float(f_x), nu_a, stationarity, steps


def _kkt(oracle: ObjectiveOracle, A: np.ndarray, x: np.ndarray, b: np.ndarray, t: float) -> float:
    """Stationarity residual with the barrier multipliers nu_i = 1/(t s_i),
    measured relative to the gradient scale (absolute on O(1) problems)."""
    s = b - A @ x
    if np.min(s) <= 0.0:
        return np.inf
    nu = 1.0 / (t * s)
    grad = oracle.gradient(x)
    scale = max(1.0, float(np.max(np.abs(grad))))
    return float(np.max(np.abs(grad - A.T @ nu))) / scale
