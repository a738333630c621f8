"""Maximize smooth concave objectives over small dense polyhedra, in lockstep batches.

Log-barrier interior-point method with damped Newton centering, backtracking
line search and an active-set crossover.  The barrier weight t runs up the
ladder T_START * MU^j, capped where the duality measure m/t is tol/2.  Only
stages with m/t <= max(CROSSOVER_GAP, tol) are followed by exit tests.  Each
stage centers only to the accuracy of its own duality measure: it stops at a
Newton decrement^2 of m/t (Boyd & Vandenberghe, Convex Optimization,
11.3.3), except that the stages with m/t <= tol end in the barrier-KKT test
and center to the gradient tolerance.  A stage with tol < m/t <=
CROSSOVER_GAP ends only in a crossover, which certifies by exact KKT on its
face, so its point only has to guess that face.  The crossover guesses as
active the rows whose slack is small against their barrier multiplier,
t s_i^2 <= KAPPA, and keeps its result only where the KKT conditions verify.
Each round of the crossover's active-set loop is one lockstep face-Newton
loop over all its faces, whatever their row counts, and tests the face
optima as stacks.  A caller that knows a point at each optimum and its row
multipliers, as an inner problem's dual gives them, passes them as `warm`
and `duals`: a problem whose point and multipliers verify the KKT conditions
exits there with no Newton step, and the others run the barrier from their
own start.

`maximize_batch` solves B problems of one dimension D and one row count m
together.  Every problem keeps its own iterate, Newton count, line search,
active face and exit; the barrier weight t is shared because every problem
still running has passed the same centering stages.  The arithmetic of a
problem depends only on that problem (stacked BLAS slices and last-axis
reductions), so a problem solved in a batch gives bit for bit the result of
its own one-problem solve, and `maximize` is that one-problem call.

Problems here are tiny (dimension <= ~40, up to ~130 inequality rows), so
dense linear algebra per Newton step is cheap and exact Hessians are
supplied analytically: `crra_oracle` gives them for the CRRA objectives of
the grid nodes' portfolio problems, and `dual.inner_oracle` for the inner
problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_INFEASIBLE = "infeasible"

MU = 20.0              # barrier weight growth per centering stage
CROSSOVER_GAP = 1e-3   # duality measure m/t at which the crossover is first tried
# First barrier weight.  It is a rung of the ladder {MU^j}, so every exit
# test runs at the duality measure m/t it ran at from t = 1; the stages below
# it are followed by no exit test and took about a third of the Newton steps.
# Starts off the ladder (m/1e-2, m/CROSSOVER_GAP) move the exit stages, and
# where none of them then has m/t in (tol/2, tol] the last exit left, at
# t_cap, failed to certify some inner solves.
T_START = MU ** 2
MAX_CENTERING = 80     # Newton steps per centering stage
# The crossover guesses row i active where t s_i^2 <= KAPPA.  Of the 864
# inner solves of the robustness matrix (sets 1-4 x gamma 1.5/3/5, m1/m2/zero,
# 6 pairs x 2 runs, seed 3), KAPPA = 10/30/100/300/1000 certify 773/800/821/
# 815/683 at the first crossover, and none flags a leg.
KAPPA = 100.0
MAX_FACES = 6          # active faces tried per crossover
MAX_FACE_NEWTON = 12   # Newton steps per face
FACE_STACK = 2 ** 16   # KKT system entries per stacked face solve


@dataclass(frozen=True)
class ObjectiveOracle:
    """Concave objectives of a batch of problems, one point per problem.

    Each callable takes X[N, D] and rows[N], the indices of the problems the
    points belong to, and returns values f[N] (-inf outside a problem's
    domain), gradients [N, D] or Hessians [N, D, D].  Row i of the output
    may depend only on X[i] and problem rows[i].  Each call returns a new
    Hessian array: the solver writes into it.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray, np.ndarray], np.ndarray]


def stacked_matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Products M[i] @ v[i] of (B, m, D) and (B, D) stacks, one BLAS call per
    slice, so row i depends only on M[i] and v[i] (a batch oracle's rows must)."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


def crra_oracle(P: np.ndarray, z0: np.ndarray, w: np.ndarray, gamma: float) -> ObjectiveOracle:
    """Weighted CRRA sums of affine arguments minus an affine penalty.

    Problem i sets Z = x P[i] + z0[i], with P of shape (B, D, J+1) and z0 of
    shape (B, J+1), and has the objective
        sum_{j<J} w[i, j] Z_j^(1-gamma)/(1-gamma) - Z_J
    on the domain Z_j > 0 (j < J), -inf outside it.  w has shape (J,) or
    (B, J); it is concave for w >= 0.  dZ/dx and its weighted rows are formed
    once; each Hessian call scales the weighted rows of its problems by
    -gamma into the Hessian's columns, so that no third (B, D, J) stack is
    held.  Every product per call is a stacked slice, so a batch row equals
    its one-problem call bit for bit.
    """
    J = P.shape[2] - 1
    w = np.asarray(w, dtype=float)
    weights = np.broadcast_to(w, (P.shape[0], J))
    lin = np.ascontiguousarray(P[:, :, J])
    dY = np.ascontiguousarray(P[:, :, :J].transpose(0, 2, 1))  # (B, J, D)
    # gradient: Y^-gamma @ grad_rows - lin;  Hessian: (cols * Y^(-gamma-1)) @ dY
    # with cols = -gamma grad_rows' of the problems asked for.
    grad_rows = w[..., None] * dY

    def args(X, rows):   # the CRRA arguments Y = Z_{<J} and the penalty Z_J
        Z = (X[:, None, :] @ P[rows])[:, 0] + z0[rows]
        return Z[:, :J], Z[:, J]

    def value(X, rows):
        Y, penalty = args(X, rows)
        inside = Y.min(axis=1) > 0.0
        Y = np.where(inside[:, None], Y, 1.0)
        return np.where(inside, (weights[rows] / (1.0 - gamma) * Y ** (1.0 - gamma)).sum(axis=1) - penalty, -np.inf)

    def gradient(X, rows):
        Y = args(X, rows)[0]
        return ((Y ** (-gamma))[:, None, :] @ grad_rows[rows])[:, 0] - lin[rows]

    def hessian(X, rows):
        Y = args(X, rows)[0]
        # One expression, so that each temporary is freed before the next.
        return np.multiply((-gamma * grad_rows[rows]).transpose(0, 2, 1), (Y ** (-gamma - 1.0))[:, None, :],
                           order="C") @ dY[rows]

    return ObjectiveOracle(value=value, gradient=gradient, hessian=hessian)


@dataclass
class Solution:
    x: np.ndarray
    f: float
    kkt_residual: float
    iterations: int
    status: str


def maximize(
    oracle: ObjectiveOracle,
    cons: tuple,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_newton: int = 200,
) -> Solution:
    """Barrier method for  max f(x)  s.t.  A x <= b,  with cons = (A, b) or
    (A, b, warm, duals): warm a (D,) point at the optimum and duals its (m,)
    row multipliers (see `maximize_batch`).

    The one-problem call of `maximize_batch`; the oracle is evaluated with
    rows = [0].
    """
    A, b, *plan = cons
    if len(plan) not in (0, 2):
        raise ValueError("cons must be (A, b) or (A, b, warm, duals)")
    warm, duals = [np.asarray(a, dtype=float)[None] for a in plan] or [None, None]
    x0 = np.asarray(x0, dtype=float)
    return maximize_batch(oracle, np.asarray(A)[None], np.asarray(b)[None], x0[None],
                          tol=tol, max_newton=max_newton, warm=warm, duals=duals)[0]


def maximize_batch(
    oracle: ObjectiveOracle,
    A: np.ndarray,
    b: np.ndarray,
    X0: np.ndarray,
    tol: float = 1e-8,
    max_newton: int = 200,
    warm: Optional[np.ndarray] = None,
    duals: Optional[np.ndarray] = None,
) -> list:
    """Barrier method for  max f_i(x)  s.t.  A[i] x <= b[i],  for i < B at once.

    A is (B, m, D), b (B, m) and X0 (B, D); returns one Solution per problem.
    warm and duals are given together or not at all: warm a (B, D) array of
    points at the optima and duals a (B, m) array of their row multipliers,
    NaN rows where a problem has none.  A problem whose warm point and
    multipliers pass the KKT conditions (`_certify`) exits converged at its
    warm point with 0 Newton steps, whatever its start; the others run the
    barrier from X0.  Infeasible: X0[i] is not strictly feasible or outside
    the domain of f_i, and no certificate holds (f = -inf).  Converged: the
    warm point's multipliers or a crossover verified the KKT conditions to
    tol, or the barrier-KKT residual fell to tol at a stage with m/t <= tol.  Max_iter: the next Newton step would
    pass max_newton (the Solution holds the last iterate), or the stage at
    t_cap ended uncertified.
    """
    A = np.ascontiguousarray(A, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    X = np.array(X0, dtype=float)
    if A.shape[1] == 0:
        raise ValueError("unconstrained problems are not supported; add at least one row")
    if (warm is None) != (duals is None):
        raise ValueError("warm and duals must be given together")
    if warm is not None:
        warm, duals = np.asarray(warm, dtype=float), np.asarray(duals, dtype=float)
        if warm.shape != X.shape:
            raise ValueError(f"warm must be an array of shape {X.shape}, got {warm.shape}")
        if duals.shape != b.shape:
            raise ValueError(f"duals must be an array of shape {b.shape}, got {duals.shape}")
    out: list = [None] * A.shape[0]
    # A trial point outside a problem's domain or feasible set evaluates to
    # NaN or -inf and is rejected, so invalid-value warnings are silenced.
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.arange(A.shape[0])
        S = b - stacked_matvec(A, X)
        live = _Live.start(rows, A, b, X, S, oracle.value(X, rows))
        if warm is not None:
            _certify(oracle, live, warm, duals, tol, out)
        infeasible = (live.S.min(axis=1) <= 0.0) | ~np.isfinite(live.F)
        live.F[infeasible] = -np.inf
        _exit(out, live, infeasible, STATUS_INFEASIBLE, np.full(live.size, np.inf))
        _barrier(oracle, live, tol, max_newton, out)
    return out


def certificate(S: np.ndarray, b: np.ndarray, nu: np.ndarray, F: np.ndarray, terms: Callable,
                tol: float) -> tuple:
    """The KKT test of points at the optima of a stack of problems (Boyd &
    Vandenberghe, Convex Optimization, 2004, 5.5.3), from their slacks
    S = b - A x and row multipliers nu: x violates no row by more than
    1e-10 (1 + |b|), the violation `_face_newton` tolerates; nu >= 0, and
    nu_i = 0 wherever S_i exceeds that; f(x) = F is finite; and the
    relative stationarity (`_stationarity`) of (grad f(x), A' nu) =
    `terms(ok)`, read only where ok holds the other tests, is at most tol.
    Returns (certified, kkt), kkt that stationarity where the other tests
    hold and inf elsewhere.  A NaN row fails."""
    near = 1e-10 * (1.0 + np.abs(b))
    ok = ((S >= -near) & (nu >= 0.0) & ((nu == 0.0) | (S <= near))).all(axis=1) & np.isfinite(F)
    kkt = np.where(ok, _stationarity(*terms(ok)), np.inf)
    return kkt <= tol, kkt


def _certify(oracle: ObjectiveOracle, live: "_Live", W: np.ndarray, nu: np.ndarray, tol: float,
             out: list) -> None:
    """Exit converged, with 0 Newton steps, the rows of `live` whose warm
    points W and multipliers nu pass `certificate`."""
    F = oracle.value(W, live.rows)

    def terms(ok):
        grad = np.zeros_like(W)
        grad[ok] = oracle.gradient(W[ok], live.rows[ok])
        # A' as a view: a copy per call would cost more than the rest of the test.
        return grad, stacked_matvec(live.A.transpose(0, 2, 1), nu)

    done, kkt = certificate(live.b - stacked_matvec(live.A, W), live.b, nu, F, terms, tol)
    live.X[done], live.F[done] = W[done], F[done]
    _exit(out, live, done, STATUS_CONVERGED, kkt)


def _barrier(oracle: ObjectiveOracle, live: "_Live", tol: float, max_newton: int, out: list) -> None:
    """Centering stages at t = T_START * MU^j and at t_cap.  Problems at the
    Newton cap exit in `_center`, the others by the tests m/t admits."""
    m = live.A.shape[1]
    t_cap = 2.0 * m / tol  # at the cap the duality measure m/t is tol/2
    t = min(T_START, t_cap)
    while live.size:
        gap = m / t
        _center(oracle, live, t, tol, max_newton, out)
        kkt = _kkt(oracle, live, t) if gap <= tol else np.full(live.size, np.inf)
        if gap <= max(CROSSOVER_GAP, tol):
            # Crossover: exact KKT on the guessed active face certifies a
            # concave optimum directly (comp. slackness makes the measure 0).
            # Row i is guessed active where t s_i^2 <= KAPPA (see `_crossover`).
            kkt = _crossover(oracle, live, t * live.S ** 2 <= KAPPA, tol, kkt)
        done = kkt <= tol
        _exit(out, live, done, STATUS_CONVERGED, kkt)
        if t >= t_cap:
            # Duality measure is below tol but stationarity was not certified.
            _exit(out, live, np.ones(live.size, dtype=bool), STATUS_MAX_ITER, kkt[~done])
        t = min(t * MU, t_cap)


class _Live:
    """Per-problem state of a set of running problems, one row each.

    The accepted point carries its objective, slacks and log-barrier sum, so
    each Newton step evaluates the oracle only at line-search trial points.
    Rows may be split off and merged back in any order: `rows` names the
    problem of each row.
    """

    # val is f + (1/t) sum log s at the current barrier weight t; dec2 is
    # the Newton decrement^2 of the row's last step in the current stage.
    FIELDS = ("rows", "A", "b", "X", "S", "F", "log_s", "val", "newton", "dec2")

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    @classmethod
    def start(cls, rows, A, b, X, S, F) -> "_Live":
        log_s = np.log(S).sum(axis=1)
        return cls(rows=rows, A=A, b=b, X=X, S=S, F=F, log_s=log_s, val=F + log_s,
                   newton=np.zeros(rows.size, dtype=int), dec2=np.full(rows.size, np.inf))

    @property
    def size(self) -> int:
        return self.rows.size

    def split(self, mask: np.ndarray) -> "_Live":
        """Remove the masked rows and return them as a set of their own."""
        gone = _Live(**{name: getattr(self, name)[mask] for name in self.FIELDS})
        self.drop(mask)
        return gone

    def drop(self, mask: np.ndarray) -> None:
        """Remove the masked rows."""
        keep = ~mask
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[keep])

    def merge(self, parts: list) -> None:
        parts = [self] + [q for q in parts if q.size]
        if len(parts) > 1:
            for name in self.FIELDS:
                setattr(self, name, np.concatenate([getattr(q, name) for q in parts]))


def _exit(out: list, live: _Live, mask: np.ndarray, status: str, kkt: np.ndarray) -> None:
    """Record the masked rows of `live` at their current point with `status`
    and their entries of kkt (one per row of `live`); then remove them."""
    for j in np.flatnonzero(mask):
        out[live.rows[j]] = Solution(x=live.X[j].copy(), f=float(live.F[j]), kkt_residual=float(kkt[j]),
                                     iterations=int(live.newton[j]), status=status)
    if mask.any():
        live.drop(mask)


def _center(oracle: ObjectiveOracle, live: _Live, t: float, tol: float, max_newton: int, out: list) -> None:
    """One centering stage of damped Newton on f(x) + (1/t) sum log s_i at
    barrier weight t, each problem to its own stop.

    A problem stops where its gradient is below tol/2, where a step fails,
    after a step whose Newton decrement^2 was at most the stage's duality
    measure m/t, or after a step whose decrement^2 was at rounding level and
    no smaller than a quarter of the one before.  A stage with m/t <= tol
    ends in the barrier-KKT test, so it has no decrement stop and centers to
    the gradient tolerance.

    Rows that stop centering are split off and merged back at the end.  A
    row that would step with max_newton steps taken exits max_iter to `out`
    at its current iterate (one that reaches max_newton on its stopping step
    does not).
    The per-row stopping and acceptance tests run on Python floats
    (`tolist`), the same IEEE arithmetic as on arrays but without a call per
    test.
    """
    live.val = live.F + live.log_s / t  # barrier objective at the accepted point
    live.dec2 = np.full(live.size, np.inf)
    parked = []
    half_tol = 0.5 * tol
    gap = live.A.shape[1] / t
    dec_stop = 0.0 if gap <= tol else gap
    for _ in range(MAX_CENTERING):
        at_cap = live.newton >= max_newton
        if at_cap.any():
            _exit(out, live, at_cap, STATUS_MAX_ITER, _kkt(oracle, live, t))
            if live.size == 0:
                break
        inv_s = 1.0 / live.S
        w = inv_s / t
        grad_f = oracle.gradient(live.X, live.rows)
        # A' is not stored.  Each step copies it in C order (BLAS rounds a
        # matvec on the strided view differently, by an ulp in the bounds),
        # scales the copy in place into the barrier Hessian's factor and
        # frees it.  `copy`: ascontiguousarray returns A itself where D or m is 1.
        H = oracle.hessian(live.X, live.rows)
        AT = live.A.transpose(0, 2, 1).copy()
        g = grad_f - stacked_matvec(AT, w)
        H -= np.multiply(AT, (w * inv_s)[:, None, :], out=AT) @ live.A
        del AT
        moving = [gm > half_tol * max(1.0, fm)
                  for gm, fm in zip(np.abs(g).max(axis=1).tolist(), np.abs(grad_f).max(axis=1).tolist())]
        step = _solve(H, -g)
        dec2 = (g * step).sum(axis=1)  # Newton decrement^2; >= 0 for concave models
        # A non-positive decrement is the float noise floor of the Newton
        # system: as centered as we get.
        moving = [m and d > 0.0 for m, d in zip(moving, dec2.tolist())]
        if not all(moving):
            if not any(moving):
                break
            keep = np.array(moving)
            parked.append(live.split(~keep))
            step, dec2 = step[keep], dec2[keep]
        live.newton += 1
        base = live.val.tolist()
        accepted = _line_search(oracle, live, step, dec2, t)
        # Stop where the step failed or the decrement^2 was at most dec_stop.
        # A decrement^2 that, halved, is at rounding level of the barrier
        # value stops a problem only once it no longer contracts: on the
        # badly conditioned last stages Newton still cuts the gradient
        # quadratically there, and the barrier-KKT test measures the gradient.
        stop = [not a or d <= dec_stop or (d <= 2e-12 * (1.0 + abs(v)) and 4.0 * d > d_last)
                for a, d, v, d_last in zip(accepted, dec2.tolist(), base, live.dec2.tolist())]
        live.dec2 = dec2
        if any(stop):
            if all(stop):
                break
            parked.append(live.split(np.array(stop)))
    live.merge(parked)


def _line_search(oracle: ObjectiveOracle, live: _Live, step, dec2, t: float) -> list:
    """Backtracking on f + (1/t) sum log s from the fraction-to-boundary step.

    Accepted rows of `live` move to their trial point; returns the list of
    per-row acceptances.  A trial with a nonpositive slack has a NaN or -inf
    barrier value and is rejected.
    """
    # Fraction-to-boundary cap keeps the first trial step well scaled.
    alpha = 0.99 / np.maximum((stacked_matvec(live.A, step) / live.S).max(axis=1), 0.99)
    x, A, b, rows = live.X, live.A, live.b, live.rows
    armijo = 0.25 * alpha * dec2
    base = live.val
    live.val = live.val.copy()
    trial = np.arange(live.size)
    accepted = np.zeros(live.size, dtype=bool)
    for attempt in range(60):
        if attempt:
            alpha = alpha * 0.5
            armijo = 0.25 * alpha * dec2
        cand = x + alpha[:, None] * step
        f_cand = oracle.value(cand, rows)
        s_cand = b - stacked_matvec(A, cand)
        log_cand = np.log(s_cand).sum(axis=1)
        val = f_cand + log_cand / t
        ok = [v >= h for v, h in zip(val.tolist(), (base + armijo).tolist())]
        if any(ok):
            ok = np.array(ok)
            j = trial[ok]
            live.X[j], live.S[j], live.F[j], live.log_s[j], live.val[j] = (
                cand[ok], s_cand[ok], f_cand[ok], log_cand[ok], val[ok])
            accepted[j] = True
            keep = ~ok
            trial, x, step, alpha, base, dec2, A, b, rows = (
                trial[keep], x[keep], step[keep], alpha[keep], base[keep], dec2[keep], A[keep], b[keep], rows[keep])
            if trial.size == 0:
                break
    return accepted.tolist()


def _solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the stacked systems M[i] y[i] = rhs[i].  A singular M[i] is
    retried alone, then by least squares, and left NaN if that fails too."""
    try:
        return np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    sol = np.full(rhs.shape, np.nan)
    for i in range(len(rhs)):
        try:
            sol[i] = np.linalg.solve(M[i:i + 1], rhs[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            try:
                sol[i] = np.linalg.lstsq(M[i], rhs[i], rcond=None)[0]
            except np.linalg.LinAlgError:
                pass
    return sol


def _stationarity(grad: np.ndarray, ATnu: np.ndarray) -> np.ndarray:
    """|grad - A' nu|_inf relative to the gradient scale, max(1, |grad|_inf)."""
    return np.abs(grad - ATnu).max(axis=1) / np.maximum(1.0, np.abs(grad).max(axis=1))


def _kkt(oracle: ObjectiveOracle, live: _Live, t: float) -> np.ndarray:
    """Stationarity of the rows of `live`, all strictly feasible, with the
    barrier multipliers nu_i = 1/(t s_i)."""
    nu = 1.0 / (t * (live.b - stacked_matvec(live.A, live.X)))
    AT = np.ascontiguousarray(live.A.transpose(0, 2, 1))
    return _stationarity(oracle.gradient(live.X, live.rows), stacked_matvec(AT, nu))


def _crossover(oracle: ObjectiveOracle, live: _Live, face: np.ndarray, tol: float,
               kkt: np.ndarray) -> np.ndarray:
    """Newton crossover of the rows of `live` from their current points onto
    their guessed active faces, face[j] the (m,) bool mask of row j
    (modified in place).  Returns kkt with the relative stationarity of each
    row certified to tol, which moves to its face optimum.

    From a barrier point at weight t the guess is t s_i^2 <= KAPPA: row i's
    slack is at most KAPPA times its barrier multiplier nu_i = 1/(t s_i) (the
    indicator s_i <= nu_i of El-Bakry, Tapia & Zhang, SIAM Review 36(1),
    1994, scaled by KAPPA).  Near the central path s_i nu_i = 1/t, so rows
    whose slack vanishes with the duality measure pass and rows that stay
    away from their bound fail, whatever the scale of b.

    Each round of the active-set loop is one `_face_newton` call, every face
    from the current point: rows violated by a face optimum are added, rows
    with negative multipliers dropped, and no problem tries a face twice.  A
    face optimum is kept only where the full KKT conditions verify (every row
    feasible within tolerance, nonnegative multipliers, objective not worse
    than the current point), so a wrong guess is harmless; it then adds its
    problem's face Newton steps of every round to the Newton count.
    """
    steps = np.zeros(live.size, dtype=int)
    seen = set()  # (problem, face) pairs tried
    pending = range(live.size)
    for _ in range(MAX_FACES):
        fresh = [j for j in pending if (j, face[j].tobytes()) not in seen]
        if not fresh:
            break
        seen.update((j, face[j].tobytes()) for j in fresh)
        j, x, f, nu, violated, stationarity, face_steps = _face_newton(
            oracle, live.A, live.b, live.X, live.rows, face, np.array(fresh))
        steps[j] += face_steps
        # A face optimum is KKT for the whole problem if no row is violated
        # and no multiplier is negative.
        add = violated.any(axis=1)
        negative = (nu < -1e-8 * (1.0 + np.abs(nu).max(axis=1, keepdims=True))) & ~add[:, None]
        drop = negative.any(axis=1)
        face[j] = (face[j] | violated) & ~negative
        kept = ~(add | drop) & (f >= live.F[j] - 1e-10 * (1.0 + np.abs(live.F[j])))
        live.newton[j[kept]] += steps[j[kept]]
        done = kept & (stationarity <= tol)
        live.X[j[done]], live.F[j[done]], kkt[j[done]] = x[done], f[done], stationarity[done]
        pending = j[add | drop].tolist()
    return kkt


def _face_newton(oracle: ObjectiveOracle, A, b, X, rows, face, problems) -> tuple:
    """Equality-constrained Newton from X[j] on the face A[j, act] x = b[j, act],
    act the rows of face[j], for every j in problems in one lockstep loop.

    Every face solves one (D + m)-square KKT system (Nocedal & Wright,
    Numerical Optimization, 2006, 16.2),
        [[S H S, S A_F'], [A_F S, I_off]] [S^-1 dx; -nu] = [-S g; (b - A x)_F],
    with A_F the rows of A on the face and zero rows off it, and I_off the
    identity on the off-face rows, whose multipliers are then exactly 0.
    S = diag(max(|H_ii|, 1))^(-1/2) scales the coordinates to comparable
    curvature, which keeps the steps accurate where some coordinates'
    curvature dwarfs the others' (consumption at a small R_f).  Each step
    evaluates the oracle once for all running faces and solves their
    systems in stacks of at most FACE_STACK entries, each stack's rows of A
    gathered in the step.  A face's arithmetic depends only on that face, so
    the result does not depend on which faces run together.
    Newton contracts on a face that holds the optimum.  A step no shorter than
    the one before marks a wrong face (off the optimum's face the objective can
    lack curvature and the iterates diverge), unless the step is at rounding
    level, where the face is solved and the step test ends the loop.  A face
    that stops contracting or leaves the objective domain is dropped.
    A face ends, solved, when its step size sz is at rounding level,
    sz <= 1e-14 (1 + |x|), or, from the second step on, when its
    quadratic-rate estimate of the next step, sz (sz / last)^2 with last the
    step before, is (Nocedal & Wright 2006, Thm 3.5): at a quadratic rate the
    next step would only confirm what this one predicts.  A first step has
    no step before it (last is inf, the estimate 0), so it ends its face only
    by its own size.  Where Newton converges only linearly the estimate falls short
    by the rate, and the face ends a few rounding units from its optimum.
    Returns stacks (j, x, f, nu, violated, stationarity, steps) over the faces
    solved: problem, face optimum, its finite objective, (n, m) multipliers
    zero off the face, rows with b - A x < -1e-10 (1 + |b|), relative
    stationarity and Newton steps.
    """
    D, m = A.shape[2], A.shape[1]
    n = problems.size
    per = max(1, FACE_STACK // (D + m) ** 2)  # faces per stacked solve
    x, rows, face = X[problems], rows[problems], face[problems]
    at = np.arange(n)  # each running face's place in the outputs
    solved, steps, f_out, stationarity = np.zeros(n, dtype=bool), np.zeros(n, dtype=int), np.empty(n), np.empty(n)
    x_out, nu_out, violated = np.empty((n, D)), np.zeros((n, m)), np.zeros((n, m), dtype=bool)
    last = [np.inf] * n
    for step in range(1, MAX_FACE_NEWTON + 1):
        g, H = oracle.gradient(x, rows), oracle.hessian(x, rows)
        sol = np.empty((len(x), D + m))
        for lo in range(0, len(x), per):
            hi, p = lo + per, problems[at[lo:lo + per]]
            sol[lo:hi] = _face_step(A[p], b[p], x[lo:hi], g[lo:hi], H[lo:hi], face[lo:hi])
        del H
        dx = sol[:, :D]
        finite = np.isfinite(sol).all(axis=1).tolist()
        size = np.abs(dx).max(axis=1).tolist()
        scale = np.abs(x).max(axis=1).tolist()
        x = x + dx
        f = oracle.value(x, rows)
        moved = [fin and ff and (sz < la or sz <= 1e-12 * (1.0 + xm)) for fin, ff, sz, la, xm in
                 zip(finite, np.isfinite(f).tolist(), size, last, scale)]
        # The docstring's end rule: a step, or its estimate of the next step.
        end = [step == MAX_FACE_NEWTON or not mv
               or (sz if step == 1 else min(sz, sz * (sz / la) ** 2)) <= 1e-14 * (1.0 + xm)
               for mv, sz, la, xm in zip(moved, size, last, np.abs(x).max(axis=1).tolist())]
        last = size
        if not any(end):
            continue
        keep = ~np.array(end)
        ended = ~keep & np.array(moved)
        if ended.any():
            out = at[ended]
            Aj, bj = A[problems[out]], b[problems[out]]
            solved[out], steps[out], x_out[out], f_out[out] = True, step, x[ended], f[ended]
            nu_out[out] = -sol[ended, D:]
            violated[out] = bj - stacked_matvec(Aj, x[ended]) < -1e-10 * (1.0 + np.abs(bj))
            grad = oracle.gradient(x[ended], rows[ended])
            stationarity[out] = _stationarity(grad, stacked_matvec(Aj.transpose(0, 2, 1), nu_out[out]))
            del Aj
        if not keep.any():
            break
        last = [la for la, kp in zip(last, keep.tolist()) if kp]
        x, rows, face, at = x[keep], rows[keep], face[keep], at[keep]
    return (problems[solved], x_out[solved], f_out[solved], nu_out[solved], violated[solved],
            stationarity[solved], steps[solved])


def _face_step(A, b, x, g, H, face) -> np.ndarray:
    """The solutions [dx; -nu] of `_face_newton`'s scaled KKT systems of a
    stack of faces: A (k, m, D), b (k, m), x and g (k, D), H (k, D, D) and
    face (k, m) bool."""
    k, m, D = A.shape
    s = 1.0 / np.sqrt(np.maximum(np.abs(np.diagonal(H, axis1=1, axis2=2)), 1.0))
    M = np.zeros((k, D + m, D + m))
    M[:, :D, :D] = H * s[:, :, None] * s[:, None, :]
    M[:, D:, :D] = A * face[:, :, None] * s[:, None, :]
    M[:, :D, D:] = M[:, D:, :D].transpose(0, 2, 1)
    M.reshape(k, -1)[:, D * (D + m + 1)::D + m + 1] = ~face
    sol = _solve(M, np.concatenate([-s * g, np.where(face, b - stacked_matvec(A, x), 0.0)], axis=1))
    sol[:, :D] *= s
    return sol
