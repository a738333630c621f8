"""Maximize smooth concave objectives over small dense polyhedra, in lockstep batches.

Log-barrier interior-point method with damped Newton centering, backtracking
line search and an active-set crossover.  The barrier weight t runs up the
ladder T_START * MU^j, capped where the duality measure m/t is tol/2.  Only
stages with m/t <= max(CROSSOVER_GAP, tol) are followed by exit tests.  The
stages with m/t <= tol end in the barrier-KKT test and center to the
gradient tolerance.  A stage with tol < m/t <= CROSSOVER_GAP ends only in a
crossover, which certifies by exact KKT on its face, so it stops at a Newton
decrement^2 of CROSSOVER_DECREMENT, close enough to guess that face.  An
earlier stage stops at LOOSE_DECREMENT, close enough to the central path to
start the next one (Boyd & Vandenberghe, Convex Optimization, 11.3.3).  The
crossover guesses as active the rows whose slack is small against their
barrier multiplier, t s_i^2 <= KAPPA, and keeps its result only where the
KKT conditions verify.  A caller that knows a point near each optimum, such
as the Bellman recursion its previous stage's optima or an inner problem the
optimum its dual recovers, passes it as `warm`: a crossover from that point
onto the rows it holds runs before any barrier stage, and only the problems
it does not certify run the barrier, from their own start.  Each round of the
crossover's active-set loop is one lockstep face-Newton loop over all its
faces, whatever their row counts, and tests the face optima as stacks.  A
face row with one nonzero coefficient, such as -x_c <= 0, fixes its
coordinate, so a face Newton step solves a KKT system in the free
coordinates and the face's other rows only, padded to a multiple of 8: at
D = 40 about 26 unknowns where the full system has about 70.

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
both the Bellman nodes and the inner problems.
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
# Newton decrement^2 at which a stage followed by no exit test stops
# centering.  Such a stage only has to hand the next one a start inside its
# region of fast convergence.
LOOSE_DECREMENT = 1e-2
# Newton decrement^2 at which a stage followed only by a crossover stops
# centering.  The crossover verifies its own KKT conditions, so the barrier
# point only has to make its face guess right.  Of 480 set-1 inner problems
# (m1/m2/zero, 8 pairs x 10 runs, seed 5), exact centering certifies 409 at
# the first crossover, stops of 1e-2/1e-3/1e-4/1e-5 certify 377/428/437/423;
# on the six benchmark grids 1e-4 takes 13,948 Newton steps, 1e-5 20,221 and
# exact centering 31,252.
CROSSOVER_DECREMENT = 1e-4
MAX_CENTERING = 80     # Newton steps per centering stage
# The crossover guesses row i active where t s_i^2 <= KAPPA.  Of the 864
# inner solves of the robustness matrix (sets 1-4 x gamma 1.5/3/5, m1/m2/zero,
# 6 pairs x 2 runs, seed 3), KAPPA = 10/30/100/300/1000 certify 773/800/821/
# 815/683 at the first crossover, and none flags a leg.
KAPPA = 100.0
MAX_FACES = 6          # active faces tried per crossover
MAX_FACE_NEWTON = 12   # Newton steps per face


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
    value_weights = np.broadcast_to(w / (1.0 - gamma), (P.shape[0], J))
    lin = np.ascontiguousarray(P[:, :, J])
    dY = np.ascontiguousarray(P[:, :, :J].transpose(0, 2, 1))  # (B, J, D)
    # gradient: Y^-gamma @ grad_rows - lin;  Hessian: (cols * Y^(-gamma-1)) @ dY
    # with cols = -gamma grad_rows' of the problems asked for.
    grad_rows = w[..., None] * dY

    def args(X, rows):  # the CRRA arguments Y = Z_{<J} and the penalty Z_J
        Z = (X[:, None, :] @ P[rows])[:, 0] + z0[rows]
        return Z[:, :J], Z[:, J]

    def value(X, rows):
        Y, penalty = args(X, rows)
        vw = value_weights[rows]
        if (Y > 0.0).all():
            return (vw * Y ** (1.0 - gamma)).sum(axis=1) - penalty
        inside = Y.min(axis=1) > 0.0
        Y = np.where(inside[:, None], Y, 1.0)
        return np.where(inside, (vw * Y ** (1.0 - gamma)).sum(axis=1) - penalty, -np.inf)

    def gradient(X, rows):
        Y, _ = args(X, rows)
        return ((Y ** (-gamma))[:, None, :] @ grad_rows[rows])[:, 0] - lin[rows]

    def hessian(X, rows):
        Y, _ = args(X, rows)
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
    (A, b, warm), warm a (D,) point near the optimum (see `maximize_batch`).

    The one-problem call of `maximize_batch`; the oracle is evaluated with
    rows = [0].
    """
    A, b, *warm = cons
    if len(warm) > 1:
        raise ValueError("cons must be (A, b) or (A, b, warm)")
    warm = np.asarray(warm[0], dtype=float)[None] if warm else None
    x0 = np.asarray(x0, dtype=float)
    return maximize_batch(oracle, np.asarray(A)[None], np.asarray(b)[None], x0[None],
                          tol=tol, max_newton=max_newton, warm=warm)[0]


def maximize_batch(
    oracle: ObjectiveOracle,
    A: np.ndarray,
    b: np.ndarray,
    X0: np.ndarray,
    tol: float = 1e-8,
    max_newton: int = 200,
    warm: Optional[np.ndarray] = None,
) -> list:
    """Barrier method for  max f_i(x)  s.t.  A[i] x <= b[i],  for i < B at once.

    A is (B, m, D), b (B, m) and X0 (B, D); returns one Solution per problem.
    warm, if given, is a (B, D) array of points near the optima, such as a
    nearby problem's optima, a NaN row where a problem has none: a crossover
    from warm[i] onto its face, the rows with b - A w <= 1e-10 (1 + |b|),
    runs first (`_warm_crossover`), its problems that verify to tol exit
    converged (their face steps counted as Newton steps) and the others run
    the barrier from X0.
    Infeasible: X0[i] is not strictly feasible or outside the domain of f_i
    (f = -inf).  Converged: a crossover verified the KKT conditions on its
    face to tol, or the barrier-KKT residual fell to tol at a stage with
    m/t <= tol.  Max_iter: the next Newton step would pass max_newton (the
    Solution holds the last iterate), or the stage at t_cap ended uncertified.
    """
    A = np.ascontiguousarray(A, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    X = np.array(X0, dtype=float)
    if A.shape[1] == 0:
        raise ValueError("unconstrained problems are not supported; add at least one row")
    if warm is not None:
        warm = np.asarray(warm, dtype=float)
        if warm.shape != X.shape:
            raise ValueError(f"warm must be an array of shape {X.shape}, got {warm.shape}")
    out: list = [None] * A.shape[0]
    # A trial point outside a problem's domain or feasible set evaluates to
    # NaN or -inf and is rejected, so invalid-value warnings are silenced.
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.arange(A.shape[0])
        S = b - stacked_matvec(A, X)
        F = oracle.value(X, rows)
        infeasible = (S.min(axis=1) <= 0.0) | ~np.isfinite(F)
        live = _Live.start(rows, A, b, X, S, np.where(infeasible, -np.inf, F))
        _exit(out, live, infeasible, STATUS_INFEASIBLE, np.full(live.size, np.inf))
        if warm is not None:
            _warm_crossover(oracle, live, warm[live.rows], tol, out)
        _barrier(oracle, live, tol, max_newton, out)
    return out


def _warm_crossover(oracle: ObjectiveOracle, live: "_Live", W: np.ndarray, tol: float, out: list) -> None:
    """Crossover of the rows of `live` from their warm points W onto the rows
    each holds, b - A w <= 1e-10 (1 + |b|), the violation `_face_newton`
    tolerates.  The rows it certifies exit converged.  The others, and those
    whose warm point is NaN, violates a row by more than that or has a
    non-finite objective, keep their start.  It runs in place on `live`,
    whose rows of A are not copied."""
    near = 1e-10 * (1.0 + np.abs(live.b))
    S = live.b - stacked_matvec(live.A, W)
    face = S <= near
    j = np.flatnonzero((S >= -near).all(axis=1))   # false on a NaN row
    del S, near
    F = oracle.value(W[j], live.rows[j])
    j, F = j[np.isfinite(F)], F[np.isfinite(F)]
    X0, F0 = live.X, live.F
    live.X, live.F = X0.copy(), F0.copy()
    live.X[j], live.F[j] = W[j], F
    kkt = _crossover(oracle, live, face, tol, np.full(live.size, np.inf), j.tolist())
    done = kkt <= tol
    live.X[~done], live.F[~done] = X0[~done], F0[~done]
    _exit(out, live, done, STATUS_CONVERGED, kkt)


def _barrier(oracle: ObjectiveOracle, live: "_Live", tol: float, max_newton: int, out: list) -> None:
    """Centering stages at t = T_START * MU^j and at t_cap.  Problems at the
    Newton cap exit in `_center`, the others by the tests m/t admits."""
    m = live.A.shape[1]
    t_cap = 2.0 * m / tol  # at the cap the duality measure m/t is tol/2
    t = min(T_START, t_cap)
    while live.size:
        # Centering: damped Newton on f(x) + (1/t) sum log s_i.  Only the
        # stages that end in the barrier-KKT and t_cap tests (gap <= tol)
        # center to the gradient tolerance; the others stop at a
        # decrement^2, tighter where a crossover follows.
        gap = m / t
        exits = gap <= max(CROSSOVER_GAP, tol)
        dec_stop = 0.0 if gap <= tol else CROSSOVER_DECREMENT if exits else LOOSE_DECREMENT
        _center(oracle, live, t, tol, max_newton, dec_stop, out)
        kkt = _kkt(oracle, live, t) if gap <= tol else np.full(live.size, np.inf)
        if exits:
            # Crossover: exact KKT on the guessed active face certifies a
            # concave optimum directly (comp. slackness makes the measure 0).
            # Row i is guessed active where t s_i^2 <= KAPPA (see `_crossover`).
            kkt = _crossover(oracle, live, t * live.S ** 2 <= KAPPA, tol, kkt, range(live.size))
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
        keep = ~mask
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        return gone

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
        live.split(mask)


def _center(oracle: ObjectiveOracle, live: _Live, t: float, tol: float, max_newton: int,
            dec_stop: float, out: list) -> None:
    """One centering stage at barrier weight t, each problem to its own stop.

    A problem stops where its gradient is below tol/2, where a step fails,
    after a step whose Newton decrement^2 was at most dec_stop, or after a
    step whose decrement^2 was at rounding level and no smaller than a
    quarter of the one before.  dec_stop is 0.0 on the stages that end in
    the barrier-KKT test, CROSSOVER_DECREMENT on those that end only in a
    crossover and LOOSE_DECREMENT on those that end in no exit test.

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


def _stationarity(grad: np.ndarray, AT: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """|grad - A' nu|_inf relative to the gradient scale, max(1, |grad|_inf)."""
    return np.abs(grad - stacked_matvec(AT, nu)).max(axis=1) / np.maximum(1.0, np.abs(grad).max(axis=1))


def _kkt(oracle: ObjectiveOracle, live: _Live, t: float) -> np.ndarray:
    """Stationarity of the rows of `live`, all strictly feasible, with the
    barrier multipliers nu_i = 1/(t s_i)."""
    nu = 1.0 / (t * (live.b - stacked_matvec(live.A, live.X)))
    AT = np.ascontiguousarray(live.A.transpose(0, 2, 1))
    return _stationarity(oracle.gradient(live.X, live.rows), AT, nu)


def _crossover(oracle: ObjectiveOracle, live: _Live, face: np.ndarray, tol: float,
               kkt: np.ndarray, pending) -> np.ndarray:
    """Newton crossover of the rows `pending` of `live` from their current
    points onto their guessed active faces, face[j] the (m,) bool mask of row
    j (modified in place).  Returns kkt with the relative stationarity of
    each row certified to tol, which moves to its face optimum.

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

    A face row with one nonzero coefficient, a x_c <= b_i, fixes x_c = b_i / a.
    The first such row of each coordinate leaves the Newton system: every
    step sets x_c to its bound and solves only
        [[H_FF, A_oF'], [A_oF, 0]] [dx_F; -nu_o] = [-(g + H dx_C)_F; b_o - A_o (x + dx_C)]
    over the free coordinates F and the other face rows o (Nocedal & Wright,
    Numerical Optimization, 2006, 16.2).  Row i's multiplier then follows
    from coordinate c's stationarity, nu_i = (g + H dx - A_o' nu_o)_c / a,
    for the faces that end.  A second row on a fixed coordinate stays in the
    system as a zero row, singular as it is in the full one.
    Each face's system is padded with identity to its size rounded up to a
    multiple of 8, and the faces of one padded size form a contiguous group
    whose gather and scatter indices are built with the group (the Hessian
    block's as a row and a column index, summed in each step to hold less
    memory), and whose systems are gathered in each step, solved as one
    stack and freed.  A face's arithmetic depends only on that face, so the
    result does not depend on which faces run together.
    Each step evaluates the oracle once for all running faces.  Newton
    contracts on a face that holds the optimum.  A step no shorter than the
    one before marks a wrong face (off the optimum's face the objective can
    lack curvature and the iterates diverge), unless the step is at rounding
    level, where the face is solved and the step test ends the loop.  A face
    that stops contracting or leaves the objective domain is dropped.
    A face ends, solved, when its step size sz is at rounding level,
    sz <= 1e-14 (1 + |x|), or, from the second step on, when its
    quadratic-rate estimate of the next step, sz (sz / last)^2 with last the
    step before, is (Nocedal & Wright 2006, Thm 3.5).  On a warm Bellman face
    the sizes run about 1.1e-2, 1.1e-3, 1.5e-5, 2.6e-9, 9.6e-15: a fifth step
    would only confirm what the fourth predicts.  A first step has no step
    before it (last is inf, the estimate 0), so it ends its face only by its
    own size.  Where Newton converges only linearly the estimate falls short
    by the rate, and the face ends a few rounding units from its optimum.
    Returns stacks (j, x, f, nu, violated, stationarity, steps) over the faces
    solved: problem, face optimum, its finite objective, (n, m) multipliers
    zero off the face, rows with b - A x < -1e-10 (1 + |b|), relative
    stationarity and Newton steps.
    """
    D, m = A.shape[2], A.shape[1]
    n = problems.size
    # The face rows, by face and then row, and among them the bound rows:
    # the first of each face and coordinate is eliminated, the others stay.
    pi, ri = np.nonzero(face[problems])
    flat = problems[pi] * m + ri
    Ar, br = A.reshape(-1, D)[flat], b.reshape(-1)[flat]
    nonzero = Ar != 0.0
    col = nonzero.argmax(axis=1)
    bound = np.flatnonzero(nonzero.sum(axis=1) == 1)
    key = pi[bound] * D + col[bound]
    order = np.argsort(key, kind="stable")
    first = np.ones(order.size, dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    elim = bound[order[first]]
    stays = np.ones(pi.size, dtype=bool)
    stays[elim] = False
    n_other = np.bincount(pi[stays], minlength=n)
    n_free = D - np.bincount(pi[elim], minlength=n)
    padded = (n_free + n_other + 7) // 8 * 8  # system size, padded
    # Faces sorted by padded size, the outputs' order; face p becomes place[p].
    sort = np.argsort(padded, kind="stable")
    place = np.empty_like(sort)
    place[sort] = np.arange(n)
    # Per coordinate: the eliminated row that fixes it (m if none), that
    # row's coefficient and the value it fixes the coordinate to.
    cell = place[pi[elim]], col[elim]
    erow, ecoef, pin = np.full((n, D), m), np.ones((n, D)), np.zeros((n, D))
    erow[cell], ecoef[cell] = ri[elim], Ar[elim, col[elim]]
    pin[cell] = br[elim] / ecoef[cell]
    fixed = erow < m
    # Each face's other rows, in order, zero-padded to O + 1.
    on = pi[stays]
    cell = place[on], np.arange(on.size) - np.searchsorted(on, on)   # face, and rank among its other rows
    O = int(n_other.max(initial=0))
    Ao, bo, orow = np.zeros((n, O + 1, D)), np.zeros((n, O + 1)), np.full((n, O + 1), m)
    Ao[cell], bo[cell], orow[cell] = Ar[stays], br[stays], ri[stays]
    del Ar, nonzero
    problems, n_free, n_other, padded = problems[sort], n_free[sort], n_other[sort], padded[sort].tolist()
    x, rows = X[problems], rows[problems]
    g, H = oracle.gradient(x, rows), oracle.hessian(x, rows)
    # Each face's free coordinates by curvature |H_cc| at the start, largest
    # first, as diagonal pivoting would take them: LU then keeps the steps
    # as accurate as on the full system where some coordinates' curvature
    # dwarfs the others' (consumption at a small R_f), which the coordinate
    # order does not.
    curvature = np.where(fixed, np.inf, -np.abs(H.reshape(n, -1)[:, ::D + 1]))
    free = np.argsort(curvature, axis=1, kind="stable")
    cuts = [0] + [i for i in range(1, n) if padded[i] != padded[i - 1]] + [n]
    groups = [_reduced_layout(Ao[lo:hi], free[lo:hi], n_free[lo:hi], n_other[lo:hi], padded[lo])
              for lo, hi in zip(cuts, cuts[1:])]
    at = np.arange(n)  # each running face's place in the outputs
    solved, steps, f_out, stationarity = np.zeros(n, dtype=bool), np.zeros(n, dtype=int), np.empty(n), np.empty(n)
    x_out, nu_out, violated = np.empty((n, D)), np.zeros((n, m)), np.zeros((n, m), dtype=bool)
    last = [np.inf] * n
    for step in range(1, MAX_FACE_NEWTON + 1):
        if step > 1:
            g, H = oracle.gradient(x, rows), oracle.hessian(x, rows)
        # Each face's solution [dx (D), -nu_o (O + 1)] in the places of its
        # right-hand side [-(g + H dx_C) (D), b_o - A_o (x + dx_C) (O + 1)];
        # dx is the step onto the bounds, dx_C, until the free coordinates'
        # step is scattered in.  From the second step on, x is on its bounds.
        sol = np.zeros((len(x), D + O + 1))
        dx = sol[:, :D]
        if step == 1:
            on_bound = np.where(fixed, pin, x)
            np.subtract(on_bound, x, out=dx)
            top = g + stacked_matvec(H, dx)
        else:
            on_bound, top = x, g
        rhs = np.concatenate([-top, bo - (Ao * on_bound[:, None, :]).sum(axis=2)], axis=1)
        lo = 0
        for base, off_h, hrow, var, places in groups:
            hi = lo + len(base)
            M = np.take(H[lo:hi], hrow[:, :, None] + var[:, None, :])
            np.copyto(M, base, where=off_h)
            sol[lo:hi].put(places, _solve(M, np.take(rhs[lo:hi], places)))
            del M
            lo = hi
        finite = np.isfinite(sol).all(axis=1).tolist()
        size = np.abs(dx).max(axis=1).tolist()
        scale = np.abs(x).max(axis=1).tolist()
        x_next = np.where(fixed, pin, x + dx) if step == 1 else x + dx
        f = oracle.value(x_next, rows)
        moved = [fin and ff and (sz < la or sz <= 1e-12 * (1.0 + xm)) for fin, ff, sz, la, xm in
                 zip(finite, np.isfinite(f).tolist(), size, last, scale)]
        # The docstring's end rule: a step, or its estimate of the next step.
        end = [step == MAX_FACE_NEWTON or not mv
               or (sz if step == 1 else min(sz, sz * (sz / la) ** 2)) <= 1e-14 * (1.0 + xm)
               for mv, sz, la, xm in zip(moved, size, last, np.abs(x_next).max(axis=1).tolist())]
        last = size
        if any(end):
            keep = ~np.array(end)
            ended = ~keep & np.array(moved)
            grad = g[ended] + stacked_matvec(H, dx)[ended]   # g + H dx of the faces that end
        del H  # before the next Hessian, or the ended faces' rows of A, are formed
        if not any(end):
            x = x_next
            continue
        if ended.any():
            out = at[ended]
            Aj, bj = A[problems[out]], b[problems[out]]
            AT = Aj.transpose(0, 2, 1)
            # The other rows' multipliers, then each eliminated row's from its
            # coordinate's stationarity; column m collects the padding.
            nu, face_at = np.zeros((len(out), m + 1)), np.arange(len(out))[:, None]
            nu[face_at, orow[out]] = -sol[ended, D:]
            grad -= stacked_matvec(AT, nu[:, :m])
            nu[face_at, erow[out]] = grad / ecoef[out]
            solved[out], steps[out], x_out[out], f_out[out], nu_out[out] = True, step, x_next[ended], f[ended], nu[:, :m]
            violated[out] = bj - stacked_matvec(Aj, x_next[ended]) < -1e-10 * (1.0 + np.abs(bj))
            grad = oracle.gradient(x_next[ended], rows[ended])
            stationarity[out] = _stationarity(grad, AT, nu_out[out])
            del Aj, AT
        running, lo = [], 0
        for group in groups:
            hi = lo + len(group[0])
            kept = keep[lo:hi]
            if kept.any():
                running.append(group if kept.all() else _keep_faces(group, kept, D, O))
            lo = hi
        groups = running
        if not groups:
            break
        last = [la for la, kp in zip(last, keep.tolist()) if kp]
        x, rows, at, Ao, bo = x_next[keep], rows[keep], at[keep], Ao[keep], bo[keep]
    return (problems[solved], x_out[solved], f_out[solved], nu_out[solved], violated[solved],
            stationarity[solved], steps[solved])


def _reduced_layout(Ao, free, n_free, n_other, R) -> tuple:
    """The reduced face systems of `_face_newton` for faces of padded size R.

    Place u of face p's system is its free coordinate free[p, u] (u < nF),
    its (u - nF)-th other row Ao[p, u - nF] (u < nF + no) or padding.
    Returns (base, off_h, hrow, var, places): each system without its
    Hessian block (the A_oF blocks and the padding's identity) and the mask
    of the entries off that block; the coordinate var of each place (0 off
    the free ones) and hrow, the flat index of its Hessian row in the faces'
    (n, D, D) Hessian stack, so hrow[:, :, None] + var[:, None, :] indexes
    the block; and the flat index of each place in the faces' (n, D + O + 1)
    right-hand sides and solutions, whose column D + O is padding.
    """
    n, O, D = Ao.shape[0], Ao.shape[1] - 1, Ao.shape[2]
    u = np.arange(R)
    is_free, is_row = u < n_free[:, None], u < (n_free + n_other)[:, None]
    var = np.where(is_free, free[:, np.minimum(u, D - 1)], 0)
    ridx = np.where(is_row & ~is_free, u - n_free[:, None], O)     # other row of each place, O (a zero row) if none
    face = np.arange(n)[:, None]
    # A_oF below the Hessian block, its transpose beside it, identity on the padding.
    lower = np.take(Ao, ((face * (O + 1) + ridx) * D)[:, :, None] + var[:, None, :]) * is_free[:, None, :]
    base = lower + lower.transpose(0, 2, 1)
    base.reshape(n, -1)[:, ::R + 1] += ~is_row
    off_h = ~(is_free[:, :, None] & is_free[:, None, :])
    places = np.where(is_free, var, D + ridx) + face * (D + O + 1)
    return base, off_h, var * D + face * D * D, var, places


def _keep_faces(group: tuple, kept: np.ndarray, D: int, O: int) -> tuple:
    """The group of `_reduced_layout` without its faces outside `kept`."""
    base, off_h, hrow, var, places = (a[kept] for a in group)
    shift = np.cumsum(~kept)[kept][:, None]  # faces dropped before each kept one
    return base, off_h, hrow - shift * (D * D), var, places - shift * (D + O + 1)
