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
KKT conditions verify.  A caller that knows a likely active face, such as
the Bellman recursion from the previous stage's optima, passes it as `face`:
the crossover then runs once from the start, before any barrier stage, and
only the problems it does not certify run the barrier.

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
# Step lengths 2^-1 ... 2^-8 of a face Newton step after the full step,
# tried a few at a time.  A face that needs shorter steps to stay inside the
# objective domain is dropped: such faces did not verify anyway.
_HALVINGS = np.split(0.5 ** np.arange(1, 9), [3])


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
    (B, J); it is concave for w >= 0.  dZ/dx, its weighted rows and the
    Hessian columns are formed once; every product per call is a stacked
    slice, so a batch row equals its one-problem call bit for bit.
    """
    J = P.shape[2] - 1
    w = np.asarray(w, dtype=float)
    value_weights = np.broadcast_to(w / (1.0 - gamma), (P.shape[0], J))
    lin = np.ascontiguousarray(P[:, :, J])
    dY = np.ascontiguousarray(P[:, :, :J].transpose(0, 2, 1))  # (B, J, D)
    # gradient: Y^-gamma @ grad_rows - lin;  Hessian: (hess_cols * Y^(-gamma-1)) @ dY
    grad_rows = w[..., None] * dY
    hess_cols = np.ascontiguousarray(-gamma * grad_rows.transpose(0, 2, 1))

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
        return (hess_cols[rows] * (Y ** (-gamma - 1.0))[:, None, :]) @ dY[rows]

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
    (A, b, face), face an (m,) bool guess of the active rows.

    The one-problem call of `maximize_batch`; the oracle is evaluated with
    rows = [0].
    """
    A, b, *face = cons
    if len(face) > 1:
        raise ValueError("cons must be (A, b) or (A, b, face)")
    face = np.asarray(face[0])[None] if face else None
    x0 = np.asarray(x0, dtype=float)
    return maximize_batch(oracle, np.asarray(A)[None], np.asarray(b)[None], x0[None],
                          tol=tol, max_newton=max_newton, face=face)[0]


def maximize_batch(
    oracle: ObjectiveOracle,
    A: np.ndarray,
    b: np.ndarray,
    X0: np.ndarray,
    tol: float = 1e-8,
    max_newton: int = 200,
    face: Optional[np.ndarray] = None,
) -> list:
    """Barrier method for  max f_i(x)  s.t.  A[i] x <= b[i],  for i < B at once.

    A is (B, m, D), b (B, m) and X0 (B, D); returns one Solution per problem.
    face, if given, is a (B, m) bool guess of the rows active at each optimum,
    such as those of a nearby problem's optimum: a crossover from X0 onto it
    runs first, its problems that verify to tol exit converged (their face
    steps counted as Newton steps) and the others run the barrier from X0.
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
    if face is not None:
        face = np.asarray(face)
        if face.shape != b.shape or face.dtype != bool:
            raise ValueError(f"face must be a bool array of shape {b.shape}")
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
        if face is not None:
            kkt = _crossover(oracle, live, face[live.rows], tol, np.full(live.size, np.inf))
            _exit(out, live, kkt <= tol, STATUS_CONVERGED, kkt)
        _barrier(oracle, live, tol, max_newton, out)
    return out


def _barrier(oracle: ObjectiveOracle, live: "_Live", tol: float, max_newton: int, out: list) -> None:
    """Centering stages at t = T_START * MU^j and at t_cap.  Problems flagged
    at the Newton cap exit first, the others by the tests m/t admits."""
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
        capped = _center(oracle, live, t, tol, max_newton, dec_stop)
        if capped.any():
            _exit(out, live, capped, STATUS_MAX_ITER, _kkt(oracle, live, t))
        kkt = _kkt(oracle, live, t) if gap <= tol else np.full(live.size, np.inf)
        if exits:
            # Crossover: exact KKT on the guessed active face certifies a
            # concave optimum directly (comp. slackness makes the measure 0).
            # Row i is guessed active where t s_i^2 <= KAPPA (see `_polish`).
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
            dec_stop: float) -> np.ndarray:
    """One centering stage at barrier weight t, each problem to its own stop.

    A problem stops where its gradient is below tol/2, where a step fails,
    after a step whose Newton decrement^2 was at most dec_stop, or after a
    step whose decrement^2 was at rounding level and no smaller than a
    quarter of the one before.  dec_stop is 0.0 on the stages that end in
    the barrier-KKT test, CROSSOVER_DECREMENT on those that end only in a
    crossover and LOOSE_DECREMENT on those that end in no exit test.

    Rows that stop centering are split off and merged back at the end.  A
    row that would step with max_newton steps taken stops at its current
    iterate and is flagged (one that reaches max_newton on its stopping step
    is not); the flagged rows are merged back last and their mask returned.
    The per-row stopping and acceptance tests run on Python floats
    (`tolist`), the same IEEE arithmetic as on arrays but without a call per
    test.
    """
    live.val = live.F + live.log_s / t  # barrier objective at the accepted point
    live.dec2 = np.full(live.size, np.inf)
    parked = []
    capped = []
    half_tol = 0.5 * tol
    for _ in range(MAX_CENTERING):
        at_cap = live.newton >= max_newton
        if at_cap.any():
            capped.append(live.split(at_cap))
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
    live.merge(parked + capped)
    return np.arange(live.size) >= live.size - sum(q.size for q in capped)


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
    trial = None
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
        if trial is None:
            if all(ok):
                live.X, live.S, live.F, live.log_s, live.val = cand, s_cand, f_cand, log_cand, val
                return ok
            trial = np.arange(live.size)
            accepted = np.zeros(live.size, dtype=bool)
            live.val = live.val.copy()
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
               kkt: np.ndarray) -> np.ndarray:
    """`_polish` every row of `live` from the guess face; returns kkt with the
    residual of each polished row that verified to tol, which moves to its
    face optimum.  Face Newton steps count where a face optimum was reached."""
    for j, polished in enumerate(_polish(oracle, live, face)):
        if polished is not None:
            x, f, res, steps = polished
            live.newton[j] += steps
            if res <= tol:
                live.X[j], live.F[j], kkt[j] = x, f, res
    return kkt


def _polish(oracle: ObjectiveOracle, live: _Live, face: np.ndarray) -> list:
    """Newton crossover of every live problem from its current point onto
    the guessed active face, face[j] the (m,) bool mask of row j (modified
    in place).

    From a barrier point at weight t the guess is t s_i^2 <= KAPPA: row i's
    slack is at most KAPPA times its barrier multiplier nu_i = 1/(t s_i) (the
    indicator s_i <= nu_i of El-Bakry, Tapia & Zhang, SIAM Review 36(1),
    1994, scaled by KAPPA).  Near the central path s_i nu_i = 1/t, so rows
    whose slack vanishes with the duality measure pass and rows that stay
    away from their bound fail, whatever the scale of b.

    Runs a small active-set loop per problem from that guess: rows violated
    by the face optimum are added, rows with negative multipliers are
    dropped.  A result is kept only when the full KKT conditions verify
    (feasibility of every row within tolerance, nonnegative multipliers,
    objective not worse than the current point), so a wrong guess is
    harmless.  Every face starts from the current point; the problems on
    faces with the same number of rows take their face Newton steps
    together.
    Returns, per problem, (x, f, relative_stationarity, newton_steps) or None.
    """
    A, b, X0, F0 = live.A, live.b, live.X, live.F
    n = live.size
    b_scale = 1.0 + np.abs(b)
    seen = [set() for _ in range(n)]
    steps = [0] * n
    result = [None] * n
    act_of = [None] * n
    pending = range(n)
    for _ in range(MAX_FACES):
        groups: dict = {}
        for j in pending:
            key = face[j].tobytes()
            if key not in seen[j]:
                seen[j].add(key)
                act_of[j] = np.flatnonzero(face[j])
                groups.setdefault(act_of[j].size, []).append(j)
        if not groups:
            break
        ended = []
        for members in groups.values():
            grp = np.array(members)
            idx = np.array([act_of[j] for j in members])
            ended += _face_newton(oracle, A[grp[:, None], idx], b[grp[:, None], idx], X0[grp], live.rows[grp], grp)
        pending = []
        for j, x, f_new, nu_a, stationarity, face_steps in ended:
            # The face optimum is KKT for the whole problem if no row is
            # violated and no multiplier is negative.
            steps[j] += face_steps
            violated = (b[j] - A[j] @ x) < -1e-10 * b_scale[j]
            if violated.any():
                face[j] |= violated
                pending.append(j)
                continue
            act = act_of[j]
            nu_floor = -1e-8 * (1.0 + (float(np.max(np.abs(nu_a))) if act.size else 0.0))
            negative = act[nu_a < nu_floor]
            if negative.size:
                face[j, negative] = False
                pending.append(j)
                continue
            f0 = F0[j]
            if np.isfinite(f_new) and f_new >= f0 - 1e-10 * (1.0 + abs(f0)):
                result[j] = (x, f_new, stationarity, steps[j])
    return result


def _face_newton(oracle: ObjectiveOracle, Aa, ba, x, rows, problems) -> list:
    """Equality-constrained Newton on the faces Aa[i] x = ba[i], in lockstep.

    Newton contracts on a face that holds the optimum.  A step no shorter than
    the one before marks a wrong face (off the optimum's face the objective can
    lack curvature and the iterates diverge), unless the step is at rounding
    level, where the face is solved and the step test ends the loop.  A face
    that stops contracting or leaves the objective domain is dropped.
    Returns (problem, x, f, multipliers, relative stationarity, steps) for
    each face solved.
    """
    G, k, D = Aa.shape
    KKT = np.zeros((G, D + k, D + k))
    KKT[:, :D, D:] = Aa.transpose(0, 2, 1)
    KKT[:, D:, :D] = Aa
    last = [np.inf] * G
    ended = []
    for step in range(1, MAX_FACE_NEWTON + 1):
        g = oracle.gradient(x, rows)
        KKT[:, :D, :D] = oracle.hessian(x, rows)
        sol = _solve(KKT, np.concatenate([-g, ba - stacked_matvec(Aa, x)], axis=1))
        dx = sol[:, :D]
        nu = -sol[:, D:]  # block system solves grad f + Aa' nu = 0
        size = np.abs(dx).max(axis=1).tolist()
        ok = [fin and (sz < la or sz <= 1e-12 * (1.0 + xm)) for fin, sz, la, xm in
              zip(np.isfinite(sol).all(axis=1).tolist(), size, last, np.abs(x).max(axis=1).tolist())]
        last = size
        # The first trial point inside the objective domain is taken.
        cand = x + dx
        f = oracle.value(cand, rows)
        moved = [o and fin for o, fin in zip(ok, np.isfinite(f).tolist())]
        if moved != ok:
            # Backtracking: the points of a few halvings at a time are
            # evaluated together, and the first inside the domain is taken.
            trial = np.flatnonzero(np.array(ok) & ~np.array(moved))
            for alphas in _HALVINGS:
                T, H = trial.size, alphas.size
                points = x[trial, None, :] + alphas[:, None] * dx[trial, None, :]
                f_h = oracle.value(points.reshape(T * H, D), np.repeat(rows[trial], H)).reshape(T, H)
                inside = np.isfinite(f_h)
                first = inside.argmax(axis=1)
                found = inside[np.arange(T), first]
                j, h = trial[found], first[found]
                cand[j], f[j] = points[found, h], f_h[found, h]
                for i in j.tolist():
                    moved[i] = True
                trial = trial[~found]
                if trial.size == 0:
                    break
        x = cand
        end = [step == MAX_FACE_NEWTON or not mv or sz <= 1e-14 * (1.0 + xm)
               for mv, sz, xm in zip(moved, size, np.abs(x).max(axis=1).tolist())]
        if not any(end):
            continue
        end = np.array(end)
        fin = np.flatnonzero(end & np.array(moved))
        if fin.size:
            stationarity = _stationarity(oracle.gradient(x[fin], rows[fin]), Aa[fin].transpose(0, 2, 1), nu[fin])
            ended += [(problems[i], x[i], f[i], nu[i], stationarity[q], step) for q, i in enumerate(fin)]
        keep = ~end
        if not keep.any():
            break
        last = [la for la, kp in zip(last, keep.tolist()) if kp]
        x, rows, problems, Aa, ba, KKT = x[keep], rows[keep], problems[keep], Aa[keep], ba[keep], KKT[keep]
    return ended
