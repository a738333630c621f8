"""The inner problem of one path leg and its one-variable Lagrangian dual.

A leg maximizes its utility less its penalty form over its decisions with
perfect foresight of its returns, a problem concave in the decisions, with
terminal wealth read off the wealth chain (`inner_oracle`).  `leg_bounds`
gives a stack of legs their upper bounds.

Each leg's bound comes from the inner problem's Lagrangian dual, which the
floor chain of the wealth multipliers makes a function of the terminal
multiplier lambda_K alone (`_floor_chain`).  Every gross return is
positive, so each wealth multiplier is a convex, increasing, piecewise-linear
function of lambda_K: `_breakpoints` finds each leg's breakpoints in one
pass, `_dual_search` bisects the dual's slope over the pieces between them
to two adjacent pieces, and `_dual_plan` finds in them, in closed form or by
Newton steps along one piece, where that slope changes sign.  It reads off
there the primal optimum the dual recovers (the consumption that lambda
prices and the wealth that the maximal candidates carry) and the
multipliers of its rows (each candidate's gap below lambda_k, and on a
floored amount's floor row the price its utility leaves).  `leg_bounds`
certifies each leg by the KKT conditions at that point with those
multipliers (Boyd & Vandenberghe 2004, 5.5.3), the test
`concave.maximize_batch` makes with them as `warm` and `duals`, but read
off the wealth chain in O(K n) a leg (`_certify_legs`, with f and its
gradient from `inner_oracle`), so that a certified leg needs neither its
(m, D) rows nor a Newton step; it reports the primal optimum f.  A leg it
misses reports G at its lambda_K, an upper bound on its inner maximum by
weak duality.
"""

from __future__ import annotations

import numpy as np

from . import concave, penalties
from .market import ModelParams, reduce_last, step_wealth

INNER_TOL = 1e-6
INNER_MAX_NEWTON = 200
AMOUNT_FLOOR = 1e-10
# `_dual_plan`'s Newton steps on lam_K per leg, at most.  From the breakpoint
# that ends its piece, every leg measured (sets 1-4 at gamma 1.5 to 20, K = 20
# and 40, R_f = 5e-4, alpha 0 and 1) takes at most 4, and a zero-penalty leg
# 1.
DUAL_NEWTON_STEPS = 20


def leg_bounds(p: ModelParams, forms, ctxs) -> tuple:
    """(values, missed): upper bounds on the inner maxima of a stack of legs
    with penalty forms `forms` and contexts `ctxs`, and the indices of the
    legs not certified.

    The dual search of all the legs runs as one stack (`_dual_plan`), and
    one pass certifies each leg at the optimum its dual recovers, with that
    optimum's row multipliers (`_certify_legs`).  A certified leg reports
    that optimum's f (`inner_oracle`), bit-identical to its own
    `assemble_inner` + `maximize`, with no inner problem built and no Newton
    step; every leg measured (sets 1-4 at gamma 1.5 to 20, alpha 0 to 1,
    K = 10 to 40, R_f = 5e-4) certifies.  A leg the check misses reports
    its dual value G at its lam_K (`_floor_chain`, on the missed legs
    only), an upper bound on its inner maximum by weak duality, and is
    counted.  Every leg's value is bit-identical to its one-leg value.
    """
    warm, duals, lam_K = _dual_plan(p, forms, ctxs)
    certified, values = _certify_legs(p, forms, ctxs.R, warm, duals)
    missed = np.flatnonzero(~certified)
    if missed.size:
        legs = penalties.take(forms, missed)
        values[missed] = _floor_chain(p, _candidate_lines(p, legs, penalties.take(ctxs, missed)), legs.lin_C,
                                      legs.constant, _utility_weights(p) ** (1.0 / p.gamma), lam_K[missed])[0]
    return values, missed


def _certify_legs(p: ModelParams, forms, R, warm, duals) -> tuple:
    """(certified, f) of a stack of legs with returns R at their
    `_dual_plan` points and multipliers: `concave.certificate`, the test
    `maximize_batch` makes on their `assemble_inner_batch` problems, with
    f and its gradient from `inner_oracle`'s terms (`_inner_terms`) and the
    rows' slacks and A'nu read off the wealth chain in O(K n) a leg instead
    of the (B, m, D) rows.  The chain is stepped once, for all of them.

    With x = (Pi_k, C_k) and W_k the wealth chain (`_wealth`), the rows'
    slacks are R_f (W_k - 1'Pi_k) - C_k (budget), C_k - AMOUNT_FLOOR
    (floor), W_K - AMOUNT_FLOOR (bequest) and Pi_kj.  With
    mu_{K-1} = nu_bequest and mu_k = R_f (mu_{k+1} + nu_budget,k+1),
    (A'nu)_C_k = nu_budget,k + mu_k - nu_floor,k and (A'nu)_Pi_kj =
    R_f nu_budget,k - (R_kj - R_f) mu_k - nu_Pi,kj.
    """
    K, n, Rf, B = p.K, p.n, p.R_f, len(warm)
    legs, (value, gradient, _) = np.arange(B), _inner_terms(p, forms, R)
    x = warm.reshape(B, K, n + 1)
    Pi, C = x[..., :n], x[..., n]
    nu = duals[:, :2 * K].reshape(B, K, 2)   # each stage's (budget, floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        W, mu = _wealth(p, Pi, C, R), np.empty((B, K))
        Y = np.concatenate([C, W[:, K:]], axis=1)
        mu[:, K - 1] = duals[:, 2 * K]
        for k in range(K - 2, -1, -1):
            mu[:, k] = Rf * (mu[:, k + 1] + nu[:, k + 1, 0])
        budget = Rf * (W[:, :K] - reduce_last(np.add, Pi)) - C
        S = np.concatenate([np.stack([budget, C - AMOUNT_FLOOR], axis=2).reshape(B, 2 * K), W[:, K:] - AMOUNT_FLOOR,
                            Pi.reshape(B, K * n)], axis=1)
        ATnu = np.empty((B, K, n + 1))
        ATnu[..., :n] = Rf * nu[..., :1] - (R - Rf) * mu[..., None] - duals[:, 2 * K + 1:].reshape(B, K, n)
        ATnu[..., n] = nu[..., 0] + mu - nu[..., 1]
        F = value(x, Y, legs)
        certified, _ = concave.certificate(S, _row_bounds(p), duals, F,
                                           lambda ok: (gradient(x, Y, legs), ATnu.reshape(B, -1)), INNER_TOL)
    return certified, F


def _utility_weights(p: ModelParams) -> np.ndarray:
    """CRRA weights of (C_0, ..., C_{K-1}, W_K) in the inner objective."""
    return np.append(p.alpha * p.delta * p.beta ** (np.arange(p.K) * p.delta),
                     (1.0 - p.alpha) * p.beta ** (p.K * p.delta))


def _row_bounds(p: ModelParams) -> np.ndarray:
    """The inner problem's b (m,), the same for every leg (`assemble_inner_batch`)."""
    K = p.K
    w_const = np.multiply.accumulate(np.append(p.W0, np.full(K, p.R_f)))   # R_f^k W_0
    b = np.zeros(2 * K + 1 + K * p.n)
    b[:2 * K:2] = p.R_f * w_const[:K]
    b[1:2 * K:2] = -AMOUNT_FLOOR
    b[2 * K] = w_const[K] - AMOUNT_FLOOR
    return b


def _wealth(p: ModelParams, Pi, C, R) -> np.ndarray:
    """The wealth chain (N, K + 1) of legs with amounts Pi (N, K, n), C (N, K)
    and returns R (N, K, n): W_0 = W0, W_{k+1} = `step_wealth`(W_k, Pi_k, C_k, R_k)."""
    W = np.empty((len(C), p.K + 1))
    W[:, 0] = p.W0
    for k in range(p.K):
        W[:, k + 1] = step_wealth(W[:, k], Pi[:, k], C[:, k], R[:, k], p)
    return W


def inner_oracle(p: ModelParams, forms, R) -> concave.ObjectiveOracle:
    """The inner objectives of a stack of legs with penalty forms `forms`
    and returns R (B, K, n), in x = (Pi_0, C_0, ..., Pi_{K-1}, C_{K-1}):
    CRRA in Y = (C_0, ..., C_{K-1}, W_K) with weights `_utility_weights(p)`,
    less the form, and -inf where some Y_j <= 0.

    W_K comes off the wealth chain (`_wealth`), so it is linear in x, with
    dW_K/dPi_kj = R_f^(K-1-k) (R_kj - R_f) and dW_K/dC_k = -R_f^(K-1-k); the
    Hessian is the C_k diagonal plus W_K's rank-one term.  Every operation
    acts leg by leg, so a leg gives the same bits alone or in any batch.
    """
    K, n = p.K, p.n

    def on_chain(term):   # a `_inner_terms` term as an oracle callable of (X, rows)
        def call(X, rows):
            x = X.reshape(len(X), K, n + 1)
            W = _wealth(p, x[..., :n], x[..., n], R[rows])
            return term(x, np.concatenate([x[..., n], W[:, K:]], axis=1), rows)
        return call

    return concave.ObjectiveOracle(*map(on_chain, _inner_terms(p, forms, R)))


def _inner_terms(p: ModelParams, forms, R) -> tuple:
    """`inner_oracle`'s (value, gradient, hessian), each a function of the
    points' stage view x (N, K, n + 1), their Y = (C_0, ..., C_{K-1}, W_K)
    (N, K + 1) and rows, so that a caller holding the wealth chain
    (`_certify_legs`) steps it once."""
    K, n, gamma = p.K, p.n, p.gamma
    B, D = len(R), K * (n + 1)
    weight = _utility_weights(p)
    c_idx = np.arange(K) * (n + 1) + n
    dW = np.concatenate([R - p.R_f, np.full((B, K, 1), -1.0)], axis=2)
    dW = (dW * p.R_f ** np.arange(K - 1, -1, -1.0)[:, None]).reshape(B, D)
    lin = np.concatenate([forms.lin_Pi, forms.lin_C[..., None]], axis=2).reshape(B, D)

    def value(x, Y, rows):
        inside = Y.min(axis=1) > 0.0
        utility = (weight / (1.0 - gamma) * np.where(inside[:, None], Y, 1.0) ** (1.0 - gamma)).sum(axis=1)
        return np.where(inside, utility - penalties.take(forms, rows).evaluate(x[..., :n], x[..., n]), -np.inf)

    def gradient(x, Y, rows):
        marginal = weight * Y ** -gamma
        g = marginal[:, K:] * dW[rows] - lin[rows]
        g[:, c_idx] += marginal[:, :K]
        return g

    def hessian(x, Y, rows):
        curvature = -gamma * weight * Y ** (-gamma - 1.0)
        a = dW[rows]
        H = a[:, :, None] * a[:, None, :]
        H *= curvature[:, K:, None]
        H[:, c_idx, c_idx] += curvature[:, :K]
        return H

    return value, gradient, hessian


def assemble_inner_batch(p: ModelParams, forms, ctxs):
    """Inner problems of B path legs, stacked for `concave.maximize_batch`.

    `forms` and `ctxs` are stacks of B legs (see `penalties.penalty_form`);
    of the contexts only R, Pi and C are read.  Leg i maximizes utility
    minus its form over x = (Pi_0, C_0, ..., Pi_{K-1}, C_{K-1}) along its
    context.  Wealth is eliminated by forward substitution, making every
    W_k affine in x; constraints are the per-stage budget
    C_k <= R_f (W_k - 1'Pi_k), floors on C_k and W_K, and last the
    nonnegativity of Pi.
    Returns (oracle, A, b, X0) with the legs' `inner_oracle`, A (B, m, D),
    b (B, m) and the interior start X0 (B, D).  All per-leg arithmetic is
    elementwise or a stacked BLAS slice, so leg i gives the same problem
    alone or in any batch.
    """
    K, n = p.K, p.n
    B = ctxs.C.shape[0]
    D = K * (n + 1)
    Rf = p.R_f
    excess = ctxs.R - Rf                             # (B, K, n)
    pi_idx = np.arange(D).reshape(K, n + 1)[:, :n]   # Pi_k coordinates, (K, n)
    c_idx = np.arange(K) * (n + 1) + n               # C_k coordinates, (K,)
    # W_k(x) = R_f^k W_0 + w_coef[:, k] . x, k <= K.
    w_coef = np.zeros((B, K + 1, D))
    for k in range(K):
        w_coef[:, k + 1] = Rf * w_coef[:, k]
        w_coef[:, k + 1, pi_idx[k]] += excess[:, k]
        w_coef[:, k + 1, c_idx[k]] -= 1.0
    b = _row_bounds(p)

    # Rows: (budget_k, floor_k) for each stage, the bequest floor, then -Pi <= 0.
    A = np.zeros((B, b.size, D))
    b = np.tile(b, (B, 1))
    budget = 2 * np.arange(K)   # budget_k's row; floor_k's is the next
    A[:, budget] = -Rf * w_coef[:, :K]
    A[:, budget[:, None], pi_idx] += Rf
    A[:, budget, c_idx] += 1.0
    A[:, budget + 1, c_idx] = -1.0
    A[:, 2 * K] = -w_coef[:, K]
    A[:, 2 * K + 1:] = -np.eye(D)[pi_idx.reshape(-1)]
    oracle = inner_oracle(p, forms, ctxs.R)

    # Start: baseline decisions pulled a tenth of the way toward a strictly
    # interior trajectory built forward with the realized returns, so the
    # barrier starts near its central path instead of on the boundary.  The
    # interior path puts eta of wealth into the risky assets, split evenly,
    # and consumes eta; scaling eta by min(1, R_f) keeps the budget
    # C_k <= R_f (W_k - 1'Pi_k) slack for any R_f > 0.
    x_base = np.zeros((B, D))
    x_base[:, pi_idx] = ctxs.Pi
    x_base[:, c_idx] = ctxs.C
    eta = 0.1 * min(1.0, Rf)
    x_int = np.zeros((B, D))
    Wk = np.full(B, p.W0)
    for k in range(K):
        x_int[:, pi_idx[k]] = (eta * Wk / n)[:, None]
        x_int[:, c_idx[k]] = eta * Wk
        Wk = step_wealth(Wk, x_int[:, pi_idx[k]], x_int[:, c_idx[k]], ctxs.R[:, k], p)
    X0 = 0.9 * x_base + 0.1 * x_int
    return oracle, A, b, X0


def assemble_inner(p: ModelParams, form: penalties.PenaltyForm, ctx: penalties.PenaltyContext):
    """Inner problem of one path leg as (oracle, (A, b, warm, duals), X0),
    its warm point, that point's row multipliers and its interior start, for
    `concave.maximize`; the N = 1 call of `_dual_plan`, which `leg_bounds`
    makes per stack, and of `assemble_inner_batch`.  A certified leg's
    `maximize` gives `leg_bounds`' f bit for bit."""
    form, ctx = penalties.as_stack(form), penalties.as_stack(ctx)
    warm, duals, _ = _dual_plan(p, form, ctx)
    oracle, A, b, X0 = assemble_inner_batch(p, form, ctx)
    return oracle, (A[0], b[0], warm[0], duals[0]), X0[0]


def _candidate_lines(p: ModelParams, forms, ctxs) -> tuple:
    """Each stage's candidate lines for lambda_k as (gross, offset), each
    (n+1, K, B), the bond's last, in the order of x's stage coordinates
    (see `_floor_chain`)."""
    B, K, n = ctxs.R.shape
    gross, offset = np.full((n + 1, K, B), p.R_f), np.zeros((n + 1, K, B))
    gross[:n] = ctxs.R.transpose(2, 1, 0)
    offset[:n] = forms.lin_Pi.transpose(2, 1, 0)
    return gross, offset


def _floor_chain(p: ModelParams, lines, lin_C, constant, w, lam_K):
    """The inner problem's Lagrangian dual G and its slope G' at lam_K, along
    the floor chain, for each leg of a stack: its candidate lines
    (`_candidate_lines`), the form's lin_C (B, K) and constant (B,), and
    w = `_utility_weights(p)` ** (1/gamma).

    Stage k's candidates for lambda_k are the bond's R_f lambda_{k+1} and
    asset j's R_kj lambda_{k+1} - lin_Pi[k, j].  lambda_k is their maximum,
    and its slope in lam_K is the largest gross return among the maximal
    candidates times lambda_{k+1}'s.  With y_k = lin_C[k] + lambda_k / R_f,

        G = lambda_0 W_0 - constant + sum_k c(w_k, y_k) + c(w_K, lam_K),
        c(w, y) = sup_C w C^(1-gamma)/(1-gamma) - y C = gamma/(1-gamma) C y,

    at C = (y / w)^(-1/gamma), and dc/dy = -C.  Any lam_K > 0 gives G >= the
    inner maximum (weak duality; the floors on C_k and W_K only lower it).
    Returns (G, G', top) with top (B, K, n+1) marking the maximal
    candidates, the bond last.  A leg with some y_k <= 0 has G = +inf and
    G' = -inf: its lam_K is below the minimizer.
    """
    gross, offset = lines
    B, K = lam_K.size, p.K
    lam = np.empty((K + 1, B))
    lam[K] = lam_K
    for k in range(K - 1, -1, -1):
        lam[k] = np.maximum.reduce(gross[:, k] * lam[k + 1] - offset[:, k], axis=0)
    top = gross * lam[1:] - offset == lam[:-1]
    # d lambda_k / d lam_K: the product of the stage growths from K-1 down to k.
    growth = np.maximum.reduce(np.where(top, gross, 0.0), axis=0)
    slopes = np.multiply.accumulate(growth[::-1], axis=0)[::-1]
    # Leg-major copies, so that each leg's sums over k run on a contiguous
    # row in the same order whatever B is.
    lams, slopes = np.ascontiguousarray(lam[:-1].T), np.ascontiguousarray(slopes.T)
    y = lin_C + lams / p.R_f
    feasible = y.min(axis=1) > 0.0
    y = np.where(feasible[:, None], y, 1.0)
    C = w[:K] * y ** (-1.0 / p.gamma)
    C_K = w[K] * lam_K ** (-1.0 / p.gamma)
    G = (lams[:, 0] * p.W0 - constant
         + p.gamma / (1.0 - p.gamma) * ((C * y).sum(axis=1) + C_K * lam_K))
    dG = slopes[:, 0] * p.W0 - (C * slopes).sum(axis=1) / p.R_f - C_K
    return np.where(feasible, G, np.inf), np.where(feasible, dG, -np.inf), top.transpose(2, 1, 0)


def _breakpoints(lines) -> tuple:
    """Each leg's breakpoints in lam_K, where a stage's maximal candidate
    changes, from its candidate lines (`_candidate_lines`).

    Every gross return is positive, so stage k's floor h_k(v) = max_j(g_kj v
    - o_kj) is convex, increasing and piecewise linear in v = lambda_{k+1},
    and so is each lambda_k in lam_K, a composition of such floors
    (Rockafellar 1970, section 5).  Candidate j is maximal on the interval
    of v between its ties (o_j - o_i) / (g_j - g_i) with the flatter lines i
    (the largest) and with the steeper ones (the smallest), where that
    interval is not empty; at its right end a steeper candidate takes over.
    The inverse floors h_m^-1(v) = min_i (v + o_mi) / g_mi, m = k+1, ...,
    K-1, map that end to lam_K; an end that maps to lam_K <= 0 lies below
    lambda_{k+1}(0+) and is never reached.  A stage has at most n
    breakpoints, so a leg has at most K n.

    Returns (edge, right, steep): edge (B, K n + 2) each leg's breakpoints
    in increasing order after a 0 and padded with +inf, so that its piece i
    is (edge[i], edge[i+1]); right (n+1, K, B) each candidate's right end in
    lam_K, +inf where it has none; and steep (K, B) each stage's steepest
    candidate, maximal above all its right ends.  Every operation acts leg
    by leg.
    """
    gross, offset = lines
    J, K, B = gross.shape
    left, right = np.full((J, K, B), -np.inf), np.full((J, K, B), np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(J):
            tie = (offset - offset[i]) / (gross - gross[i])
            np.maximum(left, np.where(gross > gross[i], tie, -np.inf), out=left)
            np.minimum(right, np.where(gross < gross[i], tie, np.inf), out=right)
        # A candidate never maximal maps to lam_K <= 0 from 0, and so does
        # every tie at some v <= 0.
        right = np.where(left < right, right, 0.0)
        # The inverse floors keep an end <= 0 there and +inf at +inf, so
        # where no leg has another (the zero penalty) neither they nor the
        # ordering below need run.
        reached = ((right > 0.0) & (right < np.inf)).any()
        if reached:
            for m in range(1, K):
                part, right[:, :m] = right[:, :m].copy(), np.inf
                for i in range(J):
                    np.minimum(right[:, :m], (part + offset[i, m]) / gross[i, m], out=right[:, :m])
    right = np.where(right > 0.0, right, np.inf)
    e = right.transpose(2, 1, 0).reshape(B, -1)
    if reached:
        # Each end's place in its leg's order is the count of ends below it,
        # one candidate at a time: numpy's sort code would add about 0.2 MB of
        # resident pages to a process that sorts nothing else.  Every +inf
        # goes to the last column.
        below = np.stack([(e[:, None, :] < end[:, :, None]).sum(axis=2) for end in right.transpose(0, 2, 1)], axis=2)
        place = np.where(e < np.inf, below.reshape(B, -1) + 1, K * J + 1)
    edge = np.full((B, K * J + 2), np.inf)
    edge[:, 0] = 0.0
    if reached:
        np.put_along_axis(edge, place, e, axis=1)
    return edge[:, :K * (J - 1) + 2], right, gross.argmax(axis=0)


def _dual_search(p: ModelParams, lines, forms, w) -> tuple:
    """Each leg's two adjacent pieces around the sign change of G'
    (`_floor_chain`), by bisection over the pieces of `_breakpoints`.

    G is convex in lam_K, so G' increases.  A leg starts with its outermost
    pieces, 0 and its last, and evaluates G' at the midpoint of the piece
    halfway between its two, which takes the low one's place where G' < 0
    there and the high one's where not.  It stops when its two pieces are
    adjacent, after about log2 of its piece count evaluations; the outermost
    pieces are never evaluated, and a leg with no breakpoint evaluates
    nothing.  Returns (ends, at): ends (3, B) the low piece's left end, the
    breakpoint where the two meet and the high piece's right end, (0, inf,
    inf) where a leg has no breakpoint and one piece; and at (2, K, B) each
    stage's maximal candidate on the low and the high piece, the one with
    the first right end at or above the piece's, or the steepest where
    there is none.  Every operation acts leg by leg.
    """
    edge, right, steep = _breakpoints(lines)
    high = (edge < np.inf).sum(axis=1) - 1
    low = 0 * high
    while (j := np.flatnonzero(high - low > 1)).size:
        piece = (low[j] + high[j]) >> 1   # a shift: numpy's integer // adds 64 KB of resident code
        x = 0.5 * (edge[j, piece] + edge[j, piece + 1])
        below = _floor_chain(p, (lines[0][..., j], lines[1][..., j]), forms.lin_C[j], forms.constant[j], w, x)[1] < 0.0
        low[j], high[j] = np.where(below, piece, low[j]), np.where(below, high[j], piece)
    ends = edge[np.arange(len(edge)), low + np.arange(3)[:, None]]
    ahead = np.where(right[:, None] >= ends[1:, None], right[:, None], np.inf)
    return ends, np.where(ahead.min(axis=0) < np.inf, ahead.argmin(axis=0), steep)


def _dual_plan(p: ModelParams, forms, ctxs) -> tuple:
    """Each leg's primal optimum as its dual recovers it (Boyd & Vandenberghe
    2004, 5.5.5), (B, D) in the coordinates of `assemble_inner_batch`, its
    rows' multipliers, (B, m) in the rows' order there, and its lam_K (B,).

    Each lambda_k is affine in lam_K on each piece between the breakpoints
    of `_breakpoints`, and `_dual_search` finds two adjacent pieces around
    the sign change of G', which meet at a breakpoint e.  G' at e along
    each piece's candidates decides: where G' along the low piece's is >= 0
    at e, lam_K is in the low piece; where G' along the high piece's is < 0
    at e, it is in the high piece; and otherwise G' jumps across 0 at e and
    lam_K = e.  In a piece, Newton steps on G' from e, clipped to the piece,
    give lam_K; a leg with no breakpoint starts them at lam_K = 1.
    C_k = max((y_k / w_k)^(-1/gamma), AMOUNT_FLOOR) and C_K the same way, so
    an amount whose utility weight w is 0 sits on its floor.  A floored
    amount adds nothing to the curvature of those Newton steps, which are
    taken in lam_K^(-1/gamma), where G' is linear for the zero penalty: its
    first step lands on lam_K = (b / a)^gamma for G' = a - b lam_K^(-1/gamma).
    Then stage k invests rest_k = W_k - C_k / R_f in its maximal candidate,
    W_k forward from W_0.  At lam_K = e the stage whose candidate changes
    there puts in the high piece's candidate the share of its rest at which
    W_K = C_K: W_K - C_K is G' along the low piece's candidates at share 0
    and along the high piece's at share 1, and affine in between.  The
    multipliers take lambda_k = slope_k lam_K + icpt_k along the low piece's
    candidates and lambda_K = lam_K: lambda_k / R_f - lambda_{k+1} on the
    budget row of stage k (-R_f B_k <= 0), lambda_k - (R_kj lambda_{k+1} -
    lin_Pi[k, j]) on the row -Pi_kj <= 0, exactly 0 for every candidate
    maximal on either piece, y_k - w_k C_k^(-gamma) on the floor row of a
    floored C_k, lam_K - w_K C_K^(-gamma) on the bequest floor row where C_K
    is floored, and exactly 0 on every other floor row.  Every operation
    acts leg by leg.
    """
    K, Rf, gamma = p.K, p.R_f, p.gamma
    lines = _candidate_lines(p, forms, ctxs)
    weight = _utility_weights(p)
    w = weight ** (1.0 / gamma)
    ends, at = _dual_search(p, lines, forms, w)
    B = ends.shape[1]
    # Each stage's candidate on the low piece ([0]) and the high piece ([1]),
    # and lambda_k = slope_k lam_K + icpt_k along each.
    gross, offset = (np.take_along_axis(line, at, 0).transpose(0, 2, 1) for line in lines)
    at = at.transpose(0, 2, 1)
    slope, icpt = np.ones((2, B, K + 1)), np.zeros((2, B, K + 1))
    for k in range(K - 1, -1, -1):
        slope[..., k] = gross[..., k] * slope[..., k + 1]
        icpt[..., k] = gross[..., k] * icpt[..., k + 1] - offset[..., k]

    def marginal(lam_K):
        """y and the amounts C, C_K along the low piece's candidates, and G'
        along each piece's (2, B), at lam_K."""
        y = forms.lin_C + (slope[0, :, :K] * lam_K[:, None] + icpt[0, :, :K]) / Rf
        C = np.maximum(w[:K] * y ** (-1.0 / gamma), AMOUNT_FLOOR)
        C_K = np.maximum(w[K] * lam_K ** (-1.0 / gamma), AMOUNT_FLOOR)
        # G' along each piece's candidates: W_K, all of each stage's rest in
        # that candidate, less C_K.
        return y, C, C_K, slope[..., 0] * p.W0 - (C * slope[..., :K]).sum(axis=2) / Rf - C_K

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam_K = np.where(ends[1] < np.inf, ends[1], 1.0)
        dG = marginal(lam_K)[3]
        in_low = (dG[0] >= 0.0) | (ends[1] == np.inf)
        in_high = ~in_low & ~(dG[1] >= 0.0)
        # A leg in one piece takes its candidates twice and its ends as the
        # bounds of lam_K; a tied leg keeps both pieces.
        pick = np.stack([in_high, ~in_low])[..., None]
        at, gross, slope, icpt = (np.where(pick, a[1], a[0]) for a in (at, gross, slope, icpt))
        lower, upper = np.where(in_high, ends[1:], ends[:2])
        run = in_low | in_high
        for step in range(DUAL_NEWTON_STEPS + 1):
            y, C, C_K, dG = marginal(lam_K)
            floored, floored_K = C == AMOUNT_FLOOR, C_K == AMOUNT_FLOOR
            if step == DUAL_NEWTON_STEPS or not run.any():
                break
            # The Newton step in lam_K^(-1/gamma); gamma G'' = curv, to which
            # a floored amount adds nothing.
            curv = ((np.where(floored, 0.0, C / y) * slope[0, :, :K] ** 2).sum(axis=1) / Rf ** 2
                    + np.where(floored_K, 0.0, C_K / lam_K))
            nxt = np.clip(lam_K * (1.0 + dG[0] / (lam_K * curv)) ** -gamma, lower, upper)
            run &= np.abs(nxt - lam_K) > 1e-13 * lam_K
            lam_K = np.where(run, nxt, lam_K)
        # The tied stage puts the share of its rest in the high piece's
        # candidate at which W_K = C_K; W_K is affine in that share.
        share = np.where(at[0] != at[1], (dG[0] / (dG[0] - dG[1]))[:, None], 0.0)
        growth = gross[0] + share * (gross[1] - gross[0])
        W, rest = np.full(B, p.W0), np.empty((B, K, 1))
        for k in range(K):
            rest[:, k, 0] = W - C[:, k] / Rf
            W = rest[:, k, 0] * growth[:, k]
        top = at[..., None] == np.arange(p.n + 1)
        hold = rest * np.where(top[0], 1.0 - share[..., None], top[1] * share[..., None])
        hold[:, :, p.n] = C   # the bond's place takes C_k, as in x's stage order
        # The rows' multipliers: each candidate's gap below lambda_k along the
        # low piece's candidates, the bond's per unit of the budget row (-R_f B_k).
        lam = slope[0] * lam_K[:, None] + icpt[0]
        gaps = lines[0].transpose(2, 1, 0) * lam[:, 1:, None]   # in place from here, to spare the task's memory
        gaps -= lines[1].transpose(2, 1, 0)
        np.subtract(lam[:, :K, None], gaps, out=gaps)
        gaps[top[0] | top[1]] = 0.0
        duals = np.zeros((B, 2 * K + 1 + K * p.n))
        duals[:, :2 * K:2] = gaps[:, :, p.n] / Rf
        # A floored amount's floor row takes the price its utility leaves.
        duals[:, 1:2 * K:2] = np.where(floored, y - weight[:K] * C ** -gamma, 0.0)
        duals[:, 2 * K] = np.where(floored_K, lam_K - weight[K] * C_K ** -gamma, 0.0)
        duals[:, 2 * K + 1:] = gaps[:, :, :p.n].reshape(B, -1)
    return hold.reshape(B, -1), duals, lam_K
