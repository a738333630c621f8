"""Exact information-relaxation duality on small finite MDPs.

Everything here is enumeration-based and exact up to float rounding: backward
induction for the primal value, inner maximization per disturbance scenario,
and the dual bound as the probability-weighted sum over all scenarios.  A
stage-separable penalty is a (K, S, A, O) table, and its inner problems run
the same backward induction as the primal value; any other penalty is
maximized by exhaustive enumeration.  Small instances serve as the
ground-truth oracle for weak duality, strong duality with the value-function
penalty, and the zero-mean property of that penalty.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

ENUMERATION_GUARD = 1_000_000
PROB_TOL = 1e-12
STRONG_TOL = 1e-10  # |optimal-penalty bound - V0| of `verify_duality`
MARTINGALE_TOL = 1e-12  # |E[M*]| under the argmax policy of `verify_duality`


class EnumerationGuardError(RuntimeError):
    """Scenario space too large for exact enumeration."""


class DualityCheckError(AssertionError):
    """One of the exact duality checks failed; carries the full report."""

    def __init__(self, report: "DualityReport"):
        self.report = report
        failed = [name for name, ok in report.checks.items() if not ok]
        super().__init__(f"duality checks failed: {failed}; report={report}")


@dataclass(frozen=True)
class FiniteMDP:
    """Finite-horizon MDP with i.i.d. (optionally per-stage) disturbances.

    transition[x, a, o] is the index of the successor state; stage_reward is
    indexed (stage, state, action); outcome_probs is either one row shared by
    all stages or a (horizon, len(outcomes)) table.
    """

    horizon: int
    states: tuple
    actions: tuple
    outcomes: tuple
    outcome_probs: np.ndarray
    transition: np.ndarray
    stage_reward: np.ndarray
    terminal_reward: np.ndarray
    initial_state: int

    def __post_init__(self):
        S, A, O, K = len(self.states), len(self.actions), len(self.outcomes), self.horizon
        if K < 1:
            raise ValueError(f"horizon must be >= 1, got {K}")
        probs = np.asarray(self.outcome_probs, dtype=float)
        if probs.ndim == 1:
            probs = np.tile(probs, (K, 1))
        if probs.shape != (K, O):
            raise ValueError(f"outcome_probs must have shape ({K}, {O}) or ({O},), got {probs.shape}")
        # Written so that NaN fails both tests.
        if not (np.all(probs >= 0) and np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_TOL)):
            raise ValueError("outcome probabilities must be nonnegative and sum to 1 per stage")
        trans = np.asarray(self.transition, dtype=int)
        if trans.shape != (S, A, O):
            raise ValueError(f"transition must have shape ({S}, {A}, {O}), got {trans.shape}")
        if np.any(trans < 0) or np.any(trans >= S):
            raise ValueError("transition entries must index into states")
        reward = np.asarray(self.stage_reward, dtype=float)
        if reward.shape != (K, S, A):
            raise ValueError(f"stage_reward must have shape ({K}, {S}, {A}), got {reward.shape}")
        term = np.asarray(self.terminal_reward, dtype=float)
        if term.shape != (S,):
            raise ValueError(f"terminal_reward must have shape ({S},), got {term.shape}")
        if not (np.isfinite(reward).all() and np.isfinite(term).all()):
            raise ValueError("stage_reward and terminal_reward must be finite")
        if not 0 <= self.initial_state < S:
            raise ValueError("initial_state out of range")
        object.__setattr__(self, "outcome_probs", probs)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "stage_reward", reward)
        object.__setattr__(self, "terminal_reward", term)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "states": list(self.states),
            "actions": list(self.actions),
            "outcomes": list(self.outcomes),
            "outcome_probs": self.outcome_probs.tolist(),
            "transition": self.transition.tolist(),
            "stage_reward": self.stage_reward.tolist(),
            "terminal_reward": self.terminal_reward.tolist(),
            "initial_state": self.initial_state,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMDP":
        known = {f.name for f in fields(cls)}
        for which, names in (("unknown", set(data) - known), ("missing", known - set(data))):
            if names:
                raise ValueError(f"{which} FiniteMDP fields: {sorted(names)}")
        states = tuple(data["states"])
        init = data["initial_state"]
        if isinstance(init, bool):  # JSON true/false would pass as index 1/0
            raise ValueError(f"initial_state must be a state index or label, got {init!r}")
        if isinstance(init, str):
            if init not in states:
                raise ValueError(f"initial_state {init!r} is not one of the states {list(states)}")
            init = states.index(init)
        return cls(
            horizon=int(_integral(data["horizon"], "horizon")),
            states=states,
            actions=tuple(data["actions"]),
            outcomes=tuple(data["outcomes"]),
            outcome_probs=np.asarray(data["outcome_probs"], dtype=float),
            transition=_integral(data["transition"], "transition"),
            stage_reward=np.asarray(data["stage_reward"], dtype=float),
            terminal_reward=np.asarray(data["terminal_reward"], dtype=float),
            initial_state=int(_integral(init, "initial_state")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FiniteMDP":
        return cls.from_dict(json.loads(text))


def _integral(value, name: str) -> np.ndarray:
    """value as ints; a non-integral entry is an error, not truncated."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
        raise ValueError(f"{name} entries must be integers")
    return arr.astype(int)


@dataclass(frozen=True)
class StageValues:
    """Backward-induction values (stages 0..K) and an argmax policy (0..K-1)."""

    values: np.ndarray  # (K+1, S)
    policy: np.ndarray  # (K, S), lowest-index ties


@dataclass(frozen=True)
class ScenarioSequence:
    """One disturbance sequence and its probability."""

    outcomes: tuple
    probability: float


def _backward(mdp: FiniteMDP, stage_reward: np.ndarray, probs: np.ndarray) -> StageValues:
    """Backward induction on rewards (K, S, A) and outcome probability rows
    (K, O) over mdp's transitions; ties broken by the lowest action index."""
    K, S = mdp.horizon, mdp.n_states
    V = np.empty((K + 1, S))
    policy = np.empty((K, S), dtype=int)
    V[K] = mdp.terminal_reward
    for k in range(K - 1, -1, -1):
        # Q[x, a] = g_k(x, a) + sum_o p_k(o) V_{k+1}(f(x, a, o))
        Q = stage_reward[k] + np.einsum("o,xao->xa", probs[k], V[k + 1][mdp.transition])
        policy[k] = np.argmax(Q, axis=1)
        V[k] = Q[np.arange(S), policy[k]]
    return StageValues(values=V, policy=policy)


def solve_dp(mdp: FiniteMDP) -> StageValues:
    """Exact backward induction; ties broken by the lowest action index."""
    return _backward(mdp, mdp.stage_reward, mdp.outcome_probs)


def enumerate_scenarios(mdp: FiniteMDP, guard: int = ENUMERATION_GUARD):
    """All positive-probability disturbance sequences, in lexicographic order."""
    supports = [np.flatnonzero(mdp.outcome_probs[k] > 0.0) for k in range(mdp.horizon)]
    count = 1
    for sup in supports:
        count *= len(sup)
        if count > guard:
            raise EnumerationGuardError(
                f"scenario space exceeds the enumeration guard ({guard})")
    scenarios = []
    for combo in itertools.product(*supports):
        prob = 1.0
        for k, o in enumerate(combo):
            prob *= mdp.outcome_probs[k, o]
        scenarios.append(ScenarioSequence(outcomes=tuple(int(o) for o in combo), probability=prob))
    return scenarios


def trajectory(mdp: FiniteMDP, action_seq: Sequence[int], scenario: ScenarioSequence) -> np.ndarray:
    """States visited under (actions, disturbances), starting at the initial state."""
    if len(action_seq) != mdp.horizon or len(scenario.outcomes) != mdp.horizon:
        raise ValueError("action sequence and scenario must have length equal to the horizon")
    xs = np.empty(mdp.horizon + 1, dtype=int)
    xs[0] = mdp.initial_state
    for k in range(mdp.horizon):
        xs[k + 1] = mdp.transition[xs[k], action_seq[k], scenario.outcomes[k]]
    return xs


def pathwise_reward(mdp: FiniteMDP, action_seq: Sequence[int], scenario: ScenarioSequence) -> float:
    xs = trajectory(mdp, action_seq, scenario)
    total = float(mdp.terminal_reward[xs[-1]])
    for k in range(mdp.horizon):
        total += mdp.stage_reward[k, xs[k], action_seq[k]]
    return total


class StagewisePenalty:
    """Penalty sum_k table[k, x_k, a_k, v_{k+1}] of a (K, S, A, O) table; the
    stagewise structure lets the inner problem run as a deterministic DP over states."""

    def __init__(self, mdp: FiniteMDP, table: np.ndarray):
        self._mdp = mdp
        self.table = np.asarray(table, dtype=float)

    def __call__(self, action_seq: Sequence[int], scenario: ScenarioSequence) -> float:
        xs = trajectory(self._mdp, action_seq, scenario)
        return sum(float(self.table[k, xs[k], action_seq[k], scenario.outcomes[k]])
                   for k in range(self._mdp.horizon))


def zero_penalty(mdp: FiniteMDP) -> StagewisePenalty:
    return StagewisePenalty(mdp, np.zeros((mdp.horizon, mdp.n_states, mdp.n_actions, len(mdp.outcomes))))


def optimal_penalty(mdp: FiniteMDP, sv: Optional[StageValues] = None) -> StagewisePenalty:
    """The martingale-difference penalty built from the exact stage values:
    V_{k+1}(f(x, a, o)) - sum_o' p_k(o') V_{k+1}(f(x, a, o'))."""
    if sv is None:
        sv = solve_dp(mdp)
    nxt = sv.values[1:, mdp.transition]  # (K, S, A, O)
    return StagewisePenalty(mdp, nxt - np.einsum("ko,kxao->kxa", mdp.outcome_probs, nxt)[..., None])


def inner_solve(mdp: FiniteMDP, penalty, scenario: ScenarioSequence):
    """Exact maximizer over ALL action sequences for one disturbance scenario.

    A general penalty may couple stages, so a plain callable takes exhaustive
    enumeration (ties resolved to the lexicographically lowest sequence).  A
    StagewisePenalty's inner problem is deterministic: `solve_dp`'s backward
    induction on rewards g_k(x, a) - table[k, x, a, o_k] and one-hot outcome
    rows, whose lowest-index argmax policy resolves ties identically.
    """
    if penalty is None:
        penalty = zero_penalty(mdp)
    if len(scenario.outcomes) != mdp.horizon:
        raise ValueError("scenario length must equal the horizon")
    if isinstance(penalty, StagewisePenalty):
        o = np.asarray(scenario.outcomes)
        sv = _backward(mdp, mdp.stage_reward - penalty.table[np.arange(mdp.horizon), :, :, o],
                       np.eye(len(mdp.outcomes))[o])
        return policy_action_sequence(mdp, sv.policy, scenario), float(sv.values[0, mdp.initial_state])
    best_seq, best_val = None, -np.inf
    for seq in itertools.product(range(mdp.n_actions), repeat=mdp.horizon):
        val = pathwise_reward(mdp, seq, scenario) - penalty(seq, scenario)
        if val > best_val:
            best_seq, best_val = seq, val
    return best_seq, float(best_val)


def dual_bound_exact(mdp: FiniteMDP, penalty) -> float:
    """Exact dual bound: probability-weighted inner optimum over every
    scenario; penalty None is the zero penalty."""
    if penalty is None:
        penalty = zero_penalty(mdp)
    total = 0.0
    for scen in enumerate_scenarios(mdp):
        _, val = inner_solve(mdp, penalty, scen)
        total += scen.probability * val
    return float(total)


def policy_action_sequence(mdp: FiniteMDP, policy: np.ndarray, scenario: ScenarioSequence):
    """Actions taken by a Markov policy table (K, S) along one scenario."""
    seq = []
    x = mdp.initial_state
    for k in range(mdp.horizon):
        a = int(policy[k, x])
        seq.append(a)
        x = int(mdp.transition[x, a, scenario.outcomes[k]])
    return tuple(seq)


def expected_penalty_under_policy(mdp: FiniteMDP, penalty, policy: np.ndarray) -> float:
    """Exact expectation of the penalty when actions follow a Markov policy."""
    total = 0.0
    for scen in enumerate_scenarios(mdp):
        seq = policy_action_sequence(mdp, policy, scen)
        total += scen.probability * penalty(seq, scen)
    return float(total)


@dataclass(frozen=True)
class DualityReport:
    v0: float
    zero_penalty_bound: float
    optimal_penalty_bound: float
    expected_optimal_penalty: float
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify_duality(mdp: FiniteMDP, raise_on_failure: bool = True) -> DualityReport:
    """Exact weak/strong duality and zero-mean checks on one instance.

    Computes the primal value, the zero-penalty (pure foresight) bound and the
    optimal-penalty bound by enumeration, plus the exact expectation of the
    optimal penalty under the argmax policy.  Every tolerance (the weak-duality
    1e-12, STRONG_TOL, MARTINGALE_TOL) is multiplied by max(1, max|V|) over the
    stage values, so rounding on large rewards does not fail a valid instance.
    Failures raise a DualityCheckError carrying the report unless
    raise_on_failure is False.
    """
    sv = solve_dp(mdp)
    v0 = float(sv.values[0, mdp.initial_state])
    scale = max(1.0, float(np.max(np.abs(sv.values))))
    zero_bound = dual_bound_exact(mdp, None)
    mstar = optimal_penalty(mdp, sv)
    opt_bound = dual_bound_exact(mdp, mstar)
    e_mstar = expected_penalty_under_policy(mdp, mstar, sv.policy)
    checks = {
        "weak_duality_zero_penalty": zero_bound >= v0 - 1e-12 * scale,
        "strong_duality_optimal_penalty": abs(opt_bound - v0) <= STRONG_TOL * scale,
        "zero_mean_under_optimal_policy": abs(e_mstar) <= MARTINGALE_TOL * scale,
    }
    report = DualityReport(v0=v0, zero_penalty_bound=zero_bound, optimal_penalty_bound=opt_bound,
                           expected_optimal_penalty=e_mstar, checks=checks)
    if raise_on_failure and not report.passed:
        raise DualityCheckError(report)
    return report
