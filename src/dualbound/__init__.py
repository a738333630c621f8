"""Lower bounds and information-relaxation dual upper bounds for stochastic
control, with an exact finite-MDP duality core and a full dynamic portfolio
choice pipeline (grid DP, penalties, Monte Carlo bound estimation, CLI)."""

from . import bounds, concave, dp_solver, dual, finite_mdp, market, penalties
from .bounds import (
    BoundEstimate,
    RunConfig,
    certainty_equivalent,
    duality_gap,
    lower_bound,
    upper_bound,
)
from .dp_solver import ValueGrid, backward_recursion
from .market import ModelParams, ShockPath, parameter_set

__version__ = "0.1.0"

__all__ = [
    "BoundEstimate",
    "ModelParams",
    "RunConfig",
    "ShockPath",
    "ValueGrid",
    "backward_recursion",
    "bounds",
    "certainty_equivalent",
    "concave",
    "dp_solver",
    "dual",
    "duality_gap",
    "finite_mdp",
    "lower_bound",
    "market",
    "parameter_set",
    "penalties",
    "upper_bound",
]
