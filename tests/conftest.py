import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dualbound import dp_solver, market


@pytest.fixture(scope="session")
def p_set1():
    return market.parameter_set(1, gamma=1.5)


@pytest.fixture(scope="session")
def vg_set1(p_set1):
    """Solved 21-node grid for set 1, gamma=1.5; shared across the suite."""
    return dp_solver.backward_recursion(p_set1)


@pytest.fixture(scope="session")
def solved_grid(p_set1, vg_set1):
    """(params, solved default grid) of a parameter set and gamma, each solved
    once per session: `solved_grid(sid, gamma)`."""
    cache = {(1, 1.5): (p_set1, vg_set1)}

    def get(sid, gamma):
        if (sid, gamma) not in cache:
            p = market.parameter_set(sid, gamma=gamma)
            cache[(sid, gamma)] = (p, dp_solver.backward_recursion(p))
        return cache[(sid, gamma)]

    return get


@pytest.fixture(scope="session")
def grid_file_set1(tmp_path_factory, p_set1, vg_set1):
    path = tmp_path_factory.mktemp("grids") / "set1_g15.json"
    dp_solver.save_value_grid(str(path), vg_set1, p_set1)
    return str(path)
