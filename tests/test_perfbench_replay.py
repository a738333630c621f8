"""The benchmark's traced replays reproduce its timed calls bit for bit.

`perfbench/run.py --trace 1` replays each timed job through the one-leg and
per-node public calls it is built from (`backward_recursion(solver=...)`,
`build_context`, `penalty_form`, `assemble_inner`, `maximize`,
`simulate_policy_path`, ...) and refuses to report per-layer numbers when
the replay's outcome differs.  Small jobs of every kind run here, so a change
that breaks one of those calls fails the test suite, not only a benchmark
run.
"""

import sys
from pathlib import Path

import pytest

from dualbound import market
from dualbound.bounds import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import jobs  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def grid_job():
    """A 9-node set-1 grid job and its timed result."""
    job = jobs.GridJob("set1-9", market.parameter_set(1, 1.5), nodes=9)
    return job, job.run()


def test_grid_replay_reproduces_the_timed_solve(grid_job):
    job, vg = grid_job
    assert job.outcome(vg) == job.replay(spans.Tracer())


def _cfg(kind="zero"):
    return RunConfig(paths_per_run=2, runs=2, seed=7, penalty_kind=kind, gamma=1.5, parameter_set_id=1)


@pytest.mark.parametrize("make", [
    lambda p, vg: jobs.LowerJob("lower", p, vg, _cfg()),
    lambda p, vg: jobs.UpperJob("upper-m1", p, vg, _cfg("m1")),
    lambda p, vg: jobs.UpperJob("upper-m2", p, vg, _cfg("m2")),
    lambda p, vg: jobs.UpperJob("upper-zero", p, vg, _cfg("zero")),
    lambda p, vg: jobs.FeasibilityJob("feasibility-m2", p, vg, "m2", pairs=100, seed=7),
], ids=["lower", "upper-m1", "upper-m2", "upper-zero", "feasibility-m2"])
def test_path_replay_reproduces_the_timed_call(grid_job, make):
    job = make(grid_job[0].p, grid_job[1])
    assert job.outcome(job.run()) == job.replay(spans.Tracer())
