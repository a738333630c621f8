import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualbound
from dualbound import bounds, cli, dp_solver, dual, finite_mdp, market
from dualbound.cli import main

from helpers import joint_stage, matching_mdp


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def mdp_file(tmp_path):
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(matching_mdp().to_dict()))
    return str(path)


class TestGenParams:
    def test_emits_published_values(self, tmp_path, capsys):
        out = tmp_path / "p1.json"
        assert run_cli("gen-params", "1", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["lambda"] == 0.336
        assert data["sigma_phi2"] == 0.284

    def test_unknown_id_exits_2_listing_valid_ids(self, capsys):
        assert run_cli("gen-params", "5") == 2
        err = capsys.readouterr().err
        assert "1, 2, 3, 4" in err

    def test_round_trip_into_solve(self, tmp_path, capsys):
        cfg = tmp_path / "p2.json"
        grid = tmp_path / "g2.json"
        assert run_cli("gen-params", "2", "--gamma", "1.5", "--out", str(cfg)) == 0
        assert run_cli("solve", "--config", str(cfg), "--grid-nodes", "5",
                       "--out", str(grid)) == 0
        assert grid.exists()

    def test_print_config(self, capsys):
        assert run_cli("gen-params", "1", "--print-config") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "gen-params"
        assert payload["gamma"] == 1.5  # defaults are explicit


def _subparser_dests(command: str) -> set:
    """Every option and positional dest of a subcommand, plus its set_defaults keys."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sp = subparsers.choices[command]
    return {a.dest for a in sp._actions if a.dest != "help"} | set(sp._defaults)


class TestPrintConfig:
    @pytest.mark.parametrize("argv, expect", [
        (["gen-params", "2"], {"set": 2, "gamma": 1.5}),
        (["solve", "--set", "1"], {"set": 1, "gamma": None, "grid_nodes": 21, "grid_min": -2.0,
                                   "grid_max": 2.0, "quad": 3}),
        (["lower", "--grid", "g.json", "--set", "1", "--seed", "3"], {"set": 1, "paths": 100, "seed": 3}),
        (["upper", "--grid", "g.json", "--set", "1", "--seed", "3"], {"set": 1, "paths": 30, "penalty": "m1"}),
        (["feasibility", "--grid", "g.json", "--gamma", "3", "--seed", "1"], {"gamma": 3.0, "paths": 10_000}),
        (["verify-finite", "m.json"], {"mdp": "m.json"}),
        (["report", "a.csv", "b.csv"], {"csv": ["a.csv", "b.csv"]}),
        (["table", "--seed", "3"], {"set": 1, "gammas": [1.5, 3.0, 5.0], "paths_lower": 100,
                                    "paths_upper": 30, "runs": 10, "workers": 1, "out": None}),
    ])
    def test_prints_every_option_of_the_command(self, capsys, argv, expect):
        # No input file is read: the configuration is printed before the command runs.
        assert run_cli(*argv, "--print-config") == 0
        config = json.loads(capsys.readouterr().out)
        assert set(config) == {"command"} | _subparser_dests(argv[0]) - {"fn", "print_config"}
        assert config["command"] == argv[0]
        assert {key: config[key] for key in expect} == expect


class TestSolve:
    def test_writes_full_size_grid_and_prints_value(self, grid_file_set1, capsys):
        data = json.loads(Path(grid_file_set1).read_text())
        J = np.asarray(data["J"])
        assert J.shape == (11, 21)
        assert len(data["grid"]) == 21

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("solve", "--set", "1", "--gamma", "1.5",
                           "--grid-nodes", "5", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("gamma", ["10", "20"])
    def test_high_risk_aversion_solves(self, capsys, gamma):
        # The joint (pi, c) node solves failed at gamma 10 (stage k = 4) and
        # 20 (k = 8); the portfolio problems' objectives stay near 1/(1-gamma).
        assert run_cli("solve", "--set", "1", "--gamma", gamma, "--grid-nodes", "5") == 0
        value = float(re.search(r"= (.*)$", capsys.readouterr().out.strip()).group(1))
        assert np.isfinite(value) and value < 0.0

    def test_near_zero_risk_aversion_solves(self, capsys):
        # At gamma 1e-4 the stage's A^(1/gamma) and B^(1/gamma) underflow; the
        # scale-free closed form still gives the share and J.
        assert run_cli("solve", "--set", "1", "--gamma", "1e-4") == 0
        value = float(re.search(r"= (.*)$", capsys.readouterr().out.strip()).group(1))
        assert value == pytest.approx(0.56975, rel=1e-5)

    def test_value_out_of_float_range_exits_3_without_a_file(self, tmp_path, capsys):
        # At gamma 300 J overflows before stage 0.
        out = tmp_path / "g300.json"
        assert run_cli("solve", "--set", "1", "--gamma", "300", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: node solve failed at phi=")
        assert "non-finite value or policy" in err and not out.exists()

    def test_high_risk_aversion_upper_bound_flags_no_leg(self, tmp_path, capsys):
        grid = tmp_path / "g10.json"
        assert run_cli("solve", "--set", "1", "--gamma", "10", "--grid-nodes", "5", "--out", str(grid)) == 0
        assert run_cli("upper", "--grid", str(grid), "--penalty", "m1", "--seed", "1", "--paths", "4",
                       "--runs", "2", "--out", "-") == 0
        header, row = capsys.readouterr().out.strip().split("\n")[-2:]
        row = dict(zip(header.split(","), row.split(",")))
        assert row["gamma"] == "10.0" and row["flagged_paths"] == "0"
        assert np.isfinite(float(row["value_mean"]))

    def test_all_cash_closed_form_printed(self, tmp_path, capsys):
        params = market.parameter_set(1, gamma=1.5).to_dict()
        params["alpha"] = 0.0
        params["mu0"] = [0.01, 0.01, 0.01]
        params["mu1"] = [0.0, 0.0, 0.0]
        cfg = tmp_path / "cash.json"
        cfg.write_text(json.dumps(params))
        assert run_cli("solve", "--config", str(cfg), "--grid-nodes", "5",
                       "--out", str(tmp_path / "cash_grid.json")) == 0
        printed = capsys.readouterr().out
        value = float(re.search(r"= (.*)$", printed.strip()).group(1))
        R_f = 1.001
        expect = (R_f ** (1 - 1.5) * 1.0) ** 10 / (1 - 1.5)
        assert value == pytest.approx(expect, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bound", [("--grid-min", "nan"), ("--grid-max", "inf")])
    def test_non_finite_grid_exits_2(self, capsys, bound):
        assert run_cli("solve", "--set", "1", "--grid-nodes", "5", *bound) == 2
        assert "finite nodes" in capsys.readouterr().err

    def test_solve_loads_neither_scipy_nor_a_process_pool(self, tmp_path):
        # A fresh interpreter: this one has scipy and multiprocessing loaded by
        # other tests.  The bounds on the grid run too, and numpy.ma (loaded
        # lazily by, for one, np.unique) must stay out of the solver path.
        code = (
            "import sys\n"
            "from dualbound.cli import main\n"
            "grid = sys.argv[1]\n"
            "assert main(['solve', '--set', '1', '--grid-nodes', '5', '--out', grid]) == 0\n"
            "counts = ['--seed', '1', '--paths', '2', '--runs', '2', '--workers', '1', '--out', '-']\n"
            "assert main(['lower', '--grid', grid] + counts) == 0\n"
            "assert main(['upper', '--grid', grid, '--penalty', 'zero'] + counts) == 0\n"
            "loaded = [m for m in sys.modules if m.startswith(('scipy', 'multiprocessing'))\n"
            "          or m in ('numpy.ma', 'concurrent.futures.process')]\n"
            "sys.exit('loaded: ' + ' '.join(sorted(loaded)) if loaded else 0)\n"
        )
        src = str(Path(dualbound.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "g.json")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_neither_config_nor_set_exits_2(self, capsys):
        assert run_cli("solve", "--grid-nodes", "5") == 2
        assert "provide either --config FILE or --set ID" in capsys.readouterr().err

    def test_strict_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        data = market.parameter_set(1).to_dict()
        data["unexpected"] = 1
        cfg.write_text(json.dumps(data))
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "g.json")) == 2


class TestBounds:
    def test_lower_value_in_published_bracket(self, grid_file_set1, tmp_path):
        out = tmp_path / "lower.csv"
        assert run_cli("lower", "--grid", grid_file_set1, "--set", "1",
                       "--seed", "42", "--paths", "100", "--runs", "10",
                       "--out", str(out)) == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0].startswith("parameter_set,")
        value = float(rows[1].split(",")[4])
        assert -5.53 <= value <= -5.43

    def test_upper_zero_penalty_above_lower(self, grid_file_set1, tmp_path, capsys):
        assert run_cli("lower", "--grid", grid_file_set1, "--seed", "1",
                       "--paths", "20", "--runs", "2", "--out", "-") == 0
        lower_val = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[4])
        assert run_cli("upper", "--grid", grid_file_set1, "--penalty", "zero",
                       "--seed", "1", "--paths", "4", "--runs", "2", "--out", "-") == 0
        upper_val = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[4])
        assert upper_val > lower_val

    def test_upper_m2_flag_rate_below_one_percent(self, grid_file_set1, capsys):
        assert run_cli("upper", "--grid", grid_file_set1, "--penalty", "m2",
                       "--seed", "2", "--paths", "10", "--runs", "2", "--out", "-") == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        flagged, total = int(row[11]), 2 * 10 * 2
        assert flagged / total < 0.01

    def test_empty_out_file_gets_the_header(self, grid_file_set1, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        out.write_text("")
        assert run_cli("lower", "--grid", grid_file_set1, "--seed", "1",
                       "--paths", "2", "--runs", "2", "--out", str(out)) == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == ",".join(bounds.CSV_COLUMNS) and len(rows) == 2
        assert run_cli("report", str(out)) == 0

    def test_json_estimate_option(self, grid_file_set1, tmp_path):
        out = tmp_path / "est.json"
        assert run_cli("lower", "--grid", grid_file_set1, "--seed", "9",
                       "--paths", "5", "--runs", "2", "--out", "-",
                       "--json", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "lower" and len(data["run_means"]) == 2

    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("set_id, code, message", [
        ("7", 2, "unknown parameter set 7"),
        ("2", 4, "--set 2 does not match the grid file"),
    ])
    def test_set_checked_against_the_grid(self, grid_file_set1, capsys, which, set_id, code, message):
        assert run_cli(which, "--grid", grid_file_set1, "--set", set_id, "--seed", "1",
                       "--paths", "1", "--runs", "2", "--out", "-") == code
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_hash_mismatch_exits_4(self, grid_file_set1, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(market.parameter_set(2, gamma=1.5).to_json())
        assert run_cli("lower", "--grid", grid_file_set1, "--config", str(other),
                       "--seed", "0") == 4

    def test_config_with_integer_gamma_matches_its_grid(self, tmp_path):
        grid, cfg = tmp_path / "g.json", tmp_path / "p.json"
        assert run_cli("solve", "--set", "1", "--gamma", "3", "--grid-nodes", "5", "--out", str(grid)) == 0
        cfg.write_text(json.dumps({**market.parameter_set(1, gamma=3.0).to_dict(), "gamma": 3}))
        assert run_cli("lower", "--grid", str(grid), "--config", str(cfg), "--seed", "1",
                       "--paths", "2", "--runs", "2", "--out", "-") == 0

    def test_config_with_a_bool_weight_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({**market.parameter_set(1).to_dict(), "alpha": True}))
        assert run_cli("solve", "--config", str(cfg), "--grid-nodes", "5") == 2
        assert "alpha must be a number" in capsys.readouterr().err

    def test_gamma_mismatch_exits_4(self, grid_file_set1):
        assert run_cli("lower", "--grid", grid_file_set1, "--gamma", "3.0",
                       "--seed", "0") == 4

    def test_paths_beyond_one_key_word_exit_2_before_simulating(self, grid_file_set1, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("lower_bound ran")

        monkeypatch.setattr(bounds, "lower_bound", unreachable)
        assert run_cli("lower", "--grid", grid_file_set1, "--seed", "1",
                       "--paths", "4294967296", "--out", "-") == 2
        captured = capsys.readouterr()
        assert "paths_per_run and runs must be below 2**32" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--paths", "0", "--paths must be >= 1, got 0"),
        ("--runs", "1", "--runs must be >= 2, got 1"),
    ])
    def test_counts_below_their_least_value_exit_2_naming_the_option(self, grid_file_set1, capsys, which, flag,
                                                                     value, message):
        assert run_cli(which, "--grid", grid_file_set1, "--seed", "1", flag, value, "--out", "-") == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_seed_is_mandatory(self, grid_file_set1, capsys):
        assert run_cli("lower", "--grid", grid_file_set1) == 2

    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, grid_file_set1, capsys, which, workers):
        assert run_cli(which, "--grid", grid_file_set1, "--seed", "1", "--paths", "1",
                       "--runs", "2", "--workers", workers, "--out", "-") == 2
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err

    def test_upper_exits_3_naming_a_leg_without_a_finite_dual_value(self, grid_file_set1, monkeypatch, capsys):
        # Every leg's plan is withheld, lam_K too, so that each misses the
        # certificate and has no finite dual value.
        plan = dual._dual_plan

        def withheld(p, forms, ctxs):
            return tuple(np.full_like(a, np.nan) for a in plan(p, forms, ctxs))

        monkeypatch.setattr(dual, "_dual_plan", withheld)
        assert run_cli("upper", "--grid", grid_file_set1, "--penalty", "m1",
                       "--seed", "1", "--paths", "2", "--runs", "2", "--out", "-") == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: upper-bound path failed (seed=1, run=0, path=0): the inner problem's dual value is not finite"]
        assert captured.out == ""

    def test_workers_do_not_change_csv_bytes(self, grid_file_set1, tmp_path):
        outs = []
        for w in ("1", "4"):
            out = tmp_path / f"w{w}.csv"
            assert run_cli("upper", "--grid", grid_file_set1, "--penalty", "m1",
                           "--seed", "3", "--paths", "4", "--runs", "2",
                           "--workers", w, "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestFeasibilityCmd:
    def test_emits_passing_report(self, grid_file_set1, capsys):
        assert run_cli("feasibility", "--grid", grid_file_set1, "--penalty", "m1",
                       "--paths", "400", "--seed", "6", "--out", "-") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "m1" and report["passed"] is True

    def test_fewer_than_100_paths_exit_2(self, grid_file_set1, capsys):
        assert run_cli("feasibility", "--grid", grid_file_set1, "--paths", "50", "--seed", "1", "--out", "-") == 2
        assert "need at least 100 paths, got 50" in capsys.readouterr().err

    def test_negative_seed(self, grid_file_set1, capsys):
        assert run_cli("feasibility", "--grid", grid_file_set1, "--paths", "100",
                       "--seed", "-1", "--out", "-") == 0
        assert json.loads(capsys.readouterr().out)["n_pairs"] == 100


class TestVerifyFinite:
    def test_matching_mdp_passes_with_expected_triple(self, mdp_file, capsys):
        assert run_cli("verify-finite", mdp_file) == 0
        out = capsys.readouterr().out
        assert "V0                     = 0.5" in out
        assert "zero-penalty bound     = 1.0" in out
        assert "optimal-penalty bound  = 0.5" in out
        assert out.strip().endswith("pass")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(extra=1), "unknown FiniteMDP fields: ['extra']"),
        (lambda d: d.pop("horizon"), "missing FiniteMDP fields: ['horizon']"),
        (lambda d: d["transition"][0][0].__setitem__(0, 0.7), "transition entries must be integers"),
        (lambda d: d.update(initial_state=True), "initial_state must be a state index or label, got True"),
        (lambda d: d.update(initial_state="nope"),
         "initial_state 'nope' is not one of the states ['start', 'match', 'miss']"),
        (lambda d: d["outcome_probs"][0].__setitem__(0, float("nan")),
         "outcome probabilities must be nonnegative and sum to 1 per stage"),
        (lambda d: d["terminal_reward"].__setitem__(1, float("inf")), "stage_reward and terminal_reward must be finite"),
    ], ids=["unknown-key", "missing-key", "fractional-transition", "bool-initial-state", "unknown-initial-state",
            "nan-probability", "infinite-reward"])
    def test_malformed_mdp_exits_2(self, tmp_path, capsys, edit, message):
        data = matching_mdp().to_dict()
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run_cli("verify-finite", str(bad)) == 2
        assert message in capsys.readouterr().err

    def test_scenario_space_beyond_the_guard_exits_5(self, tmp_path, capsys):
        # One state, horizon 21 and two outcomes: 2**21 scenarios.
        mdp = finite_mdp.FiniteMDP(horizon=21, states=("s",), actions=("a",), outcomes=("o0", "o1"),
                                   outcome_probs=np.array([0.5, 0.5]), transition=np.zeros((1, 1, 2), dtype=int),
                                   stage_reward=np.zeros((21, 1, 1)), terminal_reward=np.zeros(1), initial_state=0)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(mdp.to_dict()))
        assert run_cli("verify-finite", str(path)) == 5
        assert "exceeds the enumeration guard" in capsys.readouterr().err

    def test_corrupt_json_exits_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"horizon": \n')
        assert run_cli("verify-finite", str(bad)) == 2
        assert "line" in capsys.readouterr().err


class TestReport:
    CSV = """parameter_set,gamma,bound_type,penalty,value_mean,value_stderr,ce_mean,ce_stderr,paths_per_run,runs,seed,flagged_paths
1,1.5,lower,none,-5.480,0.003,0.1332,0.0001,100,10,42,0
1,1.5,upper,m1,-5.391,0.008,0.1376,0.0004,30,10,42,0
1,1.5,upper,m2,-5.392,0.007,0.1376,0.0004,30,10,42,0
1,1.5,upper,zero,-4.861,0.012,0.1693,0.0008,30,10,42,0
1,3.0,lower,none,-42.887,0.036,0.1080,0.0001,100,10,42,0
"""

    def test_layout_and_min_gap_rule(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(self.CSV)
        assert run_cli("report", str(csv_path)) == 0
        out = capsys.readouterr().out
        assert "Lower Bound" in out and "Dual Bound 2" in out and "Duality Gap" in out
        # gap must use the tighter (m2) bound: (5.480 - 5.392) / 5.480 = 1.61%
        assert "1.61%" in out
        # CE columns scaled by 10: 0.1332 prints near 1.332
        assert "1.3320" in out

    def test_blocks_sort_by_set_number_then_gamma_value(self, tmp_path, capsys):
        # As strings, gamma 10.0 sorted before 3.0 and set 10 before set 2.
        rows = [f"{pset},{gamma},lower,none,-5.480,0.003,0.1332,0.0001,100,10,42,0"
                for pset in ("custom", "10", "2", "1") for gamma in ("10.0", "3.0", "1.5")]
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(self.CSV.splitlines()[0] + "\n" + "\n".join(rows) + "\n")
        assert run_cli("report", str(csv_path)) == 0
        blocks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("parameter_set=")]
        assert blocks == [f"parameter_set={pset} gamma={gamma}"
                          for pset in ("1", "2", "10", "custom") for gamma in ("1.5", "3.0", "10.0")]

    def test_zero_lower_bound_has_no_gap(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(self.CSV.replace("-5.480", "0.0"))
        assert run_cli("report", str(csv_path)) == 0
        block = capsys.readouterr().out.split("gamma=3.0")[0]
        assert "%" not in block.split("Value")[1].split("\n")[0]

    def test_gap_cells(self, tmp_path, capsys):
        # The right-aligned "Duality Gap" cells of each Value and CE line, byte for byte.
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(self.CSV + "2,1.5,lower,none,0.0,0.003,0.1332,0.0001,100,10,42,0\n"
                                       "2,1.5,upper,m1,-5.391,0.008,0.1376,0.0004,30,10,42,0\n")
        assert run_cli("report", str(csv_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = [line[-24:] for line in lines if line.startswith(("  Value", "  CE"))]
        assert cells == [f"{c:>24s}" for c in ("1.61%", "3.30%", "--", "--", "--", "--")]

    def test_missing_uppers_marked_absent_exit_zero(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(self.CSV)
        assert run_cli("report", str(csv_path)) == 0
        block = capsys.readouterr().out.split("gamma=3.0")[1]
        assert "--" in block


class TestExitCodes:
    def test_missing_grid_file(self, tmp_path):
        assert run_cli("lower", "--grid", str(tmp_path / "none.json"), "--seed", "0") == 2

    def test_missing_config_next_to_grid(self, grid_file_set1, tmp_path, capsys):
        assert run_cli("lower", "--grid", grid_file_set1, "--config", str(tmp_path / "none.json"),
                       "--seed", "1") == 2
        assert "config not found" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    @pytest.mark.parametrize("argv", [
        ("solve", "--config", "{dir}", "--grid-nodes", "5"),
        ("lower", "--grid", "{dir}", "--seed", "1"),
        ("lower", "--grid", "{grid}", "--config", "{dir}", "--seed", "1"),
        ("verify-finite", "{dir}"),
        ("report", "{dir}"),
    ])
    def test_directory_argument_exits_2(self, grid_file_set1, tmp_path, capsys, argv):
        args = [a.format(dir=tmp_path, grid=grid_file_set1) for a in argv]
        assert run_cli(*args) == 2
        assert "Is a directory" in capsys.readouterr().err

    UPPER = ("upper", "--grid", "{grid}", "--seed", "1", "--paths", "1", "--runs", "2")

    @pytest.mark.parametrize("argv", [
        UPPER + ("--out", "{missing}/x.csv"),
        UPPER + ("--out", "{dir}"),
        UPPER + ("--out", "{dir}/x.csv", "--json", "{missing}/x.json"),
        ("solve", "--set", "1", "--grid-nodes", "5", "--out", "{missing}/g.json"),
        ("feasibility", "--grid", "{grid}", "--seed", "1", "--paths", "100", "--out", "{missing}/f.json"),
        ("gen-params", "1", "--out", "{missing}/p.json"),
        ("report", "{csv}", "--out", "{dir}"),
        ("table", "--seed", "1", "--gammas", "1.5", "--paths-lower", "2", "--paths-upper", "1", "--runs", "2",
         "--out", "{missing}/t.csv"),
    ])
    def test_unwritable_output_exits_2(self, grid_file_set1, tmp_path, capsys, argv):
        # {missing} is a directory that does not exist, {dir} a directory.
        csv_file = tmp_path / "t.csv"
        csv_file.write_text(",".join(bounds.CSV_COLUMNS) + "\n")
        args = [a.format(dir=tmp_path, grid=grid_file_set1, missing=tmp_path / "none", csv=csv_file)
                for a in argv]
        assert run_cli(*args) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("r_f", [-9.995, -9.99999999999])
    def test_gross_riskfree_rate_near_zero(self, tmp_path, capsys, r_f):
        # R_f = 1 + r_f * delta is 5e-4, then 1e-12.  The portfolio start,
        # the simplex centre, is strictly feasible for any R_f > 0; the joint
        # (pi, c) start min(1, R_f) / (n + 2) broke the growth guards at 1e-12.
        params = market.parameter_set(1, gamma=1.5).to_dict()
        params.update(r_f=r_f, K=2)
        cfg, grid_file = tmp_path / "low_rf.json", tmp_path / "low_rf_grid.json"
        cfg.write_text(json.dumps(params))
        assert run_cli("solve", "--config", str(cfg), "--grid-nodes", "5", "--out", str(grid_file)) == 0
        assert "Traceback" not in capsys.readouterr().err
        vg, p = dp_solver.load_value_grid(str(grid_file))
        # Each stage's joint node solves, from pi_j = 1/(n + 2), c = R_f/(n + 2),
        # on the grid's own J_{k+1}.  At R_f = 1e-12 they stop uncertified at
        # the barrier weight cap, but at feasible points, whose objective is
        # at most the optimum J_k and here within 1e-13 of it.
        quad = dp_solver.build_quadrature(3, p.n)
        X0 = np.tile(np.append(np.full(p.n, 1.0), p.R_f) / (p.n + 2), (vg.grid.size, 1))
        for k in range(p.K):
            f = np.array([sol.f for sol in joint_stage(p, vg.grid, quad, vg.J[k + 1], X0)])
            assert (f <= vg.J[k] + 1e-13 * np.abs(vg.J[k])).all()
            np.testing.assert_allclose(f, vg.J[k], rtol=1e-13, atol=0.0)

    def test_node_failure_exits_3(self, monkeypatch, capsys):
        # No portfolio problem certifies a KKT residual of 1e-20.
        monkeypatch.setattr(dp_solver, "NODE_TOL", 1e-20)
        assert run_cli("solve", "--set", "1", "--grid-nodes", "5") == 3
        err = capsys.readouterr().err
        assert "node solve failed at phi=-2 (status=max_iter)" in err and "Traceback" not in err

    def test_upper_run_mean_of_the_wrong_sign_exits_3(self, tmp_path, capsys):
        # At gamma 20 the m2 penalty's spread gives this small bound a
        # positive run mean, which has no certainty equivalent.
        grid = str(tmp_path / "g20.json")
        assert run_cli("solve", "--set", "1", "--gamma", "20", "--out", grid) == 0
        capsys.readouterr()
        assert run_cli("upper", "--grid", grid, "--penalty", "m2", "--seed", "42", "--paths", "8",
                       "--runs", "4") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: upper bound: run 1 has mean 1\.\d+e\+16, of the wrong sign: "
                            r"\(1-gamma\)\*value = -3\.\d+e\+17 must be positive for the CE transform\n", captured.err)

    def test_upper_bound_finite_at_small_gross_riskfree_rate(self, tmp_path, capsys):
        # R_f = 5e-4: an inner start that consumed a fixed 1e-3 of wealth broke
        # the budget, so every leg was infeasible and the mean was -inf.
        params = market.parameter_set(1, gamma=1.5).to_dict()
        params.update(r_f=-9.995, K=2)
        cfg = tmp_path / "low_rf.json"
        cfg.write_text(json.dumps(params))
        grid = tmp_path / "low_rf_grid.json"
        assert run_cli("solve", "--config", str(cfg), "--grid-nodes", "5", "--out", str(grid)) == 0
        capsys.readouterr()
        assert run_cli("upper", "--grid", str(grid), "--penalty", "m1",
                       "--seed", "1", "--paths", "4", "--runs", "2", "--out", "-") == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert np.isfinite(float(row[4])) and np.isfinite(float(row[5]))

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe", "bad csv: 'utf-8' codec can't decode"),
        (b"a,b\n1,2\n", "bad csv: missing columns ['parameter_set'"),
        (TestReport.CSV.replace("-5.480", "n/a").encode(), "bad csv: could not convert string to float"),
    ], ids=["non-utf8", "no-bound-header", "non-numeric-mean"])
    def test_unreadable_report_csv_exits_2(self, tmp_path, capsys, content, message):
        csv_path = tmp_path / "t.csv"
        csv_path.write_bytes(content)
        assert run_cli("report", str(csv_path)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_solve_config_with_invalid_gamma_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "p.json"
        cfg.write_text(market.parameter_set(1).to_json())
        assert run_cli("solve", "--config", str(cfg), "--gamma", "1", "--grid-nodes", "5") == 2
        assert "bad --gamma: gamma must be positive and != 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("K", 10.5), ("K", True), ("n", 3.5)])
    def test_solve_config_with_non_integral_count_exits_2(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({**market.parameter_set(1).to_dict(), field: value}))
        assert run_cli("solve", "--config", str(cfg), "--grid-nodes", "5") == 2
        err = capsys.readouterr().err
        assert f"{field} must be an integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("gen-params", "1", "--gamma", "inf"),
        ("solve", "--set", "1", "--gamma", "inf", "--grid-nodes", "5"),
        ("solve", "--set", "1", "--gamma", "nan", "--grid-nodes", "5"),
    ])
    def test_non_finite_gamma_exits_2(self, capsys, argv):
        # gen-params wrote `"gamma": Infinity`, not JSON, and solve exited 3.
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "gamma must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["delta", "mu0"])
    def test_config_with_an_infinite_entry_exits_2(self, tmp_path, capsys, field):
        data = market.parameter_set(1).to_dict()
        if field == "mu0":
            data["mu0"][0] = float("inf")
        else:
            data[field] = float("inf")
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps(data))   # Python's json writes and reads Infinity
        assert run_cli("solve", "--config", str(cfg), "--grid-nodes", "5") == 2
        err = capsys.readouterr().err
        assert f"bad config: {field} must" in err and "Traceback" not in err

    def test_solve_grid_beyond_memory_exits_5(self, capsys):
        # numpy refuses the 800 GB grid at once, allocating nothing.
        assert run_cli("solve", "--set", "1", "--grid-nodes", "100000000000") == 5
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_solve_negative_grid_nodes_exits_2(self, capsys):
        assert run_cli("solve", "--set", "1", "--grid-nodes", "-1") == 2
        assert "must be non-negative" in capsys.readouterr().err

    def test_grid_file_without_a_json_object_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        assert run_cli("lower", "--grid", str(bad), "--seed", "1") == 2
        assert "bad grid file: value-grid file must hold a JSON object" in capsys.readouterr().err

    def test_malformed_grid_file_exits_2(self, grid_file_set1, tmp_path, capsys):
        data = json.loads(Path(grid_file_set1).read_text())
        data["grid"] = data["grid"][::-1]
        bad = tmp_path / "bad_grid.json"
        bad.write_text(json.dumps(data))
        assert run_cli("lower", "--grid", str(bad), "--seed", "1") == 2
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, index, value", [
        ("policy_c", (3, 10), float("nan")),
        ("J", (2, 10), float("nan")),
        ("policy_pi", (0, 4, 1), float("inf")),
        ("J", (10, 0), float("-inf")),
    ])
    @pytest.mark.parametrize("argv", [
        ("lower", "--paths", "4", "--runs", "2"),
        ("upper", "--penalty", "m1", "--paths", "2", "--runs", "2"),
        ("feasibility", "--paths", "100"),
    ], ids=["lower", "upper", "feasibility"])
    def test_non_finite_grid_entries_exit_2(self, grid_file_set1, tmp_path, capsys, argv, field, index, value):
        # json reads NaN and Infinity; before the loader rejected them, a NaN
        # in policy_c gave `lower` a row of nan and a NaN in J made `upper`
        # exit 3 on an infeasible inner start.
        data = json.loads(Path(grid_file_set1).read_text())
        entries = np.asarray(data[field])
        entries[index] = value
        data[field] = entries.tolist()
        bad = tmp_path / "non_finite_grid.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out.csv"
        assert run_cli(argv[0], "--grid", str(bad), "--seed", "1", *argv[1:], "--out", str(out)) == 2
        assert f"value-grid file is corrupt: {field} has non-finite entries" in capsys.readouterr().err
        assert not out.exists()


class TestTable:
    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "0", "--workers must be >= 1, got 0"),
        ("--runs", "1", "--runs must be >= 2, got 1"),
        ("--paths-lower", "0", "--paths-lower must be >= 1, got 0"),
        ("--paths-upper", "0", "--paths-upper must be >= 1, got 0"),
    ], ids=["--workers", "--runs", "--paths-lower", "--paths-upper"])
    def test_rejects_out_of_range_counts_with_exit_2(self, monkeypatch, capsys, flag, value, message):
        monkeypatch.setattr(dp_solver, "backward_recursion", lambda *args, **kwargs: pytest.fail("grid solved"))
        assert run_cli("table", "--seed", "1", "--gammas", "1.5", "3", flag, value, "--out", "-") == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_node_failure_exits_3(self, monkeypatch, capsys):
        def fail(p, *args, **kwargs):
            raise dp_solver.NodeSolveError(0.5, "max_iter")

        monkeypatch.setattr(dp_solver, "backward_recursion", fail)
        assert run_cli("table", "--seed", "1", "--out", "-") == 3
        captured = capsys.readouterr()
        assert "node solve failed at phi=0.5 (status=max_iter)" in captured.err
        assert captured.out == ""

    def test_equals_solve_lower_upper_and_report(self, tmp_path, capsys):
        table_csv, chain_csv, grid = tmp_path / "table.csv", tmp_path / "chain.csv", tmp_path / "g.json"
        assert run_cli("table", "--set", "1", "--gammas", "1.5", "--seed", "9", "--paths-lower", "4",
                       "--paths-upper", "2", "--runs", "2", "--out", str(table_csv)) == 0
        table_report = capsys.readouterr().out
        assert run_cli("solve", "--set", "1", "--gamma", "1.5", "--out", str(grid)) == 0
        common = ("--grid", str(grid), "--set", "1", "--seed", "9", "--runs", "2", "--out", str(chain_csv))
        assert run_cli("lower", *common, "--paths", "4") == 0
        for kind in ("m1", "m2", "zero"):
            assert run_cli("upper", *common, "--paths", "2", "--penalty", kind) == 0
        capsys.readouterr()
        assert table_csv.read_bytes() == chain_csv.read_bytes()
        assert run_cli("report", str(chain_csv)) == 0
        assert table_report == capsys.readouterr().out
