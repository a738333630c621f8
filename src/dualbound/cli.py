"""Batch command-line front-end.

Commands: gen-params, solve, lower, upper, feasibility, verify-finite, report,
table.  Every command is deterministic given its arguments; bound commands
require an explicit --seed.  Exit codes: 0 success, 2 input error, 3 solve
failure, 4 consistency failure, 5 resource guard.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import bounds, dp_solver, finite_mdp, penalties
from .market import ModelParams, parameter_set

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVE = 3
EXIT_CONSISTENCY = 4
EXIT_GUARD = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _write_file(path, text, mode="w"):
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot write {path}: {exc}")


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_file(path, text)


def _read_input(path, what: str, parse):
    """parse(fh) of the text file at path.  A missing, unreadable or malformed
    file is an input error named after `what`: "<what> not found", "cannot
    read <what>", "<what> is not valid JSON" or "bad <what>"."""
    try:
        with open(path) as fh:
            return parse(fh)
    except FileNotFoundError as exc:
        raise CliError(EXIT_INPUT, f"{what} not found: {exc}")
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INPUT, f"{what} is not valid JSON: {exc}")
    except (ValueError, TypeError, KeyError, csv.Error) as exc:
        raise CliError(EXIT_INPUT, f"bad {what}: {exc}")


def _read_config(path) -> ModelParams:
    return _read_input(path, "config", lambda fh: ModelParams.from_dict(json.load(fh)))


def _published(set_id, gamma) -> ModelParams:
    try:
        return parameter_set(set_id, gamma=gamma)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc))


def _load_params(args) -> ModelParams:
    """Resolve ModelParams from --config (strict JSON) or --set [+ --gamma]."""
    if getattr(args, "config", None):
        params = _read_config(args.config)
        if getattr(args, "gamma", None) is not None and args.gamma != params.gamma:
            try:
                params = ModelParams.from_dict({**params.to_dict(), "gamma": args.gamma})
            except ValueError as exc:
                raise CliError(EXIT_INPUT, f"bad --gamma: {exc}")
        return params
    if getattr(args, "set", None) is not None:
        return _published(args.set, args.gamma if args.gamma is not None else 1.5)
    raise CliError(EXIT_INPUT, "provide either --config FILE or --set ID")


def _load_grid(args):
    vg, params = _read_input(args.grid, "grid file", lambda fh: dp_solver.value_grid_from_dict(json.load(fh)))
    if getattr(args, "config", None):
        if _read_config(args.config).content_hash() != params.content_hash():
            raise CliError(EXIT_CONSISTENCY,
                           "params hash mismatch between --config and the grid file")
    if getattr(args, "gamma", None) is not None and args.gamma != params.gamma:
        raise CliError(EXIT_CONSISTENCY,
                       f"--gamma {args.gamma} does not match the grid file (gamma={params.gamma})")
    if getattr(args, "set", None) is not None:
        if _published(args.set, params.gamma).content_hash() != params.content_hash():
            raise CliError(EXIT_CONSISTENCY, f"--set {args.set} does not match the grid file's parameters")
    return vg, params


def cmd_gen_params(args) -> int:
    _write_text(args.out, _published(args.set, args.gamma).to_json() + "\n")
    return EXIT_OK


def cmd_solve(args) -> int:
    params = _load_params(args)
    if not (math.isfinite(args.grid_min) and math.isfinite(args.grid_max)):
        raise CliError(EXIT_INPUT, "the grid needs finite nodes: got --grid-min "
                                   f"{args.grid_min!r}, --grid-max {args.grid_max!r}")
    try:
        grid = np.linspace(args.grid_min, args.grid_max, args.grid_nodes)
        quad = dp_solver.build_quadrature(args.quad, params.n)
        vg = dp_solver.backward_recursion(params, grid=grid, quad=quad)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc))
    if args.out:
        try:
            dp_solver.save_value_grid(args.out, vg, params)
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot write {args.out}: {exc}")
    print(f"J_0(phi0={params.phi0:g}) = {dp_solver.interpolate_J(vg, 0, params.phi0)!r}")
    return EXIT_OK


def _emit_csv(args, estimate) -> None:
    """Append the estimate's row to --out, with the header when the file is
    missing or empty; write both to stdout for '-' or no --out."""
    if args.out is None or args.out == "-":
        sys.stdout.write(bounds.csv_rows([estimate], header=True))
    else:
        new_file = not os.path.exists(args.out) or os.path.getsize(args.out) == 0
        _write_file(args.out, bounds.csv_rows([estimate], header=new_file), mode="a")


def _run_config(args, params: ModelParams, paths_flag: str, penalty: str = "zero") -> bounds.RunConfig:
    """The RunConfig of one bound on params from the paths option paths_flag
    (such as "--paths"), --runs, --seed and --set.  Counts below their
    least value, named by their option, and the values RunConfig rejects
    are input errors."""
    paths = getattr(args, paths_flag[2:].replace("-", "_"))
    for flag, value, least in (("--workers", args.workers, 1), (paths_flag, paths, 1), ("--runs", args.runs, 2)):
        if value < least:
            raise CliError(EXIT_INPUT, f"{flag} must be >= {least}, got {value}")
    try:
        return bounds.RunConfig(
            paths_per_run=paths,
            runs=args.runs,
            seed=args.seed,
            antithetic=not getattr(args, "no_antithetic", False),
            penalty_kind=penalty,
            gamma=params.gamma,
            parameter_set_id=args.set,
        )
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc))


def cmd_bound(args) -> int:
    """Run `lower` or `upper`, whichever command was given."""
    vg, params = _load_grid(args)
    cfg = _run_config(args, params, "--paths", getattr(args, "penalty", "zero"))
    fn = bounds.lower_bound if args.command == "lower" else bounds.upper_bound
    est = fn(params, vg, cfg, workers=args.workers)
    _emit_csv(args, est)
    if args.json:
        _write_file(args.json, json.dumps(est.to_dict(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_feasibility(args) -> int:
    vg, params = _load_grid(args)
    try:
        report = penalties.feasibility_check(args.penalty, params, vg,
                                             n_paths=args.paths, seed=args.seed)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc))
    _write_text(args.out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify_finite(args) -> int:
    mdp = _read_input(args.mdp, "mdp file", lambda fh: finite_mdp.FiniteMDP.from_json(fh.read()))
    report = finite_mdp.verify_duality(mdp, raise_on_failure=False)
    print(f"V0                     = {report.v0!r}")
    print(f"zero-penalty bound     = {report.zero_penalty_bound!r}")
    print(f"optimal-penalty bound  = {report.optimal_penalty_bound!r}")
    print(f"E[M*] (argmax policy)  = {report.expected_optimal_penalty!r}")
    for name, ok in report.checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print("pass" if report.passed else "fail")
    return EXIT_OK if report.passed else EXIT_CONSISTENCY


def _fmt(mean, stderr, scale=1.0):
    return f"{mean * scale:.4f} ({stderr * scale:.4f})"


def _bound_rows(fh) -> list:
    """Rows of a bound CSV, which must carry every `bounds.CSV_COLUMNS` column
    and numeric gammas, means and standard errors."""
    reader = csv.DictReader(fh)
    missing = [col for col in bounds.CSV_COLUMNS if col not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"missing columns {missing}")
    rows = list(reader)
    for row in rows:
        for col in ("gamma", "value_mean", "value_stderr", "ce_mean", "ce_stderr"):
            float(row[col])
    return rows


def _block_order(pset: str, gamma: str) -> tuple:
    """Report blocks by set number, other set labels such as `custom` last,
    then by gamma's value."""
    return not pset.isdecimal(), int(pset) if pset.isdecimal() else pset, float(gamma)


def _report_text(rows) -> str:
    """Side-by-side table of bound CSV rows, one block per parameter set and
    gamma (in `_block_order`): lower bound, m1, m2 and zero upper bounds and
    the duality gap."""
    groups: dict = {}
    for row in rows:
        key = (row["parameter_set"], row["gamma"])
        slot = ("lower" if row["bound_type"] == "lower" else row["penalty"])
        groups.setdefault(key, {})[slot] = row
    col_heads = [("lower", "Lower Bound"), ("m1", "Dual Bound 1"),
                 ("m2", "Dual Bound 2"), ("zero", "Zero Penalty")]
    lines = []
    for (pset, gamma), slots in sorted(groups.items(), key=lambda item: _block_order(*item[0])):
        lines.append(f"parameter_set={pset} gamma={gamma}")
        header = f"  {'':14s}" + "".join(f"{h:>28s}" for _, h in col_heads) + f"{'Duality Gap':>24s}"
        lines.append(header)
        vals = f"  {'Value':14s}"
        ces = f"  {'CE(1e-1)':14s}"
        for slot, _ in col_heads:
            row = slots.get(slot)
            if row is None:
                vals += f"{'--':>28s}"
                ces += f"{'--':>28s}"
            else:
                vals += f"{_fmt(float(row['value_mean']), float(row['value_stderr'])):>28s}"
                ces += f"{_fmt(float(row['ce_mean']), float(row['ce_stderr']), scale=10.0):>28s}"
        lower = slots.get("lower")
        uppers = [slots[s] for s in ("m1", "m2") if s in slots]
        # The gap is relative to the lower bound, so a zero lower bound has none.
        if lower is not None and uppers and 0.0 not in (float(lower["value_mean"]), float(lower["ce_mean"])):
            gap_v = bounds.gap_fraction(float(lower["value_mean"]), [float(u["value_mean"]) for u in uppers])
            gap_c = bounds.gap_fraction(float(lower["ce_mean"]), [float(u["ce_mean"]) for u in uppers])
            vals += f"{gap_v * 100:>23.2f}%"
            ces += f"{gap_c * 100:>23.2f}%"
        else:
            vals += f"{'--':>24s}"
            ces += f"{'--':>24s}"
        lines.extend([vals, ces, ""])
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    rows = []
    for path in args.csv:
        rows.extend(_read_input(path, "csv", _bound_rows))
    _write_text(args.out, _report_text(rows))
    return EXIT_OK


def cmd_table(args) -> int:
    """For each of --gammas: solve the default grid of --set, estimate the
    lower bound and the m1, m2 and zero upper bounds.  Writes the CSV of all
    rows to --out, then prints their report; progress lines go to stderr.
    Every parameter set, gamma and count is checked before any grid solve."""
    import time

    plan = []
    for gamma in args.gammas:
        params = _published(args.set, gamma)
        jobs = [("lower", bounds.lower_bound, _run_config(args, params, "--paths-lower"))]
        jobs += [(f"upper {kind}", bounds.upper_bound, _run_config(args, params, "--paths-upper", kind))
                 for kind in ("m1", "m2", "zero")]
        plan.append((params, jobs))
    estimates = []
    for params, jobs in plan:
        start = time.perf_counter()
        vg = dp_solver.backward_recursion(params)
        print(f"[set {args.set} gamma {params.gamma}] grid solved in {time.perf_counter() - start:.1f}s, "
              f"J_0(0) = {dp_solver.interpolate_J(vg, 0, 0.0):.4f}", file=sys.stderr)
        for label, fn, cfg in jobs:
            start = time.perf_counter()
            est = fn(params, vg, cfg, workers=args.workers)
            print(f"  {label:<12} {est.mean:.4f} ({est.stderr:.4f})  CE {est.ce_mean:.4f}  "
                  f"flagged {est.flagged_paths}/{est.total_paths}  [{time.perf_counter() - start:.1f}s]",
                  file=sys.stderr)
            estimates.append(est)
    text = bounds.csv_rows(estimates)
    _write_text(args.out, text)
    sys.stdout.write(_report_text(_bound_rows(text.splitlines())))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualbound",
        description="Lower bounds (policy simulation) and dual upper bounds "
                    "(perfect-foresight inner problems with penalties) for the "
                    "discretized consumption-investment problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, seed_required=False):
        sp.add_argument("--out", default=None, help="output path ('-' for stdout)")
        sp.add_argument("--print-config", action="store_true",
                        help="print the effective configuration and exit")
        if seed_required:
            sp.add_argument("--seed", type=int, required=True,
                            help="random seed (mandatory; no wall-clock seeding)")

    sp = sub.add_parser("gen-params", help="export a published parameter set as JSON")
    sp.add_argument("set", type=int)
    sp.add_argument("--gamma", type=float, default=1.5)
    add_common(sp)
    sp.set_defaults(fn=cmd_gen_params)

    sp = sub.add_parser("solve", help="run the grid recursion and save the value grid")
    sp.add_argument("--config", default=None, help="ModelParams JSON (strict schema)")
    sp.add_argument("--set", type=int, default=None, help="published parameter set id")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--grid-nodes", type=int, default=len(dp_solver.DEFAULT_GRID))
    sp.add_argument("--grid-min", type=float, default=float(dp_solver.DEFAULT_GRID[0]))
    sp.add_argument("--grid-max", type=float, default=float(dp_solver.DEFAULT_GRID[-1]))
    sp.add_argument("--quad", type=int, default=dp_solver.DEFAULT_QUAD_POINTS,
                    help="quadrature points per dimension")
    add_common(sp)
    sp.set_defaults(fn=cmd_solve)

    for which in ("lower", "upper"):
        sp = sub.add_parser(which, help=f"estimate the {which} bound, appending CSV rows")
        sp.add_argument("--grid", required=True, help="value-grid JSON from `solve`")
        sp.add_argument("--config", default=None, help="optional params JSON checked against the grid")
        sp.add_argument("--gamma", type=float, default=None,
                        help="consistency check against the grid's gamma")
        sp.add_argument("--set", type=int, default=None,
                        help="published parameter set id of the grid, echoed into the CSV")
        if which == "upper":
            sp.add_argument("--penalty", choices=penalties.PENALTY_KINDS, default="m1")
        sp.add_argument("--paths", type=int, default=100 if which == "lower" else 30,
                        help="paths per run (antithetic pairs when antithetics are on)")
        sp.add_argument("--runs", type=int, default=10)
        sp.add_argument("--no-antithetic", action="store_true")
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--json", default=None,
                        help="also write the full estimate (run means included) as JSON")
        add_common(sp, seed_required=True)
        sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("feasibility", help="Monte Carlo zero-mean check of a penalty")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--config", default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--penalty", choices=penalties.PENALTY_KINDS, default="m1")
    sp.add_argument("--paths", type=int, default=10_000, help="antithetic pairs to sample")
    add_common(sp, seed_required=True)
    sp.set_defaults(fn=cmd_feasibility)

    sp = sub.add_parser("verify-finite", help="exact duality checks on a finite MDP JSON")
    sp.add_argument("mdp")
    add_common(sp)
    sp.set_defaults(fn=cmd_verify_finite)

    sp = sub.add_parser("report", help="format bound CSVs as side-by-side tables")
    sp.add_argument("csv", nargs="+")
    add_common(sp)
    sp.set_defaults(fn=cmd_report)

    sp = sub.add_parser("table", help="solve, bound and report one parameter set across risk aversions")
    sp.add_argument("--set", type=int, default=1, help="published parameter set id")
    sp.add_argument("--gammas", type=float, nargs="+", default=[1.5, 3.0, 5.0])
    sp.add_argument("--paths-lower", type=int, default=100, help="antithetic pairs per run of the lower bound")
    sp.add_argument("--paths-upper", type=int, default=30, help="antithetic pairs per run of each upper bound")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--workers", type=int, default=1)
    add_common(sp, seed_required=True)
    sp.set_defaults(fn=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if args.print_config:
        config = {k: v for k, v in vars(args).items() if k not in ("fn", "print_config")}
        print(json.dumps(config, indent=2, sort_keys=True))
        return EXIT_OK
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (dp_solver.NodeSolveError, bounds.PathError, bounds.EstimateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    except finite_mdp.EnumerationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
