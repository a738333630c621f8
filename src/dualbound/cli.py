"""Batch command-line front-end.

Commands: gen-params, solve, lower, upper, feasibility, verify-finite, report.
Every command is deterministic given its arguments; bound commands require an
explicit --seed.  Exit codes: 0 success, 2 input error, 3 solve failure,
4 consistency failure, 5 resource guard.
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
    if args.debug_solver:
        import logging

        logging.basicConfig(stream=sys.stderr)
        logging.getLogger("dualbound.dp_solver").setLevel(logging.DEBUG)
    params = _load_params(args)
    if not (math.isfinite(args.grid_min) and math.isfinite(args.grid_max)):
        raise CliError(EXIT_INPUT, "the grid needs finite nodes: got --grid-min "
                                   f"{args.grid_min!r}, --grid-max {args.grid_max!r}")
    try:
        grid = np.linspace(args.grid_min, args.grid_max, args.grid_nodes)
        quad = dp_solver.build_quadrature(args.quad, params.n)
        vg = dp_solver.backward_recursion(params, grid=grid, quad=quad)
    except dp_solver.NodeSolveError as exc:
        raise CliError(EXIT_SOLVE, str(exc))
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


def cmd_bound(args) -> int:
    """Run `lower` or `upper`, whichever command was given."""
    if args.workers < 1:
        raise CliError(EXIT_INPUT, f"--workers must be >= 1, got {args.workers}")
    vg, params = _load_grid(args)
    try:
        cfg = bounds.RunConfig(
            paths_per_run=args.paths,
            runs=args.runs,
            seed=args.seed,
            antithetic=not args.no_antithetic,
            penalty_kind=getattr(args, "penalty", "zero"),
            gamma=params.gamma,
            parameter_set_id=args.set,
        )
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc))
    fn = bounds.lower_bound if args.command == "lower" else bounds.upper_bound
    try:
        est = fn(params, vg, cfg, workers=args.workers)
    except bounds.PathError as exc:
        raise CliError(EXIT_SOLVE, str(exc))
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
    try:
        report = finite_mdp.verify_duality(mdp, raise_on_failure=False)
    except finite_mdp.EnumerationGuardError as exc:
        raise CliError(EXIT_GUARD, str(exc))
    print(f"V0                     = {report.v0!r}")
    print(f"zero-penalty bound     = {report.zero_penalty_bound!r}")
    print(f"optimal-penalty bound  = {report.optimal_penalty_bound!r}")
    print(f"E[M*] (argmax policy)  = {report.expected_optimal_penalty!r}")
    for name, ok in report.checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print("pass" if report.passed else "fail")
    return EXIT_OK if report.passed else EXIT_CONSISTENCY


def _fmt(mean, stderr, scale=1.0, digits=4):
    if mean is None:
        return "--"
    if stderr is None:
        return f"{mean * scale:.{digits}f}"
    return f"{mean * scale:.{digits}f} ({stderr * scale:.{digits}f})"


def _bound_rows(fh) -> list:
    """Rows of a bound CSV, which must carry every `bounds.CSV_COLUMNS` column
    and numeric means and standard errors."""
    reader = csv.DictReader(fh)
    missing = [col for col in bounds.CSV_COLUMNS if col not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"missing columns {missing}")
    rows = list(reader)
    for row in rows:
        for col in ("value_mean", "value_stderr", "ce_mean", "ce_stderr"):
            float(row[col])
    return rows


def cmd_report(args) -> int:
    rows = []
    for path in args.csv:
        rows.extend(_read_input(path, "csv", _bound_rows))
    groups: dict = {}
    for row in rows:
        key = (row["parameter_set"], row["gamma"])
        slot = ("lower" if row["bound_type"] == "lower" else row["penalty"])
        groups.setdefault(key, {})[slot] = row
    col_heads = [("lower", "Lower Bound"), ("m1", "Dual Bound 1"),
                 ("m2", "Dual Bound 2"), ("zero", "Zero Penalty")]
    lines = []
    for (pset, gamma), slots in sorted(groups.items()):
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
            lo_v, lo_c = float(lower["value_mean"]), float(lower["ce_mean"])
            gap_v = (min(float(u["value_mean"]) for u in uppers) - lo_v) / abs(lo_v)
            gap_c = (min(float(u["ce_mean"]) for u in uppers) - lo_c) / abs(lo_c)
            vals += f"{gap_v * 100:>23.2f}%"
            ces += f"{gap_c * 100:>23.2f}%"
        else:
            vals += f"{'--':>24s}"
            ces += f"{'--':>24s}"
        lines.extend([vals, ces, ""])
    _write_text(args.out, "\n".join(lines) + "\n")
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
    sp.add_argument("--grid-nodes", type=int, default=21)
    sp.add_argument("--grid-min", type=float, default=-2.0)
    sp.add_argument("--grid-max", type=float, default=2.0)
    sp.add_argument("--quad", type=int, default=3, help="quadrature points per dimension")
    sp.add_argument("--debug-solver", action="store_true",
                    help="log one line per node (k, phi, Newton steps, status, KKT residual) to stderr")
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
    except finite_mdp.EnumerationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
