#!/usr/bin/env python3
"""Reproduce one full results table: lower bound, both dual bounds, zero
penalty, and duality gaps for a parameter set across risk aversions.

Desk-scale defaults match the published protocol (lower: 100 antithetic
pairs x 10 runs; upper: 30 pairs x 10 runs).  Writes a CSV of all bound rows
plus a formatted table, e.g.

    python scripts/run_table.py --set 1 --seed 42 --out-dir results/
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualbound import bounds, dp_solver, market  # noqa: E402
from dualbound.cli import main as cli_main  # noqa: E402


def run(set_id, gammas, seed, paths_lower, paths_upper, runs, workers, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"table_set{set_id}.csv"
    if csv_path.exists():
        csv_path.unlink()
    estimates = []
    for gamma in gammas:
        p = market.parameter_set(set_id, gamma=gamma)
        t0 = time.time()
        vg = dp_solver.backward_recursion(p)
        print(f"[set {set_id} gamma {gamma}] grid solved in {time.time() - t0:.1f}s, "
              f"J_0(0) = {dp_solver.interpolate_J(vg, 0, 0.0):.4f}")

        cfg = bounds.RunConfig(paths_per_run=paths_lower, runs=runs, seed=seed,
                               gamma=gamma, parameter_set_id=set_id)
        lo = bounds.lower_bound(p, vg, cfg, workers=workers)
        print(f"  lower        {lo.mean:.4f} ({lo.stderr:.4f})  CE {lo.ce_mean:.4f}")
        estimates.append(lo)

        for kind in ("m1", "m2", "zero"):
            cfg = bounds.RunConfig(paths_per_run=paths_upper, runs=runs, seed=seed,
                                   penalty_kind=kind, gamma=gamma, parameter_set_id=set_id)
            t0 = time.time()
            up = bounds.upper_bound(p, vg, cfg, workers=workers)
            print(f"  upper {kind:<5}  {up.mean:.4f} ({up.stderr:.4f})  CE {up.ce_mean:.4f}  "
                  f"flagged {up.flagged_paths}/{up.total_paths}  [{time.time() - t0:.0f}s]")
            estimates.append(up)

    with open(csv_path, "w") as fh:
        fh.write(bounds.csv_rows(estimates))
    print(f"\nwrote {csv_path}")
    cli_main(["report", str(csv_path)])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--set", type=int, default=1, choices=market.PARAMETER_SET_IDS)
    ap.add_argument("--gammas", type=float, nargs="+", default=[1.5, 3.0, 5.0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--paths-lower", type=int, default=100)
    ap.add_argument("--paths-upper", type=int, default=30)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    args = ap.parse_args()
    for flag, value, least in (("--workers", args.workers, 1), ("--runs", args.runs, 2),
                               ("--paths-lower", args.paths_lower, 1), ("--paths-upper", args.paths_upper, 1)):
        if value < least:
            ap.error(f"{flag} must be >= {least}, got {value}")
    run(args.set, args.gammas, args.seed, args.paths_lower, args.paths_upper,
        args.runs, args.workers, args.out_dir)


if __name__ == "__main__":
    main()
