"""Benchmark of the dualbound pipeline; run from the root of a source checkout.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 10 --trace 0

Workloads: grid-sweep, dual-bound, policy-paths (see perfbench/README.md).
Prints a commented summary, then one JSON line with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer ones with --trace 1.  Exits 1 when a correctness
check fails and 2 when there is no source tree to benchmark.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread, set before numpy loads: the timed runs use one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("grid-sweep", "dual-bound", "policy-paths"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dualbound" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'dualbound'}; run from a dualbound checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import dualbound  # noqa: F401  (numpy and scipy load with it)

    imported_raw = time.perf_counter() - T_START
    import harness
    import timing

    return harness.execute(args, spec, timing.after_the_fact(imported_raw), BENCH_DIR)


if __name__ == "__main__":
    sys.exit(main())
