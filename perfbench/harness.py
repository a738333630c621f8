"""One benchmark run: set-up, timed loop, correctness gate, traced replay, report.

Every time reported is in reference seconds (see timing.py); raw wall
seconds sit next to them in the run record under perfbench/results/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict

import numpy as np
import scipy

from dualbound import cli, dp_solver

import timing
from jobs import GridJob
from spans import NullTracer, TraceInfo, Tracer, layer_metrics
from workloads import WORKLOADS, invariance_jobs, j0

SETUP_REPEATS = 3
J0_REL_TOL = 1e-6        # grid solves converge to node_tol 1e-8
BOUND_REL_TOL = 1e-5     # inner solves converge to INNER_TOL 1e-6
TTS_TARGET_STDERR = 0.002


class SetupError(RuntimeError):
    pass


class Run:
    """Counts, results, samples and checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.checks: list = []
        self.results: dict = {}               # job name -> first result
        self.samples = defaultdict(list)      # job name -> [timing.Sample]
        self.repeat_mismatch: set = set()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def execute(self, job, workers: int = 1):
        """Run one job untraced and count it; returns (result, sample) or (None, None)."""
        try:
            result, sample = timing.measure(lambda: job.run(workers))
        except job.errors as exc:
            self.attempted += job.ops
            self.failed += 1
            self.errors.append(f"{job.name}: {exc}")
            return None, None
        ops, failed = job.account(result)
        self.attempted += ops
        self.failed += failed
        return result, sample

    def record(self, job, result, sample) -> None:
        self.samples[job.name].append(sample)
        if job.name not in self.results:
            self.results[job.name] = result
        elif job.outcome(result) != job.outcome(self.results[job.name]):
            self.repeat_mismatch.add(job.name)

    def median_s(self, name: str) -> float:
        return statistics.median(s.s for s in self.samples[name])


def setup(wl, tmp: str, tr):
    """`dualbound solve` for each grid the workload needs, then load the file."""
    grids, cli_j0 = {}, {}
    for name, set_id, gamma in wl.setup_grids:
        path = os.path.join(tmp, f"{name}.json")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = tr.call("cli.solve", cli.main,
                           ["solve", "--set", str(set_id), "--gamma", repr(gamma), "--out", path])
        if code != cli.EXIT_OK:
            raise SetupError(f"dualbound solve --set {set_id} --gamma {gamma} exited with {code}")
        vg, p = tr.call("dp_solver.load_value_grid", dp_solver.load_value_grid, path)
        grids[name] = (p, vg)
        cli_j0[name] = float(printed.getvalue().rsplit("=", 1)[1])
    return grids, cli_j0


def timed_loop(run: Run, jobs: list, seed: int, seconds: float) -> None:
    """Cycle through the jobs (order drawn from the seed) for `seconds`,
    and until every job has been tried at least once."""
    order = list(jobs)
    random.Random(seed).shuffle(order)
    tried: set = set()
    t0 = time.perf_counter()
    i = 0
    while len(tried) < len(order) or time.perf_counter() - t0 < seconds:
        job = order[i % len(order)]
        i += 1
        tried.add(job.name)
        result, sample = run.execute(job)
        if result is not None:
            run.record(job, result, sample)


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def gate(run: Run, wl, grids, cli_j0, jobs, gate_jobs, fingerprints) -> None:
    """Correctness checks; any failure marks the run incorrect."""
    for job in gate_jobs:
        result, sample = run.execute(job)
        if result is not None:
            run.record(job, result, sample)
    for name, (p, vg) in grids.items():
        ref = fingerprints["J0"][name]
        for label, value in (("cli", cli_j0[name]), ("loaded", j0(vg, p))):
            run.check(f"J0-{name}-{label}", _close(value, ref, J0_REL_TOL), f"{value!r} vs {ref!r}")
    for job in jobs + gate_jobs:
        result = run.results.get(job.name)
        run.check(f"ran-{job.name}", result is not None)
        run.check(f"repeat-identical-{job.name}", job.name not in run.repeat_mismatch,
                  f"{len(run.samples[job.name])} runs")
        if isinstance(job, GridJob) and result is not None:
            ref = fingerprints["J0"][job.name]
            value = j0(result, job.p)
            run.check(f"J0-{job.name}", _close(value, ref, J0_REL_TOL), f"{value!r} vs {ref!r}")
            if job.name in grids:
                run.check(f"cli-roundtrip-{job.name}", np.array_equal(result.J, grids[job.name][1].J))
    for job in invariance_jobs(grids):
        one, sample = run.execute(job, workers=1)
        two, _ = run.execute(job, workers=2)
        run.check(f"workers-invariant-{job.name}", one is not None and two is not None
                  and job.outcome(one) == job.outcome(two), "run_means at workers=1 and 2")
        if one is None:
            continue
        run.record(job, one, sample)
        ref = fingerprints["bounds"][job.name]
        for key in ("mean", "stderr"):
            value = getattr(one, key)
            ok = abs(value - ref[key]) <= BOUND_REL_TOL * abs(ref["mean"])
            run.check(f"fingerprint-{job.name}-{key}", ok, f"{value!r} vs {ref[key]!r}")
    if all(run.results.get(j.name) is not None for j in jobs + gate_jobs):
        for name, ok, detail in wl.checks(run.results):
            run.check(name, ok, detail)


def replay_all(run: Run, tr: Tracer, traces: dict, grids, jobs, gate_jobs):
    """Replay each job once through spans; returns the traced/untraced wall ratio - 1."""
    replayed = [(j, run.median_s(j.name), j.outcome(run.results[j.name]))
                for j in jobs + gate_jobs + invariance_jobs(grids) if j.name in run.results]
    replayed += [(GridJob(f"setup-{name}", p), None, GridJob.outcome(vg)) for name, (p, vg) in grids.items()]
    traced_wall = untraced_wall = 0.0
    for job, untraced_s, expected in replayed:
        tid = len(traces)
        tr.trace = tid
        out, sample = timing.measure(lambda: tr.call(f"job:{job.name}", job.replay, tr))
        traces[tid] = TraceInfo(job.kind, sample.scale, untraced_s)
        run.check(f"replay-identical-{job.name}", out == expected)
        if job in jobs:
            traced_wall += sample.s
            untraced_wall += untraced_s
    return traced_wall / untraced_wall - 1.0


def named_metrics(run: Run, jobs) -> dict:
    """Workload-specific rates and times to a target stderr: printed and
    recorded, not gated (they are not defined on every workload, and the
    stderr behind the tts figures varies with the seed)."""
    by_kind = defaultdict(list)
    for job in jobs:
        by_kind[job.kind].append(job)
    out = {}

    def rate(selected, per_op=1.0):
        return sum(j.ops * per_op for j in selected) / sum(run.median_s(j.name) for j in selected)

    if by_kind["grid"]:
        out["grid_nodes_per_s"] = (rate(by_kind["grid"]), "1/s")
    if by_kind["upper"]:
        out["upper_paths_per_s"] = (rate(by_kind["upper"]), "1/s")
        for job in by_kind["upper"]:
            out[f"upper_{job.cfg.penalty_kind}_paths_per_s"] = (rate([job]), "1/s")
    if by_kind["lower"]:
        out["lower_paths_per_s"] = (rate(by_kind["lower"]), "1/s")
    if by_kind["feasibility"]:
        out["feas_pairs_per_s"] = (rate(by_kind["feasibility"], 0.5), "1/s")

    def tts(name):
        est = run.results[name]
        return run.median_s(name) * (est.stderr / TTS_TARGET_STDERR) ** 2

    if "lower-set1" in run.results:
        out["lower_tts_s"] = (tts("lower-set1"), "s")
    uppers = [n for n in ("upper-m1", "upper-m2") if n in run.results]
    if uppers:
        out["upper_tts_s"] = (min(tts(n) for n in uppers), "s")
    out["failed_frac"] = (run.failed / run.attempted if run.attempted else 0.0,
                          f"{run.failed}/{run.attempted}")
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "timed_processes": 1,
        "workers": 1,
    }


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return out
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def execute(args, spec: dict, import_sample: timing.Sample, bench_dir) -> int:
    wl = WORKLOADS[args.workload]
    fingerprints = json.loads((bench_dir / "fingerprints.json").read_text())
    results_dir = bench_dir / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Run()
    tr = Tracer() if args.trace else None
    traces: dict = {}
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment(),
                    "import": vars(import_sample)}
    tmp = tempfile.mkdtemp(dir=results_dir)
    try:
        if tr is None:
            setups = []
            for _ in range(SETUP_REPEATS):
                (grids, cli_j0), sample = timing.measure(lambda: setup(wl, tmp, NullTracer()))
                setups.append(sample)
        else:
            (grids, cli_j0), sample = timing.measure(lambda: setup(wl, tmp, tr))
            traces[0] = TraceInfo("setup", sample.scale, None)
            setups = [sample]
    except SetupError as exc:
        run.check("setup", False, str(exc))
        return report(run, record, {}, spec, args, results_dir / stem)
    finally:
        shutil.rmtree(tmp)
    record["setup"] = [vars(s) for s in setups]

    jobs = wl.jobs(grids, args.seed)
    gate_jobs = wl.gate_jobs(grids, args.seed)
    timed_loop(run, jobs, args.seed, args.seconds)
    gate(run, wl, grids, cli_j0, jobs, gate_jobs, fingerprints)
    record["jobs"] = {name: {"samples": [vars(s) for s in samples]}
                      for name, samples in run.samples.items()}
    record["estimates"] = {}
    for job in jobs + gate_jobs:
        res = run.results.get(job.name)
        if res is not None:
            record["estimates"][job.name] = res.to_dict() if hasattr(res, "to_dict") else {"J0": j0(res, job.p)}
    complete = all(j.name in run.results for j in jobs)
    named = named_metrics(run, jobs) if complete else {}
    record["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}

    metrics: dict = {}
    if tr is None:
        if complete:
            metrics = {
                "setup_s": import_sample.s + statistics.median(s.s for s in setups),
                "wall_s": sum(run.median_s(j.name) for j in jobs),
                "ops_per_s": (sum(j.ops * len(run.samples[j.name]) for j in jobs)
                              / sum(s.s for j in jobs for s in run.samples[j.name])),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    else:
        overhead = replay_all(run, tr, traces, grids, jobs, gate_jobs)
        tr.write(results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
        metrics = layer_metrics(tr, traces)
        metrics["trace.overhead_frac"] = overhead
    return report(run, record, metrics, spec, args, results_dir / stem, named)


def report(run: Run, record: dict, metrics: dict, spec: dict, args, stem, named=None) -> int:
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    correct = run.correct and bool(metrics)
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, samples in sorted(run.samples.items()):
        print(f"# job {name:18s} n={len(samples):2d} median={statistics.median(s.s for s in samples):9.4f} s"
              f" raw={statistics.median(s.raw_s for s in samples):9.4f} s")
    for name, ok, detail in run.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name} {detail}")
    for err in run.errors:
        print(f"# error {err}")
    for name, (value, unit) in (named or {}).items():
        print(f"# {name} = {value!r} {unit}")
    if not correct:
        print("# run failed: metrics withheld")
        metrics = {}
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    out = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
           "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    record.update(checks=run.checks, errors=run.errors, summary=out)
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps(out))
    return 0 if correct else 1
