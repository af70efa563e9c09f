"""certrec benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload pipeline-ml100k --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0       # every workload in turn

Run from the repository root; the program is imported from ./src. With
--trace 0 the workload's timed CLI sequence runs as a closed loop (one
client, each command after the previous one) until --seconds is spent, and
the end-to-end metrics are medians over those passes. With --trace 1 it runs
one traced pass, single-threaded, and reports per-layer metrics from the
spans. The last stdout line is the JSON result. The line before it is a
report: the environment, the instance shape, every end-to-end figure under
its workload's own name with unit and sample count (train_models_per_s,
certify_users_per_s, oracle_models_per_s, failed_frac), the per-pass samples
and every failed check. Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "PORE_THREADS")
MAX_THREADS = 2  # train workers: the smaller of this and the usable CPUs

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass  # numpy < 1.25 has no dict mode
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "machine": platform.machine(),
            "thread_env": {k: os.environ[k] for k in THREAD_ENV_VARS
                           if k in os.environ}}


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1 / 1024 ** 2 if sys.platform == "darwin" else 1 / 1024
    return max(own, kids) * scale


def load_program():
    """Import certrec from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "certrec", "__init__.py")):
        raise SystemExit(f"error: no certrec sources under {SRC}")
    sys.path.insert(0, SRC)
    import certrec
    if os.path.dirname(os.path.dirname(os.path.abspath(certrec.__file__))) != SRC:
        raise SystemExit(f"error: certrec imported from {certrec.__file__}, not {SRC}")
    import spans
    return [importlib.import_module(f"certrec.{m}") for m in spans.LAYERS]


def timed_setup(wl, seed, work, checks):
    times = []
    for rep in range(wl.setup_reps):
        d = os.path.join(work, f"setup{rep}")
        os.makedirs(d)
        t0 = time.perf_counter()
        inputs, shape = wl.setup(seed, d, checks)
        times.append(time.perf_counter() - t0)
    return inputs, shape, times


def _summary(values, unit: str) -> dict:
    return {"median": statistics.median(values), "unit": unit,
            "samples": len(values)}


def measure(wl, seed, seconds, threads, work, modules, checks):
    """Closed loop of passes until the next one would overrun the budget."""
    import workloads as w
    inputs, shape, setup_times = timed_setup(wl, seed, work, checks)
    state, walls, rates, samples = {}, [], [], []
    started = time.perf_counter()
    while True:
        out = w.fresh_dir(os.path.join(work, "pass"))
        w.cold_start(modules)
        res = wl.run(inputs, out, seed, threads, checks)
        rates.append(wl.check(res, seed, checks, state))
        walls.append(res.wall_s)
        samples.append(res.stages | {k: v for k, v in res.info.items()
                                     if isinstance(v, float)})
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(walls) > seconds:
            break
    values = {"setup_s": statistics.median(setup_times),
              "wall_s": statistics.median(walls),
              "work_per_s": statistics.median(rates),
              "peak_rss_mb": peak_rss_mb()}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    # the same figures under the names each workload's users know them by
    named = {"setup_s": _summary(setup_times, "s"), "wall_s": _summary(walls, "s"),
             wl.work_unit: _summary(rates, "1/s")}
    for key in samples[0]:
        if key.endswith("_per_s") and key not in named:
            named[key] = _summary([p[key] for p in samples], "1/s")
    named["peak_rss_mb"] = {"median": values["peak_rss_mb"], "unit": "MB",
                            "samples": 1}
    report = {"shape": shape, "threads": threads, "end_to_end": named,
              "setup_samples_s": setup_times, "pass_samples": samples,
              "state": state}
    return metrics, report


def traced(wl, seed, work, modules, checks):
    """One traced pass, single-threaded so every span stays in this process."""
    import layers
    import spans
    import workloads as w
    inputs, shape, _ = timed_setup(wl, seed, work, checks)
    state = {}
    tracer = spans.Tracer()
    out = w.fresh_dir(os.path.join(work, "pass"))
    w.cold_start(modules)
    with tracer.installed(modules):
        res = wl.run(inputs, out, seed, 1, checks)
    wl.check(res, seed, checks, state)
    os.makedirs(OUT_ROOT, exist_ok=True)
    spans_path = os.path.join(OUT_ROOT, f"spans-{wl.name}-seed{seed}.tsv.gz")
    tracer.write(spans_path)
    metrics = layers.layer_metrics(tracer, state, shape["m"], res.wall_s,
                                   spans.span_cost_ns())
    report = {"shape": shape, "threads": 1, "traced_wall_s": res.wall_s,
              "spans": spans_path, "state": state}
    return metrics, report


def run_workload(wl, seed, seconds, trace, modules):
    """(report, result) of one benchmark run of one workload."""
    import checks as ck
    import workloads as w
    work = w.fresh_dir(os.path.join(WORK_ROOT, f"{wl.name}-{seed}-{os.getpid()}"))
    checks = ck.Checks()
    try:
        if trace:
            metrics, report = traced(wl, seed, work, modules, checks)
        else:
            threads = min(MAX_THREADS, nproc())
            metrics, report = measure(wl, seed, seconds, threads, work, modules,
                                      checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only once no other run is using it
    failed_frac = checks.failed / checks.attempted
    if not trace:
        report["end_to_end"]["failed_frac"] = {
            "median": failed_frac, "unit": "frac", "samples": checks.attempted}
    report.update(workload=wl.name, seed=seed, env=environment(),
                  failed_frac=failed_frac, failures=checks.failures)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or 'all' to run each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        modules = load_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import workloads as w
    if args.workload == "all":
        for name in w.WORKLOADS:
            code = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], check=False).returncode
            if code:
                return code
        return 0
    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(w.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    report, result = run_workload(w.WORKLOADS[args.workload], args.seed,
                                  args.seconds, args.trace, modules)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
