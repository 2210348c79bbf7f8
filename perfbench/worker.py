"""One workload in a fresh process: import myproc, say "ready", run passes.

Started by run.py.  With --probe it exits right after "ready", which lets
run.py time set-up several times.  Otherwise it runs whole passes over the
workload's experiments, one after another through ``myproc.cli.main``, until
--seconds have elapsed (at least one pass), gates and digests each pass
outside the timed region, and writes its record to <out>/record.json.
Untraced passes sample the host speed while they run (hostspeed.py).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import gate
import hostspeed
import spans
from workloads import WORKLOADS, experiment_argv

ROOT = Path(__file__).resolve().parents[1]
PASS_BUDGET_S = 150.0  # no new pass when the longest one so far would end after this


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                       if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_pass(cli, order, workload_seed: int, out: Path, expected: dict, sample: bool) -> dict:
    runs = []
    for experiment, _flags in order:
        shutil.rmtree(out / experiment, ignore_errors=True)
    sampler = hostspeed.Sampler()
    if sample:
        sampler.start()
    t0 = time.perf_counter()
    try:
        for experiment, flags in order:
            argv = experiment_argv(experiment, flags, workload_seed, str(out / experiment))
            rc, error = None, None
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            except Exception as exc:  # noqa: BLE001 - a crash is a failed verdict, not a benchmark error
                error = f"{type(exc).__name__}: {exc}"
            runs.append((experiment, argv, rc, error))
        wall = time.perf_counter() - t0 - sampler.handler_s
    finally:
        if sample:
            sampler.stop()
    records = []
    for experiment, argv, rc, error in runs:
        exp_dir = out / experiment
        report = gate.read_report(exp_dir)
        records.append({
            "experiment": experiment, "argv": argv, "rc": rc, "error": error,
            "failures": gate.gate_experiment(expected[experiment], argv, rc, error, report),
            "expected_checks": len(expected[experiment]),
            "digest": gate.output_digest(exp_dir, report),
            "bytes_written": sum(f.stat().st_size for f in exp_dir.glob("*") if f.is_file()),
        })
    speed = sampler.speed() if sample else None
    return {"wall_s": wall, "host_speed": speed, "kernel_samples": len(sampler.kernel_s),
            "kernel_parts_s": [sum(col) / len(col) for col in zip(*sampler.kernel_s)],
            "wall_ref_s": None if speed is None else wall * speed, "experiments": records}


def run_workload(cli, args) -> dict:
    expected = gate.load_expected()
    order = list(WORKLOADS[args.workload][1])
    random.Random(args.order_seed).shuffle(order)
    if not args.trace:
        hostspeed.kernel()  # the first call pays for numpy's lazy set-up
    passes = []
    cpu0 = os.times()
    t_begin = time.perf_counter()
    while True:
        passes.append(run_pass(cli, order, args.workload_seed, args.out, expected,
                               sample=not args.trace))
        elapsed = time.perf_counter() - t_begin
        longest = max(p["wall_s"] for p in passes)
        if elapsed >= args.seconds or elapsed + longest > PASS_BUDGET_S:
            break
    cpu1 = os.times()
    usage = [resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return {
        "order": [e for e, _ in order],
        "passes": passes,
        "cpu_s": sum(b - a for a, b in zip(cpu0[:4], cpu1[:4])),
        "peak_rss_mb": max(usage) / 1024.0,  # ru_maxrss is in KiB on Linux
        "environment": environment(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workload-seed", type=int, required=True)
    ap.add_argument("--order-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    t_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import myproc.cli as cli

    tracer = spans.Tracer() if args.trace else None
    stale = spans.install(tracer) if tracer else []
    import_s = time.perf_counter() - t_start
    print("ready", flush=True)
    if args.probe:
        return 0

    # the experiments' own output goes to a log, so run.py's stdout stays clean
    with open(args.out / "experiments.log", "w") as log:
        os.dup2(log.fileno(), 1)
        record = run_workload(cli, args)
        sys.stdout.flush()
    record["import_s"] = import_s
    if tracer:
        record["trace"] = dict(tracer.summary(), stale_bindings=stale,
                               per_call_overhead_s=spans.per_call_overhead())
    (args.out / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
