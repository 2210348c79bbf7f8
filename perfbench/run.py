"""Time-to-verdict benchmark for myproc.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--workload-seed <n>]

Runs one workload (see workloads.py) from the root of a source checkout.
Set-up is timed as the median of several fresh launches of worker.py until
``myproc`` is imported.  The workload then runs in its own fresh process, one
experiment after another through ``myproc.cli.main`` with ``--workers 1``,
in whole passes until --seconds have elapsed.  Every pass is gated against
the pinned checks (gate.py) and digested.  Both times are reported at a
reference host speed: pass times by a kernel sampled during each pass
(hostspeed.py), set-up times by a launch that imports only numpy, made just
before each set-up probe.

--seed orders the experiments of a multi-experiment workload; the experiments
themselves always run at --workload-seed (default 20240801, their own
default), because the pinned verdicts and the output digests belong to that
seed.  With --trace 1 the run wraps the program's public functions from
outside (spans.py) and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A full run record goes to stderr and is appended to
.perfbench/history.jsonl, which is also where digests of earlier runs of the
same source are looked up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans
from workloads import DEFAULT_WORKLOAD_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
HISTORY = STATE / "history.jsonl"
SETUP_PROBES = 5  # launches that only import myproc, each after a reference launch
# A launch that imports numpy and nothing of the program: how fast the host
# starts a process and loads the numeric stack right now.
REFERENCE_LAUNCH = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
REFERENCE_LAUNCH_S = 0.200  # its time on the host the benchmark was tuned on
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this

END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    pass


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "myproc").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or None when the checkout is not itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def start(cmd: list, deadline: float):
    """Start ``cmd`` and wait for its "ready" line; returns (process, seconds to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    proc.stdout.close()
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"{' '.join(cmd[1:3])} did not start (exit status {proc.returncode})")
    return proc, setup


def launch(args, run_dir: Path, probe: bool, deadline: float):
    """Start worker.py and wait until it has imported myproc."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--workload-seed", str(args.workload_seed), "--order-seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(run_dir)]
    return start(cmd + (["--probe"] if probe else []), deadline)


def finish(proc, deadline: float) -> None:
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker overran the run deadline") from None
    if rc != 0:
        raise BenchError(f"worker exited with status {rc}")


def history(key: dict) -> list:
    """Earlier run records whose fields match ``key``, oldest first."""
    if not HISTORY.exists():
        return []
    out = []
    for line in HISTORY.read_text().splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if all(rec.get(k) == v for k, v in key.items()):
            out.append(rec)
    return out


def measure(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    run_dir = STATE / "runs" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setups, refs = [], []
        for _ in range(SETUP_PROBES):
            proc, ref = start(REFERENCE_LAUNCH, deadline)
            finish(proc, deadline)
            proc, setup = launch(args, run_dir, True, deadline)
            finish(proc, deadline)
            refs.append(ref)
            setups.append(setup)
        proc, setup = launch(args, run_dir, False, deadline)
        finish(proc, deadline)
        worker = json.loads((run_dir / "record.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return dict(worker, setup_samples_s=setups, reference_launch_s=refs, workload_setup_s=setup)


def evaluate(args, worker: dict) -> dict:
    passes = worker["passes"]
    n = len(passes)
    attempted = sum(e["expected_checks"] for p in passes for e in p["experiments"])
    failures = [f for p in passes for e in p["experiments"] for f in e["failures"]]
    digests = [{e["experiment"]: e["digest"] for e in p["experiments"]} for p in passes]
    digest = hashlib.sha256(json.dumps(digests[0], sort_keys=True).encode()).hexdigest()
    problems = []
    if any(d != digests[0] for d in digests):
        problems.append("output digest differs between passes of one run")
    key = {"workload": args.workload, "workload_seed": args.workload_seed,
           "source_sha256": source_digest(),
           "argv": [e["argv"][1:-2] for e in sorted(passes[0]["experiments"],
                                                    key=lambda e: e["experiment"])]}
    earlier = history(key)
    prev = earlier[-1] if earlier else None
    if prev is not None and prev["digest"] != digest:
        problems.append("output digest differs from an earlier run of the same source")
    walls = [p["wall_s"] for p in passes]
    record = dict(key, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  git_sha=git_sha(), environment=worker["environment"], order=worker["order"],
                  passes=n, pass_wall_s=walls, setup_samples_s=worker["setup_samples_s"],
                  reference_launch_s=worker["reference_launch_s"],
                  workload_setup_s=worker["workload_setup_s"],
                  pass_host_speed=[p["host_speed"] for p in passes],
                  pass_kernel_samples=[p["kernel_samples"] for p in passes],
                  pass_kernel_parts_s=[p["kernel_parts_s"] for p in passes],
                  peak_rss_mb=worker["peak_rss_mb"], cpu_s=worker["cpu_s"],
                  attempted=attempted, failed=len(failures),
                  check_fail_frac=len(failures) / attempted, failures=failures[:50],
                  digest=digest, digests=digests[0],
                  digest_matches_previous=None if prev is None else prev["digest"] == digest,
                  problems=problems)
    if args.trace:
        trace = worker["trace"]
        traced_wall = sum(walls)
        values, absent = spans.layer_values(trace, n, traced_wall)
        calls = sum(s["calls"] for s in trace["spans"].values())
        values["cli.bytes_written"] = sum(e["bytes_written"] for p in passes
                                          for e in p["experiments"]) / n
        values["run.cpu_s"] = worker["cpu_s"] / n
        values["run.trace_overhead_est_s"] = calls * trace["per_call_overhead_s"] / n
        values["verdict.check_fail_frac"] = len(failures) / attempted
        untraced = [r["wall_s"] for r in earlier if r["trace"] == 0]
        overhead = statistics.median(walls) - statistics.median(untraced) if untraced else None
        record.update(spans=trace["spans"], span_edges=trace["edges"], spans_absent=absent,
                      stale_bindings=trace["stale_bindings"], span_calls=calls,
                      per_call_overhead_s=trace["per_call_overhead_s"],
                      trace_overhead_vs_untraced_s=overhead)
        if trace["stale_bindings"]:
            problems.append(f"functions left unwrapped: {trace['stale_bindings']}")
        spec = spans.per_layer_spec()
        record["metrics"] = {k: {"value": values[k], "unit": spec[k][0]} for k in spec}
    else:
        setup_ref = [s * REFERENCE_LAUNCH_S / r
                     for s, r in zip(worker["setup_samples_s"], worker["reference_launch_s"])]
        values = {"wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes),
                  "setup_s": statistics.median(setup_ref),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        record["wall_s"] = statistics.median(walls)
        record["wall_ref_s"] = values["wall_ref_s"]
        record["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    record["correct"] = not failures and not problems
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="orders the experiments of a pass")
    ap.add_argument("--seconds", type=float, required=True, help="run whole passes for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
                    help="seed every experiment runs at")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "myproc" / "__init__.py").is_file():
        print(f"error: no myproc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not gate.EXPECTED_PATH.is_file():
        print(f"error: missing {gate.EXPECTED_PATH}", file=sys.stderr)
        return 2
    try:
        record = evaluate(args, measure(args))
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    STATE.mkdir(exist_ok=True)
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    for problem in record["problems"] + record["failures"]:
        print(f"FAIL {problem}")
    print(f"{args.workload}: {record['passes']} pass(es), check_fail_frac = "
          f"{record['check_fail_frac']:.4g} ({record['failed']}/{record['attempted']} checks)")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
