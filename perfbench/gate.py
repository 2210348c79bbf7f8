"""Verdict gate and output digests for one experiment run.

The expected check names, threshold strings and sample sizes of every
workload experiment are pinned in ``expected.json``.  A check counts as
failed when it fails, is missing or renamed, has a changed threshold or a
changed sample size, or belongs to an experiment that exited non-zero, raised,
or echoed a config that differs from the flags it was given.  A change can
therefore not get faster by dropping or weakening a check.

Re-pin after a declared change of checks with ``python3 perfbench/gate.py --pin``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# provenance fields that record how much data a check looked at
SIZE_FIELDS = ("n_paths", "n_seeds", "inner_replicas", "replicas", "n")

# CLI flag -> (report config field, type)
FLAG_FIELDS = {
    "--seed": ("seed", int),
    "--seeds": ("n_seeds", int),
    "--q": ("q", int),
    "--workers": ("workers", int),
    "--out": ("out_dir", str),
}


def check_signature(check: dict) -> dict:
    """The parts of a report check that the gate pins."""
    prov = check.get("provenance") or {}
    return {"name": check["name"], "threshold": check["threshold"],
            "sizes": {k: prov[k] for k in SIZE_FIELDS if k in prov}}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _flag_values(argv: list) -> dict:
    out = {}
    for flag, value in zip(argv, argv[1:]):
        if flag in FLAG_FIELDS:
            field, kind = FLAG_FIELDS[flag]
            out[field] = kind(value)
    return out


def gate_experiment(expected: list, argv: list, rc, error, report) -> list:
    """One failure message per expected check that counts as failed."""
    reason = None
    if error is not None:
        reason = f"raised {error}"
    elif rc != 0:
        reason = f"exit status {rc}"
    elif report is None:
        reason = "no report.json"
    else:
        for field, value in _flag_values(argv).items():
            echoed = report.get("config", {}).get(field)
            if echoed != value:
                reason = f"config {field}={echoed!r} but flag gave {value!r}"
                break
    if reason is not None:
        return [f"{exp['name']}: {reason}" for exp in expected]
    got = {c["name"]: c for c in report.get("checks", [])}
    failures = []
    for exp in expected:
        check = got.get(exp["name"])
        if check is None:
            failures.append(f"{exp['name']}: missing")
        elif check["threshold"] != exp["threshold"]:
            failures.append(f"{exp['name']}: threshold {check['threshold']!r} != {exp['threshold']!r}")
        elif check_signature(check)["sizes"] != exp["sizes"]:
            failures.append(f"{exp['name']}: sample sizes {check_signature(check)['sizes']} != {exp['sizes']}")
        elif not check["passed"]:
            failures.append(f"{exp['name']}: failed with value {check['value']!r}")
    return failures


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def output_digest(out_dir: Path, report) -> dict:
    """SHA-256 of the CSV tables (name and bytes, in name order) and of the checks list."""
    tables = sorted(out_dir.glob("*.csv"))
    checks = json.dumps(report["checks"], sort_keys=True).encode() if report else b""
    return {"tables": _sha256(c for t in tables for c in (t.name.encode(), t.read_bytes())),
            "checks": _sha256([checks])}


def read_report(out_dir: Path):
    try:
        return json.loads((out_dir / "report.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None


def pin() -> int:
    """Run every workload experiment at the default workload seed and pin its checks."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from myproc.cli import main

    from workloads import DEFAULT_WORKLOAD_SEED, WORKLOADS, experiment_argv

    expected = {}
    for _why, experiments in WORKLOADS.values():
        for experiment, flags in experiments:
            out = root / ".perfbench" / "pin" / experiment
            rc = main(experiment_argv(experiment, flags, DEFAULT_WORKLOAD_SEED, str(out)))
            report = read_report(out)
            if rc != 0 or report is None:
                print(f"error: {experiment} exited {rc}; nothing pinned", file=sys.stderr)
                return 1
            expected[experiment] = [check_signature(c) for c in report["checks"]]
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"pinned {sum(map(len, expected.values()))} checks to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        print("usage: python3 perfbench/gate.py --pin", file=sys.stderr)
        sys.exit(2)
    sys.exit(pin())
