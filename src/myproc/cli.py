"""Command-line experiment runner.

Verbs:
  run <experiment> [flags]   run one named experiment, write report + CSV tables
  run all [flags]            run every experiment with the same flags, then print a summary
  list-experiments           show the experiment registry
  selftest                   the K_{1/2}(2) closed form, then every check of the exact experiments

Configuration comes from an optional JSON config file (--config) overridden
by explicit flags; every run writes a report.json that echoes the full
configuration, so results are reproducible byte for byte from the report.
Exit status: 0 all checks passed, 1 some check failed, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from numpy.linalg import LinAlgError

from .experiments import DEFAULTS, EXPERIMENTS, FIELDS, MODEL_FIELDS, ExperimentConfig, ExperimentResult, run_experiment
from .matrixproc import ArcoshDomainError
from .series import ResonanceError, TruncationError

# the experiments whose checks are exact identities; selftest runs them at their defaults
_EXACT = ("pitman-discrete", "tree-samelaw", "toda-identity", "spherical-limit", "hoogenboom-det")

# the errors of a computation that broke down, as opposed to a check that failed (exit 3)
_NUMERICAL = (ArcoshDomainError, TruncationError, ResonanceError, OverflowError, LinAlgError)


class UsageError(Exception):
    pass


class NumericalFailure(Exception):
    pass


def _run(cfg):
    """run_experiment, with a numerical error raised again as a NumericalFailure that names the experiment."""
    try:
        return run_experiment(cfg)
    except _NUMERICAL as exc:
        raise NumericalFailure(f"numerical failure in {cfg.experiment}: {type(exc).__name__}: {exc}") from None


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    keys = {flag: key for key, (flag, *_) in FIELDS.items()}
    if unknown := set(raw) - set(keys):
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for flag, value in raw.items():  # the type test; ExperimentConfig applies the rules
        try:
            ExperimentConfig.typed(keys[flag], value)
        except ValueError:
            raise UsageError(f"config key {flag!r} has invalid value {value!r}") from None
    return {keys[flag]: value for flag, value in raw.items()}


def _build_configs(args, names) -> list:
    """One config per experiment name; under `run all`, each gets the model fields it reads and out <out>/<name>."""
    fields = _load_config_file(args.config) if args.config else {}
    fields.update({key: getattr(args, key) for key in FIELDS if getattr(args, key) is not None})
    every = args.experiment == "all"
    configs = []
    for name in names:
        own = {f: value for f, value in fields.items() if not every or f in DEFAULTS[name] or f not in MODEL_FIELDS}
        if "out_dir" in own and every:
            own["out_dir"] = str(Path(own["out_dir"]) / name)
        try:
            configs.append(ExperimentConfig(name, **own))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return configs


def _write_outputs(report: dict, tables: dict, out_dir: Path) -> None:
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    for name, table in tables.items():
        with open(out_dir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table["header"])
            writer.writerows(table["rows"])


def _print_checks(result) -> None:
    for check in result.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"[{mark}] {result.name}: {check.name} = {check.value} ({check.threshold})")


def _cmd_run(args) -> int:
    # every config is built, every output directory made, and every usage error raised, before anything runs
    configs = _build_configs(args, sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment])
    out_dirs = [Path(cfg.out_dir) if cfg.out_dir else Path("results") / cfg.experiment for cfg in configs]
    try:
        for out_dir in out_dirs:
            out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {exc.filename}: {exc.strerror}") from None
    summary = []
    for cfg, out_dir in zip(configs, out_dirs):
        t0 = time.perf_counter()
        try:
            result = _run(cfg)
        except NumericalFailure as exc:  # the report records the error; no checks, no tables
            report = ExperimentResult(cfg.experiment, cfg.as_dict(), []).as_dict()
            _write_outputs({**report, "passed": False, "error": str(exc)}, {}, out_dir)
            raise
        _write_outputs(result.as_dict(), result.tables, out_dir)
        _print_checks(result)
        print(f"report: {out_dir / 'report.json'}")
        summary.append((cfg.experiment, result.passed, time.perf_counter() - t0))
    if args.experiment == "all":
        print("\n== summary ==")
        for name, passed, seconds in summary:
            print(f"{'PASS' if passed else 'FAIL':4s}  {name:20s}  {seconds:8.1f} s")
    return 0 if all(passed for _, passed, _ in summary) else 1


def _cmd_list(_args) -> int:
    for name in sorted(EXPERIMENTS):
        print(name)
    return 0


def _cmd_selftest(_args) -> int:
    from .specialfn import macdonald_k

    passed = abs(macdonald_k(0.5, 2.0) - math.sqrt(math.pi / 4.0) * math.exp(-2.0)) < 1e-12
    print(f"[{'PASS' if passed else 'FAIL'}] selftest: K_{{1/2}}(2) closed form")
    for name in _EXACT:
        result = _run(ExperimentConfig(name))
        _print_checks(result)
        passed = passed and result.passed
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="myproc",
        description="Exponential-functional process laboratory: seeded, reproducible experiments.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a named experiment, or all of them")
    run_p.add_argument("experiment", help="experiment name (see list-experiments), or all")
    for key, (flag, kind, _, text) in FIELDS.items():
        readers = ", ".join(f"{name} {own[key]}" for name, own in sorted(DEFAULTS.items()) if key in own)
        run_p.add_argument(f"--{flag}", type=kind, dest=key, metavar=flag.upper(),
                           help=f"{text} ({readers or 'every experiment'})")
    run_p.add_argument("--config", type=str, default=None, help="JSON config file (flags win)")
    run_p.set_defaults(fn=_cmd_run)

    list_p = sub.add_parser("list-experiments", help="print the experiment registry")
    list_p.set_defaults(fn=_cmd_list)

    self_p = sub.add_parser("selftest", help="closed-form oracle plus the exact experiments' checks")
    self_p.set_defaults(fn=_cmd_selftest)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalFailure) else 2


if __name__ == "__main__":
    sys.exit(main())
