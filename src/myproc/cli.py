"""Command-line experiment runner.

Verbs:
  run <experiment> [flags]   run one named experiment, write report + CSV tables
  list-experiments           show the experiment registry
  selftest                   fast end-to-end sanity run (< 10 s)

Configuration comes from an optional JSON config file (--config) overridden
by explicit flags; every run writes a report.json that echoes the full
configuration, so results are reproducible byte for byte from the report.
Exit status: 0 all checks passed, 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .experiments import DEFAULTS, EXPERIMENTS, ExperimentConfig, run_experiment

# config-file key and flag name -> (ExperimentConfig field, type)
_KEYS = {
    "q": ("q", int),
    "p": ("p", int),
    "T": ("T", float),
    "dt": ("dt", float),
    "paths": ("n_paths", int),
    "lambda": ("lam", float),
    "seed": ("seed", int),
    "seeds": ("n_seeds", int),
    "workers": ("workers", int),
    "out": ("out_dir", str),
}


class UsageError(Exception):
    pass


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, value in raw.items():
        try:
            out[key] = _KEYS[key][1](value)
        except (TypeError, ValueError):
            raise UsageError(f"config key {key!r} has invalid value {value!r}") from None
    return out


def _build_config(args) -> ExperimentConfig:
    values = _load_config_file(args.config) if args.config else {}
    for key in _KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    for key in ("T", "dt", "paths", "seeds", "workers"):
        if key in values and not values[key] > 0:
            raise UsageError(f"{key} must be positive, got {values[key]}")
    cfg_values = dict(DEFAULTS.get(args.experiment, {}))
    cfg_values.update({_KEYS[key][0]: value for key, value in values.items()})
    return ExperimentConfig(experiment=args.experiment, **cfg_values)


def _write_outputs(result, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(result.as_dict(), indent=2, default=str) + "\n")
    for name, table in result.tables.items():
        with open(out_dir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table["header"])
            writer.writerows(table["rows"])


def _cmd_run(args) -> int:
    if args.experiment not in EXPERIMENTS:
        print(f"error: unknown experiment {args.experiment!r}", file=sys.stderr)
        print("known experiments: " + ", ".join(sorted(EXPERIMENTS)), file=sys.stderr)
        return 2
    cfg = _build_config(args)
    result = run_experiment(cfg)
    out_dir = Path(cfg.out_dir) if cfg.out_dir else Path("results") / cfg.experiment
    _write_outputs(result, out_dir)
    for check in result.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"[{mark}] {result.name}: {check.name} = {check.value} ({check.threshold})")
    print(f"report: {out_dir / 'report.json'}")
    return 0 if result.passed else 1


def _cmd_list(_args) -> int:
    for name in sorted(EXPERIMENTS):
        print(name)
    return 0


def _cmd_selftest(_args) -> int:
    from . import trees as tr
    from .paths import RngStream
    from .specialfn import macdonald_k
    from .stats import SampleBatch, ks_two_sample

    failures = 0

    def check(label, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] selftest: {label}")
        failures += not ok

    check("K_{1/2}(2) closed form",
          abs(macdonald_k(0.5, 2.0) - math.sqrt(math.pi / 4.0) * math.exp(-2.0)) < 1e-12)
    check("pitman law = bessel3 law (n = 10)",
          tr.pitman_walk_distribution(10) == tr.exact_distribution(tr.bessel3_kernel(), 0, 10))
    g = tr.exact_distribution(tr.graph_kernel(2), (0, 0), 6)
    check("tree same-law (q = 2, n = 6)",
          tr.graph_distance_marginal(g) == tr.exact_distribution(tr.ground_state_kernel(2), 0, 6))
    x = RngStream(1, 0).generator().standard_normal(2000)
    rep = ks_two_sample(SampleBatch(x), SampleBatch(x))
    check("KS identical batches", rep.statistic == 0.0 and rep.passed)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="myproc",
        description="Exponential-functional process laboratory: seeded, reproducible experiments.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a named experiment")
    run_p.add_argument("experiment", help="experiment name (see list-experiments)")
    run_p.add_argument("--q", type=int, default=None, help="dimension parameter where applicable")
    run_p.add_argument("--p", type=int, default=None, help="rank (matrix experiments)")
    run_p.add_argument("--T", type=float, default=None, help="time horizon")
    run_p.add_argument("--dt", type=float, default=None, help="time step")
    run_p.add_argument("--paths", type=int, default=None, help="Monte Carlo path count")
    run_p.add_argument("--lambda", type=float, default=None, help="spectral parameter")
    run_p.add_argument("--seed", type=int, default=None, help="base seed")
    run_p.add_argument("--seeds", type=int, default=None, help="number of outer seeds")
    run_p.add_argument("--workers", type=int, default=None, help="worker processes for seed batches")
    run_p.add_argument("--out", type=str, default=None, help="output directory")
    run_p.add_argument("--config", type=str, default=None, help="JSON config file (flags win)")
    run_p.set_defaults(fn=_cmd_run)

    list_p = sub.add_parser("list-experiments", help="print the experiment registry")
    list_p.set_defaults(fn=_cmd_list)

    self_p = sub.add_parser("selftest", help="fast sanity checks")
    self_p.set_defaults(fn=_cmd_selftest)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
