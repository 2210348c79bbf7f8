import ast
import concurrent.futures
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

import myproc
from myproc import cli, experiments
from myproc.cli import main
from myproc.matrixproc import ArcoshDomainError
from myproc.series import ResonanceError, TruncationError
from myproc.experiments import (DEFAULTS, EXPERIMENTS, FIELDS, MODEL_FIELDS, Check, ExperimentConfig,
                                ExperimentResult, run_experiment)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# `myproc run --help` at 80 columns: each flag's help and readers come from experiments.FIELDS and DEFAULTS
_RUN_HELP = """\
usage: myproc run [-h] [--q Q] [--p P] [--T T] [--dt DT] [--paths PATHS]
                  [--lambda LAMBDA] [--seed SEED] [--seeds SEEDS]
                  [--workers WORKERS] [--out OUT] [--config CONFIG]
                  experiment

positional arguments:
  experiment         experiment name (see list-experiments), or all

options:
  -h, --help         show this help message and exit
  --q Q              walk horizon (pitman-discrete 24)
  --p P              matrix rank (supq-limit 2)
  --T T              time horizon (my-convergence 1.0, supq-limit 1.0)
  --dt DT            time step (conditional-law 0.001, my-convergence 0.001,
                     my-generator 0.001, supq-limit 0.001)
  --paths PATHS      Monte Carlo path count (conditional-law 100000, my-
                     convergence 100000, my-generator 100000)
  --lambda LAMBDA    driver drift and drift index (my-generator 0.5)
  --seed SEED        base seed (every experiment)
  --seeds SEEDS      number of outer seeds (my-convergence 100, supq-limit 50)
  --workers WORKERS  worker processes for seed batches (every experiment)
  --out OUT          output directory (every experiment)
  --config CONFIG    JSON config file (flags win)
"""


class TestVerbs:
    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["run", "no-such-thing"]) == 2
        assert "unknown experiment 'no-such-thing'" in capsys.readouterr().err

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        for name in ("pitman-discrete", "my-generator", "supq-limit", "hoogenboom-det"):
            assert name in out

    def test_selftest(self, capsys):
        # the closed-form line, then one line per check of each exact experiment at its defaults
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "[PASS] selftest: K_{1/2}(2) closed form"
        names = ("pitman-discrete", "tree-samelaw", "toda-identity", "spherical-limit", "hoogenboom-det")
        results = [run_experiment(ExperimentConfig(name)) for name in names]
        assert lines[1:] == [f"[PASS] {r.name}: {c.name} = {c.value} ({c.threshold})"
                             for r in results for c in r.checks]
        assert len(lines) == 59

    def test_run_help_text(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
        with pytest.raises(SystemExit) as info:
            main(["run", "--help"])
        assert info.value.code == 0 and capsys.readouterr().out == _RUN_HELP

    def test_module_entry_point(self):
        # python -m myproc runs __main__.py, which no in-process test reaches
        env = {**os.environ, "PYTHONPATH": str(Path(myproc.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-m", "myproc", "list-experiments"], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0 and out.stdout.split() == sorted(EXPERIMENTS) and len(EXPERIMENTS) == 9

    def test_import_leaves_the_process_pool_unloaded(self):
        # the pool is imported only where a run forks workers, so a launch does not load
        # multiprocessing; checked in a fresh interpreter, whose modules this suite has not touched
        code = ("import sys, myproc.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        env = {**os.environ, "PYTHONPATH": str(Path(myproc.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_selftest_exits_1_on_a_failed_check(self, monkeypatch, capsys):
        monkeypatch.setitem(EXPERIMENTS, "toda-identity", _fake("toda-identity", False, []))
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] toda-identity: fake = 0.0 (fake)" in out and out.count("[FAIL]") == 1
        assert "[PASS] hoogenboom-det: rank_one_reduction" in out  # the later experiments still run


class TestRun:
    def test_run_writes_report_and_tables(self, tmp_path, capsys):
        out = tmp_path / "res"
        rc = main(["run", "pitman-discrete", "--q", "8", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["config"]["q"] == 8
        assert report["config"]["seed"] == 20240801
        assert (out / "distribution.csv").exists()
        assert report["details"]["law_at_n_max"]["0"] == "7/128"
        printed = capsys.readouterr().out
        assert "[PASS]" in printed

    def test_outputs_bit_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["run", "tree-samelaw", "--seed", "5", "--out", str(out)]) == 0
        assert (out1 / "kernel_rate.csv").read_bytes() == (out2 / "kernel_rate.csv").read_bytes()
        # reports agree except for the echoed output directory itself
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        a["config"].pop("out_dir")
        b["config"].pop("out_dir")
        assert a == b

    @pytest.mark.parametrize("experiment, argv, table", [
        ("my-convergence", ["--seeds", "4", "--T", "0.2", "--dt", "0.01"], "seed_errors.csv"),
        ("supq-limit", ["--seeds", "3"], "monotone_errors.csv"),
    ], ids=["my-convergence", "supq-limit"])
    def test_seed_batches_independent_of_workers(self, tmp_path, experiment, argv, table):
        # the seeds run in contiguous runs, at least one per worker, on the replica axis
        outs = [tmp_path / f"w{w}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main(["run", experiment, *argv, "--workers", str(w), "--out", str(out)]) == 0
        assert (outs[0] / table).read_bytes() == (outs[1] / table).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 6, "seed": 3}))
        out = tmp_path / "res"
        assert main(["run", "pitman-discrete", "--config", str(cfg), "--q", "4",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["q"] == 4      # flag wins
        assert report["config"]["seed"] == 3   # config applies

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"qq": 6}))
        assert main(["run", "pitman-discrete", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, argv, config, message", [
        ("my-generator", ["--lambda", "nan", "--paths", "1500"], None, "lambda must be finite, got nan"),
        ("my-generator", ["--lambda", "inf"], None, "lambda must be finite, got inf"),
        ("toda-identity", ["--q", "7", "--lambda", "9", "--paths", "5"], None,
         "toda-identity does not read q, paths, lambda"),
        ("conditional-law", ["--lambda", "0.9"], None, "conditional-law does not read lambda"),
        ("toda-identity", [], {"paths": 1999.9}, "config key 'paths' has invalid value 1999.9"),
        ("toda-identity", [], {"seeds": True}, "config key 'seeds' has invalid value True"),
        ("toda-identity", [], {"paths": float("inf")}, "config key 'paths' has invalid value inf"),
        ("toda-identity", [], {"out": None}, "config key 'out' has invalid value None"),
        ("toda-identity", [], {"out": ["x"]}, "config key 'out' has invalid value ['x']"),
        ("toda-identity", [], {"paths": "5000"}, "config key 'paths' has invalid value '5000'"),
        ("my-generator", [], {"lambda": float("nan")}, "lambda must be finite, got nan"),
        ("my-convergence", [], {"T": float("nan")}, "T must be positive, got nan"),
        ("toda-identity", ["--out", "{tmp}/file"], None, "cannot create output directory {tmp}/file: File exists"),
        ("all", ["--out", "{tmp}/file"], None,
         "cannot create output directory {tmp}/file/conditional-law: Not a directory"),
        ("conditional-law", ["--seed=-1"], None, "seed must be in [0, 2^63), got -1"),
        ("conditional-law", ["--seed", str(2**64 - 1)], None, f"seed must be in [0, 2^63), got {2**64 - 1}"),
        ("supq-limit", [], {"seed": 2**63}, f"seed must be in [0, 2^63), got {2**63}"),
    ], ids=["lambda-nan", "lambda-inf", "unread-fields", "unread-lambda", "config-fractional-paths",
            "config-bool-seeds", "config-infinite-paths", "out-null", "out-list", "paths-string", "config-nan-lambda",
            "config-nan-T", "out-names-a-file", "run-all-out-names-a-file", "seed-negative", "seed-aliases-minus-one",
            "config-seed-2-63"])
    def test_values_a_run_would_alter_are_usage_errors(self, tmp_path, capsys, experiment, argv, config, message):
        # a non-finite lambda, a field the experiment does not read, a config value its key's type would
        # change or cannot hold (a null or a list `out` would become a directory name, a string `paths` a
        # number), a config NaN that its key's rule rejects as the flag's rule does, an --out that names
        # a file (the later --out wins), or a seed outside [0, 2^63) (the random streams key on 64 bits,
        # so 2^64 - 1 would repeat -1's draws); each fails before any experiment runs
        (tmp_path / "file").write_text("")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))  # {"paths": Infinity} for an infinite float
            argv = argv + ["--config", str(cfg)]
        assert main(["run", experiment, "--out", str(tmp_path / "a"), *argv]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: {message.format(tmp=tmp_path)}\n"  # one line, no traceback
        assert "[PASS]" not in out and "[FAIL]" not in out
        assert not (tmp_path / "a").exists()

    def test_non_positive_numbers_are_usage_errors(self, tmp_path, capsys):
        assert main(["run", "conditional-law", "--dt", "0", "--out", str(tmp_path / "a")]) == 2
        assert main(["run", "supq-limit", "--dt", "-0.001", "--out", str(tmp_path / "b")]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 0}))
        assert main(["run", "conditional-law", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err.count("dt must be positive") == 3
        assert not any((tmp_path / d).exists() for d in "abc")

    def test_q_zero_is_horizon_zero(self, tmp_path):
        out = tmp_path / "res"
        assert main(["run", "pitman-discrete", "--q", "0", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["q"] == 0
        assert [c["name"] for c in report["checks"]] == ["pitman_equals_bessel3_all", "pitman_equals_bessel3_n0"]

    def test_negative_q_and_p_below_one_are_usage_errors(self, tmp_path, capsys):
        assert main(["run", "pitman-discrete", "--q", "-1", "--out", str(tmp_path / "a")]) == 2
        assert main(["run", "supq-limit", "--p", "0", "--out", str(tmp_path / "b")]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": -3}))
        assert main(["run", "pitman-discrete", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
        # supq-limit's smallest q is 50, and its first column group holds 50 - p >= p columns
        assert main(["run", "supq-limit", "--p", "26", "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.count("q must be non-negative") == 2 and "p must be positive, got 0" in err
        assert "supq-limit needs p <= 25, half its smallest q, got p = 26" in err and "Traceback" not in err
        assert not any((tmp_path / d).exists() for d in "abcd")

    def test_too_few_paths_is_a_usage_error(self, tmp_path, capsys):
        # the Markov test needs 15 quantile bins of at least 100 paths each
        assert main(["run", "my-generator", "--paths", "50", "--out", str(tmp_path / "a")]) == 2
        assert "my-generator needs paths >= 1500, got 50" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        # conditional-law splits eta into five quantile bins; fewer paths leave a bin empty
        assert main(["run", "conditional-law", "--paths", "4", "--out", str(tmp_path / "b")]) == 2
        assert "conditional-law needs paths >= 5, got 4" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()
        with pytest.raises(ValueError, match="needs paths >= 5"):
            ExperimentConfig("conditional-law", n_paths=4)

    @pytest.mark.parametrize("n_paths", [5, 6, 7, 8])
    def test_conditional_law_fewest_paths_fill_every_bin(self, n_paths):
        # an empty bin has standard error 0 and would count as z = 0, a pass that saw no path
        result = run_experiment(ExperimentConfig("conditional-law", n_paths=n_paths))
        for check in result.checks:
            assert all(row["se"] > 0 for row in check.provenance["per_function"]), check.name

    def test_times_off_the_grid_are_usage_errors(self, tmp_path, capsys):
        # my-convergence reads t = 0.1, t = 1.0 and T on the dt grid
        assert main(["run", "my-convergence", "--T", "0.05", "--out", str(tmp_path / "a")]) == 2
        assert main(["run", "my-convergence", "--dt", "0.3", "--out", str(tmp_path / "b")]) == 2
        assert main(["run", "my-convergence", "--T", "0.5005", "--dt", "0.001", "--out", str(tmp_path / "c")]) == 2
        assert main(["run", "conditional-law", "--dt", "0.3", "--out", str(tmp_path / "d")]) == 2
        assert main(["run", "my-generator", "--dt", "0.25", "--out", str(tmp_path / "e")]) == 2
        # supq-limit steps its seeds' grids by dt up to T
        assert main(["run", "supq-limit", "--T", "0.35", "--dt", "0.1", "--out", str(tmp_path / "f")]) == 2
        # and it reads t = T/2: one step, and an odd step count, have no grid point there
        assert main(["run", "supq-limit", "--T", "0.001", "--out", str(tmp_path / "g")]) == 2
        assert main(["run", "supq-limit", "--T", "0.003", "--out", str(tmp_path / "h")]) == 2
        err = capsys.readouterr().err
        assert "got T = 0.05" in err and "t = 0.5005, which is not a whole number of dt = 0.001 steps" in err
        assert err.count("t = 0.1, which") == 1 and err.count("t = 1.0, which") == 1 and "t = 0.9, which" in err
        assert "supq-limit reads t = 0.35, which is not a whole number of dt = 0.1 steps" in err
        assert "supq-limit reads t = 0.0005, which" in err and "supq-limit reads t = 0.0015, which" in err
        assert err.count("error: ") == 8 and "Traceback" not in err
        assert not any((tmp_path / d).exists() for d in "abcdefgh")

    @pytest.mark.parametrize("argv, config", [
        (["supq-limit", "--T", "inf"], None),
        (["my-convergence", "--T", "inf"], None),
        (["my-generator", "--dt", "1e-320"], None),
        (["supq-limit"], {"T": float("inf")}),
    ], ids=["supq-limit-T", "my-convergence-T", "my-generator-dt", "config-file-T"])
    def test_non_finite_step_counts_are_usage_errors(self, tmp_path, capsys, argv, config):
        # an infinite T, or t / dt overflowing to inf: no grid step count holds it
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))  # {"T": Infinity}
            argv = argv + ["--config", str(cfg)]
        assert main(["run", *argv, "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "which is not a whole number of dt" in err
        assert "Traceback" not in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("argv", [["supq-limit", "--T", "1e300"], ["my-convergence", "--T", "1e300"],
                                      ["my-convergence", "--dt", "1e-300"]], ids=lambda a: "-".join(a))
    def test_step_counts_no_array_holds_are_usage_errors(self, tmp_path, capsys, argv):
        assert main(["run", *argv, "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "steps of dt" in err and "array holds" in err
        assert not (tmp_path / "a").exists()

    def test_provenance_on_every_check(self, tmp_path):
        out = tmp_path / "res"
        main(["run", "toda-identity", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert all("provenance" in c for c in report["checks"])


class TestNumericalFailure:
    _ERRORS = [ArcoshDomainError("cosh argument 0.9 below 1 at step 7"), TruncationError("series did not converge"),
               ResonanceError("2 lam = 1"), OverflowError("math range error"), np.linalg.LinAlgError("not definite")]

    @pytest.mark.parametrize("error", _ERRORS, ids=lambda e: type(e).__name__)
    def test_exits_3_with_one_line(self, monkeypatch, tmp_path, capsys, error):
        def run(cfg):
            raise error
        monkeypatch.setitem(EXPERIMENTS, "toda-identity", run)
        assert main(["run", "toda-identity", "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert err == f"error: numerical failure in toda-identity: {type(error).__name__}: {error}\n"
        # the failing run's report records the error; no tables are written
        assert out == "" and [f.name for f in tmp_path.iterdir()] == ["report.json"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert list(report) == ["experiment", "config", "passed", "checks", "details", "error"]
        assert report["experiment"] == "toda-identity" and report["config"]["out_dir"] == str(tmp_path)
        assert (report["passed"], report["checks"], report["details"]) == (False, [], {})
        assert report["error"] == err[len("error: "):-1]
        monkeypatch.chdir(tmp_path)  # selftest writes nothing, not even under the default results/
        assert main(["selftest"]) == 3
        assert capsys.readouterr().err == err
        assert [f.name for f in tmp_path.iterdir()] == ["report.json"]

    def test_other_errors_are_not_numerical_failures(self, monkeypatch, tmp_path):
        def run(cfg):
            raise ValueError("a bug, not a breakdown")
        monkeypatch.setitem(EXPERIMENTS, "toda-identity", run)
        with pytest.raises(ValueError, match="a bug"):
            main(["run", "toda-identity", "--out", str(tmp_path)])


class TestDefaults:
    def test_python_call_uses_the_experiment_defaults(self):
        assert ExperimentConfig("pitman-discrete").q == 24
        assert ExperimentConfig("pitman-discrete", q=0).q == 0
        assert ExperimentConfig("supq-limit").as_dict()["n_seeds"] == 50
        assert ExperimentConfig("supq-limit", p=25).p == 25  # the largest p whose column groups are p wide
        assert (ExperimentConfig("toda-identity").q, ExperimentConfig("my-convergence").n_seeds) == (None, 100)
        result = run_experiment(ExperimentConfig("pitman-discrete"))
        assert result.passed and result.config["q"] == 24
        assert [c.name for c in result.checks][-1] == "pitman_equals_bessel3_n24"

    def test_python_call_rejects_an_unknown_experiment(self):
        # rejected when the config is built, as every other bad field is, naming the known experiments
        with pytest.raises(ValueError, match="unknown experiment 'no-such-thing'; known: conditional-law, ") as info:
            ExperimentConfig("no-such-thing")
        assert all(name in str(info.value) for name in EXPERIMENTS)

    @pytest.mark.parametrize("experiment, field, value", [
        ("supq-limit", "n_seeds", 0), ("my-convergence", "workers", 0), ("conditional-law", "n_paths", 0),
        ("conditional-law", "dt", 0.0), ("supq-limit", "p", 0), ("pitman-discrete", "q", -1),
        ("my-generator", "lam", float("nan")), ("my-generator", "lam", float("inf")),
    ])
    def test_python_call_applies_the_cli_checks(self, experiment, field, value):
        with pytest.raises(ValueError, match=" must be "):
            ExperimentConfig(experiment, **{field: value})

    @pytest.mark.parametrize("experiment, field, value, message", [
        ("pitman-discrete", "q", True, "q must be of type int, got True"),
        ("pitman-discrete", "q", 2.5, "q must be of type int, got 2.5"),
        ("toda-identity", "seed", 1.5, "seed must be of type int, got 1.5"),
        ("toda-identity", "workers", 2.5, "workers must be of type int, got 2.5"),
        ("conditional-law", "seed", None, "seed must be of type int, got None"),
        ("my-convergence", "workers", None, "workers must be of type int, got None"),
        ("my-convergence", "n_seeds", 2.5, "seeds must be of type int, got 2.5"),
        ("supq-limit", "p", 1.5, "p must be of type int, got 1.5"),
        ("toda-identity", "out_dir", 5, "out must be of type str, got 5"),
        ("my-generator", "lam", "0.5", "lambda must be of type float, got '0.5'"),
        ("conditional-law", "n_paths", 0, "paths must be positive, got 0"),
        ("my-generator", "lam", float("nan"), "lambda must be finite, got nan"),
        ("toda-identity", "seed", -1, "seed must be in [0, 2^63), got -1"),
        ("my-convergence", "seed", 2**63, f"seed must be in [0, 2^63), got {2**63}"),
    ])
    def test_python_call_errors_name_the_flag(self, experiment, field, value, message):
        # the config-file type rule and the flag rules, from FIELDS, with the flag the CLI user types
        with pytest.raises(ValueError) as info:
            ExperimentConfig(experiment, **{field: value})
        assert str(info.value) == message

    def test_python_call_reads_a_value_its_type_holds(self):
        # an integral float is its int, and an int is its float, as in a config file
        cfg = ExperimentConfig("my-convergence", n_paths=2000.0, T=1)
        assert (cfg.n_paths, cfg.T) == (2000, 1.0) and type(cfg.n_paths) is int and type(cfg.T) is float

    def test_report_echoes_the_default(self, tmp_path):
        out = tmp_path / "res"
        assert main(["run", "pitman-discrete", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["q"] == 24 and len(report["checks"]) == 1 + 25


def _stub_run(ran: list):
    """A run_experiment that records its config and returns a report with no checks."""
    return lambda cfg: ran.append(cfg) or ExperimentResult(cfg.experiment, cfg.as_dict(), [])


class TestFieldTable:
    """DEFAULTS lists the model fields each experiment reads, with its defaults; it takes no other.
    FIELDS gives every config field its flag, type, rule and help."""

    def test_fields_table_covers_the_config(self):
        assert list(FIELDS) == [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"]
        flags = [flag for flag, *_ in FIELDS.values()]
        assert len(set(flags)) == len(flags) and {FIELDS[f][2] for f in FIELDS} <= {None, *experiments._RULES}

    def test_table_lists_the_fields_each_run_reads(self):
        # the cfg.<field> reads of each run_* function, its nested functions included
        tree = ast.parse(Path(experiments.__file__).read_text())
        runs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert set(DEFAULTS) == set(EXPERIMENTS) and set(MODEL_FIELDS) == set().union(*DEFAULTS.values())
        for name, run in EXPERIMENTS.items():
            reads = {node.attr for node in ast.walk(runs[run.__name__])
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
            assert reads - {"as_dict", "seed", "workers", "out_dir"} == set(DEFAULTS[name]), name

    def test_min_paths_covers_the_experiments_that_read_paths(self):
        # ExperimentConfig looks up _MIN_PATHS for every experiment that reads n_paths
        assert set(experiments._MIN_PATHS) == {name for name, own in DEFAULTS.items() if "n_paths" in own}

    def test_defaults_fill_the_fields_read_and_leave_the_rest_none(self):
        for name, own in DEFAULTS.items():
            cfg = ExperimentConfig(name)
            assert {f: getattr(cfg, f) for f in MODEL_FIELDS} == {f: own.get(f) for f in MODEL_FIELDS}, name

    def test_a_field_the_experiment_does_not_read_is_rejected(self):
        unread = [(name, f) for name in EXPERIMENTS for f in MODEL_FIELDS if f not in DEFAULTS[name]]
        assert len(unread) == 9 * 7 - 14
        for name, f in unread:
            with pytest.raises(ValueError, match=f"^{name} does not read {FIELDS[f][0]}$"):
                ExperimentConfig(name, **{f: 1})

    def test_run_all_hands_each_experiment_its_own_fields(self, monkeypatch, tmp_path):
        ran = []
        monkeypatch.setattr(cli, "run_experiment", _stub_run(ran))
        # my-generator's Markov test needs 1500 paths; the runs are stubbed, so 7 paths may reach every config
        monkeypatch.setattr(experiments, "_MIN_PATHS", dict.fromkeys(experiments._MIN_PATHS, 1))
        argv = ["run", "all", "--paths", "7", "--lambda", "0.7", "--q", "3", "--p", "3", "--seed", "5"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        given = {"n_paths": 7, "lam": 0.7, "q": 3, "p": 3}
        assert [cfg.experiment for cfg in ran] == sorted(EXPERIMENTS)
        for cfg in ran:
            own = DEFAULTS[cfg.experiment]
            expected = {f: given.get(f, own[f]) if f in own else None for f in MODEL_FIELDS}
            assert {f: getattr(cfg, f) for f in MODEL_FIELDS} == expected, cfg.experiment
            assert (cfg.seed, cfg.workers, cfg.out_dir) == (5, 1, str(tmp_path / cfg.experiment))
            report = json.loads((tmp_path / cfg.experiment / "report.json").read_text())
            assert report["config"] == cfg.as_dict()  # an unread field echoes null

    def test_every_benchmark_argv_builds_its_configs(self, monkeypatch, tmp_path):
        # the benchmark gives every experiment --workers, --seed and --out, and checks that its report echoes them
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        monkeypatch.setattr(cli, "run_experiment", _stub_run([]))
        for _why, runs in workloads.WORKLOADS.values():
            for experiment, flags in runs:
                out = tmp_path / experiment
                argv = workloads.experiment_argv(experiment, flags, workloads.DEFAULT_WORKLOAD_SEED, str(out))
                assert main(argv) == 0, argv
                config = json.loads((out / "report.json").read_text())["config"]
                assert (config["seed"], config["workers"], config["out_dir"]) == (
                    workloads.DEFAULT_WORKLOAD_SEED, 1, str(out))


_SPECIAL_INTS = [0, -1, 2**64, 2**64 + 1, -2**64, 2**70]
_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-320, 2.2e-308, 1e308, 1e-3, 0.3]
_INTS = hst.sampled_from(_SPECIAL_INTS) | hst.integers(-10, 10**4) | hst.integers(-2**70, 2**70)
_FLOATS = hst.sampled_from(_SPECIAL_FLOATS) | hst.floats()
# relative names only: every directory a run makes stays under the test's working directory
_NAMES = hst.text(alphabet="ab09_", max_size=5)
_FLAG_VALUES = {int: _INTS.map(str) | hst.sampled_from(["0.5", "1e3", "0x10", "x", ""]),
                float: _FLOATS.map(repr) | _INTS.map(str) | hst.sampled_from(["1_0", "x", ""])}
_CONFIG_VALUES = (_INTS | _FLOATS | hst.integers(-2**70, 2**70).map(float)
                  | hst.sampled_from([True, False, None, "5000", "ab", ""]))


def _flag_sets():
    """Up to three of the run flags other than --out, each with a value of its type or one argparse rejects."""
    kinds = {flag: kind for flag, kind, _, _ in FIELDS.values() if kind is not str}
    return hst.lists(hst.sampled_from(list(kinds)), unique=True, max_size=3).flatmap(
        lambda chosen: hst.fixed_dictionaries({flag: _FLAG_VALUES[kinds[flag]] for flag in chosen}))


def _config_objects():
    """Up to three known config keys, any of them with a value of the wrong type, and at times an unknown key."""
    known = hst.dictionaries(hst.sampled_from([flag for flag, *_ in FIELDS.values()]), _CONFIG_VALUES, max_size=3)
    unknown = hst.just({}) | hst.dictionaries(hst.sampled_from(["qq", "Seed", ""]), _CONFIG_VALUES, max_size=1)
    return hst.builds(lambda a, b: {**a, **b}, known, unknown)


_NAME = hst.sampled_from(sorted(EXPERIMENTS) + ["all"])
_OUT = hst.none() | _NAMES.filter(bool) | hst.just("file")
_PROPERTY = settings(max_examples=350, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestConfigLayerProperty:
    """Every `myproc run` flag set and config file ends in exit 0, 1 or 2, never in a traceback.

    The experiments are stubbed, so no experiment and no process pool runs whatever --workers says.
    """

    @staticmethod
    def _exit_code(monkeypatch, tmp_path, argv, config, passed):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: ExperimentResult(
            cfg.experiment, cfg.as_dict(), [Check("stub", passed, float(passed), "stub")]))
        Path("file").write_text("")
        if config is not None:
            Path("cfg.json").write_text(json.dumps(config))  # NaN and Infinity for non-finite floats
            argv = [*argv, "--config=cfg.json"]
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            return exc.code

    @_PROPERTY
    @given(name=_NAME, flags=_flag_sets(), out=_OUT, passed=hst.booleans())
    def test_flag_sets(self, monkeypatch, tmp_path, name, flags, out, passed):
        # "=" keeps a value such as "-5" from reading as a flag
        argv = ["run", name, *(f"--{key}={value}" for key, value in flags.items())]
        argv += [] if out is None else [f"--out={out}"]
        assert self._exit_code(monkeypatch, tmp_path, argv, None, passed) in (0, 1, 2)

    @_PROPERTY
    @given(name=_NAME, config=_config_objects(), out=_OUT, passed=hst.booleans())
    def test_config_files(self, monkeypatch, tmp_path, name, config, out, passed):
        argv = ["run", name] + ([] if out is None else [f"--out={out}"])
        assert self._exit_code(monkeypatch, tmp_path, argv, config, passed) in (0, 1, 2)


def _fake(name: str, passed: bool, ran: list):
    def run(cfg):
        ran.append(cfg)
        return ExperimentResult(name, cfg.as_dict(), [Check("fake", passed, float(passed), "fake")])
    return run


class TestRunAll:
    @pytest.fixture
    def registry(self, monkeypatch):
        """An empty experiment registry for the test to fill; the real one is restored afterwards."""
        for name in list(EXPERIMENTS):
            monkeypatch.delitem(EXPERIMENTS, name)
        return EXPERIMENTS

    def test_summary_row_per_experiment_and_exit_1_on_a_failure(self, registry, tmp_path, capsys):
        ran = []
        registry["conditional-law"] = _fake("conditional-law", True, ran)
        registry["toda-identity"] = _fake("toda-identity", False, ran)
        assert main(["run", "all", "--out", str(tmp_path)]) == 1
        summary = capsys.readouterr().out.split("== summary ==\n")[1].splitlines()
        assert [row.split()[:2] for row in summary] == [["PASS", "conditional-law"], ["FAIL", "toda-identity"]]
        assert all(row.endswith(" s") for row in summary)
        for cfg in ran:  # each experiment writes under <out>/<name>/ and echoes that directory
            report = json.loads((tmp_path / cfg.experiment / "report.json").read_text())
            assert report["config"]["out_dir"] == str(tmp_path / cfg.experiment)

    def test_all_passing_exits_0(self, registry, tmp_path):
        ran = []
        registry["conditional-law"] = _fake("conditional-law", True, ran)
        registry["toda-identity"] = _fake("toda-identity", True, ran)
        assert main(["run", "all", "--out", str(tmp_path), "--seed", "3"]) == 0
        assert [(cfg.experiment, cfg.seed) for cfg in ran] == [("conditional-law", 3), ("toda-identity", 3)]

    def test_numerical_failure_stops_the_run(self, registry, tmp_path, capsys):
        # conditional-law runs first in name order; its failure is reported and nothing after it runs
        def fail(cfg):
            raise OverflowError("math range error")
        ran = []
        registry["conditional-law"] = fail
        registry["toda-identity"] = _fake("toda-identity", True, ran)
        assert main(["run", "all", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: numerical failure in conditional-law: OverflowError: math range error\n"
        report = json.loads((tmp_path / "conditional-law" / "report.json").read_text())
        assert report["error"] == err[len("error: "):-1] and report["passed"] is False
        assert ran == [] and not (tmp_path / "toda-identity" / "report.json").exists()

    def test_flag_one_experiment_rejects_runs_nothing(self, registry, tmp_path, capsys):
        # my-convergence reads t = 0.1, so T = 0.05 is a usage error for it alone
        ran = []
        registry["conditional-law"] = _fake("conditional-law", True, ran)
        registry["my-convergence"] = _fake("my-convergence", True, ran)
        assert main(["run", "all", "--T", "0.05", "--out", str(tmp_path)]) == 2
        assert "got T = 0.05" in capsys.readouterr().err
        assert ran == [] and not list(tmp_path.rglob("report.json"))


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool the experiments open; each pool maps in-process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # _chunk_map imports it lazily
    return sizes


def _negate(run: list) -> list:
    return [-x for x in run]


class TestWorkerPool:
    @pytest.mark.parametrize("workers, n_args, sizes", [(8, 1, []), (8, 3, [3]), (2, 5, [2]), (1, 5, [])])
    def test_pool_has_at_most_one_worker_per_task(self, pool_sizes, monkeypatch, workers, n_args, sizes):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
        assert experiments._chunk_map(_negate, list(range(n_args)), 1, workers) == [-i for i in range(n_args)]
        assert pool_sizes == sizes

    @pytest.mark.parametrize("cpus, sizes", [(4, [4]), (1, []), (None, [])])
    def test_pool_has_at_most_one_worker_per_cpu(self, pool_sizes, monkeypatch, cpus, sizes):
        # --seeds 3000 --workers 3000 would otherwise fork 3000 processes at once
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        assert experiments._chunk_map(_negate, list(range(3000)), 1, 3000) == [-i for i in range(3000)]
        assert pool_sizes == sizes

    @pytest.mark.parametrize("size, workers, runs", [
        (2, 1, [[0, 1], [2, 3], [4]]), (10, 1, [[0, 1, 2, 3, 4]]), (10, 2, [[0, 1, 2], [3, 4]]),
        (10, 4, [[0, 1], [2, 3], [4]]), (1, 2, [[0], [1], [2], [3], [4]]),
    ])
    def test_runs_are_contiguous_and_at_least_one_per_worker(self, pool_sizes, monkeypatch, size, workers, runs):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
        seen = []
        assert experiments._chunk_map(lambda run: seen.append(run) or run, list(range(5)), size, workers) == list(range(5))
        assert seen == runs and pool_sizes == ([min(workers, len(runs))] if workers > 1 else [])

    def test_one_seed_forks_no_pool(self, pool_sizes, tmp_path):
        assert main(["run", "my-convergence", "--seeds", "1", "--T", "0.2", "--dt", "0.01", "--paths", "100",
                     "--workers", "4", "--out", str(tmp_path)]) in (0, 1)
        assert pool_sizes == []
