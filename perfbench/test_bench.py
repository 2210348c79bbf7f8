"""Tests of the benchmark's own machinery: the verdict gate, the tracer and
BENCHMARK.json.  Run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import copy
import json
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import gate
import hostspeed
import spans
from workloads import DEFAULT_WORKLOAD_SEED, WORKLOADS, experiment_argv

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = gate.load_expected()


def _passing_report(experiment: str, argv: list) -> dict:
    """A report that matches the pinned expectations exactly."""
    flags = gate._flag_values(argv)
    checks = [{"name": e["name"], "passed": True, "value": 0.0, "threshold": e["threshold"],
               "provenance": dict(e["sizes"])} for e in EXPECTED[experiment]]
    return {"experiment": experiment, "config": flags, "checks": checks}


def _fail_frac(experiment, argv, report, rc=0, error=None) -> float:
    expected = EXPECTED[experiment]
    return len(gate.gate_experiment(expected, argv, rc, error, report)) / len(expected)


@pytest.fixture(params=[(w, e, f) for w, (_why, exps) in WORKLOADS.items() for e, f in exps],
                ids=lambda p: p[1])
def case(request):
    _workload, experiment, flags = request.param
    argv = experiment_argv(experiment, flags, DEFAULT_WORKLOAD_SEED, "out")
    return experiment, argv, _passing_report(experiment, argv)


def test_every_workload_experiment_is_pinned():
    pinned = {e for _why, exps in WORKLOADS.values() for e, _f in exps}
    assert pinned == set(EXPECTED)
    assert all(EXPECTED[e] for e in pinned)


def test_matching_report_passes(case):
    experiment, argv, report = case
    assert _fail_frac(experiment, argv, report) == 0.0


def test_removed_check_counts(case):
    experiment, argv, report = case
    report["checks"].pop()
    assert _fail_frac(experiment, argv, report) > 0.0


def test_renamed_check_counts(case):
    experiment, argv, report = case
    report["checks"][0]["name"] += "_v2"
    assert _fail_frac(experiment, argv, report) > 0.0


def test_changed_threshold_counts(case):
    experiment, argv, report = case
    report["checks"][-1]["threshold"] += " (relaxed)"
    assert _fail_frac(experiment, argv, report) > 0.0


def test_failed_check_counts(case):
    experiment, argv, report = case
    report["checks"][0]["passed"] = False
    assert _fail_frac(experiment, argv, report) > 0.0


@pytest.mark.parametrize("rc,error", [(1, None), (2, None), (None, "ValueError: boom")])
def test_exit_status_or_exception_fails_every_check(case, rc, error):
    experiment, argv, report = case
    assert _fail_frac(experiment, argv, report, rc=rc, error=error) == 1.0


def test_config_echo_must_match_flags(case):
    experiment, argv, report = case
    report["config"]["seed"] += 1
    assert _fail_frac(experiment, argv, report) == 1.0
    assert _fail_frac(experiment, argv, None) == 1.0


def test_reduced_sample_size_counts():
    sized = [(w, e, f) for w, (_why, exps) in WORKLOADS.items() for e, f in exps
             if any("n_paths" in c["sizes"] for c in EXPECTED[e])]
    assert {e for _w, e, _f in sized} >= {"my-generator", "conditional-law", "my-convergence"}
    for _w, experiment, flags in sized:
        argv = experiment_argv(experiment, flags, DEFAULT_WORKLOAD_SEED, "out")
        report = _passing_report(experiment, argv)
        for check in report["checks"]:
            if "n_paths" in check["provenance"]:
                check["provenance"]["n_paths"] //= 2
        assert _fail_frac(experiment, argv, report) > 0.0


def test_output_digest_sees_tables_and_checks(tmp_path):
    report = {"checks": [{"name": "a", "value": 1.0}]}
    (tmp_path / "t.csv").write_text("x\n1\n")
    d0 = gate.output_digest(tmp_path, report)
    assert gate.output_digest(tmp_path, copy.deepcopy(report)) == d0
    (tmp_path / "t.csv").write_text("x\n2\n")
    d1 = gate.output_digest(tmp_path, report)
    assert d1["tables"] != d0["tables"] and d1["checks"] == d0["checks"]
    report["checks"][0]["value"] = 1.5
    assert gate.output_digest(tmp_path, report)["checks"] != d1["checks"]


def test_self_time_excludes_wrapped_children():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        wleaf()
        wleaf()

    wleaf = tracer.wrap("mod.leaf", leaf)
    tracer.wrap("mod.outer", outer)()
    s = tracer.summary()["spans"]
    assert s["mod.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 1.0, "units": {}}
    assert s["mod.leaf"]["calls"] == 2 and s["mod.leaf"]["self_s"] == 4.0
    assert ["mod.outer", "mod.leaf", 2, 4.0] in tracer.summary()["edges"]


def test_install_rebinds_every_import():
    sys.path.insert(0, str(ROOT / "src"))
    import myproc.cli  # noqa: F401 - loads every module
    from myproc import experiments, paths, series, specialfn

    saved = {m: dict(vars(m)) for m in spans._package_modules()}
    saved_registry = dict(experiments.EXPERIMENTS)
    saved_generator = paths.RngStream.generator
    try:
        tracer = spans.Tracer()
        assert spans.install(tracer) == []
        assert experiments.gamma is specialfn.gamma is not saved[specialfn]["gamma"]
        assert series.macdonald_k is specialfn.macdonald_k
        assert experiments.EXPERIMENTS["supq-limit"] is experiments.run_supq_limit
        paths.RngStream(1, 0).generator()
        experiments.ktilde_det((1.5, 0.5))
        got = tracer.summary()["spans"]
        assert got["paths.RngStream.generator"]["calls"] == 1
        assert got["specialfn.ktilde_det"]["calls"] == 1
    finally:
        for mod, attrs in saved.items():
            for attr, val in attrs.items():
                if isinstance(val, types.FunctionType):
                    setattr(mod, attr, val)
        experiments.EXPERIMENTS.update(saved_registry)
        paths.RngStream.generator = saved_generator


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(spans.per_layer_spec())
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_ref_s", "setup_s", "peak_rss_mb"}
    for m in bench["per_layer"]:
        assert (m["unit"], m["better"]) == spans.per_layer_spec()[m["name"]]


def test_exact_workload_end_to_end():
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "exact",
                          "--seed", "3", "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    m = result["metrics"]
    assert m["trees.exact_distribution.calls"]["value"] > 0
    assert m["paths.hyperbolic_radial.calls"]["value"] == 0
    assert m["run.span_share"]["value"] >= 0.9


def test_sampler_samples_during_a_pass_and_takes_its_time_out():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4.5 * hostspeed.PERIOD_S:
            time.sleep(0.01)
    finally:
        sampler.stop()
    assert len(sampler.kernel_s) >= 4  # one at the start, then one per period
    assert all(len(k) == len(hostspeed.PARTS) for k in sampler.kernel_s)
    # the start sample is not part of the pass; the periodic ones are
    assert 0 < sampler.handler_s < time.perf_counter() - t0
    assert sampler.speed() > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_exact_workload_end_to_end_untraced():
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "exact",
                          "--seed", "3", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
