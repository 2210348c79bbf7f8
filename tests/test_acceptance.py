"""Acceptance suite: every exit criterion at its stated tolerance and budget.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s`); the
heavier experiments are run once per session and shared across the criteria
they cover.
"""

import hashlib
import json
import time

import pytest

from myproc.experiments import (
    ExperimentConfig,
    run_conditional_law,
    run_hoogenboom_det,
    run_my_convergence,
    run_my_generator,
    run_pitman_discrete,
    run_spherical_limit,
    run_supq_limit,
    run_toda_identity,
    run_tree_samelaw,
)

_BUDGETS = {}


def _timed(name, fn, cfg):
    t0 = time.time()
    out = fn(cfg)
    _BUDGETS[name] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def pitman():
    return _timed("pitman", run_pitman_discrete, ExperimentConfig("pitman-discrete", q=24))


@pytest.fixture(scope="module")
def samelaw():
    return _timed("samelaw", run_tree_samelaw, ExperimentConfig("tree-samelaw"))


@pytest.fixture(scope="module")
def toda():
    return _timed("toda", run_toda_identity, ExperimentConfig("toda-identity"))


@pytest.fixture(scope="module")
def spherical():
    return _timed("spherical", run_spherical_limit, ExperimentConfig("spherical-limit"))


@pytest.fixture(scope="module")
def convergence():
    return _timed("convergence", run_my_convergence,
                  ExperimentConfig("my-convergence", n_seeds=100))


@pytest.fixture(scope="module")
def generator():
    return _timed("generator", run_my_generator, ExperimentConfig("my-generator"))


@pytest.fixture(scope="module")
def conditional():
    return _timed("conditional", run_conditional_law, ExperimentConfig("conditional-law"))


@pytest.fixture(scope="module")
def supq():
    return _timed("supq", run_supq_limit, ExperimentConfig("supq-limit", n_seeds=50))


@pytest.fixture(scope="module")
def hoog():
    return _timed("hoog", run_hoogenboom_det, ExperimentConfig("hoogenboom-det"))


def _report(num, label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


def _checks(result, prefix):
    return [c for c in result.checks if c.name.startswith(prefix)]


def test_criterion_01_discrete_pitman_equals_bessel3(pitman):
    ok = pitman.passed
    _report(1, "discrete Pitman law equals discrete Bessel(3) law, n = 0..24, exact", ok)
    assert _BUDGETS["pitman"] < 5.0


def test_criterion_02_tree_same_law_exact(samelaw):
    cs = _checks(samelaw, "samelaw_q")
    ok = len(cs) == 3 and all(c.passed for c in cs)
    _report(2, "graph-walk radial law equals ground-state chain law, q in {2,3,5}, n <= 20, exact", ok)
    assert _BUDGETS["samelaw"] < 10.0


# SHA-256 of every experiment's outputs as sorted-key JSON: a table, the details, all
# checks (their as_dict) or all tables.  Exact rational arithmetic makes the tree outputs
# byte-stable, and a given version and seed the others, so any change to a law, a rate,
# a stream or a verdict shows here
_DIGESTS = {
    ("pitman", "distribution"): "6373f487becf0f0aa609795cab62be6bb678466ee4032bf51a41b31eb26bd921",
    ("pitman", "details"): "25e64e86a3318d6c8e77e5a2f4fc50bdd9c1618b6f12414ed82717de863b4fb0",
    ("samelaw", "kernel_rate"): "7cdd0552f1a1a2bb4bfe0848b00adbafdd6b773a5ea6df84ef9614b57e490337",
    ("samelaw", "radial_law"): "0cd3367bee0a9e730a6ed4dfa074eb16d5fb723c586f8ad3851f78bfe70962e2",
    ("samelaw", "details"): "c705527148796f69c88d6fbd09f402152dc93409d3f5f7af84cbb61fb23d2cd1",
    ("conditional", "checks"): "9121083db71e38f5959bfae4cc0af6c5febac4f18e6d29f9cacb3c2aa127f434",
    ("conditional", "tables"): "9cab4dc0606cca7bbb5c6039887c079e96580518c4bda9231fb804238e5be131",
    ("hoog", "checks"): "6c12b08a1f22c4152ffb6df9709749bf5aacdb2d0f50c66de5b1ac5c97213b5f",
    ("hoog", "tables"): "2d3c8382126ed5b80742db7164816e3477c4a4fc6b3b85c2485c68f79052dd7d",
    ("convergence", "checks"): "16811c1974fca5bfd322856d8bce3b19daf874fb7ae968a2f1356c42c7daabe1",
    ("convergence", "tables"): "bedbdc959dc2ae703958b8fb11feead419665680c8bd9c1b5ef9385dcf1ced33",
    ("generator", "checks"): "329b4b30f098031f50d17df4b20aa0b264b0f6b0c03c84bdb7474545dabd02ad",
    ("generator", "tables"): "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    ("spherical", "checks"): "fa070395a0e4b7c14bdfbbf34f7873ccad13b17fd999c8c19b6903c576fd912b",
    ("spherical", "tables"): "0db434ad9857daca1cfad14cb1ed4cdcc0c308cb2ddc7baada4b24adb5108e92",
    ("supq", "checks"): "8c6677bd15865d1612b666d679a54917f0833b5eeaf0a66e7a1d5e8de295b968",
    ("supq", "tables"): "45e3cb35c3946027b7f6e406596dd57f91b027dc38f8804f89dd2cea0f4c7185",
    ("toda", "checks"): "13dc4f13cd48249a4a4730366b7d1993bf9cbe990a794f117efbc0e0436e47c5",
    ("toda", "tables"): "485bbd53037816b0569e9cf9660b0da0b18eb857c122bbf2be53329f2d78beb6",
}


def test_exact_outputs_pinned(pitman, samelaw, toda, spherical, convergence, generator, conditional, supq, hoog):
    results = {"pitman": pitman, "samelaw": samelaw, "toda": toda, "spherical": spherical,
               "convergence": convergence, "generator": generator, "conditional": conditional,
               "supq": supq, "hoog": hoog}
    for (name, part), expected in _DIGESTS.items():
        result = results[name]
        whole = {"details": result.details, "checks": [c.as_dict() for c in result.checks], "tables": result.tables}
        obj = whole[part] if part in whole else result.tables[part]
        digest = hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()
        assert digest == expected, (name, part)


def test_criterion_03_kernel_convergence_rate(samelaw):
    cs = _checks(samelaw, "kernel_rate")
    ok = len(cs) == 3 and all(c.passed for c in cs)
    _report(3, "ground-state kernel converges to Bessel(3) at first order: err(q)/err(4q) in [3.5, 4.5]",
            ok, f"ratios={[round(c.value, 3) for c in cs]}")


def test_criterion_04_toda_macdonald_identity(toda):
    ok = toda.passed
    worst = max(c.value for c in toda.checks)
    _report(4, "two-branch series combination equals K_lam(e^-r) to 1e-8", ok, f"worst={worst:.2e}")
    assert _BUDGETS["toda"] < 5.0


def test_criterion_05_spherical_flat_limit(spherical):
    ok = spherical.passed
    worst = max(c.value for c in _checks(spherical, "gq_small"))
    _report(5, "|g_q| strictly decreasing over q in {8,32,128,512}, |g_512| < 1e-2, "
               "second lambda-derivative decreasing", ok, f"worst |g_512|={worst:.2e}")
    assert _BUDGETS["spherical"] < 30.0


def test_criterion_06_eta_mean(convergence):
    c = next(c for c in convergence.checks if c.name == "eta_mean")
    _report(6, "E[eta_1] = e^(1/2) within 3 SE at 1e5 paths, dt = 1e-3", c.passed,
            f"z={c.value:.2f}")


def test_criterion_07_shared_noise_convergence(convergence):
    mono = next(c for c in convergence.checks if c.name == "shared_noise_monotone")
    med = next(c for c in convergence.checks if c.name == "shared_noise_median")
    ok = mono.passed and med.passed
    _report(7, "err(1e4) < err(1e2) on >= 90/100 seeds and median err(1e4) < 0.05", ok,
            f"frac={mono.value:.2f} median={med.value:.4f}")
    assert _BUDGETS["convergence"] < 600.0


def test_criterion_08_generator_and_controls(generator):
    gen = next(c for c in generator.checks if c.name == "generator_log_eta")
    wrong = next(c for c in generator.checks if c.name == "wrong_drift_rejects")
    mu3 = next(c for c in generator.checks if c.name == "markov_mu3")
    mu2 = next(c for c in generator.checks if c.name == "markov_mu2")
    ok = gen.passed and wrong.passed and mu3.passed and mu2.passed
    _report(8, "log eta generator |z| <= 3; wrong drift and the non-Markov mu=3 functional reject",
            ok, f"z={gen.value:.2f} wrong_z={wrong.value:.1f} mu3_ks_ratio={mu3.value:.2f}")
    assert _BUDGETS["generator"] < 600.0


def test_criterion_09_conditional_law(conditional):
    ok = conditional.passed
    worst = max(c.value for c in conditional.checks)
    _report(9, "conditional-law estimates within 3 SE at lam in {0.5, 1}, t = 1, 1e5 paths", ok,
            f"worst z={worst:.2f}")
    assert _BUDGETS["conditional"] < 300.0


def test_criterion_10_matrix_flat_limit(supq):
    mono = next(c for c in supq.checks if c.name == "cosh_radial_monotone")
    p1 = next(c for c in supq.checks if c.name == "p1_reduction")
    p1_roundoff = next(c for c in supq.checks if c.name == "p1_reduction_roundoff")
    inv = next(c for c in supq.checks if c.name == "invariant_halving")
    ok = mono.passed and p1.passed and p1_roundoff.passed and inv.passed
    _report(10, "cosh-radial error decreasing over q in {50,200,800} on >= 90% of 50 seeds; "
                "p=1 reduction <= 5 sqrt(dt) and <= 1e-12 (round-off); invariant defect halves with dt", ok,
            f"frac={mono.value:.2f} p1={p1.value:.1e} halving={inv.value:.2f}")
    assert _BUDGETS["supq"] < 600.0


def test_criterion_11_theta_ratio(supq):
    c = next(c for c in supq.checks if c.name == "theta_ratio")
    _report(11, "complex : real scaling-constant ratio in [1.8, 2.2] at q = 800", c.passed,
            f"ratio={c.value:.3f}")


def test_monotone_errors_rows_match_header(supq):
    table = supq.tables["monotone_errors"]
    assert len(table["header"]) == 1 + 3 * 2 * 2  # seed, then q x {mid, end} x component
    assert all(len(row) == len(table["header"]) for row in table["rows"])


def test_criterion_12_determinant_flat_limit(hoog):
    ok = all(c.passed for c in hoog.checks)
    err = next(c for c in hoog.checks if c.name == "det_ratio_converged").value
    _report(12, "normalized finite-q determinant ratio converges to the ktilde ratio "
                "(decreasing over q in {16,64,256}, error < 5e-2 at 256)", ok, f"err={err:.2e}")
    assert _BUDGETS["hoog"] < 120.0
