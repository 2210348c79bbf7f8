"""Named, seeded, reproducible experiments binding all modules together.

Each experiment consumes an ExperimentConfig and produces an
ExperimentResult: a list of pass/fail checks (each carrying its numeric
value, threshold and full provenance) plus CSV-ready tables.  The CLI is a
thin shell around this module; the acceptance test suite calls the same
functions with the default configurations.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import matrixproc as mx
from . import paths as pth
from . import series as se
from . import stats as st
from . import trees as tr
from .specialfn import Multiplicities, gamma, ktilde_det, macdonald_k

__all__ = ["ExperimentConfig", "Check", "ExperimentResult", "EXPERIMENTS", "run_experiment", "DEFAULTS"]


@dataclass
class ExperimentConfig:
    """Seeded configuration; unknown fields are rejected upstream by the CLI."""

    experiment: str
    q: int = 0          # 0 means "use the experiment's own q grid"
    p: int = 2
    T: float = 1.0
    dt: float = 1e-3
    n_paths: int = 100_000
    lam: float = 0.5
    seed: int = 20240801
    n_seeds: int = 100
    workers: int = 1
    out_dir: Optional[str] = None

    def as_dict(self) -> Dict:
        return asdict(self)


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    threshold: str
    provenance: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": self.value,
            "threshold": self.threshold,
            "provenance": self.provenance,
        }


@dataclass
class ExperimentResult:
    name: str
    config: Dict
    checks: List[Check]
    tables: Dict[str, Dict] = field(default_factory=dict)
    details: Dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> Dict:
        return {
            "experiment": self.name,
            "config": self.config,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "details": self.details,
        }


def _table(header, rows):
    return {"header": list(header), "rows": [list(r) for r in rows]}


def _map_seeds(fn, args, workers: int) -> list:
    """fn over the per-seed argument tuples, sorted; in a process pool when workers > 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return sorted(ex.map(fn, args))
    return sorted(map(fn, args))


# --------------------------------------------------------------------------
# pitman-discrete: exact Pitman transform law == discrete Bessel(3) law

def run_pitman_discrete(cfg: ExperimentConfig) -> ExperimentResult:
    n_max = cfg.q if cfg.q else 24
    checks = []
    rows = []
    bessel = tr.bessel3_kernel()
    for n in range(n_max + 1):
        pw = tr.pitman_walk_distribution(n)
        bl = tr.exact_distribution(bessel, 0, n)
        checks.append(Check(f"pitman_equals_bessel3_n{n}", pw == bl, float(pw == bl),
                            "exact rational equality", {"n": n}))
    final = tr.pitman_walk_distribution(n_max)
    for state in sorted(final):
        rows.append([n_max, state, f"{final[state].numerator}/{final[state].denominator}",
                     float(final[state])])
    agg = Check("pitman_equals_bessel3_all", all(c.passed for c in checks), float(n_max),
                f"exact equality for n = 0..{n_max}", {"n_max": n_max})
    return ExperimentResult("pitman-discrete", cfg.as_dict(), [agg] + checks,
                            {"distribution": _table(["n", "state", "mass", "decimal"], rows)},
                            {"law_at_n_max": tr.distribution_to_strings(final)})


# --------------------------------------------------------------------------
# tree-samelaw: radial law of the folded walk == ground-state chain, exactly;
# plus the first-order kernel convergence rate to the Bessel(3) chain.

def run_tree_samelaw(cfg: ExperimentConfig) -> ExperimentResult:
    n_max = 20
    checks = []
    for q in (2, 3, 5):
        gk = tr.graph_kernel(q)
        r0 = tr.ground_state_kernel(q)
        ok = True
        for n in range(n_max + 1):
            lhs = tr.graph_distance_marginal(tr.exact_distribution(gk, (0, 0), n))
            rhs = tr.exact_distribution(r0, 0, n)
            ok = ok and lhs == rhs
        checks.append(Check(f"samelaw_q{q}", ok, float(ok),
                            f"exact distance-marginal equality, n <= {n_max}", {"q": q}))
    rate_rows = []
    bess = tr.bessel3_kernel()

    def kernel_err(q: int) -> Fraction:
        gs = tr.ground_state_kernel(q)
        return max(
            abs(dict(gs.row(n))[n + 1] - dict(bess.row(n))[n + 1]) for n in range(0, 11)
        )

    for q in (4, 16, 64):
        ratio = float(kernel_err(q) / kernel_err(4 * q))
        rate_rows.append([q, 4 * q, float(kernel_err(q)), float(kernel_err(4 * q)), ratio])
        checks.append(Check(f"kernel_rate_q{q}", 3.5 <= ratio <= 4.5, ratio,
                            "err(q)/err(4q) in [3.5, 4.5]", {"q": q}))
    inv_ok = True
    lim = tr.exact_distribution(tr.graph_kernel(limit=True), (0, 0), 16)
    for (x, y) in lim:
        inv_ok = inv_ok and x >= abs(y) and (x - y) % 2 == 0
    checks.append(Check("limit_walk_state_invariant", inv_ok, float(inv_ok),
                        "x >= |y| and x = y (mod 2) on the limit walk support", {"n": 16}))
    law = tr.graph_distance_marginal(tr.exact_distribution(tr.graph_kernel(2), (0, 0), n_max))
    law_rows = [[2, n_max, s, f"{m.numerator}/{m.denominator}", float(m)] for s, m in sorted(law.items())]
    return ExperimentResult(
        "tree-samelaw", cfg.as_dict(), checks,
        {"kernel_rate": _table(["q", "4q", "err_q", "err_4q", "ratio"], rate_rows),
         "radial_law": _table(["q", "n", "state", "mass", "decimal"], law_rows)},
        {"radial_law_q2": tr.distribution_to_strings(law)})


# --------------------------------------------------------------------------
# toda-identity: two-branch series combination equals the Macdonald function

def run_toda_identity(cfg: ExperimentConfig) -> ExperimentResult:
    tol = 1e-8
    checks = []
    rows = []
    for lam in (0.1, 0.3, 0.45):
        for r in (0.5, 1.0, 2.0, 3.0):
            lhs = 0.0
            for s in (1.0, -1.0):
                sl = s * lam
                series = se.toda_series(sl, 60)
                lhs += gamma(sl) * 2.0 ** (sl - 1.0) * se.eval_series(series, r)
            k = macdonald_k(lam, math.exp(-r))
            diff = abs(lhs - k)
            rows.append([lam, r, lhs, k, diff])
            checks.append(Check(f"toda_macdonald_lam{lam}_r{r}", diff <= tol, diff,
                                f"|identity defect| <= {tol}", {"lam": lam, "r": r}))
    return ExperimentResult("toda-identity", cfg.as_dict(), checks,
                            {"identity": _table(["lam", "r", "series_combination", "macdonald_k", "abs_diff"], rows)})


# --------------------------------------------------------------------------
# spherical-limit: flat-limit error of the rank-one spherical function

def run_spherical_limit(cfg: ExperimentConfig) -> ExperimentResult:
    qs = (8, 32, 128, 512)
    checks = []
    rows = []
    for lam in (0.2, 0.45):
        for r in (1.0, 2.0):
            vals = []
            for q in qs:
                mult = Multiplicities.from_group("SU", q)
                vals.append(se.g_q_error(lam, r, mult))
                rows.append([lam, r, q, vals[-1]])
            dec = all(abs(a) > abs(b) for a, b in zip(vals, vals[1:]))
            checks.append(Check(f"gq_decreasing_lam{lam}_r{r}", dec, abs(vals[-1]),
                                "strictly decreasing |g_q| over q in " + str(qs),
                                {"lam": lam, "r": r, "values": vals}))
            checks.append(Check(f"gq_small_at_512_lam{lam}_r{r}", abs(vals[-1]) < 1e-2,
                                abs(vals[-1]), "|g_512| < 1e-2", {"lam": lam, "r": r}))
    for r in (1.0, 2.0):
        d2 = [se.g_q_even_derivative(2, r, Multiplicities.from_group("SU", q)) for q in qs]
        dec = all(abs(a) > abs(b) for a, b in zip(d2, d2[1:]))
        checks.append(Check(f"gq_second_derivative_decreasing_r{r}", dec, abs(d2[-1]),
                            "decreasing |d^2 g_q / dlam^2 (0)| over q", {"r": r, "values": d2}))
    # normalizer-variant comparison: only the squared-Gamma form converges to 0
    var_rows = []
    for q in qs:
        mult = Multiplicities.from_group("SU", q)
        var_rows.append([q, se.g_q_error(0.2, 1.0, mult, "squared"),
                         se.g_q_error(0.2, 1.0, mult, "single")])
    return ExperimentResult(
        "spherical-limit", cfg.as_dict(), checks,
        {"g_q": _table(["lam", "r", "q", "g_q"], rows),
         "normalizer_variants": _table(["q", "g_q_squared", "g_q_single"], var_rows)})


# --------------------------------------------------------------------------
# my-convergence: E[eta_1] moment check and shared-noise hyperbolic limit

def _convergence_seed_err(args) -> tuple:
    seed, dt, T, q_small, q_large = args
    grid = pth.TimeGrid(T, round(T / dt))
    base = pth.RngStream(seed, 0)
    b = pth.sample_bm(grid, 0.0, base.child(0))
    lg = pth.log_eta(b).values
    k0 = grid.index_of(0.1)
    errs = []
    for q in (q_small, q_large):
        d = pth.hyperbolic_radial(q, b, base.child(1)).values
        errs.append(float(np.max(np.abs(d[k0:] - math.log(q) - lg[k0:]))))
    return seed, errs[0], errs[1]


def run_my_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    checks = []
    # exponential-functional mean: E[eta_t] = t e^{t/2}
    n_paths = cfg.n_paths
    _, z = pth.exp_functional_samples([1.0], cfg.dt, n_paths, pth.RngStream(cfg.seed, 1))
    eta1 = z[0]
    mean = float(eta1.mean())
    sem = float(eta1.std(ddof=1)) / math.sqrt(n_paths)
    target = math.exp(0.5)
    zscore = (mean - target) / sem
    checks.append(Check("eta_mean", abs(zscore) <= 3.0, zscore,
                        "|E[eta_1] - e^(1/2)| <= 3 SE",
                        {"seed": cfg.seed, "dt": cfg.dt, "n_paths": n_paths,
                         "mean": mean, "se": sem, "target": target}))
    # shared-noise convergence over seeds
    q_small, q_large = 100, 10_000
    args = [(cfg.seed + 100 + i, cfg.dt, cfg.T, q_small, q_large) for i in range(cfg.n_seeds)]
    results = _map_seeds(_convergence_seed_err, args, cfg.workers)
    rows = [[s, e2, e4] for s, e2, e4 in results]
    e2s = np.array([r[1] for r in rows])
    e4s = np.array([r[2] for r in rows])
    frac = float(np.mean(e4s < e2s))
    med = float(np.median(e4s))
    checks.append(Check("shared_noise_monotone", frac >= 0.9, frac,
                        f"err({q_large}) < err({q_small}) on >= 90% of {cfg.n_seeds} seeds",
                        {"seed": cfg.seed, "dt": cfg.dt, "n_seeds": cfg.n_seeds}))
    checks.append(Check("shared_noise_median", med < 0.05, med,
                        f"median err({q_large}) < 0.05",
                        {"seed": cfg.seed, "dt": cfg.dt, "n_seeds": cfg.n_seeds}))
    return ExperimentResult("my-convergence", cfg.as_dict(), checks,
                            {"seed_errors": _table(["seed", f"err_q{q_small}", f"err_q{q_large}"], rows)})


# --------------------------------------------------------------------------
# my-generator: generator z-test for log eta, plus Markov-property controls

def _markov_samples(mu: float, cfg: ExperimentConfig, stream: int):
    t_lag, t_mid, t_end = 0.9, 1.0, 1.5
    b, z = pth.exp_functional_samples([t_lag, t_mid, t_end], cfg.dt, cfg.n_paths,
                                      pth.RngStream(cfg.seed, stream), mu=mu)
    log_mid = np.log(z[1])
    cond = log_mid - np.log(z[0])
    return log_mid, np.log(z[2]), cond, b[1]


def run_my_generator(cfg: ExperimentConfig) -> ExperimentResult:
    checks = []
    h = cfg.dt
    bump = st.gaussian_bump(0.0, 1.0)
    # generator of log eta at t = 1 with the Macdonald log-derivative drift
    b, z = pth.exp_functional_samples([1.0, 1.0 + h], cfg.dt, cfg.n_paths,
                                      pth.RngStream(cfg.seed, 2))
    x_pairs = st.SampleBatch(np.log(z), {"seed": cfg.seed, "dt": cfg.dt, "n_paths": cfg.n_paths, "t": 1.0})
    rep = st.generator_test(x_pairs, lambda r: pth.my_drift(r, 0.0), bump, h)
    checks.append(Check("generator_log_eta", rep.passed, rep.statistic,
                        "|z| <= 3 against the Macdonald-drift generator", rep.details))
    # drifted case: same code path with driver drift lam and the lam-indexed drift
    lam = cfg.lam
    b, z = pth.exp_functional_samples([1.0, 1.0 + h], cfg.dt, cfg.n_paths,
                                      pth.RngStream(cfg.seed, 21), drift=lam)
    x_pairs = st.SampleBatch(np.log(z), {"seed": cfg.seed, "dt": cfg.dt,
                                         "n_paths": cfg.n_paths, "t": 1.0, "driver_drift": lam})
    rep = st.generator_test(x_pairs, lambda r: pth.my_drift(r, lam), bump, h)
    checks.append(Check("generator_log_eta_drifted", rep.passed, rep.statistic,
                        f"|z| <= 3 with driver drift {lam} and the matching drift index", rep.details))
    # wrong-drift control: an OU sample pair tested against zero drift must reject
    gen = pth.RngStream(cfg.seed, 3).generator()
    x0 = gen.normal(0.0, math.sqrt(0.5), cfg.n_paths)
    x1 = x0 * math.exp(-h) + math.sqrt((1.0 - math.exp(-2.0 * h)) / 2.0) * gen.standard_normal(cfg.n_paths)
    rep = st.generator_test(st.SampleBatch(np.stack([x0, x1]), {"seed": cfg.seed}),
                            lambda r: np.zeros_like(r), bump, h)
    checks.append(Check("wrong_drift_rejects", not rep.passed, rep.statistic,
                        "|z| > 3 for the zero-drift hypothesis on OU data", rep.details))
    # Markov-property tests across the exponential-functional family
    expect = {1.0: True, 2.0: True, 3.0: False}
    for mu, should_pass in expect.items():
        mid, end, cond, _ = _markov_samples(mu, cfg, stream=4 + int(mu))
        rep = st.markov_property_test(
            st.SampleBatch(mid, {"seed": cfg.seed, "dt": cfg.dt, "n_paths": cfg.n_paths, "mu": mu}),
            end, cond)
        ok = rep.passed == should_pass
        checks.append(Check(f"markov_mu{mu:g}", ok, rep.statistic,
                            ("pass" if should_pass else "reject") + " at 1% (Bonferroni over bins)",
                            rep.details))
    return ExperimentResult("my-generator", cfg.as_dict(), checks)


# --------------------------------------------------------------------------
# conditional-law: E[e^{lam B_t} | eta-path] = K_lam(1/eta_t) / K_0(1/eta_t)

def run_conditional_law(cfg: ExperimentConfig) -> ExperimentResult:
    checks = []
    rows = []
    b, z = pth.exp_functional_samples([1.0], cfg.dt, cfg.n_paths, pth.RngStream(cfg.seed, 8))
    b1, eta1 = b[0], z[0]
    samples = st.SampleBatch(np.stack([b1, eta1]),
                             {"seed": cfg.seed, "dt": cfg.dt, "n_paths": cfg.n_paths, "t": 1.0})
    for lam in (0.5, 1.0):
        if lam == 0.5:
            edges = np.quantile(eta1, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
            edges[0] -= 1.0
            gs = st.indicator_bins(edges)
        else:
            gs = [st.gaussian_bump(c, 0.6).f for c in (0.8, 1.6, 3.0)]
        rep = st.conditional_law_test(samples, lam, gs)
        checks.append(Check(f"conditional_law_lam{lam}", rep.passed, rep.statistic,
                            "all test-function estimates within 3 SE", rep.details))
        for row in rep.details["per_function"]:
            rows.append([lam, row["g"], row["estimate"], row["se"], row["z"]])
    return ExperimentResult("conditional-law", cfg.as_dict(), checks,
                            {"estimates": _table(["lam", "g", "estimate", "se", "z"], rows)})


# --------------------------------------------------------------------------
# supq-limit: matrix flat limits, the p=1 reduction, the structural invariant,
# and the real-vs-complex scaling-constant ratio

def _supq_seed_monotone(args) -> tuple:
    seed, dt, T, p, q_list, inner = args
    grid = pth.TimeGrid(T, round(T / dt))
    r = pth.RngStream(seed, 0)
    lshared = mx.sample_triangular_bm(p, "complex", grid, r.child(10**6))
    idx = [grid.n_steps // 2, grid.n_steps]
    _, target = mx.eta_matrix(lshared, indices=idx)
    errs = []
    for q in q_list:
        acc = np.zeros((len(idx), p))
        for rep in range(inner):
            sp = mx.simulate_su_solvable(p, q, grid, r.child(rep), lshared)
            _, rad = mx.finite_q_radial(sp, indices=idx)
            acc += np.abs(np.cosh(rad) / q - target)
        errs.append((acc / inner).mean(axis=0))
    ok = all(np.all(a > b) for a, b in zip(errs, errs[1:]))
    return seed, ok, [float(v) for e in errs for v in e]


def run_supq_limit(cfg: ExperimentConfig) -> ExperimentResult:
    checks = []
    q_list = (50, 200, 800)
    inner = 8
    n_seeds = min(cfg.n_seeds, 50)
    args = [(cfg.seed + 500 + i, cfg.dt, cfg.T, cfg.p, q_list, inner) for i in range(n_seeds)]
    results = _map_seeds(_supq_seed_monotone, args, cfg.workers)
    frac = float(np.mean([ok for _, ok, _ in results]))
    checks.append(Check("cosh_radial_monotone", frac >= 0.9, frac,
                        f"componentwise error decreasing over q={q_list} on >= 90% of {n_seeds} seeds "
                        f"(per-seed error = mean over {inner} transverse-noise replicas, shared l)",
                        {"seed": cfg.seed, "dt": cfg.dt, "q_list": list(q_list), "inner_replicas": inner}))
    rows = [[s] + v for s, _, v in results]
    # p = 1 reduction at fine dt: matrix functional vs scalar functional, same noise
    grid = pth.TimeGrid(1.0, 10_000)
    inc = mx.triangular_increments(1, "real", grid, pth.RngStream(cfg.seed, 9))
    lpath = mx.triangular_from_increments(1, "real", grid, inc)
    driver = pth.ScalarPath(grid, np.concatenate([[0.0], np.cumsum(inc[:, 0, 0])]))
    eta_scalar = pth.eta_functional(driver).values[-1]
    _, rad = mx.eta_matrix(lpath, indices=[grid.n_steps])
    rel = abs(rad[0, 0] - eta_scalar) / abs(eta_scalar)
    tol = 5.0 * math.sqrt(grid.dt)
    checks.append(Check("p1_reduction", rel <= tol, rel,
                        f"relative gap <= 5 sqrt(dt) = {tol:.3g}",
                        {"seed": cfg.seed, "dt": grid.dt}))
    # invariant defect halves with dt (ratio of replica means)
    defects = {}
    for n_steps in (1000, 2000):
        acc = 0.0
        reps = 48
        for i in range(reps):
            g = pth.TimeGrid(1.0, n_steps)
            r = pth.RngStream(cfg.seed + i, 11)
            lsh = mx.sample_triangular_bm(cfg.p, "complex", g, r.child(10**6))
            sp = mx.simulate_su_solvable(cfg.p, 100, g, r, lsh)
            acc += sp.invariant_defect().max()
        defects[n_steps] = acc / reps
    ratio = defects[1000] / defects[2000]
    checks.append(Check("invariant_halving", 1.5 <= ratio <= 2.7, ratio,
                        "defect(dt) / defect(dt/2) in [1.5, 2.7] over 48 replicas",
                        {"seed": cfg.seed, "q": 100, "defects": defects}))
    # real-vs-complex scaling constant (theta) ratio at large q
    alphas = {}
    for fieldtag in ("complex", "real"):
        acc = 0.0
        reps = 16
        for i in range(reps):
            g = pth.TimeGrid(1.0, 1000)
            r = pth.RngStream(cfg.seed + 7000 + i, 13 if fieldtag == "complex" else 17)
            lsh = mx.sample_triangular_bm(cfg.p, fieldtag, g, r.child(10**6))
            sp = mx.simulate_su_solvable(cfg.p, 800, g, r, lsh)
            J = mx.integrated_ll_star(lsh)
            acc += float(np.real(np.trace(sp.c[-1]))) / (800 * float(np.real(np.trace(J[-1]))))
        alphas[fieldtag] = acc / reps
    theta_ratio = alphas["complex"] / alphas["real"]
    checks.append(Check("theta_ratio", 1.8 <= theta_ratio <= 2.2, theta_ratio,
                        "complex : real c_t/q scaling ratio in [1.8, 2.2] at q = 800",
                        {"seed": cfg.seed, "alphas": alphas, "q": 800, "replicas": 16}))
    return ExperimentResult("supq-limit", cfg.as_dict(), checks,
                            {"monotone_errors": _table(
                                ["seed"] + [f"err_q{q}_t{t}_c{c}" for q in q_list for t in ("mid", "end") for c in range(cfg.p)],
                                rows)})


# --------------------------------------------------------------------------
# hoogenboom-det: normalized finite-q determinants converge to the ktilde ratio

def run_hoogenboom_det(cfg: ExperimentConfig) -> ExperimentResult:
    p = 2
    r = (1.5, 0.5)
    r0 = (2.0, 1.0)
    target = ktilde_det(r) / ktilde_det(r0)
    rows = []
    errs = []
    for q in (16, 64, 256):
        val = se.finite_q_ktilde(r, p, q) / se.finite_q_ktilde(r0, p, q)
        err = abs(val - target)
        rows.append([q, val, target, err])
        errs.append(err)
    checks = [
        Check("det_ratio_decreasing", all(a > b for a, b in zip(errs, errs[1:])),
              errs[-1], "error decreasing over q in (16, 64, 256)",
              {"r": r, "r0": r0, "errors": errs}),
        Check("det_ratio_converged", errs[-1] < 5e-2, errs[-1],
              "error < 5e-2 at q = 256", {"r": r, "r0": r0}),
    ]
    # consistency of the closed-form determinant formula in rank one
    mult = Multiplicities(2 * (6 - 1), 1)
    v1 = se.hoogenboom_det([0.21], 1, 6, [2.0])
    v2 = se.rank1_spherical(0.21, mult, 2.0, log_scale=-0.5 * se.log_delta_q(2.0, mult))
    checks.append(Check("rank_one_reduction", abs(v1 - v2) <= 1e-12 * abs(v2), abs(v1 - v2),
                        "p=1 determinant equals the rank-one spherical value", {"q": 6}))
    return ExperimentResult("hoogenboom-det", cfg.as_dict(), checks,
                            {"det_ratio": _table(["q", "ratio", "target", "abs_err"], rows)})


# --------------------------------------------------------------------------

EXPERIMENTS = {
    "pitman-discrete": run_pitman_discrete,
    "tree-samelaw": run_tree_samelaw,
    "toda-identity": run_toda_identity,
    "spherical-limit": run_spherical_limit,
    "my-convergence": run_my_convergence,
    "my-generator": run_my_generator,
    "conditional-law": run_conditional_law,
    "supq-limit": run_supq_limit,
    "hoogenboom-det": run_hoogenboom_det,
}

# experiment-specific default overrides applied by the CLI when flags are absent
DEFAULTS = {
    "pitman-discrete": {"q": 24},
    "my-convergence": {"n_seeds": 100},
    "supq-limit": {"n_seeds": 50},
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    try:
        fn = EXPERIMENTS[cfg.experiment]
    except KeyError:
        raise KeyError(f"unknown experiment {cfg.experiment!r}; known: {sorted(EXPERIMENTS)}") from None
    return fn(cfg)
