"""Named, seeded, reproducible experiments binding all modules together.

Each experiment consumes an ExperimentConfig and produces an
ExperimentResult: a list of pass/fail checks (each carrying its numeric
value, threshold and full provenance) plus CSV-ready tables.  The CLI is a
thin shell around this module; the acceptance test suite calls the same
functions with the default configurations.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from . import matrixproc as mx
from . import paths as pth
from . import series as se
from . import stats as st
from . import trees as tr
from .specialfn import Multiplicities, gamma, ktilde_det, macdonald_k, macdonald_ratio

__all__ = ["ExperimentConfig", "Check", "ExperimentResult", "EXPERIMENTS", "run_experiment", "DEFAULTS"]


# the Monte Carlo batches run their replicas in chunks whose counted arrays stay near
# this many bytes, so memory stays bounded at any p and seed count; _chunk_size counts
# per q value the Gram engine's noise K (twice W's size), W and c, and the temporaries
# of a finite_q_radial read-out
_CHUNK_BYTES = 12 << 20

# fewest paths whose statistics each path-sampling experiment can form: a
# sample standard deviation needs two, the Markov test full bins, and
# conditional-law's five quantile bins of eta a path each
_MIN_PATHS = {
    "my-convergence": 2,
    "my-generator": st._MARKOV_BINS * 2 * st._MARKOV_MIN_HALF,
    "conditional-law": 5,
}

# grid times that both the runs and ExperimentConfig's on-grid rule read: my-convergence's
# eta-mean time and error start, my-generator's lag, present and future, conditional-law's t
_ETA_MEAN_T, _ERROR_FROM_T = 1.0, 0.1
_GENERATOR_TIMES = (0.9, 1.0, 1.5)
_CONDITIONAL_T = 1.0

# supq-limit's nested q values; p is at most half the first, so that every
# column group (q_1 - p, q_2 - q_1, ... transverse columns) is at least p wide
_SUPQ_Q = (50, 200, 800)


# the model fields each experiment reads, with its defaults; the rest stay None, and all take seed, workers, out_dir
DEFAULTS = {
    "pitman-discrete": {"q": 24},
    "tree-samelaw": {}, "toda-identity": {}, "spherical-limit": {}, "hoogenboom-det": {},
    "my-convergence": {"T": 1.0, "dt": 1e-3, "n_paths": 100_000, "n_seeds": 100},
    "my-generator": {"dt": 1e-3, "n_paths": 100_000, "lam": 0.5},
    "conditional-law": {"dt": 1e-3, "n_paths": 100_000},
    "supq-limit": {"p": 2, "T": 1.0, "dt": 1e-3, "n_seeds": 50},
}
MODEL_FIELDS = ("q", "p", "T", "dt", "n_paths", "lam", "n_seeds")
# each config field but experiment: its flag (also its config-file key), type, value rule and flag help
FIELDS = {
    "q": ("q", int, "non-negative", "walk horizon"),
    "p": ("p", int, "positive", "matrix rank"),
    "T": ("T", float, "positive", "time horizon"),
    "dt": ("dt", float, "positive", "time step"),
    "n_paths": ("paths", int, "positive", "Monte Carlo path count"),
    "lam": ("lambda", float, "finite", "driver drift and drift index"),
    "seed": ("seed", int, None, "base seed"),
    "n_seeds": ("seeds", int, "positive", "number of outer seeds"),
    "workers": ("workers", int, "positive", "worker processes for seed batches"),
    "out_dir": ("out", str, None, "output directory"),
}
_RULES = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0, "finite": math.isfinite}


@dataclass
class ExperimentConfig:
    """Seeded configuration, checked here against FIELDS and DEFAULTS: a Python caller gets the CLI's checks."""

    experiment: str
    q: Optional[int] = None
    p: Optional[int] = None
    T: Optional[float] = None
    dt: Optional[float] = None
    n_paths: Optional[int] = None
    lam: Optional[float] = None
    seed: int = 20240801
    n_seeds: Optional[int] = None
    workers: int = 1
    out_dir: Optional[str] = None

    @staticmethod
    def typed(key: str, value):
        """value as key's FIELDS type, which must hold it unchanged (no bool; 2.0 is 2; NaN is left to the rule)."""
        flag, kind = FIELDS[key][:2]
        with suppress(TypeError, ValueError, OverflowError):
            if not isinstance(value, bool) and ((out := kind(value)) == value or out != out and value != value):
                return out
        raise ValueError(f"{flag} must be of type {kind.__name__}, got {value!r}")

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; known: {', '.join(sorted(EXPERIMENTS))}")
        own = DEFAULTS[self.experiment]
        unread = [FIELDS[key][0] for key in MODEL_FIELDS if key not in own and getattr(self, key) is not None]
        if unread:
            raise ValueError(f"{self.experiment} does not read {', '.join(unread)}")
        # the type, then the rule; these come before the grid rule, which divides by dt
        for key, (flag, _, rule, _) in FIELDS.items():
            value = own.get(key) if getattr(self, key) is None else self.typed(key, getattr(self, key))
            if rule and value is not None and not _RULES[rule](value):
                raise ValueError(f"{flag} must be {rule}, got {value}")
            setattr(self, key, value)
        if self.n_paths is not None and self.n_paths < _MIN_PATHS[self.experiment]:
            raise ValueError(f"{self.experiment} needs paths >= {_MIN_PATHS[self.experiment]}, got {self.n_paths}")
        if self.experiment == "my-convergence" and not self.T >= _ERROR_FROM_T:
            raise ValueError(f"my-convergence measures its error from t = {_ERROR_FROM_T} on, got T = {self.T}")
        if self.experiment == "supq-limit" and self.p > _SUPQ_Q[0] // 2:
            raise ValueError(f"supq-limit needs p <= {_SUPQ_Q[0] // 2}, half its smallest q, got p = {self.p}")
        # the times each path experiment reads off its dt grid
        marks = {"my-convergence": lambda: (_ERROR_FROM_T, _ETA_MEAN_T, self.T), "my-generator": lambda: _GENERATOR_TIMES,
                 "conditional-law": lambda: (_CONDITIONAL_T,), "supq-limit": lambda: (self.T, self.T / 2)}
        for t in marks.get(self.experiment, tuple)():
            k = pth._grid_steps(t, self.dt)
            if k is None or k < 1:
                raise ValueError(f"{self.experiment} reads t = {t}, which is not a whole number of dt = {self.dt} steps")
            if k > np.iinfo(np.intp).max:
                raise ValueError(f"{self.experiment} reads t = {t}, {k:.3g} steps of dt = {self.dt}, more than an array holds")

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
        return {**asdict(self), "passed": bool(self.passed)}


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


def _chunk_map(fn, items: list, size: int, workers: int) -> list:
    """fn over consecutive runs of at most size items, at least one run per worker, with the
    lists it returns concatenated in order; in a process pool of at most one worker per run and
    per CPU when that is more than one (the pool forks all its workers at once)."""
    size = min(size, -(-len(items) // workers))
    runs = [items[i:i + size] for i in range(0, len(items), size)]
    workers = min(workers, len(runs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return [x for out in ex.map(fn, runs) for x in out]
    return [x for run in runs for x in fn(run)]


def _chunk_size(n_steps: int, n_q: int, p: int, field: str, n_read: int = 0) -> int:
    """Replicas per chunk: per q value K, W and c hold four (n_steps, p, p) paths, and a finite_q_radial
    read-out at n_read indices allocates about eight (n_read, p, p) arrays (the gathered c, l and l*^-1,
    their product and sums, the singular values and their arccosh); 8-byte (real) or 16-byte entries."""
    return max(1, _CHUNK_BYTES // ((4 * n_steps + 8 * n_read) * n_q * p * p * (16 if field == "complex" else 8)))


# --------------------------------------------------------------------------
# pitman-discrete: exact Pitman transform law == discrete Bessel(3) law

def run_pitman_discrete(cfg: ExperimentConfig) -> ExperimentResult:
    n_max = cfg.q
    pitman = tr.pitman_walk_distribution(n_max)
    bessel = tr.exact_distribution(tr.bessel3_kernel(), 0, n_max)
    checks = [Check(f"pitman_equals_bessel3_n{n}", pw == bl, float(pw == bl),
                    "exact rational equality", {"n": n})
              for n, (pw, bl) in enumerate(zip(pitman, bessel))]
    final = pitman[-1]
    rows = [[n_max, state, f"{final[state].numerator}/{final[state].denominator}", float(final[state])]
            for state in sorted(final)]
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
    radial_laws = {}
    for q in (2, 3, 5):
        radial_laws[q] = tr.exact_distribution(tr.graph_kernel(q), (0, 0), n_max, image=tr.graph_distance)
        ok = radial_laws[q] == tr.exact_distribution(tr.ground_state_kernel(q), 0, n_max)
        checks.append(Check(f"samelaw_q{q}", ok, float(ok),
                            f"exact distance-marginal equality, n <= {n_max}", {"q": q}))
    rate_rows = []
    bess = tr.bessel3_kernel()

    def kernel_err(q: int) -> Fraction:
        gs = tr.ground_state_kernel(q)
        return max(
            abs(dict(gs.row(n))[n + 1] - dict(bess.row(n))[n + 1]) for n in range(0, 11)
        )

    err = {q: kernel_err(q) for q in (4, 16, 64, 256)}
    for q in (4, 16, 64):
        ratio = float(err[q] / err[4 * q])
        rate_rows.append([q, 4 * q, float(err[q]), float(err[4 * q]), ratio])
        checks.append(Check(f"kernel_rate_q{q}", 3.5 <= ratio <= 4.5, ratio,
                            "err(q)/err(4q) in [3.5, 4.5]", {"q": q}))
    lim = tr.exact_distribution(tr.graph_kernel(), (0, 0), 16)[-1]
    inv_ok = all(x >= abs(y) and (x - y) % 2 == 0 for (x, y) in lim)
    checks.append(Check("limit_walk_state_invariant", inv_ok, float(inv_ok),
                        "x >= |y| and x = y (mod 2) on the limit walk support", {"n": 16}))
    law = radial_laws[2][-1]
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
            lhs = sum(gamma(sl) * 2.0 ** (sl - 1.0) * se.eval_series(sl, se.toda_series(sl, 60), r)
                      for sl in (lam, -lam))
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
    mults = [Multiplicities(2 * (q - 1), 1) for q in qs]  # SU(1,q)
    checks = []
    rows = []
    g_q = {}
    for lam in (0.2, 0.45):
        for r in (1.0, 2.0):
            vals = g_q[lam, r] = [se.g_q_error(lam, r, mult) for mult in mults]
            rows += [[lam, r, q, v] for q, v in zip(qs, vals)]
            dec = all(abs(a) > abs(b) for a, b in zip(vals, vals[1:]))
            checks.append(Check(f"gq_decreasing_lam{lam}_r{r}", dec, abs(vals[-1]),
                                "strictly decreasing |g_q| over q in " + str(qs),
                                {"lam": lam, "r": r, "values": vals}))
            checks.append(Check(f"gq_small_at_512_lam{lam}_r{r}", abs(vals[-1]) < 1e-2,
                                abs(vals[-1]), "|g_512| < 1e-2", {"lam": lam, "r": r}))
    for r in (1.0, 2.0):
        d2 = [se.g_q_even_derivative(2, r, mult) for mult in mults]
        dec = all(abs(a) > abs(b) for a, b in zip(d2, d2[1:]))
        checks.append(Check(f"gq_second_derivative_decreasing_r{r}", dec, abs(d2[-1]),
                            "decreasing |d^2 g_q / dlam^2 (0)| over q", {"r": r, "values": d2}))
    # normalizer-variant comparison: only the squared-Gamma form (g_q's default) converges to 0
    var_rows = [[q, squared, se.g_q_error(0.2, 1.0, mult, "single")]
                for q, mult, squared in zip(qs, mults, g_q[0.2, 1.0])]
    return ExperimentResult(
        "spherical-limit", cfg.as_dict(), checks,
        {"g_q": _table(["lam", "r", "q", "g_q"], rows),
         "normalizer_variants": _table(["q", "g_q_squared", "g_q_single"], var_rows)})


# --------------------------------------------------------------------------
# my-convergence: E[eta_1] moment check and shared-noise hyperbolic limit

def _convergence_rows(seeds: list, dt: float, T: float, q: tuple) -> list:
    """Rows [seed, err(q_small), err(q_large)] of a run of my-convergence's seeds."""
    grid = pth.TimeGrid(T, round(T / dt))
    bases = [pth.RngStream(seed, 0) for seed in seeds]
    b = np.stack([pth.sample_bm(grid, base.child(0)) for base in bases])
    lg = pth.log_eta(b, grid.dt)
    k0 = grid.index_of(_ERROR_FROM_T)
    # the radial part on H^q is the SO(1,q) case of the solvable-group engine, with
    # l = e^B; the seeds ride on the replica axis, and nested column groups give
    # q_large the transverse noise of q_small
    l = mx.triangular_from_increments(grid, np.diff(b)[..., None, None])
    sp = mx.simulate_su_solvable(q, [base.child(1) for base in bases], l)
    d = mx.finite_q_radial(sp, range(k0, grid.n_steps + 1))
    log_q = np.array([math.log(v) for v in q])[:, None]
    errs = np.max(np.abs(d[..., 0] - log_q - lg[:, None, k0:]), axis=-1)
    return [[seed] + e for seed, e in zip(seeds, errs.tolist())]


def run_my_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    checks = []
    # exponential-functional mean: E[eta_t] = t e^{t/2}
    eta1 = pth.exp_functional_samples({_ETA_MEAN_T: [0]}, cfg.dt, cfg.n_paths, pth.RngStream(cfg.seed, 1))[1][0][0]
    mean, sem = st._mean_se(eta1)
    target = _ETA_MEAN_T * math.exp(_ETA_MEAN_T / 2)
    zscore = (mean - target) / sem
    checks.append(Check("eta_mean", abs(zscore) <= st._Z_BOUND, zscore,
                        "|E[eta_1] - e^(1/2)| <= 3 SE",
                        {"seed": cfg.seed, "dt": cfg.dt, "n_paths": cfg.n_paths,
                         "mean": mean, "se": sem, "target": target}))
    # shared-noise convergence over seeds
    q_small, q_large = 100, 10_000
    seeds = [cfg.seed + 100 + i for i in range(cfg.n_seeds)]
    # a seed's errors do not depend on its run of seeds; the read-out spans at most the whole path
    n_steps = round(cfg.T / cfg.dt)
    rows = _chunk_map(partial(_convergence_rows, dt=cfg.dt, T=cfg.T, q=(q_small, q_large)), seeds,
                      _chunk_size(n_steps, 2, 1, "real", n_steps), cfg.workers)
    e2s, e4s = np.array(rows)[:, 1:].T
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

def run_my_generator(cfg: ExperimentConfig) -> ExperimentResult:
    checks = []
    h = cfg.dt
    bump = st.gaussian_bump(0.0, 1.0)
    lam = cfg.lam
    # every path check reads a functional (mu, drift) of one Brownian driver, drawn once, kept
    # only up to the times its checks read: the drifted one at t and t + h
    stream = 2
    t_lag, t_mid, t_end = _GENERATOR_TIMES
    mus, drifts = (2.0, 2.0, 1.0, 3.0), (0.0, lam, 0.0, 0.0)
    reads = {t_lag: (0, 2, 3), t_mid: (0, 1, 2, 3), t_mid + h: (0, 1), t_end: (0, 2, 3)}
    z = pth.exp_functional_samples(reads, cfg.dt, cfg.n_paths, pth.RngStream(cfg.seed, stream),
                                   mu=mus, drift=drifts)[1]
    log_z = [np.log(zj, out=zj) for zj in z]  # every check reads log Z; per functional (time read, path)

    def meta(j, **extra):
        return {"seed": cfg.seed, "dt": cfg.dt, "n_paths": cfg.n_paths, **extra,
                "stream": stream, "mu": mus[j], "drift": drifts[j]}

    # generator of log eta at t = 1 with the Macdonald log-derivative drift
    rep = st.generator_test(log_z[0][1], log_z[0][2], pth.my_drift(log_z[0][1], 0.0), bump, h)
    checks.append(Check("generator_log_eta", rep.passed, rep.statistic,
                        "|z| <= 3 against the Macdonald-drift generator", {**rep.details, **meta(0, t=t_mid)}))
    # drifted case: same code path with driver drift lam and the lam-indexed drift
    rep = st.generator_test(log_z[1][0], log_z[1][1], pth.my_drift(log_z[1][0], lam), bump, h)
    checks.append(Check("generator_log_eta_drifted", rep.passed, rep.statistic,
                        f"|z| <= 3 with driver drift {lam} and the matching drift index",
                        {**rep.details, **meta(1, t=t_mid, driver_drift=lam)}))
    # wrong-drift control: an OU sample pair tested against zero drift must reject
    gen = pth.RngStream(cfg.seed, 3).generator()
    x0 = gen.normal(0.0, math.sqrt(0.5), cfg.n_paths)
    x1 = x0 * math.exp(-h) + math.sqrt((1.0 - math.exp(-2.0 * h)) / 2.0) * gen.standard_normal(cfg.n_paths)
    rep = st.generator_test(x0, x1, np.zeros_like(x0), bump, h)
    checks.append(Check("wrong_drift_rejects", not rep.passed, rep.statistic,
                        "|z| > 3 for the zero-drift hypothesis on OU data",
                        {**rep.details, "seed": cfg.seed, "stream": 3}))
    # Markov-property tests across the exponential-functional family
    # (functional, whether the Markov property holds): mu = 1, 2 and 3 at drift 0; each reads log Z
    # at t and at the end, conditioned on its increment since the lag
    for j, should_pass in ((2, True), (0, True), (3, False)):
        rep = st.markov_property_test(log_z[j][1], log_z[j][-1], log_z[j][1] - log_z[j][0])
        ok = rep.passed == should_pass
        checks.append(Check(f"markov_mu{mus[j]:g}", ok, rep.statistic,
                            ("pass" if should_pass else "reject") + " at 1% (Bonferroni over bins)",
                            {**rep.details, **meta(j)}))
    return ExperimentResult("my-generator", cfg.as_dict(), checks)


# --------------------------------------------------------------------------
# conditional-law: E[e^{lam B_t} | eta-path] = K_lam(1/eta_t) / K_0(1/eta_t)

def run_conditional_law(cfg: ExperimentConfig) -> ExperimentResult:
    checks = []
    rows = []
    b, (z,) = pth.exp_functional_samples({_CONDITIONAL_T: [0]}, cfg.dt, cfg.n_paths, pth.RngStream(cfg.seed, 8))
    b1, eta1 = b[0], z[0]
    meta = {"seed": cfg.seed, "dt": cfg.dt, "n_paths": cfg.n_paths, "t": _CONDITIONAL_T}
    edges = np.quantile(eta1, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    edges[0] -= 1.0
    for lam, gs in ((0.5, st.indicator_bins(edges)), (1.0, [st.gaussian_bump(c, 0.6).f for c in (0.8, 1.6, 3.0)])):
        rep = st.conditional_law_test(b1, eta1, macdonald_ratio(lam, 1.0 / eta1), lam, gs)
        checks.append(Check(f"conditional_law_lam{lam}", rep.passed, rep.statistic,
                            "all test-function estimates within 3 SE", {**rep.details, **meta}))
        for row in rep.details["per_function"]:
            rows.append([lam, row["g"], row["estimate"], row["se"], row["z"]])
    return ExperimentResult("conditional-law", cfg.as_dict(), checks,
                            {"estimates": _table(["lam", "g", "estimate", "se", "z"], rows)})


# --------------------------------------------------------------------------
# supq-limit: matrix flat limits, the p=1 reduction, the structural invariant,
# and the real-vs-complex scaling-constant ratio

def _supq_rows(seeds: list, dt: float, T: float, p: int, q: tuple, inner: int) -> list:
    """Rows [seed, mean error over the inner replicas per (q, time, component)] of a run of supq-limit's seeds."""
    grid = pth.TimeGrid(T, round(T / dt))
    bases = [pth.RngStream(seed, 0) for seed in seeds]
    l = mx.sample_triangular_bm(p, "complex", grid, [r.child(10**6) for r in bases])
    idx = [grid.n_steps // 2, grid.n_steps]
    target = mx.eta_matrix(l, indices=idx)
    # each seed's l is repeated over its inner replicas on the leading axis, and the
    # q values ride on the next; each q adds a column group with its own noise (48,
    # 150 and 600 columns at p = 2) to those of the smaller q, and summing the groups'
    # W and c couples the q values in law exactly as nested columns would
    lpath = mx.TriangularPath(grid, np.repeat(l.frames, inner, axis=0))
    sp = mx.simulate_su_solvable(q, [r.child(rep) for r in bases for rep in range(inner)], lpath)
    rad = mx.finite_q_radial(sp, idx).reshape(len(seeds), inner, len(q), len(idx), p)
    errs = np.abs(np.cosh(rad) / np.reshape(q, (-1, 1, 1)) - target[:, None, None]).mean(axis=1)
    return [[seed] + e.ravel().tolist() for seed, e in zip(seeds, errs)]


def run_supq_limit(cfg: ExperimentConfig) -> ExperimentResult:
    checks = []
    q_list, inner = _SUPQ_Q, 8
    seeds = [cfg.seed + 500 + i for i in range(cfg.n_seeds)]
    rows = _chunk_map(partial(_supq_rows, dt=cfg.dt, T=cfg.T, p=cfg.p, q=q_list, inner=inner), seeds,
                      max(1, _chunk_size(round(cfg.T / cfg.dt), len(q_list), cfg.p, "complex") // inner), cfg.workers)
    # the verdict compares the time-mean errors componentwise
    means = np.array(rows)[:, 1:].reshape(len(rows), len(q_list), 2, cfg.p).mean(axis=2)
    frac = float(np.mean(np.all(means[:, :-1] > means[:, 1:], axis=(1, 2))))
    checks.append(Check("cosh_radial_monotone", frac >= 0.9, frac,
                        f"componentwise error decreasing over q={q_list} on >= 90% of {cfg.n_seeds} seeds "
                        f"(per-seed error = mean over {inner} transverse-noise replicas, shared l)",
                        {"seed": cfg.seed, "dt": cfg.dt, "q_list": list(q_list), "inner_replicas": inner}))
    # p = 1 reduction at fine dt: matrix functional vs scalar functional, same noise
    grid = pth.TimeGrid(1.0, 10_000)
    inc = mx.triangular_increments(1, "real", grid, pth.RngStream(cfg.seed, 9))
    lpath = mx.triangular_from_increments(grid, inc)
    eta_scalar = pth.eta_functional(np.concatenate([[0.0], np.cumsum(inc[:, 0, 0])]), grid.dt)[-1]
    rad = mx.eta_matrix(lpath, indices=[grid.n_steps])
    rel = abs(rad[0, 0] - eta_scalar) / abs(eta_scalar)
    tol = 5.0 * math.sqrt(grid.dt)
    checks.append(Check("p1_reduction", rel <= tol, rel,
                        f"relative gap <= 5 sqrt(dt) = {tol:.3g}",
                        {"seed": cfg.seed, "dt": grid.dt}))

    def replica_mean(q, grid, field, rngs, reduce) -> float:
        # mean of reduce(path) over each replica's solvable-group path, with its own l from its stream's child 10**6
        def run(chunk):
            l = mx.sample_triangular_bm(cfg.p, field, grid, [r.child(10**6) for r in chunk])
            return reduce(mx.simulate_su_solvable(q, chunk, l))
        return float(np.mean(_chunk_map(run, rngs, _chunk_size(grid.n_steps, len(q), cfg.p, field), 1)))

    # invariant defect halves with dt (ratio of replica means)
    defects = {n_steps: replica_mean((100,), pth.TimeGrid(1.0, n_steps), "complex",
                                     [pth.RngStream(cfg.seed + i, 11) for i in range(48)],
                                     lambda sp: sp.invariant_defect().max(axis=-1)[:, 0])
               for n_steps in (1000, 2000)}
    ratio = defects[1000] / defects[2000]
    checks.append(Check("invariant_halving", 1.5 <= ratio <= 2.7, ratio,
                        "defect(dt) / defect(dt/2) in [1.5, 2.7] over 48 replicas",
                        {"seed": cfg.seed, "q": 100, "defects": defects}))
    # real-vs-complex scaling constant (theta) ratio at large q
    alphas = {fieldtag: replica_mean((800,), pth.TimeGrid(1.0, 1000), fieldtag,
                                     [pth.RngStream(cfg.seed + 7000 + i, 13 if fieldtag == "complex" else 17) for i in range(16)],
                                     lambda sp: np.einsum("rii->r", sp.c[:, 0, -1]).real
                                     / (800 * np.einsum("rii->r", mx.integrated_ll_star(sp.l_path)[:, -1]).real))
              for fieldtag in ("complex", "real")}
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
    r = (1.5, 0.5)
    r0 = (2.0, 1.0)
    target = ktilde_det(r) / ktilde_det(r0)
    rows = []
    errs = []
    for q in (16, 64, 256):
        val = se.finite_q_ktilde(r, q) / se.finite_q_ktilde(r0, q)
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
    v1 = se.hoogenboom_det([0.21], 6, [2.0])
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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return EXPERIMENTS[cfg.experiment](cfg)
