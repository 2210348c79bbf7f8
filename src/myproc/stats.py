"""Statistical verification toolkit: the two-sample KS statistic and threshold,
generator tests, a Markov-property test, and the conditional-law moment test.

All tests take plain arrays, the model's drift or conditional mean among them
(aligned with the samples), are deterministic functions of them and return a
TestReport whose passed flag is a pure function of statistic vs threshold.
Callers add their samples' provenance to the report's details themselves.
Only the Markov test splits its level (1% over its 15 bins, Bonferroni); the
generator and conditional-law tests reject at |z| > 3 (0.27% two-sided) per
test function, so k functions false-alarm together at most k x 0.27% (union bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence

import numpy as np

__all__ = [
    "TestReport",
    "TestFunction",
    "gaussian_bump",
    "indicator_bins",
    "ks_statistic",
    "ks_threshold",
    "generator_test",
    "markov_property_test",
    "conditional_law_test",
]

_Z_BOUND = 3.0  # |z| beyond this rejects, in the generator and conditional-law tests

# the Markov-property test's quantile bins of the present value, each split at its
# median into two halves of at least _MARKOV_MIN_HALF samples
_MARKOV_BINS = 15
_MARKOV_MIN_HALF = 50


def _mean_se(x: np.ndarray):
    """Sample mean of x and its standard error, the sample standard deviation over sqrt(n)."""
    return float(x.mean()), float(x.std(ddof=1)) / math.sqrt(x.size)


@dataclass
class TestReport:
    """Outcome of one statistical check."""

    statistic: float
    threshold: float
    passed: bool
    details: Dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Kolmogorov-Smirnov

def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n_a: int, n_b: int, level: float) -> float:
    """Asymptotic rejection threshold c(alpha) sqrt((n+m)/(n m))."""
    c = math.sqrt(-0.5 * math.log(level / 2.0))
    return c * math.sqrt((n_a + n_b) / (n_a * n_b))


# --------------------------------------------------------------------------
# generator test

@dataclass(frozen=True)
class TestFunction:
    """C^2 test function with its first two derivatives."""

    f: Callable
    d1: Callable
    d2: Callable
    label: str = "f"


def gaussian_bump(center: float, width: float) -> TestFunction:
    """exp(-(x-c)^2 / (2 w^2)) with analytic derivatives."""

    def f(x):
        z = (x - center) / width
        return np.exp(-0.5 * z * z)

    def d1(x):
        z = (x - center) / width
        return -z / width * np.exp(-0.5 * z * z)

    def d2(x):
        z = (x - center) / width
        return (z * z - 1.0) / width**2 * np.exp(-0.5 * z * z)

    return TestFunction(f, d1, d2, f"bump({center},{width})")


def indicator_bins(edges: Sequence[float]):
    """Bounded indicator test functions 1[a < x <= b] for consecutive edges."""
    return [lambda x, a=a, b=b: ((x > a) & (x <= b)).astype(float) for a, b in zip(edges[:-1], edges[1:])]


def generator_test(x_now, x_next, drift, test_fn: TestFunction, h: float) -> TestReport:
    """z-score of E[f(X_{t+h}) - f(X_t) - h (f''/2 + drift f')(X_t)].

    Under the diffusion with generator (1/2) d^2/dr^2 + drift d/dr the mean is
    O(h^2), so |z| beyond 3 rejects the proposed drift.  x_now and x_next hold
    the paired values X_t and X_{t+h}, and drift the model drift at each X_t.
    """
    if not x_now.shape == x_next.shape == drift.shape:
        raise ValueError("x_now, x_next and drift must be aligned")
    lf = 0.5 * test_fn.d2(x_now) + drift * test_fn.d1(x_now)
    d = test_fn.f(x_next) - test_fn.f(x_now) - h * lf
    mean, se = _mean_se(d)
    if se == 0.0:
        raise ValueError("degenerate variance in the generator statistic")
    z = mean / se
    return TestReport(z, _Z_BOUND, abs(z) <= _Z_BOUND, {"h": h, "n": int(d.size), "test_fn": test_fn.label})


# --------------------------------------------------------------------------
# Markov property

def markov_property_test(mid, end, conditioner) -> TestReport:
    """Within quantile bins of the present value, split by an extra conditioning
    statistic and KS-compare the two futures at level 1%, Bonferroni across bins.

    For a process Markov in its own filtration, any past-measurable
    conditioner leaves the conditional law of the future unchanged, so the
    split laws agree up to the finite bin width.  The conditioner is
    residualized against the within-bin variation of the present value, which
    removes the first-order within-bin leakage.  Splitting instead on a
    non-adapted statistic (e.g. the driving noise itself) detects dependence
    even for processes that are Markov in their own filtration.
    """
    z_mid, z_end, cond = (np.asarray(x, dtype=float) for x in (mid, end, conditioner))
    level, bins, min_half = 0.01, _MARKOV_BINS, _MARKOV_MIN_HALF
    if not (z_mid.size == z_end.size == cond.size):
        raise ValueError("mid, end and conditioner must be aligned")
    qs = np.quantile(z_mid, np.linspace(0.0, 1.0, bins + 1))
    worst_ratio = 0.0
    n_reject = 0
    for i in range(bins):
        lo, hi = qs[i], qs[i + 1]
        sel = (z_mid >= lo) & ((z_mid <= hi) if i == bins - 1 else (z_mid < hi))
        if int(sel.sum()) < 2 * min_half:
            raise ValueError(f"sparse bin {i}: {int(sel.sum())} < {2 * min_half} samples")
        c = cond[sel].copy()
        z = z_mid[sel]
        e = z_end[sel]
        zc = z - z.mean()
        denom = float(zc @ zc)
        if denom > 0.0:
            c -= (c @ zc) / denom * zc
        med = np.median(c)
        low_half, high_half = e[c <= med], e[c > med]
        if min(low_half.size, high_half.size) < min_half:
            raise ValueError(f"sparse split in bin {i}")
        stat = ks_statistic(low_half, high_half)
        thr = ks_threshold(low_half.size, high_half.size, level / bins)
        worst_ratio = max(worst_ratio, stat / thr)
        n_reject += stat > thr
    return TestReport(worst_ratio, 1.0, n_reject == 0,
                      {"level": level, "bins": bins, "bins_rejecting": int(n_reject), "residualized": True})


# --------------------------------------------------------------------------
# conditional law

def conditional_law_test(b_t, eta_t, ratio, lam: float, test_fns: Sequence[Callable]) -> TestReport:
    """Moment test of E[(e^{lam B_t} - ratio) g_j(eta_t)] = 0, where ratio holds the model's
    E[e^{lam B_t} | eta_t] at each sample (K_lam(1/eta_t)/K_0(1/eta_t) for the Matsumoto-Yor law).

    Passes when every estimate is within 3 SE of zero; a zero SE raises ValueError unless every weight
    e^{lam B_t} - ratio is zero.  A heavy-tail warning is recorded when the kurtosis of e^{lam B} exceeds 500."""
    if abs(lam) > 2.0:
        raise ValueError("|lam| <= 2 required to control the e^{lam B} tails")
    if not b_t.shape == eta_t.shape == ratio.shape:
        raise ValueError("b_t, eta_t and ratio must be aligned")
    elb = np.exp(lam * b_t)
    weight = elb - ratio
    centered = elb - elb.mean()
    m2 = float(np.mean(centered**2))
    kurt = float(np.mean(centered**4) / m2**2) if m2 > 0 else 0.0
    worst = 0.0
    rows = []
    for j, g in enumerate(test_fns):
        est, se = _mean_se(weight * np.asarray(g(eta_t), dtype=float))
        if se == 0.0 and weight.any():  # e.g. a test function with no mass on the samples
            raise ValueError(f"degenerate variance in the conditional-law statistic of test function {j}")
        zj = abs(est) / se if se > 0 else 0.0
        rows.append({"g": j, "estimate": est, "se": se, "z": zj})
        worst = max(worst, zj)
    return TestReport(worst, _Z_BOUND, worst <= _Z_BOUND,
                      {"lam": lam, "n": int(b_t.size), "per_function": rows, "kurtosis": kurt,
                       "heavy_tail_warning": bool(kurt > 500.0)})
