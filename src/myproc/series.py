"""Eigenfunction series for the Toda and Calogero-Moser-Sutherland operators.

The one-dimensional Schroedinger operators handled here are

    H_T   = d^2/dr^2 - e^{-2r}
    H_CMS = d^2/dr^2 - m_a (m_a + 2 m_2a - 2) / (4 sinh^2 r)
                     - m_2a (m_2a - 2) / sinh^2 2r

and the eigenfunctions are expanded as Psi(lam, r) = sum_n b_n e^{(lam - n) r}
with b_0 = 1.  Substituting the expansion into H Psi = lam^2 Psi gives the
recurrence  n (n - 2 lam) b_n = sum_{k >= 1} v_k b_{n-2k}, where v_k are the
coefficients of the potential's expansion in powers of e^{-2r}
(1/sinh^2 r = 4 sum_k k e^{-2kr}, 1/sinh^2 2r = 4 sum_k k e^{-4kr}).
Only even n contribute, so a truncation is the plain array b_0..b_N, N even;
the expansion breaks down when 2 lam is a nonzero integer (resonance).

Combining the two branches +-lam with the c-function and a Gamma factor gives
the product of the rank-one spherical function with the square root of the
radial density, delta^{1/2} phi_lam; its flat limit (multiplicities to
infinity, argument shifted by log m_alpha) is the Macdonald function.  It is
entire and even in lam, and its lam-derivatives at 0 come from complex lam.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .specialfn import Multiplicities, log_a_normalizer, log_c_function, loggamma, macdonald_k, macdonald_k_dlambda

__all__ = [
    "ResonanceError",
    "TruncationError",
    "toda_series",
    "cms_series",
    "eval_series",
    "log_delta_q",
    "rank1_spherical",
    "g_q_error",
    "g_q_even_derivative",
    "even_lambda_derivatives",
    "hoogenboom_det",
    "finite_q_ktilde",
]

_RESONANCE_GUARD = 1e-6
_CANCELLATION_GUARD = 1e-6  # least |sum| / (|branch+| + |branch-|) that rank1_spherical returns


class ResonanceError(ValueError):
    """lam is (numerically) a nonzero integer; the expansion degenerates."""


class TruncationError(RuntimeError):
    """Requested tolerance not reachable at the given truncation order."""


def _check_resonance(lam) -> None:
    # the recurrence divides by n (n - 2 lam) with n even, so only the nonzero integers resonate
    nearest = round(lam.real)
    if nearest != 0 and abs(lam - nearest) < _RESONANCE_GUARD:
        raise ResonanceError(f"lam = {lam} is within {_RESONANCE_GUARD} of a nonzero integer")


def _potential_coeffs(mult: Multiplicities, k_max: int) -> list:
    """Coefficients v_k of the CMS potential sum_k v_k e^{-2kr} (index 1..k_max)."""
    ma, m2 = mult.m_alpha, mult.m_2alpha
    c1 = 0.25 * ma * (ma + 2 * m2 - 2)
    c2 = float(m2 * (m2 - 2))  # 1/sinh^2 2r feeds only even k
    return [4.0 * k * c1 + (2.0 * k * c2 if k % 2 == 0 else 0.0) for k in range(k_max + 1)]


def _series_coeffs(lam, N: int, v: list) -> np.ndarray:
    _check_resonance(lam)
    if N < 2 or N % 2:
        raise ValueError("N must be a positive even integer")
    b = [0.0] * (N + 1)
    b[0] = 1.0
    for n in range(2, N + 1, 2):
        acc = 0.0
        for k in range(1, min(n // 2, len(v) - 1) + 1):
            acc += v[k] * b[n - 2 * k]
        b[n] = acc / (n * (n - 2.0 * lam))
    return np.array(b)


def toda_series(lam: float, N: int) -> np.ndarray:
    """Coefficients b_0..b_N of the H_T eigenfunction: b_n = b_{n-2} / (n (n - 2 lam))."""
    return _series_coeffs(lam, N, [0.0, 1.0])


def cms_series(lam: float, mult: Multiplicities, N: int) -> np.ndarray:
    """Coefficients b_0..b_N of the H_CMS eigenfunction for the given multiplicities."""
    return _series_coeffs(lam, N, _potential_coeffs(mult, N // 2))


def eval_series(lam, coeffs: np.ndarray, r: float, tol: float = 1e-12):
    """sum_{n <= N} b_n e^{(lam - n) r} of coeffs b_0..b_N, N >= 2, with a geometric tail estimate.

    A complex lam gives a complex value.  Raises TruncationError when the
    estimated tail beyond N exceeds tol relative to the partial sum (increase N or r).
    """
    if len(coeffs) < 3:
        raise ValueError(f"coeffs must hold b_0..b_N with N >= 2, got {len(coeffs)} coefficients")
    n = np.arange(len(coeffs))
    terms = coeffs * np.exp((lam - n) * r)
    total = terms.sum().item()
    t_last, t_prev = abs(terms[-1]), abs(terms[-3])
    if t_last > 0.0:
        ratio = t_last / t_prev if t_prev > 0.0 else 1.0
        if ratio >= 1.0:
            raise TruncationError(f"terms not decaying at N={len(coeffs) - 1} (ratio {ratio:.3g})")
        tail = t_last * ratio / (1.0 - ratio)
        if tail > tol * max(abs(total), 1e-300):
            raise TruncationError(f"estimated tail {tail:.3e} exceeds tolerance {tol:.1e}")
    return total


def _adaptive_value(lam, r: float, mult: Multiplicities):
    """CMS series value with N doubled from 16 until the last term is negligible and decaying."""
    for N in (16 << k for k in range(11)):  # up to N = 2^14
        try:
            return eval_series(lam, cms_series(lam, mult, N), r, tol=1e-13)
        except TruncationError:
            if N == 1 << 14:
                raise


def log_delta_q(r: float, mult: Multiplicities) -> float:
    """log delta_q(r) for r > 0, stable for large multiplicities."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    # log(e^r - e^{-r}) = r + log(1 - e^{-2r}), same pattern for the double angle
    l1 = r + math.log1p(-math.exp(-2.0 * r))
    l2 = 2.0 * r + math.log1p(-math.exp(-4.0 * r))
    return mult.m_alpha * l1 + mult.m_2alpha * l2


def rank1_spherical(lam, mult: Multiplicities, r: float, *, log_scale: float = 0.0):
    """The product delta_q^{1/2}(r) * phi_lam(r), optionally times e^{log_scale}.

    phi_lam is the rank-one spherical function normalized to 1 at the origin.
    The value is assembled from the two eigenfunction branches,

        delta^{1/2} phi_lam = G(lam) c(lam) Psi_CMS(lam, r) + (lam -> -lam),

    where c is the printed two-Gamma constant (log_c_function) and the extra
    Gamma factor G makes the combination match the normalization phi_lam(0)=1
    (checked against closed forms and an independent ODE solve in the tests).
    Pass log_scale (e.g. a log-normalizer) to keep huge-multiplicity values
    inside double range.  lam may be complex; lam = 0 is a pole of Gamma (ValueError).
    The branches cancel at small r and large multiplicities, leaving ~1e-15 / c relative accuracy,
    c = |sum| / (|branch+| + |branch-|); below c = _CANCELLATION_GUARD it raises TruncationError.
    """
    _check_resonance(lam)
    total = size = 0.0
    for s in (1.0, -1.0):
        sl = s * lam
        log_w = loggamma(sl) + log_c_function(sl, mult) + log_scale
        # at real lam the signs of the Gammas ride in the imaginary part, a multiple of pi
        weight = np.exp(log_w) if isinstance(sl, complex) else math.exp(log_w.real) * math.cos(log_w.imag)
        branch = weight * _adaptive_value(sl, r, mult)
        total, size = total + branch, size + abs(branch)
    if abs(total) < _CANCELLATION_GUARD * size:
        raise TruncationError(f"the +-lam branches cancel to {abs(total) / size:.1e} of their size at r = {r}, {mult}")
    return total


def g_q_error(lam: float, r: float, mult: Multiplicities, a_variant: str = "squared") -> float:
    """Flat-limit error a(q) (delta_q^{1/2} phi_lam)(log m_alpha + r) - K_lam(e^{-r})."""
    la = log_a_normalizer(mult, a_variant)
    shifted = rank1_spherical(lam, mult, r + math.log(mult.m_alpha), log_scale=la)
    return shifted - macdonald_k(lam, math.exp(-r))


def even_lambda_derivatives(f, orders: Sequence[int]):
    """Derivatives at lam = 0 of an even entire f, real on the real axis, orders even.

    The trapezoid rule for the Cauchy integral of g(w) = f(sqrt w) on |w| = 0.16
    (|lam| = 0.4), 8 nodes, converges geometrically to g's Taylor coefficients
    (Bornemann 2011, Found. Comput. Math.; Trefethen & Weideman 2014), and
    f^(k)(0) = k! coef[k/2] 2.5^k.  By conjugate symmetry f is evaluated 5 times.
    """
    if any(o % 2 or o < 0 for o in orders):
        raise ValueError("orders must be even and nonnegative")
    vals = [f(lam) for lam in 0.4 * np.exp(1j * np.pi * np.arange(5) / 8)]
    coef = np.fft.fft(vals + [v.conjugate() for v in vals[3:0:-1]]).real / 8
    return [math.factorial(o) * coef[o // 2] * 2.5**o for o in orders]


def _flat_limit_derivatives(r: float, mult: Multiplicities, orders: Sequence[int]):
    """Even lam-derivatives at 0 of a(q) (delta^{1/2} phi_lam)(r + log m_alpha)."""
    la, rs = log_a_normalizer(mult, "squared"), r + math.log(mult.m_alpha)
    return even_lambda_derivatives(lambda lam: rank1_spherical(lam, mult, rs, log_scale=la), orders)


def g_q_even_derivative(order: int, r: float, mult: Multiplicities) -> float:
    """d^order/dlam^order of g_q at lam = 0; order must be even (an odd one raises ValueError)."""
    return _flat_limit_derivatives(r, mult, [order])[0] - macdonald_k_dlambda(order, math.exp(-r))


def hoogenboom_det(lams: Sequence[float], q: int, r) -> float:
    """Rank-p spherical function value via the rank-one determinant formula.

    phi_lam^{(p,q)}(r) = A(p,q) det( phi_{lam_i}^{(1,q-p+1)}(r_j) )
                         / prod_{i<j} (cosh 2r_i - cosh 2r_j)(lam_i^2 - lam_j^2),

    with each rank-one factor evaluated through rank1_spherical / log_delta_q at
    the SU(1, q-p+1) multiplicities (2(q-p), 1), where p = len(r).

    A(p,q) = 2^{3p(p-1)/2} prod_{j<p} (q-p+j)^{p-j} j! makes phi_lam(0) = 1: with n = q-p+1,
    a factor is 2F1((n+lam)/2, (n-lam)/2; n; x) in x = -sinh^2 r, whose x^k coefficient has
    leading term (-lam^2/4)^k / ((n)_k k!).  So as r -> 0 the determinant tends to
    prod_{k<p} (-1/4)^k / ((n)_k k!) times the Vandermonde products in x and lam^2, and with
    cosh 2r_i - cosh 2r_j = -2 (x_i - x_j) the quotient tends to 8^{-p(p-1)/2} / prod_{k<p} (n)_k k!.
    """
    rv = tuple(float(v) for v in r)
    p = len(rv)
    if len(lams) != p:
        raise ValueError("need one spectral parameter per chamber coordinate")
    if q < p:
        raise ValueError("q must be >= p")
    if any(a <= b for a, b in zip(rv, rv[1:])):
        raise ValueError("chamber coordinates must be strictly decreasing")
    if any(r_ <= 0.0 for r_ in rv):
        raise ValueError("chamber coordinates must be positive")
    if any(abs(la - round(la)) < _RESONANCE_GUARD for la in lams):
        raise ValueError("each lam_i must stay away from the integers")
    l2 = [la * la for la in lams]
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    if any(abs(l2[i] - l2[j]) < 1e-12 for i, j in pairs):
        raise ValueError("lam_i^2 must be pairwise distinct")
    mult = Multiplicities(2 * (q - p), 1)
    mat = np.empty((p, p))
    for j, rj in enumerate(rv):
        half_log_delta = 0.5 * log_delta_q(rj, mult)
        for i, li in enumerate(lams):
            mat[i, j] = rank1_spherical(li, mult, rj, log_scale=-half_log_delta)
    denom = math.prod((math.cosh(2 * rv[i]) - math.cosh(2 * rv[j])) * (l2[i] - l2[j]) for i, j in pairs)
    prefactor = 2.0 ** (3 * len(pairs)) * math.prod((q - p + j) ** (p - j) * math.factorial(j) for j in range(1, p))
    return prefactor * np.linalg.det(mat) / denom


def finite_q_ktilde(r, q: int) -> float:
    """a(q)-scaled determinant of lambda-derivatives of the rank-one products, p = len(r).

    Entry (i, j) is d^{2(j-1)}/dlam^{2(j-1)} of
    a(q-p+1) (delta^{1/2} phi_lam)(r_i + log m_alpha) at lam = 0, with the
    SU(1, q-p+1) multiplicities.  As q grows, each entry converges to the
    corresponding lambda-derivative of K_lam(e^{-r_i}), so ratios of these
    determinants converge to ratios of ktilde_det.  The derivatives come from
    even_lambda_derivatives, which evaluates the entries at complex lam.
    """
    mult = Multiplicities(2 * (q - len(r)), 1)
    orders = [2 * j for j in range(len(r))]
    return np.linalg.det(np.array([_flat_limit_derivatives(float(ri), mult, orders) for ri in r]))
