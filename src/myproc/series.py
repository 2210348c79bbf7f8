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
infinity, argument shifted by log m_alpha) is the Macdonald function.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .specialfn import Multiplicities, log_a_normalizer, log_c_function, macdonald_k

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


class ResonanceError(ValueError):
    """2*lam is (numerically) a nonzero integer; the expansion degenerates."""


class TruncationError(RuntimeError):
    """Requested tolerance not reachable at the given truncation order."""


def _check_resonance(lam: float) -> None:
    nearest = round(2.0 * lam)
    if nearest != 0 and abs(2.0 * lam - nearest) < _RESONANCE_GUARD:
        raise ResonanceError(f"2*lam = {2 * lam} is within {_RESONANCE_GUARD} of a nonzero integer")


def _potential_coeffs(mult: Multiplicities, k_max: int) -> np.ndarray:
    """Coefficients v_k of the CMS potential sum_k v_k e^{-2kr} (index 1..k_max)."""
    ma, m2 = mult.m_alpha, mult.m_2alpha
    c1 = 0.25 * ma * (ma + 2 * m2 - 2)
    c2 = float(m2 * (m2 - 2))
    k = np.arange(k_max + 1)
    return 4.0 * k * c1 + np.where(k % 2 == 0, 2.0 * k * c2, 0.0)  # 1/sinh^2 2r feeds only even k


def _series_coeffs(lam: float, N: int, v: np.ndarray) -> np.ndarray:
    _check_resonance(lam)
    if N < 2 or N % 2:
        raise ValueError("N must be a positive even integer")
    b = np.zeros(N + 1)
    b[0] = 1.0
    for n in range(2, N + 1, 2):
        acc = 0.0
        for k in range(1, min(n // 2, len(v) - 1) + 1):
            acc += v[k] * b[n - 2 * k]
        b[n] = acc / (n * (n - 2.0 * lam))
    return b


def toda_series(lam: float, N: int) -> np.ndarray:
    """Coefficients b_0..b_N of the H_T eigenfunction: b_n = b_{n-2} / (n (n - 2 lam))."""
    return _series_coeffs(lam, N, np.array([0.0, 1.0]))


def cms_series(lam: float, mult: Multiplicities, N: int) -> np.ndarray:
    """Coefficients b_0..b_N of the H_CMS eigenfunction for the given multiplicities."""
    return _series_coeffs(lam, N, _potential_coeffs(mult, N // 2))


def eval_series(lam: float, coeffs: np.ndarray, r: float, tol: float = 1e-12) -> float:
    """sum_{n <= N} b_n e^{(lam - n) r} of coeffs b_0..b_N, with a geometric tail estimate.

    Raises TruncationError when the estimated tail beyond N exceeds tol
    relative to the partial sum (increase N, or increase r).
    """
    n = np.arange(len(coeffs))
    terms = coeffs * np.exp((lam - n) * r)
    total = float(terms.sum())
    t_last, t_prev = abs(terms[-1]), abs(terms[-3])
    if t_last > 0.0:
        ratio = t_last / t_prev if t_prev > 0.0 else 1.0
        if ratio >= 1.0:
            raise TruncationError(f"terms not decaying at N={len(coeffs) - 1} (ratio {ratio:.3g})")
        tail = t_last * ratio / (1.0 - ratio)
        if tail > tol * max(abs(total), 1e-300):
            raise TruncationError(f"estimated tail {tail:.3e} exceeds tolerance {tol:.1e}")
    return total


def _adaptive_value(lam: float, r: float, mult: Multiplicities) -> float:
    """CMS series value with N doubled from 16 until the last term is negligible and decaying."""
    N = 16
    while True:
        try:
            return eval_series(lam, cms_series(lam, mult, N), r, tol=1e-13)
        except TruncationError:
            N *= 2
            if N > 1 << 14:
                raise


def log_delta_q(r: float, mult: Multiplicities) -> float:
    """log delta_q(r) for r > 0, stable for large multiplicities."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    # log(e^r - e^{-r}) = r + log(1 - e^{-2r}), same pattern for the double angle
    l1 = r + math.log1p(-math.exp(-2.0 * r))
    l2 = 2.0 * r + math.log1p(-math.exp(-4.0 * r))
    return mult.m_alpha * l1 + mult.m_2alpha * l2


def rank1_spherical(lam: float, mult: Multiplicities, r: float, *, log_scale: float = 0.0) -> float:
    """The product delta_q^{1/2}(r) * phi_lam(r), optionally times e^{log_scale}.

    phi_lam is the rank-one spherical function normalized to 1 at the origin.
    The value is assembled from the two eigenfunction branches,

        delta^{1/2} phi_lam = G(lam) c(lam) Psi_CMS(lam, r) + (lam -> -lam),

    where c is the printed two-Gamma constant (log_c_function) and the extra
    Gamma factor G makes the combination match the normalization phi_lam(0)=1
    (checked against closed forms and an independent ODE solve in the tests).
    Pass log_scale (e.g. a log-normalizer) to keep huge-multiplicity values
    inside double range.
    """
    if lam == 0.0:
        raise ValueError("lam must be nonzero; use even_lambda_derivatives for lam=0 limits")
    _check_resonance(lam)
    total = 0.0
    for s in (1.0, -1.0):
        sl = s * lam
        gamma_sign = 1.0 if sl > 0.0 or math.floor(sl) % 2 == 0 else -1.0
        weight = gamma_sign * math.exp(math.lgamma(sl) + log_c_function(sl, mult) + log_scale)
        total += weight * _adaptive_value(sl, r, mult)
    return total


def g_q_error(lam: float, r: float, mult: Multiplicities, a_variant: str = "squared") -> float:
    """Flat-limit error a(q) (delta_q^{1/2} phi_lam)(log m_alpha + r) - K_lam(e^{-r})."""
    la = log_a_normalizer(mult, a_variant)
    shifted = rank1_spherical(lam, mult, r + math.log(mult.m_alpha), log_scale=la)
    return shifted - macdonald_k(lam, math.exp(-r))


def even_lambda_derivatives(f, h: float, orders: Sequence[int]):
    """Derivatives of an even analytic f at 0, orders even, via a node solve.

    Uses values f(h), ..., f(m h) and solves for the first m Taylor
    coefficients in lam^2, m = max(orders) / 2 + 2 (one spare node).
    """
    if any(o % 2 or o < 0 for o in orders):
        raise ValueError("orders must be even and nonnegative")
    m = max(orders) // 2 + 2
    ks = np.arange(1, m + 1, dtype=float)
    A = np.vander(ks**2, m, increasing=True)
    vals = np.array([f(k * h) for k in ks])
    coef = np.linalg.solve(A, vals)
    return [math.factorial(o) * coef[o // 2] / h**o for o in orders]


def g_q_even_derivative(order: int, r: float, mult: Multiplicities) -> float:
    """d^order/dlam^order of g_q at lam = 0 by a stencil of step 5e-3 (orders even; odd orders vanish)."""
    if order % 2:
        return 0.0
    return even_lambda_derivatives(lambda la: g_q_error(la, r, mult), 5e-3, [order])[0]


def _hoog_prefactor(p: int, q: int) -> float:
    val = (-1.0) ** (p * (p - 1) // 2) * 2.0 ** (2 * p * (p - 1))
    for j in range(1, p):
        val *= (q - p + j) ** (p - j) * math.factorial(j)
    return val


def hoogenboom_det(lams: Sequence[float], q: int, r) -> float:
    """Rank-p spherical function value via the rank-one determinant formula.

    phi_lam^{(p,q)}(r) = A(p,q) det( phi_{lam_i}^{(1,q-p+1)}(r_j) )
                         / prod_{i<j} (cosh 2r_i - cosh 2r_j)(lam_i^2 - lam_j^2),

    with each rank-one factor evaluated through rank1_spherical / log_delta_q at
    the SU(1, q-p+1) multiplicities (2(q-p), 1), where p = len(r).
    """
    rv = tuple(float(v) for v in r)
    p = len(rv)
    if len(lams) != p:
        raise ValueError("need one spectral parameter per chamber coordinate")
    if q < p:
        raise ValueError("q must be >= p")
    if any(a <= b for a, b in zip(rv, rv[1:])) and p > 1:
        raise ValueError("chamber coordinates must be strictly decreasing")
    if any(r_ <= 0.0 for r_ in rv):
        raise ValueError("chamber coordinates must be positive")
    l2 = [la * la for la in lams]
    for i in range(p):
        if abs(lams[i] - round(lams[i])) < _RESONANCE_GUARD:
            raise ValueError(f"lam_{i} too close to an integer")
        for j in range(i + 1, p):
            if abs(l2[i] - l2[j]) < 1e-12:
                raise ValueError("lam_i^2 must be pairwise distinct")
    mult = Multiplicities(2 * (q - p), 1)
    mat = np.empty((p, p))
    for j, rj in enumerate(rv):
        half_log_delta = 0.5 * log_delta_q(rj, mult)
        for i, li in enumerate(lams):
            mat[i, j] = rank1_spherical(li, mult, rj, log_scale=-half_log_delta)
    denom = 1.0
    for i in range(p):
        for j in range(i + 1, p):
            denom *= (math.cosh(2 * rv[i]) - math.cosh(2 * rv[j])) * (l2[i] - l2[j])
    return _hoog_prefactor(p, q) * np.linalg.det(mat) / denom


def finite_q_ktilde(r, q: int) -> float:
    """a(q)-scaled determinant of lambda-derivatives of the rank-one products, p = len(r).

    Entry (i, j) is d^{2(j-1)}/dlam^{2(j-1)} of
    a(q-p+1) (delta^{1/2} phi_lam)(r_i + log m_alpha) at lam = 0, with the
    SU(1, q-p+1) multiplicities.  As q grows, each entry converges to the
    corresponding lambda-derivative of K_lam(e^{-r_i}), so ratios of these
    determinants converge to ratios of ktilde_det.

    The stencil step is 5e-3 for p <= 2 and 2e-2 for higher ranks:
    each branch of the two-sided combination grows like 1/lam near 0, and the
    order-2(p-1) extraction amplifies that cancellation noise by h^{-2(p-1)}.
    """
    rv = tuple(float(v) for v in r)
    p = len(rv)
    h = 5e-3 if p <= 2 else 2e-2
    mult = Multiplicities(2 * (q - p), 1)
    shift = math.log(mult.m_alpha)
    la = log_a_normalizer(mult, "squared")
    orders = [2 * j for j in range(p)]
    mat = np.empty((p, p))
    for i, ri in enumerate(rv):
        mat[i, :] = even_lambda_derivatives(
            lambda lam_: rank1_spherical(lam_, mult, ri + shift, log_scale=la), h, orders
        )
    return np.linalg.det(mat)
