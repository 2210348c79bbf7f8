"""Gamma, the Macdonald function and the rank-one Harish-Chandra constants.

Gamma comes from the standard library, log-Gamma at complex arguments from the
Lanczos approximation.  Multiplicities holds the root multiplicities of a
rank-one symmetric space, which the c-function and the flat-limit normalizer
a(q) read.  The Macdonald function is a trapezoidal quadrature of its integral
representation.  After the substitution t = (x/2) e^v the defining integral

    K_lam(x) = 1/2 (x/2)^lam int_0^inf e^{-t - x^2/(4t)} t^{-1-lam} dt

becomes  int_0^inf cosh(lam*v) e^{-x cosh v} dv,  whose integrand decays
doubly exponentially.  One fixed rule evaluates it: per point, a closed-form
window [0, V(x)] and a 128-panel trapezoid sum, which converges
geometrically in the panel count.  The same rule yields lambda-derivatives
(weight v^n) and the x-derivative (weight cosh v); a ratio of two weights
takes both from one node set, on the wider of their two windows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Multiplicities",
    "gamma",
    "loggamma",
    "macdonald_k",
    "macdonald_k_dlambda",
    "macdonald_ratio",
    "ktilde_det",
    "log_c_function",
    "log_a_normalizer",
]


def gamma(z: float) -> float:
    """Gamma function on the real line (poles at 0, -1, -2, ... raise ValueError)."""
    return math.gamma(z)


_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028, 771.32342877765313, -176.61502916214059,
            12.507343278686905, -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def loggamma(z: complex) -> complex:
    """A log of Gamma(z), up to 2 pi i; the poles raise ValueError.  At real z it is math.lgamma,
    plus i pi where Gamma(z) < 0; at complex z, Lanczos (g = 7, nine terms, relative accuracy
    near 1e-15), reflected for Re z < 1/2."""
    if not isinstance(z, complex):
        return math.lgamma(z) + (1j * math.pi if z < 0.0 and math.floor(z) % 2 else 0.0)
    if z.real < 0.5:  # sin(pi z) = (-1)^n sin(pi (z - n)) vanishes exactly at the poles
        n = round(z.real)
        return math.log(math.pi) - cmath.log(cmath.sin(math.pi * (z - n))) - 1j * math.pi * n - loggamma(1.0 - z)
    t, x = z + 6.5, _LANCZOS[0]
    for k in range(1, 9):
        x += _LANCZOS[k] / (z + (k - 1))
    return 0.5 * math.log(2.0 * math.pi) + (z - 0.5) * cmath.log(t) - t + cmath.log(x)


# --------------------------------------------------------------------------
# Domain types

@dataclass(frozen=True)
class Multiplicities:
    """Root multiplicities (m_alpha, m_2alpha) of a rank-one symmetric space;
    SU(1,q) / S(U(1) x U(q)) has (2 (q - 1), 1)."""

    m_alpha: int
    m_2alpha: int

    def __post_init__(self):
        if self.m_alpha < 0 or self.m_2alpha < 0:
            raise ValueError("multiplicities must be nonnegative")


# --------------------------------------------------------------------------
# Macdonald quadrature core

# The integrand is analytic in a strip around the real v-axis and decays
# doubly exponentially, so a fixed trapezoid rule converges geometrically in
# the node count (Trefethen & Weideman, SIAM Review 2014); 128 panels reach
# round-off over x in [1e-7, 1100] for the orders used here.
_PANELS = 128
_CHUNK = 256  # points per block: keeps the (points, nodes) temporaries in cache


def _scaled_macdonald_integral(x, lam: float = 0.0, moment: int = 0, dx_weight: int = 0, per=None):
    """int_0^inf cosh(lam v) v^moment cosh(v)^dx_weight e^{-x (cosh v - 1)} dv, vectorized in x.

    Each point gets its own window [0, V(x)], V = arccosh(1 + (46 + 60 (1 + lam
    + moment + dx_weight)) / x), past which the integrand is negligible, and a
    trapezoid rule with _PANELS panels on it; a point's value therefore does
    not depend on the other points of the call.  per = (lam', dx_weight') gives
    the ratio to the integral of weight cosh(lam' v) cosh(v)^dx_weight', both on
    one node set on the wider of their windows.  The result has the shape of x,
    a numpy scalar for a scalar.  The e^x scaling keeps the result representable
    for any x; callers wanting the raw integral multiply by e^-x themselves.
    """
    weights = [(abs(float(lam)), moment, dx_weight)] + ([] if per is None else [(abs(float(per[0])), 0, per[1])])
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("x must be positive")
    flat = x.ravel()
    out = np.empty_like(flat)
    tail = 46.0 + 60.0 * (1.0 + max(sum(w) for w in weights))
    for start in range(0, flat.size, _CHUNK):
        xs = flat[start : start + _CHUNK, None]
        h = np.arccosh(1.0 + tail / xs) / _PANELS
        v = h * np.arange(_PANELS + 1)
        c = np.cosh(v)
        g = np.exp(-xs * (c - 1.0))
        sums = []
        for w_lam, w_moment, w_dx in weights:
            f = np.cosh(w_lam * v) * g if w_lam else g
            f = f * v**w_moment if w_moment else f
            f = f * c**w_dx if w_dx else f
            sums.append(f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1]))
        out[start : start + _CHUNK] = h[:, 0] * sums[0] if per is None else sums[0] / sums[1]
    return out.reshape(x.shape)[()]


def macdonald_k(lam: float, x):
    """Macdonald function K_lam(x), x > 0 (scalar or array).

    Evaluated through the manifestly even form int_0^inf cosh(lam v) e^{-x cosh v} dv,
    so K_lam == K_{-lam} holds bitwise.  For x beyond ~700 the value underflows
    to 0.0 (the true value is below the double-precision range).
    """
    return np.exp(-np.asarray(x, dtype=float)) * _scaled_macdonald_integral(x, lam)


def macdonald_k_dlambda(n: int, x):
    """n-th derivative of lam -> K_lam(x) at lam = 0.

    Differentiating under the integral sign gives int_0^inf v^n e^{-x cosh v} dv
    for even n.  K is even in lam, so odd derivatives vanish, and an odd n raises ValueError.
    """
    if n < 0 or n != int(n) or n % 2:
        raise ValueError("derivative order must be an even nonnegative integer")
    return np.exp(-np.asarray(x, dtype=float)) * _scaled_macdonald_integral(x, 0.0, moment=int(n))


def macdonald_ratio(lam: float, x):
    """K_lam(x) / K_0(x), overflow/underflow-safe for any x > 0."""
    return _scaled_macdonald_integral(x, lam, per=(0.0, 0))


def ktilde_det(r) -> float:
    """Determinant of the p x p matrix with (i, j) entry d^{2(j-1)}/dlam^{2(j-1)} K_lam(e^{-r_i}) at lam=0.

    This is the limiting ground state of the multi-component Toda Hamiltonian;
    it vanishes when two chamber coordinates coincide.
    """
    x = np.exp(-np.asarray(r, dtype=float))
    mat = np.column_stack([macdonald_k_dlambda(2 * j, x) for j in range(len(x))])
    return np.linalg.det(mat)


# --------------------------------------------------------------------------
# Harish-Chandra type constants

def log_c_function(lam, mult: Multiplicities):
    """log of c(lam) = 2^{m_a/2 + m_2a - lam} G((m_a+m_2a+1)/2) / [G((m_a/2+1+lam)/2) G((m_a/2+m_2a+lam)/2)].

    Through loggamma, a real lam gives a real log where both Gamma arguments are
    positive, and one whose imaginary part carries the sign of c (a multiple of
    pi) where one is negative; a complex lam gives a complex log.
    """
    ma, m2 = mult.m_alpha, mult.m_2alpha
    return (
        (0.5 * ma + m2 - lam) * math.log(2.0)
        + math.lgamma(0.5 * (ma + m2 + 1.0))
        - loggamma(0.5 * (0.5 * ma + 1.0 + lam))
        - loggamma(0.5 * (0.5 * ma + m2 + lam))
    )


def log_a_normalizer(mult: Multiplicities, variant: str = "squared") -> float:
    """log of the flat-limit normalizer a(q).

    variant="squared" is Gamma(m_alpha/2)^2 / (Gamma(m_alpha) 2^{1 + 3 m_2alpha/2});
    variant="single" drops the square on Gamma(m_alpha/2) (kept for numerical
    comparison; it does not normalize the spherical limit).
    """
    ma, m2 = mult.m_alpha, mult.m_2alpha
    if ma < 2:
        raise ValueError("a(q) requires m_alpha >= 2")
    k = {"squared": 2.0, "single": 1.0}.get(variant)
    if k is None:
        raise ValueError(f"unknown variant {variant!r}")
    return k * math.lgamma(0.5 * ma) - math.lgamma(float(ma)) - (1.0 + 1.5 * m2) * math.log(2.0)

