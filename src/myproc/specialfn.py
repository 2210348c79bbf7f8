"""Gamma and Macdonald-type special functions.

Gamma comes from the standard library.  The Macdonald function is a
trapezoidal quadrature of its integral representation.  After the
substitution t = (x/2) e^v the defining integral

    K_lam(x) = 1/2 (x/2)^lam int_0^inf e^{-t - x^2/(4t)} t^{-1-lam} dt

becomes  int_0^inf cosh(lam*v) e^{-x cosh v} dv,  whose integrand decays
doubly exponentially, so the composite trapezoid rule converges
superexponentially under node doubling.  The same machinery yields
lambda-derivatives (weight v^n) and the x-derivative (weight cosh v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureError",
    "Multiplicities",
    "gamma",
    "macdonald_k",
    "macdonald_k_dlambda",
    "macdonald_ratio",
    "ktilde_det",
    "log_c_function",
    "log_a_normalizer",
]


class QuadratureError(RuntimeError):
    """Node doubling failed to reach the requested tolerance."""


def gamma(z: float) -> float:
    """Gamma function on the real line (poles at 0, -1, -2, ... raise ValueError)."""
    return math.gamma(z)


# --------------------------------------------------------------------------
# Domain types

_GROUP_MULTIPLICITIES = {
    "SO": lambda q: (q - 1, 0),
    "SU": lambda q: (2 * (q - 1), 1),
    "Sp": lambda q: (4 * (q - 1), 3),
}


@dataclass(frozen=True)
class Multiplicities:
    """Root multiplicities (m_alpha, m_2alpha) of a rank-one symmetric space."""

    m_alpha: int
    m_2alpha: int

    def __post_init__(self):
        if self.m_alpha < 0 or self.m_2alpha < 0:
            raise ValueError("multiplicities must be nonnegative")

    @classmethod
    def from_group(cls, group: str, q: int) -> "Multiplicities":
        """Multiplicities of SO(1,q), SU(1,q) or Sp(1,q)."""
        try:
            make = _GROUP_MULTIPLICITIES[group]
        except KeyError:
            raise ValueError(f"unknown group tag {group!r}; expected SO, SU or Sp") from None
        if q < 2:
            raise ValueError("q must be >= 2")
        return cls(*make(q))

    @property
    def rho(self) -> float:
        """Half sum of roots with multiplicity: (m_alpha + 2 m_2alpha) / 2."""
        return 0.5 * (self.m_alpha + 2 * self.m_2alpha)


# --------------------------------------------------------------------------
# Macdonald quadrature core

_REL_TOL = 1e-13
_TAIL_LOG = 46.0  # integrand at the window edge is e^-46 below its peak
_MAX_NODES = 1 << 16
_CHUNK = 4096


def _log_phi(v: np.ndarray, lam: float, moment: int, dx_weight: int) -> np.ndarray:
    """log of the quadrature weight cosh(lam v) * v^moment * cosh(v)^dx_weight."""
    out = np.logaddexp(lam * v, -lam * v) - math.log(2.0)
    if moment:
        with np.errstate(divide="ignore"):
            out = out + moment * np.log(v)
    if dx_weight:
        out = out + dx_weight * (np.logaddexp(v, -v) - math.log(2.0))
    return out


def _quad_window(x_min: float, lam: float, moment: int, dx_weight: int) -> float:
    """Window [0, V] outside which the integrand is e^-46 below its peak."""
    v_hi = math.acosh(1.0 + (_TAIL_LOG + 60.0 * (1.0 + lam + moment + dx_weight)) / x_min) + 2.0
    for _ in range(60):
        v = np.linspace(0.0, v_hi, 4096)
        g = _log_phi(v, lam, moment, dx_weight) - x_min * (np.cosh(v) - 1.0)
        peak = np.max(g[np.isfinite(g)])
        below = np.nonzero(g <= peak - _TAIL_LOG)[0]
        past = below[below > np.argmax(np.where(np.isfinite(g), g, -np.inf))]
        if past.size:
            return float(v[past[0]])
        v_hi *= 1.5
    raise QuadratureError("could not bracket the integration window")


def _phi(v: np.ndarray, lam: float, moment: int, dx_weight: int) -> np.ndarray:
    out = np.cosh(lam * v)
    if moment:
        out = out * v**moment
    if dx_weight:
        out = out * np.cosh(v) ** dx_weight
    return out


def _scaled_macdonald_integral(
    x: np.ndarray, lam: float = 0.0, moment: int = 0, dx_weight: int = 0
) -> np.ndarray:
    """int_0^inf cosh(lam v) v^moment cosh(v)^dx_weight e^{-x (cosh v - 1)} dv, vectorized in x.

    The e^x scaling keeps the result representable for arbitrarily large x;
    callers wanting the raw integral multiply by e^-x themselves.
    """
    lam = abs(float(lam))
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("x must be positive")
    flat = np.atleast_1d(x).ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _CHUNK):
        xs = flat[start : start + _CHUNK]
        V = _quad_window(float(xs.min()), lam, moment, dx_weight)

        def node_sum(v):
            # sum_i phi(v_i) e^{-x (cosh v_i - 1)}, blocked over v to bound memory
            acc = np.zeros_like(xs)
            for s in range(0, v.size, _CHUNK):
                vb = v[s : s + _CHUNK]
                acc += (
                    _phi(vb, lam, moment, dx_weight)[None, :]
                    * np.exp(-np.multiply.outer(xs, np.cosh(vb) - 1.0))
                ).sum(axis=1)
            return acc

        n = 256
        v = np.linspace(0.0, V, n + 1)
        ends = 0.5 * (node_sum(v[:1]) + node_sum(v[-1:]))
        total = (node_sum(v) - ends) * (V / n)
        while True:
            mid = (v[:-1] + v[1:]) / 2.0
            refined = 0.5 * total + (V / (2 * n)) * node_sum(mid)
            n *= 2
            v = np.linspace(0.0, V, n + 1)
            err = np.abs(refined - total)
            total = refined
            if np.all(err <= _REL_TOL * np.abs(refined) + 1e-300):
                break
            if n > _MAX_NODES:
                raise QuadratureError(
                    f"no convergence with {n} nodes (max err {err.max():.3e})"
                )
        out[start : start + _CHUNK] = total
    return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])


def macdonald_k(lam: float, x):
    """Macdonald function K_lam(x), x > 0 (scalar or array).

    Evaluated through the manifestly even form int_0^inf cosh(lam v) e^{-x cosh v} dv,
    so K_lam == K_{-lam} holds bitwise.  For x beyond ~700 the value underflows
    to 0.0 (the true value is below the double-precision range).
    """
    return np.exp(-np.asarray(x, dtype=float)) * _scaled_macdonald_integral(x, lam) if np.ndim(x) \
        else math.exp(-float(x)) * _scaled_macdonald_integral(x, lam)


def macdonald_k_dlambda(n: int, x):
    """n-th derivative of lam -> K_lam(x) at lam = 0.

    Differentiating under the integral sign gives int_0^inf v^n e^{-x cosh v} dv
    for even n; odd derivatives vanish since K is even in lam.
    """
    if n < 0 or n != int(n):
        raise ValueError("derivative order must be a nonnegative integer")
    if n % 2 == 1:
        return np.zeros(np.shape(x)) if np.ndim(x) else 0.0
    scaled = _scaled_macdonald_integral(x, 0.0, moment=int(n))
    return np.exp(-np.asarray(x, dtype=float)) * scaled if np.ndim(x) else math.exp(-float(x)) * scaled


def macdonald_ratio(lam: float, x):
    """K_lam(x) / K_0(x), overflow/underflow-safe for any x > 0."""
    return _scaled_macdonald_integral(x, lam) / _scaled_macdonald_integral(x, 0.0)


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

def log_c_function(lam: float, mult: Multiplicities) -> float:
    """log of c(lam) = 2^{m_a/2 + m_2a - lam} G((m_a+m_2a+1)/2) / [G((m_a/2+1+lam)/2) G((m_a/2+m_2a+lam)/2)].

    All Gamma arguments are positive in the intended domain, so the value is
    positive and the log is real.
    """
    ma, m2 = mult.m_alpha, mult.m_2alpha
    return (
        (0.5 * ma + m2 - lam) * math.log(2.0)
        + math.lgamma(0.5 * (ma + m2 + 1.0))
        - math.lgamma(0.5 * (0.5 * ma + 1.0 + lam))
        - math.lgamma(0.5 * (0.5 * ma + m2 + lam))
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
    mult_g = {"squared": 2.0, "single": 1.0}
    try:
        k = mult_g[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    return k * math.lgamma(0.5 * ma) - math.lgamma(float(ma)) - (1.0 + 1.5 * m2) * math.log(2.0)

