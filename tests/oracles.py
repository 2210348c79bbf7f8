"""Independent oracles used only by the test suite.

These deliberately avoid the library's own code paths: raw-integral
quadrature via scipy, an RK4 shooting solver for the radial eigenfunction
equation, characteristic-polynomial singular values, plain central finite
differences, and brute-force enumeration of the discrete Pitman law.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import integrate


def macdonald_raw_integral(lam: float, x: float) -> float:
    """Brute-force quadrature of 1/2 (x/2)^lam int_0^inf e^{-t - x^2/4t} t^{-1-lam} dt."""
    val, _ = integrate.quad(lambda t: math.exp(-t - x * x / (4.0 * t)) * t ** (-1.0 - lam),
                            0.0, np.inf, limit=400)
    return 0.5 * (x / 2.0) ** lam * val


def ode_spherical(lam: float, mult, r_end: float, h: float = 5e-4) -> float:
    """phi_lam(r_end) by RK4 shooting on phi'' + w(r) phi' = (lam^2 - rho^2) phi
    with phi(0) = 1, phi'(0) = 0; w(r) = m_a coth r + 2 m_2a coth 2r."""
    ma, m2 = mult.m_alpha, mult.m_2alpha
    rho = 0.5 * ma + m2
    kap = lam * lam - rho * rho
    neff = ma + m2
    r0 = 1e-4
    y = np.array([1.0 + kap * r0 * r0 / (2.0 * (1.0 + neff)), kap * r0 / (1.0 + neff)])

    def f(r, y):
        w = ma / math.tanh(r) + 2.0 * m2 / math.tanh(2.0 * r)
        return np.array([y[1], kap * y[0] - w * y[1]])

    n = int(round((r_end - r0) / h))
    step = (r_end - r0) / n
    r = r0
    for _ in range(n):
        k1 = f(r, y)
        k2 = f(r + step / 2, y + step / 2 * k1)
        k3 = f(r + step / 2, y + step / 2 * k2)
        k4 = f(r + step, y + step * k3)
        y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        r += step
    return float(y[0])


def ode_spherical_converged(lam, mult, r_end, h=5e-4, tol=1e-9) -> float:
    """Shooting value with step halving until successive answers agree."""
    prev = ode_spherical(lam, mult, r_end, h)
    for _ in range(6):
        h /= 2.0
        cur = ode_spherical(lam, mult, r_end, h)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


def charpoly_singular_values(n_matrix) -> np.ndarray:
    """Singular values of a 3x3 matrix via the characteristic cubic of N N*."""
    N = np.asarray(n_matrix)
    H = N @ N.conj().T
    tr = np.trace(H).real
    tr2 = np.trace(H @ H).real
    det = np.linalg.det(H).real
    coeffs = [1.0, -tr, 0.5 * (tr * tr - tr2), -det]
    roots = np.roots(coeffs)
    return np.sort(np.sqrt(np.maximum(roots.real, 0.0)))[::-1]


def central_even_derivative(f, order: int, h: float) -> float:
    """Richardson-extrapolated central finite difference of an even function at 0."""

    def stencil(hh):
        if order == 2:
            return (f(hh) - 2.0 * f(0.0) + f(-hh)) / hh**2
        if order == 4:
            return (f(2 * hh) - 4 * f(hh) + 6 * f(0.0) - 4 * f(-hh) + f(-2 * hh)) / hh**4
        raise ValueError("orders 2 and 4 only")

    a, b = stencil(h), stencil(h / 2.0)
    return (4.0 * b - a) / 3.0


def pitman_walk_enumeration(n: int) -> dict:
    """Law of 2 M_n - S_n by enumerating all 2^n sign paths (keep n small)."""
    if n < 0 or n > 22:
        raise ValueError("enumeration is for small n only")
    weight = Fraction(1, 2**n)
    out = {}
    for bits in range(2**n):
        s = m = 0
        for i in range(n):
            s += 1 if (bits >> i) & 1 else -1
            m = max(m, s)
        key = 2 * m - s
        out[key] = out.get(key, Fraction(0)) + weight
    return out
