"""Exact computations for radial walks on regular trees and their flat limits.

Everything in this module is exact: probabilities are `fractions.Fraction`
over arbitrary-precision integers, and the irrational sqrt(q) appearing in
the spectral radius 2 sqrt(q)/(q+1) and in the ground state
phi_0(n) = (1 + n (q-1)/(q+1)) q^{-n/2} is carried symbolically as a formal
half-integer power of q (class QPow).  Every exposed transition probability
asserts that the half powers cancelled.

Kernels: R (radial simple walk on N), R0 (its ground-state transform),
B (discrete Bessel(3)), P_G / Q (the walk folded onto the planar graph and
its flat limit, the discrete Pitman walk).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

__all__ = [
    "QPow",
    "ExactKernel",
    "ExactDistribution",
    "radial_kernel",
    "phi0_tree",
    "ground_state_kernel",
    "bessel3_kernel",
    "graph_kernel",
    "exact_distribution",
    "pitman_walk_distribution",
    "graph_distance_marginal",
    "distribution_to_strings",
]


@dataclass(frozen=True)
class QPow:
    """coef * q^(half/2) with an exact rational coefficient.

    Addition requires matching half-powers; rational() asserts the grading
    vanished, which is how the sqrt(q) bookkeeping is enforced end to end.
    """

    coef: Fraction
    half: int
    q: int

    def _check(self, other: "QPow") -> None:
        if self.q != other.q:
            raise ValueError("mixing different q")

    def __mul__(self, other):
        if isinstance(other, QPow):
            self._check(other)
            return QPow(self.coef * other.coef, self.half + other.half, self.q)
        return QPow(self.coef * Fraction(other), self.half, self.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QPow):
            self._check(other)
            if other.coef == 0:
                raise ZeroDivisionError
            return QPow(self.coef / other.coef, self.half - other.half, self.q)
        return QPow(self.coef / Fraction(other), self.half, self.q)

    def __add__(self, other: "QPow") -> "QPow":
        self._check(other)
        a, b = self.normalized(), other.normalized()
        if a.coef == 0:
            return b
        if b.coef == 0:
            return a
        if a.half != b.half:
            raise ValueError(f"adding mismatched half-powers {a.half} != {b.half}")
        return QPow(a.coef + b.coef, a.half, self.q)

    def normalized(self) -> "QPow":
        """Canonical form: fold powers of q into the coefficient until half is 0 or 1."""
        coef, half = self.coef, self.half
        if coef == 0:
            return QPow(Fraction(0), 0, self.q)
        while half >= 2:
            coef *= self.q
            half -= 2
        while half < 0:
            coef /= self.q
            half += 2
        return QPow(coef, half, self.q)

    def rational(self) -> Fraction:
        """Exact rational value; raises if a stray sqrt(q) survives."""
        n = self.normalized()
        if n.half != 0 and n.coef != 0:
            raise ValueError(f"residual q^(1/2) power {n.half} did not cancel")
        return n.coef


@dataclass(frozen=True)
class ExactKernel:
    """Markov kernel with exact rational transition rows."""

    state_space: str
    transition: Callable[[object], List[Tuple[object, Fraction]]]

    def row(self, state) -> List[Tuple[object, Fraction]]:
        moves = self.transition(state)
        total = sum(p for _, p in moves)
        if total != 1:
            raise AssertionError(f"row at {state} sums to {total}, not 1")
        if any(p < 0 for _, p in moves):
            raise AssertionError(f"negative probability at {state}")
        return moves


class ExactDistribution(Dict[object, Fraction]):
    """Finite-support exact law: mapping state -> rational mass."""

    def total(self) -> Fraction:
        return sum(self.values(), Fraction(0))

    def marginal(self, fn: Callable[[object], object]) -> "ExactDistribution":
        out = ExactDistribution()
        for state, mass in self.items():
            key = fn(state)
            out[key] = out.get(key, Fraction(0)) + mass
        return out


def radial_kernel(q: int) -> ExactKernel:
    """Distance-to-root walk of the simple random walk on the (q+1)-regular tree:
    R(0,1) = 1, R(n,n-1) = 1/(q+1), R(n,n+1) = q/(q+1)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    back = Fraction(1, q + 1)
    forward = Fraction(q, q + 1)

    def transition(n: int):
        if n == 0:
            return [(1, Fraction(1))]
        return [(n - 1, back), (n + 1, forward)]

    return ExactKernel("N", transition)


def phi0_tree(n: int, q: int) -> QPow:
    """Radial ground state phi_0(n) = (1 + n (q-1)/(q+1)) * q^{-n/2}, exactly."""
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    return QPow(1 + Fraction(n * (q - 1), q + 1), -n, q)


def tree_spectral_radius(q: int) -> QPow:
    """Bottom-of-spectrum eigenvalue 2 sqrt(q) / (q+1) of the radial walk."""
    return QPow(Fraction(2, q + 1), 1, q)


def ground_state_kernel(q: int) -> ExactKernel:
    """Ground-state transform R0(n, m) = R(n, m) phi_0(m) / (rho phi_0(n)).

    Built from the defining formula; the q^{1/2} grading cancels exactly in
    every entry (asserted), leaving plain rationals.
    """
    base = radial_kernel(q)
    rho = tree_spectral_radius(q)

    def transition(n: int):
        phi_n = phi0_tree(n, q)
        out = []
        for m, p in base.transition(n):
            value = (QPow(p, 0, q) * phi0_tree(m, q)) / (rho * phi_n)
            out.append((m, value.rational()))
        return out

    return ExactKernel("N", transition)


def bessel3_kernel() -> ExactKernel:
    """Discrete Bessel(3) chain: B(0,1)=1, B(n,n+1)=(n+2)/(2(n+1)), B(n,n-1)=n/(2(n+1))."""

    def transition(n: int):
        if n == 0:
            return [(1, Fraction(1))]
        return [(n - 1, Fraction(n, 2 * (n + 1))), (n + 1, Fraction(n + 2, 2 * (n + 1)))]

    return ExactKernel("N", transition)


def graph_kernel(q: int = 0, limit: bool = False) -> ExactKernel:
    """Walk on the planar folding of the tree, states (x, y) with x >= y, x = y mod 2.

    Diagonal states (k,k): down-diagonal 1/2q, up-diagonal 1/2, interior
    (k+1, k-1) with (q-1)/2q.  Off-diagonal states move to
    (x - eps, y + eps), eps = +-1, with probability 1/2 each.  With
    limit=True the q -> infinity kernel is returned (down-diagonal move
    forbidden): the discrete Pitman walk.
    """
    if not limit and q < 2:
        raise ValueError("q must be >= 2 (or pass limit=True)")
    half = Fraction(1, 2)

    def transition(state: Tuple[int, int]):
        x, y = state
        if (x - y) % 2 or x < y:
            raise ValueError(f"not a graph state: {state}")
        if x == y:
            k = x
            if limit:
                return [((k + 1, k + 1), half), ((k + 1, k - 1), half)]
            return [
                ((k - 1, k - 1), Fraction(1, 2 * q)),
                ((k + 1, k + 1), half),
                ((k + 1, k - 1), Fraction(q - 1, 2 * q)),
            ]
        return [((x - 1, y + 1), half), ((x + 1, y - 1), half)]

    return ExactKernel("graph", transition)


def exact_distribution(kernel: ExactKernel, start, n: int, cap: int = 10**6) -> ExactDistribution:
    """Law of the chain at step n by exact forward iteration from a point mass."""
    if n < 0:
        raise ValueError("n must be >= 0")
    dist = ExactDistribution({start: Fraction(1)})
    for _ in range(n):
        nxt = ExactDistribution()
        for state, mass in dist.items():
            if mass == 0:
                continue
            for target, p in kernel.row(state):
                nxt[target] = nxt.get(target, Fraction(0)) + mass * p
        if len(nxt) > cap:
            raise RuntimeError(f"reachable set exceeded {cap} states")
        dist = nxt
    return dist


def pitman_walk_distribution(n: int) -> ExactDistribution:
    """Exact law of 2 M_n - S_n for the simple symmetric walk S (M its running max).

    Dynamic programming over the pair (S, M); the result coincides with the
    discrete Bessel(3) law started at 0 for every n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    half = Fraction(1, 2)
    pairs: Dict[Tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for _ in range(n):
        nxt: Dict[Tuple[int, int], Fraction] = {}
        for (s, m), mass in pairs.items():
            for step in (1, -1):
                s2 = s + step
                key = (s2, max(m, s2))
                nxt[key] = nxt.get(key, Fraction(0)) + mass * half
        pairs = nxt
    out = ExactDistribution()
    for (s, m), mass in pairs.items():
        key = 2 * m - s
        out[key] = out.get(key, Fraction(0)) + mass
    return out


def _graph_distance(state: Tuple[int, int]) -> int:
    """Graph distance from the origin vertex: a for a + b >= 0, else |b|."""
    x, y = state
    return x if x + y >= 0 else -y


def graph_distance_marginal(dist: ExactDistribution) -> ExactDistribution:
    """Push a graph-state law to the distance-from-origin law max(x, -y)."""
    return dist.marginal(_graph_distance)


def distribution_to_strings(dist: ExactDistribution) -> Dict[str, str]:
    """JSON-friendly exact encoding {state: "num/den"}."""
    def key(s):
        return str(s) if not isinstance(s, tuple) else ",".join(str(v) for v in s)
    return {key(s): f"{m.numerator}/{m.denominator}" for s, m in sorted(dist.items(), key=lambda kv: str(kv[0]))}
