"""Exact computations for radial walks on regular trees and their flat limits.

Everything in this module is exact: probabilities and laws are exposed as
`fractions.Fraction` over arbitrary-precision integers, and the irrational
sqrt(q) appearing in the spectral radius 2 sqrt(q)/(q+1) and in the ground
state phi_0(n) = (1 + n (q-1)/(q+1)) q^{-n/2} is carried symbolically as a
formal half-integer power of q (class QPow, products and quotients only).
Every exposed transition probability asserts that the half powers cancelled.

Kernels: R (radial simple walk) and B (discrete Bessel(3)), both built as
walks on N reflected at 0; R0, R's ground-state transform; P_G, the walk
folded onto the planar graph, with rows in eps = 1/q, and its flat limit Q
at eps = 0: the chain on pairs (S, M) of the simple walk and its running max
in the coordinates (2M - S, S), whose distance 2M - S is the discrete Pitman
walk.  exact_distribution is the one forward-iteration engine: it returns
the laws at steps 0..n of one run of a chain, pushed forward by an image map
(the identity by default).  Inside it a row is integer weights over one row
denominator, and a law is integer numerators over one common denominator per
step, so a step needs only integer + and x and one gcd; the numerators are
summed by image, and each image key's Fraction is built once, when its law
is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "QPow",
    "ExactKernel",
    "radial_kernel",
    "phi0_tree",
    "ground_state_kernel",
    "bessel3_kernel",
    "graph_kernel",
    "exact_distribution",
    "pitman_walk_distribution",
    "graph_distance",
    "distribution_to_strings",
]

# largest reachable set exact_distribution accepts at any step
_MAX_STATES = 10**6


@dataclass(frozen=True)
class QPow:
    """coef * q^(half/2) with an exact rational coefficient, under products and quotients.

    rational() is the exact value, and raises unless half is even (every sqrt(q)
    cancelled), which is how the sqrt(q) bookkeeping is enforced end to end.
    """

    coef: Fraction
    half: int
    q: int

    def _check(self, other) -> None:
        if not isinstance(other, QPow):
            raise TypeError(f"QPow takes a QPow operand, not {type(other).__name__}")
        if self.q != other.q:
            raise ValueError("mixing different q")

    def __mul__(self, other: "QPow") -> "QPow":
        self._check(other)
        return QPow(self.coef * other.coef, self.half + other.half, self.q)

    def __truediv__(self, other: "QPow") -> "QPow":
        self._check(other)
        return QPow(self.coef / other.coef, self.half - other.half, self.q)

    def rational(self) -> Fraction:
        """Exact rational value coef * q^(half/2); raises if a stray sqrt(q) survives (half odd, coef not 0)."""
        if self.half % 2 and self.coef != 0:
            raise ValueError(f"residual power q^({self.half}/2) did not cancel")
        return self.coef * Fraction(self.q) ** (self.half // 2)


@dataclass(frozen=True)
class ExactKernel:
    """Markov kernel with exact rational transition rows."""

    transition: Callable[[object], List[Tuple[object, Fraction]]]

    def weights(self, state) -> Tuple[int, List[Tuple[object, int]]]:
        """The row at state as (d, [(target, w), ...]) with probabilities w / d.

        d is the lcm of the row's denominators.  Every probability must be an
        int or a Fraction; the row is checked to sum to 1 with no negative
        entry on these integer weights, the ones exact_distribution uses.
        """
        moves = self.transition(state)
        for _, p in moves:
            if not isinstance(p, (int, Fraction)):
                raise TypeError(f"probability {p!r} at {state} is a {type(p).__name__}, not an int or a Fraction")
        d = math.lcm(*(p.denominator for _, p in moves))
        row = [(target, p.numerator * (d // p.denominator)) for target, p in moves]
        total = sum(w for _, w in row)
        if total != d:
            raise AssertionError(f"row at {state} sums to {Fraction(total, d)}, not 1")
        if any(w < 0 for _, w in row):
            raise AssertionError(f"negative probability at {state}")
        return d, row

    def row(self, state) -> List[Tuple[object, Fraction]]:
        """The checked row at state as [(target, probability), ...]."""
        d, row = self.weights(state)
        return [(target, Fraction(w, d)) for target, w in row]


def _reflected_walk(down: Callable[[int], Fraction], up: Callable[[int], Fraction]) -> ExactKernel:
    """Nearest-neighbour chain on N reflected at 0: 0 -> 1 surely, n -> n - 1, n + 1 with down(n), up(n)."""

    def transition(n: int):
        return [(1, Fraction(1))] if n == 0 else [(n - 1, down(n)), (n + 1, up(n))]

    return ExactKernel(transition)


def radial_kernel(q: int) -> ExactKernel:
    """Distance-to-root walk of the simple random walk on the (q+1)-regular tree:
    R(0,1) = 1, R(n,n-1) = 1/(q+1), R(n,n+1) = q/(q+1)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return _reflected_walk(lambda n: Fraction(1, q + 1), lambda n: Fraction(q, q + 1))


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

    return ExactKernel(transition)


def bessel3_kernel() -> ExactKernel:
    """Discrete Bessel(3) chain: B(0,1)=1, B(n,n+1)=(n+2)/(2(n+1)), B(n,n-1)=n/(2(n+1))."""
    return _reflected_walk(lambda n: Fraction(n, 2 * (n + 1)), lambda n: Fraction(n + 2, 2 * (n + 1)))


def graph_kernel(q: Optional[int] = None) -> ExactKernel:
    """Walk on the planar folding of the tree, states (x, y) with x >= y, x = y mod 2.

    With eps = 1/q, (k,k) moves to (k-1,k-1), (k+1,k+1), (k+1,k-1) with eps/2, 1/2, (1-eps)/2,
    and an off-diagonal (x, y) to (x -+ 1, y +- 1) with 1/2 each.  q = None is the flat limit
    eps = 0, its zero-probability move dropped: the discrete Pitman walk.
    """
    if q is not None and q < 2:
        raise ValueError("q must be >= 2 (or None for the limit)")
    eps = Fraction(0) if q is None else Fraction(1, q)
    half = Fraction(1, 2)

    def transition(state: Tuple[int, int]):
        x, y = state
        if (x - y) % 2 or x < y:
            raise ValueError(f"not a graph state: {state}")
        if x == y:
            moves = [((x - 1, y - 1), eps / 2), ((x + 1, y + 1), half), ((x + 1, y - 1), (1 - eps) / 2)]
            return [(target, p) for target, p in moves if p]
        return [((x - 1, y + 1), half), ((x + 1, y - 1), half)]

    return ExactKernel(transition)


def exact_distribution(kernel: ExactKernel, start, n: int,
                       image: Callable[[object], object] = lambda state: state) -> List[Dict[object, Fraction]]:
    """Laws of image(X_k) at steps k = 0..n, X the chain run by exact forward iteration from start.

    The iteration carries each step's law of the chain as integer numerators
    over one common denominator.  A step scales the numerator of each live
    (positive-mass) state by lcm(live row denominators) / its row's
    denominator, adds plain ints, and divides the numerators and the
    denominator by their gcd.  Each returned law sums those numerators by
    image(state), keys in order of first occurrence, and only then builds
    one Fraction per key.  Zero-mass targets stay as keys (of the image too)
    and zero-mass states are never expanded.  Each state's row is fetched
    (and checked) once per call; _MAX_STATES bounds the chain's states.
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def law(nums: Dict[object, int], den: int) -> Dict[object, Fraction]:
        pushed: Dict[object, int] = {}
        for state, num in nums.items():
            key = image(state)
            pushed[key] = pushed.get(key, 0) + num
        return {key: Fraction(num, den) for key, num in pushed.items()}

    rows: Dict[object, Tuple[int, List[Tuple[object, int]]]] = {}
    nums: Dict[object, int] = {start: 1}
    den = 1
    laws = [law(nums, den)]
    for _ in range(n):
        live = [(state, num) for state, num in nums.items() if num]
        for state, _ in live:
            if state not in rows:
                rows[state] = kernel.weights(state)
        step = math.lcm(*(rows[state][0] for state, _ in live))
        nxt: Dict[object, int] = {}
        for state, num in live:
            d, row = rows[state]
            num *= step // d
            for target, w in row:
                nxt[target] = nxt.get(target, 0) + num * w
        if len(nxt) > _MAX_STATES:
            raise RuntimeError(f"reachable set exceeded {_MAX_STATES} states")
        g = math.gcd(den * step, *nxt.values())
        den = den * step // g
        nums = {target: num // g for target, num in nxt.items()}
        laws.append(law(nums, den))
    return laws


def pitman_walk_distribution(n: int) -> List[Dict[int, Fraction]]:
    """Exact laws of 2 M_k - S_k at steps k = 0..n; S the simple symmetric walk, M its running max.

    The flat-limit folded walk from (0, 0) is the (S, M) chain in the coordinates (x, y) = (2M - S, S),
    and its distance is x = 2M - S on its support x >= |y|; each law is the Bessel(3) law from 0.
    """
    return exact_distribution(graph_kernel(), (0, 0), n, image=graph_distance)


def graph_distance(state: Tuple[int, int]) -> int:
    """Distance max(x, -y) of the graph state (x, y) from the origin vertex: x if x + y >= 0, else -y."""
    x, y = state
    return max(x, -y)


def distribution_to_strings(dist: Dict[object, Fraction]) -> Dict[str, str]:
    """JSON-friendly exact encoding {state: "num/den"}."""
    def key(s):
        return str(s) if not isinstance(s, tuple) else ",".join(str(v) for v in s)
    return {key(s): f"{m.numerator}/{m.denominator}" for s, m in sorted(dist.items(), key=lambda kv: str(kv[0]))}
