"""Scalar path engine: Brownian paths, the exponential functional
eta_t = int_0^t e^{2 B_s - B_t} ds, the Pitman transform, the hyperbolic
radial representation, and the limiting diffusion's log-derivative drift.

Randomness is counter-based (Philox keyed by (seed, stream_id)), so replicas
are bit-reproducible and independent streams can be derived without shared
state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .specialfn import _scaled_macdonald_integral

__all__ = [
    "TimeGrid",
    "ScalarPath",
    "RngStream",
    "ArcoshDomainError",
    "sample_bm",
    "eta_functional",
    "log_eta",
    "pitman_transform",
    "hyperbolic_radial",
    "my_drift",
    "exp_functional_samples",
    "paths_to_csv",
]

_MASK64 = (1 << 64) - 1


class ArcoshDomainError(RuntimeError):
    """arcosh argument below 1 by more than round-off: integrator bug."""


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt, k = 0..n_steps, with horizon T = n_steps * dt."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if self.horizon <= 0.0 or self.n_steps < 1:
            raise ValueError("need horizon > 0 and n_steps >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def index_of(self, t: float) -> int:
        k = round(t / self.dt)
        if not (0 <= k <= self.n_steps) or abs(k * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a grid point")
        return k


@dataclass
class ScalarPath:
    """A scalar trajectory sampled on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_steps + 1,):
            raise ValueError("values must have length n_steps + 1")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: identical (seed, stream_id) reproduce bit-for-bit."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derived stream; distinct indices give statistically independent streams."""
        return RngStream(self.seed, _splitmix64(self.stream_id ^ _splitmix64(index + 1)))


def sample_bm(grid: TimeGrid, drift: float, rng: RngStream, sigma: float = 1.0) -> ScalarPath:
    """Brownian path from 0 with the given drift; sigma=0 is the deterministic debug mode."""
    dt = grid.dt
    gauss = rng.generator().standard_normal(grid.n_steps) if sigma else np.zeros(grid.n_steps)
    increments = drift * dt + sigma * math.sqrt(dt) * gauss
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return ScalarPath(grid, values)


def _log_trapezoid_integral(b: np.ndarray, dt: float) -> np.ndarray:
    """log of the cumulative trapezoid of e^{2 B_s} ds (first entry -inf)."""
    log_steps = math.log(dt / 2.0) + np.logaddexp(2.0 * b[:-1], 2.0 * b[1:])
    out = np.empty(len(b))
    out[0] = -np.inf
    np.logaddexp.accumulate(log_steps, out=out[1:])
    return out


def eta_functional(b_path: ScalarPath) -> ScalarPath:
    """eta_t = e^{-B_t} int_0^t e^{2 B_s} ds by trapezoid accumulation in log space; eta_0 = 0.

    The integral never overflows; a driving path beyond +-700 raises, because
    eta itself would not be representable.
    """
    b = b_path.values
    if np.max(np.abs(b)) > 700.0:
        raise OverflowError("driving path exceeds +-700; eta would not be representable")
    return ScalarPath(b_path.grid, np.exp(_log_trapezoid_integral(b, b_path.grid.dt) - b))


def log_eta(b_path: ScalarPath) -> ScalarPath:
    """log eta_t on the grid; the t = 0 entry is -inf (entrance boundary)."""
    b = b_path.values
    return ScalarPath(b_path.grid, _log_trapezoid_integral(b, b_path.grid.dt) - b)


def pitman_transform(b_path: ScalarPath) -> ScalarPath:
    """2 max_{s <= t} B_s - B_t; nonnegative since the running max dominates both B_t and 0."""
    v = b_path.values
    return ScalarPath(b_path.grid, 2.0 * np.maximum.accumulate(v) - v)


def hyperbolic_radial(q: int, b_path: ScalarPath, rng: RngStream, *, zero_noise: bool = False,
                      block: int = 2048) -> ScalarPath:
    """Distance to the origin of the ground-state process on the q-dimensional
    hyperbolic space, driven by the given vertical Brownian path.

    Uses cosh d_t = [e^{B_t} + e^{-B_t} + e^{-B_t} sum_{k<q} (int_0^t e^{B_s} dbeta_s^k)^2] / 2
    with left-point Ito integrals.  The k-th transverse integral draws from
    rng.child(k), so runs with larger q extend smaller-q runs path by path
    (shared-noise coupling).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    b = b_path.values
    n = b_path.grid.n_steps
    dt = b_path.grid.dt
    eb = np.exp(b)
    sq = np.zeros(n + 1)
    if not zero_noise:
        sqrt_dt = math.sqrt(dt)
        for k0 in range(0, q - 1, block):
            m = min(block, q - 1 - k0)
            gen = rng.child(k0).generator()
            dbeta = sqrt_dt * gen.standard_normal((m, n))
            integrals = np.cumsum(eb[:-1] * dbeta, axis=1)
            sq[1:] += np.einsum("ij,ij->j", integrals, integrals)
    arg = 0.5 * (eb + 1.0 / eb) + 0.5 * sq / eb
    low = arg < 1.0 - 1e-12
    if np.any(low):
        raise ArcoshDomainError(f"cosh argument {arg[low].min()} below 1: integrator bug")
    return ScalarPath(b_path.grid, np.arccosh(np.maximum(arg, 1.0)))


def my_drift(r, lam: float = 0.0):
    """d/dr log K_lam(e^{-r}) (scalar or array r).

    Equals -e^{-r} K_lam'(e^{-r}) / K_lam(e^{-r}); both factors come from the
    same quadrature with the common e^{-x} scale cancelled, so the ratio is
    stable over the whole line (repulsive wall ~ e^{-r} on the left, slow
    logarithmic decay on the right).
    """
    x = np.exp(-np.asarray(r, dtype=float)) if np.ndim(r) else math.exp(-float(r))
    num = _scaled_macdonald_integral(x, lam, dx_weight=1)
    den = _scaled_macdonald_integral(x, lam)
    return x * num / den


def exp_functional_samples(times: Sequence[float], dt: float, n_paths: int, rng: RngStream,
                           mu: float = 2.0, drift: float = 0.0):
    """Joint samples of (B_t, Z_t) with Z_t = int_0^t e^{mu B_s - B_t} ds at the given times.

    Streams over the time axis (memory O(n_paths)); returns two arrays of
    shape (len(times), n_paths).  mu = 2 is the Markov exponential functional,
    mu = 1 the driver-adapted one, mu = 3 the non-Markov counterexample.
    """
    times = list(times)
    if any(t <= 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be positive and strictly increasing")
    n_total = round(times[-1] / dt)
    marks = {}
    for i, t in enumerate(times):
        k = round(t / dt)
        if abs(k * dt - t) > 1e-9:
            raise ValueError(f"time {t} is not a multiple of dt")
        marks[k] = i
    gen = rng.generator()
    sqrt_dt = math.sqrt(dt)
    b = np.zeros(n_paths)
    integral = np.zeros(n_paths)
    emu = np.ones(n_paths)
    out_b = np.empty((len(times), n_paths))
    out_z = np.empty((len(times), n_paths))
    for k in range(1, n_total + 1):
        b_next = b + drift * dt + sqrt_dt * gen.standard_normal(n_paths)
        emu_next = np.exp(mu * b_next)
        integral += 0.5 * dt * (emu + emu_next)
        b, emu = b_next, emu_next
        if k in marks:
            i = marks[k]
            out_b[i] = b
            out_z[i] = integral * np.exp(-b)
    if not np.all(np.isfinite(out_z)):
        raise OverflowError("exponential functional left double range; use shorter horizons")
    return out_b, out_z


def paths_to_csv(paths: Sequence[ScalarPath], fileobj) -> None:
    """Long-format batch export with columns replica,t,value."""
    writer = csv.writer(fileobj)
    writer.writerow(["replica", "t", "value"])
    for i, path in enumerate(paths):
        for t, v in zip(path.grid.times(), path.values):
            writer.writerow([i, f"{t:.12g}", f"{v:.17g}"])
