"""Scalar path engine: Brownian paths, the exponential functional
eta_t = int_0^t e^{2 B_s - B_t} ds and its sample streams, and the limiting
diffusion's log-derivative drift; a scalar path is a plain (n_steps + 1,)
array on a TimeGrid.  The radial part on the hyperbolic space H^q is the
p = 1, real case of matrixproc's solvable-group engine.

Randomness is counter-based (Philox keyed by (seed, stream_id)), so replicas
are bit-reproducible and independent streams can be derived without shared
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specialfn import _scaled_macdonald_integral

__all__ = [
    "TimeGrid",
    "RngStream",
    "sample_bm",
    "eta_functional",
    "log_eta",
    "my_drift",
    "exp_functional_samples",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _grid_steps(t: float, dt: float) -> int | None:
    """The whole number k with k dt = t, to 1e-9 relative to max(1, |t|), or None if there is
    none; also None when t / dt is not finite (an infinite t, or a dt too small to count)."""
    steps = t / dt
    if not math.isfinite(steps):
        return None
    k = round(steps)
    return k if abs(k * dt - t) <= 1e-9 * max(1.0, abs(t)) else None


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt, k = 0..n_steps, with horizon T = n_steps * dt."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf or self.n_steps < 1:
            raise ValueError("need horizon > 0 and n_steps >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def index_of(self, t: float) -> int:
        k = _grid_steps(t, self.dt)
        if k is None or not 0 <= k <= self.n_steps:
            raise ValueError(f"t={t} is not a grid point")
        return k


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: identical (seed, stream_id) reproduce bit-for-bit."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        # Philox(key=...) alone seeds from OS entropy before the key replaces it;
        # a fixed seed skips that read, and the key and a zero counter then set the stream
        bitgen = np.random.Philox(0)
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        bitgen.state = {**bitgen.state, "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key}}
        return np.random.Generator(bitgen)

    def child(self, index: int) -> "RngStream":
        """Derived stream; distinct indices give statistically independent streams."""
        return RngStream(self.seed, _splitmix64(self.stream_id ^ _splitmix64(index + 1)))


def sample_bm(grid: TimeGrid, rng: RngStream) -> np.ndarray:
    """Standard Brownian path from 0 on the grid, shape (n_steps + 1,)."""
    increments = math.sqrt(grid.dt) * rng.generator().standard_normal(grid.n_steps)
    return np.concatenate([[0.0], np.cumsum(increments)])


def log_eta(b: np.ndarray, dt: float) -> np.ndarray:
    """log eta_t on the grid of step dt of each path of b (..., n_steps + 1), time last, by the
    cumulative trapezoid of e^{2 B_s} ds in log space; the t = 0 entry is -inf (entrance boundary)."""
    log_steps = math.log(dt / 2.0) + np.logaddexp(2.0 * b[..., :-1], 2.0 * b[..., 1:])
    out = np.empty(b.shape)
    out[..., 0] = -np.inf
    np.logaddexp.accumulate(log_steps, axis=-1, out=out[..., 1:])
    return out - b


def eta_functional(b: np.ndarray, dt: float) -> np.ndarray:
    """eta_t = e^{-B_t} int_0^t e^{2 B_s} ds on the grid of step dt of the path b; eta_0 = 0.

    The integral is taken in log space; an eta beyond double range raises OverflowError.
    """
    with np.errstate(over="ignore"):  # a non-finite eta raises below
        eta = np.exp(log_eta(b, dt))
    if not np.isfinite(eta).all():
        raise OverflowError("eta left double range")
    return eta


def my_drift(r, lam: float = 0.0):
    """d/dr log K_lam(e^{-r}) (scalar or array r).

    Equals -e^{-r} K_lam'(e^{-r}) / K_lam(e^{-r}); both factors come from one
    node set with the common e^{-x} scale cancelled, so the ratio is
    stable over the whole line (repulsive wall ~ e^{-r} on the left, slow
    logarithmic decay on the right).
    """
    x = np.exp(-np.asarray(r, dtype=float))
    return x * _scaled_macdonald_integral(x, lam, dx_weight=1, per=(lam, 0))


def exp_functional_samples(times, dt: float, n_paths: int, rng: RngStream, mu=2.0, drift=0.0):
    """Joint samples of (B_t, Z_t) with Z_t = int_0^t e^{mu X_s - X_t} ds, X_t = B_t + drift t,
    at the given times, by the trapezoid rule on the grid k * dt.

    mu = 2 is the Markov exponential functional, mu = 1 the driver-adapted
    one, mu = 3 the non-Markov counterexample.  mu and drift may be
    equal-length sequences, one functional per (mu, drift) pair: all of them
    read one Brownian driver B, which draws one standard_normal(n_paths) per
    step from rng.generator(), so the noise drawn does not grow with their
    number.  A step takes one exp per distinct mu, which a drift scales by
    e^{mu drift t_k}, into each functional's running sum of e^{mu X} over steps
    1..k; the trapezoid is built from it only at the read times, in place in Z.
    Streams over the time axis (memory O(n_paths) per functional and per mu).

    times maps each read time to the indices of the functionals read there; a
    functional is integrated up to the last time it is read.  Returns the
    driver B, shape (len(times), n_paths), and Z, a list of one
    (times read, n_paths) array per functional.
    """
    mus, drifts = np.broadcast_arrays(np.atleast_1d(np.asarray(mu, dtype=float)),
                                      np.atleast_1d(np.asarray(drift, dtype=float)))
    if mus.ndim != 1 or mus.size == 0:
        raise ValueError("mu and drift must be scalars or equal-length sequences")
    keys = list(times)
    if not all(0 <= j < mus.size for js in times.values() for j in js):
        raise ValueError(f"a time can only read functionals 0..{mus.size - 1}")
    steps = [_grid_steps(t, dt) for t in keys]
    if None in steps:
        raise ValueError(f"time {keys[steps.index(None)]} is not a multiple of dt")
    if not steps or steps[0] < 1 or any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"times must fall on strictly increasing grid steps k >= 1, got {steps}")
    # Z's rows, functional-major: (functional, time index) -> row; a functional runs to its last read
    rows = [(j, i) for j in range(mus.size) for i, t in enumerate(keys) if j in times[t]]
    rows = {slot: r for r, slot in enumerate(rows)}
    ends = [max([steps[i] for f, i in rows if f == j], default=0) for j in range(mus.size)]
    marks = {k: i for i, k in enumerate(steps)}
    gen = rng.generator()
    b = np.zeros(n_paths)
    spare = np.empty(n_paths)  # the step's normals, then a drifted e^{mu X}, then e^{-X_t} at a read
    emu = {m: (np.empty(n_paths), max(e for e, mj in zip(ends, mus) if mj == m)) for m in mus.tolist()}
    sums = [np.zeros(n_paths) for _ in mus]
    out_b = np.empty((len(keys), n_paths))
    out_z = np.empty((len(rows), n_paths))
    with np.errstate(over="ignore"):  # a Z that leaves double range raises below
        for k in range(1, steps[-1] + 1):
            b += np.multiply(gen.standard_normal(out=spare), math.sqrt(dt), out=spare)
            if (i := marks.get(k)) is not None:
                out_b[i] = b
            for m, (e, end) in emu.items():
                if k <= end:
                    np.exp(b if m == 1.0 else np.multiply(b, m, out=e), out=e)
            for j, (m, d) in enumerate(zip(mus.tolist(), drifts.tolist())):
                if k > ends[j]:
                    continue
                shift = d * (k * dt)
                e = np.multiply(emu[m][0], math.exp(m * shift), out=spare) if shift else emu[m][0]
                sums[j] += e
                r = rows.get((j, i))
                if r is not None:
                    # dt (1/2 + e_1 + ... + e_{k-1} + e_k / 2) = dt (sum + (1 - e_k) / 2), then times e^{-X_t}
                    z = np.subtract(1.0, e, out=out_z[r])
                    z *= 0.5
                    z += sums[j]
                    z *= dt
                    z *= np.exp(np.subtract(-shift, b, out=spare), out=spare)
                    if not np.all(np.isfinite(z)):
                        raise OverflowError("exponential functional left double range; use shorter horizons")
    return out_b, np.split(out_z, np.cumsum(np.bincount([j for j, _ in rows], minlength=mus.size))[:-1])
