"""Scalar path engine: Brownian paths, the exponential functional
eta_t = int_0^t e^{2 B_s - B_t} ds and its sample streams, and the limiting
diffusion's log-derivative drift; a scalar path is a plain (n_steps + 1,)
array on a TimeGrid.  The radial part on the hyperbolic space H^q is the
p = 1, real case of matrixproc's solvable-group engine.

Randomness is counter-based (Philox keyed by (seed, stream_id)), so replicas
are bit-reproducible and independent streams can be derived without shared
state.  exp_functional_samples draws its normals on one helper thread per
call, a step ahead of the arithmetic, into two buffers that pass between the
threads through two queues; the helper alone draws from the call's
generator, in step order, so the streams are those of a serial loop.
"""

from __future__ import annotations

import math
import queue
import threading
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


def _check_dt(dt: float) -> None:
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")


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
    """Counter-based random stream: identical (seed, stream_id) reproduce bit-for-bit; seed is a 64-bit key."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")

    def generator(self) -> np.random.Generator:
        # Philox(key=...) alone seeds from OS entropy before the key replaces it;
        # a fixed seed skips that read, and the key and a zero counter then set the stream
        bitgen = np.random.Philox(0)
        key = np.array([self.seed, self.stream_id & _MASK64], dtype=np.uint64)
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
    _check_dt(dt)
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
    number.  A step takes one exp per functional into one scratch buffer, e^{mu B_k}
    scaled by e^{mu drift t_k}, and adds it to the functional's running sum of
    e^{mu X} over steps 1..k; the trapezoid is built from it only at the read
    times, in place in Z.  Streams over the time axis (memory O(n_paths) per functional).

    The normals are drawn on a helper thread, one step ahead, into two n_paths
    buffers that change hands through two queues: the helper takes a free one,
    fills it and queues it as drawn; step k takes the next drawn one, uses it as
    its scratch and frees it at its end, so step k + 1 is drawn (the draw releases
    the GIL) while step k is integrated.  The helper alone uses the generator, in
    step order, so the streams are a serial loop's bit for bit; it is joined on
    every exit, and an error it raises (queued in place of a buffer) is raised here.

    times maps each read time to the indices of the functionals read there; a
    functional is integrated up to the last time it is read.  Returns the
    driver B, shape (len(times), n_paths), and Z, a list of one
    (times read, n_paths) array per functional.
    """
    _check_dt(dt)
    mus, drifts = np.broadcast_arrays(np.atleast_1d(np.asarray(mu, dtype=float)),
                                      np.atleast_1d(np.asarray(drift, dtype=float)))
    if mus.ndim != 1 or mus.size == 0:
        raise ValueError("mu and drift must be scalars or equal-length sequences")
    for name, values in (("mu", mus), ("drift", drifts)):
        if not np.isfinite(values).all():
            raise ValueError(f"every {name} must be finite, got {values.tolist()}")
    keys = list(times)
    if not all(0 <= j < mus.size for js in times.values() for j in js):
        raise ValueError(f"a time can only read functionals 0..{mus.size - 1}")
    steps = [_grid_steps(t, dt) for t in keys]
    if None in steps:
        raise ValueError(f"time {keys[steps.index(None)]} is not a multiple of dt")
    if not steps or steps[0] < 1 or any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"times must fall on strictly increasing grid steps k >= 1, got {steps}")
    # reads[j]: the time indices that read functional j, each to its own row of out_z[j]; j runs to its last read
    reads = [[i for i, t in enumerate(keys) if j in times[t]] for j in range(mus.size)]
    rows = {(j, i): r for j, js in enumerate(reads) for r, i in enumerate(js)}
    ends = [steps[js[-1]] if js else 0 for js in reads]
    marks = {k: i for i, k in enumerate(steps)}
    gen = rng.generator()
    b = np.zeros(n_paths)
    sums = [np.zeros(n_paths) for _ in mus]
    out_b = np.empty((len(keys), n_paths))
    out_z = [np.empty((len(js), n_paths)) for js in reads]
    # two buffers: a step's normals, then that step's scratch (each e^{mu X}, and e^{-X_t} at a read)
    free, drawn = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(2):
        free.put(np.empty(n_paths))

    def draw():
        try:
            for _ in range(steps[-1]):
                if (spare := free.get()) is None:
                    return
                drawn.put(gen.standard_normal(out=spare))  # returns spare, now filled
        except BaseException as exc:  # raised by the main thread when it next takes a step
            drawn.put(exc)

    # daemon, so that a join cut short by a second interrupt does not hold up the exit
    helper = threading.Thread(target=draw, name="exp_functional_samples normals", daemon=True)
    helper.start()
    try:
        # a Z that leaves double range raises below, also as the nan of (1 - inf) / 2 + inf on a read step
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, steps[-1] + 1):
                spare = drawn.get()
                if isinstance(spare, BaseException):
                    raise spare
                b += np.multiply(spare, math.sqrt(dt), out=spare)
                if (i := marks.get(k)) is not None:
                    out_b[i] = b
                for j, (m, d) in enumerate(zip(mus.tolist(), drifts.tolist())):
                    if k > ends[j]:
                        continue
                    shift = d * (k * dt)
                    e = np.exp(np.multiply(b, m, out=spare), out=spare)
                    e *= math.exp(m * shift)  # exactly 1.0 at zero drift
                    sums[j] += e
                    r = rows.get((j, i))
                    if r is not None:
                        # dt (1/2 + e_1 + ... + e_{k-1} + e_k / 2) = dt (sum + (1 - e_k) / 2), then times e^{-X_t}
                        z = np.subtract(1.0, e, out=out_z[j][r])
                        z *= 0.5
                        z += sums[j]
                        z *= dt
                        z *= np.exp(np.subtract(-shift, b, out=spare), out=spare)
                        if not np.all(np.isfinite(z)):
                            raise OverflowError("exponential functional left double range; use shorter horizons")
                free.put(spare)
    finally:
        free.put(None)  # a helper still waiting for a buffer gets None and returns
        helper.join()
    return out_b, out_z
