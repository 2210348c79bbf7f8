"""Independent oracles used only by the test suite.

These deliberately avoid the library's own code paths: raw-integral
quadrature via scipy, an RK4 shooting solver for the radial eigenfunction
equation and its Gauss hypergeometric solution (mpmath),
characteristic-polynomial singular values, plain central finite
differences, brute-force enumeration of the discrete Pitman law and the
chain on pairs (S, M) of the simple walk and its running maximum, the
one-Fraction-per-transition forward iteration of an exact chain, the
one-matrix, one-step, one-column forms of the solvable-group engine, the
explicit-column engine that simulates every transverse column of SU(p,q)
(each column's noise drawn from its own stream in one plain loop, the
reference whose Wishart reduction is the library's Gram engine), the
Gram engine's noise (lambda, kappa and the reduced column noise) drawn
and stored one replica at a time, the column-by-column left-point Ito
form of the radial part on the hyperbolic space H^q and the scalar
Brownian path that drives it (one draw of all the steps' normals, summed),
the one-functional, fresh-arrays-every-step loop of the exponential
functional, the serial form of the library's shared-driver sampler,
which draws each step's normals on the calling thread, the Macdonald rule
in one loop over its point blocks on the calling thread, and the random
stream built from a fresh Philox per call.  The two-sample KS test that
compares sample batches in the tests is built on the library's KS
statistic and threshold.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate

from myproc.stats import TestReport, ks_statistic, ks_threshold


def macdonald_raw_integral(lam: float, x: float) -> float:
    """Brute-force quadrature of 1/2 (x/2)^lam int_0^inf e^{-t - x^2/4t} t^{-1-lam} dt."""
    val, _ = integrate.quad(lambda t: math.exp(-t - x * x / (4.0 * t)) * t ** (-1.0 - lam),
                            0.0, np.inf, limit=400)
    return 0.5 * (x / 2.0) ** lam * val


def scaled_macdonald_integral_serial(x, lam: float = 0.0, moment: int = 0, dx_weight: int = 0, per=None):
    """The library's Macdonald rule (specialfn._scaled_macdonald_integral) in one loop over its
    blocks of 256 points on the calling thread, each block in fresh temporaries."""
    weights = [(abs(float(lam)), moment, dx_weight)] + ([] if per is None else [(abs(float(per[0])), 0, per[1])])
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("x must be positive")
    flat = x.ravel()
    out = np.empty_like(flat)
    tail = 46.0 + 60.0 * (1.0 + max(sum(w) for w in weights))
    for start in range(0, flat.size, 256):
        xs = flat[start : start + 256, None]
        h = np.arccosh(1.0 + tail / xs) / 128
        v = h * np.arange(129)
        c = np.cosh(v)
        g = np.exp(-xs * (c - 1.0))
        sums = []
        for w_lam, w_moment, w_dx in weights:
            f = np.cosh(w_lam * v) * g if w_lam else g
            f = f * v**w_moment if w_moment else f
            f = f * c**w_dx if w_dx else f
            sums.append(f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1]))
        out[start : start + 256] = h[:, 0] * sums[0] if per is None else sums[0] / sums[1]
    return out.reshape(x.shape)[()]


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


def walk_with_max(state):
    """Row of the simple symmetric walk S carried with its running maximum M, at the pair (S, M)."""
    s, m = state
    half = Fraction(1, 2)
    return [((s + 1, max(m, s + 1)), half), ((s - 1, m), half)]


def exact_distribution_fractions(kernel, start, n: int) -> list:
    """Laws of a chain at steps 0..n, one Fraction product and sum per transition.

    Reads the kernel's raw transition rows, so the library's integer row form
    and its common-denominator step are not used.  Zero-mass targets stay as
    keys; zero-mass states are not expanded.
    """
    rows = {}
    laws = [{start: Fraction(1)}]
    for _ in range(n):
        nxt = {}
        for state, mass in laws[-1].items():
            if mass == 0:
                continue
            if state not in rows:
                rows[state] = kernel.transition(state)
            for target, p in rows[state]:
                nxt[target] = nxt.get(target, Fraction(0)) + mass * p
        laws.append(nxt)
    return laws


def expm_tri_single(L) -> np.ndarray:
    """exp of one lower-triangular matrix by scaling-and-squaring Taylor, one matrix at a time."""
    L = np.asarray(L)
    norm = float(np.max(np.abs(L))) * L.shape[0]
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    A = L / (2.0**s)
    X = np.eye(L.shape[0], dtype=L.dtype)
    term = X
    for k in range(1, 24):
        term = term @ A / k
        X = X + term
        if np.max(np.abs(term)) <= 1e-20 * np.max(np.abs(X)):
            break
    for _ in range(s):
        X = X @ X
    return X


def expm_tri_2x2(L) -> np.ndarray:
    """exp of one lower-triangular 2 x 2 matrix [[a, 0], [c, d]] in closed form.

    The off-diagonal entry is c (e^a - e^d) / (a - d), written as
    c e^{(a+d)/2} sinh(h) / h with h = (a - d) / 2 so that it stays accurate
    as a -> d; the ratio sinh(h) / h is 1 at h = 0.
    """
    (a, _), (c, d) = np.asarray(L)
    h = (a - d) / 2
    ratio = np.sinh(h) / h if h != 0 else 1.0
    return np.array([[np.exp(a), 0.0], [c * np.exp((a + d) / 2) * ratio, np.exp(d)]])


def triangular_frames_stepwise(p: int, field: str, increments) -> np.ndarray:
    """Frames l_{k+1} = l_k exp(dlambda_k), one step at a time."""
    n = len(increments)
    dtype = float if field == "real" else complex
    frames = np.empty((n + 1, p, p), dtype=dtype)
    frames[0] = np.eye(p, dtype=dtype)
    for k in range(n):
        frames[k + 1] = frames[k] @ expm_tri_single(increments[k])
    return frames


def su_heun_step(b, c, l0, l1, dbeta, dkappa):
    """One Heun (trapezoid-in-noise) step of the explicit columns b and of c."""
    b1 = b + 0.5 * (l0 + l1) @ dbeta
    dbs = dbeta.conj().T
    c1 = c + 0.5 * (l0 @ dkappa @ l0.conj().T + l1 @ dkappa @ l1.conj().T) \
        + 0.5 * (b @ dbs @ l0.conj().T + b1 @ dbs @ l1.conj().T)
    return b1, c1


def su_heun_stepwise(q: int, frames, dbeta, dkappa):
    """Heun (trapezoid-in-noise) integration of b and c, one time step at a time."""
    n, p = len(dbeta), frames.shape[1]
    dtype = complex if (frames.dtype.kind == "c" or dbeta.dtype.kind == "c") else float
    b = np.zeros((n + 1, p, q - p), dtype=dtype)
    c = np.zeros((n + 1, p, p), dtype=dtype)
    for k in range(n):
        b[k + 1], c[k + 1] = su_heun_step(b[k], c[k], frames[k], frames[k + 1], dbeta[k], dkappa[k])
    return b, c


# --------------------------------------------------------------------------
# the explicit-column engine: every transverse column of beta is simulated


def su_noise_increments(p: int, q: int, field: str, grid, rng):
    """Step increments (dbeta, dkappa), shapes (n, p, q - p) and (n, p, p).

    Each transverse column of beta draws from its own derived stream
    (rng.child(column + 1)), so increasing q extends the columns of a
    smaller-q run without changing them; dkappa draws from rng.child(0).
    """
    if q <= p:
        raise ValueError("need q > p")
    n, dt = grid.n_steps, grid.dt
    s2 = math.sqrt(2.0 * dt)
    cplx = field == "complex"
    dbeta = np.empty((n, p, q - p), dtype=complex if cplx else float)
    for j in range(q - p):
        gen = rng.child(j + 1).generator()
        col = gen.standard_normal((n, p))
        dbeta[:, :, j] = s2 * (col + 1j * gen.standard_normal((n, p))) if cplx else s2 * col
    gen = rng.child(0).generator()
    up = np.triu_indices(p, 1)
    if cplx:
        dkappa = np.zeros((n, p, p), dtype=complex)
        if up[0].size:
            z = s2 * (gen.standard_normal((n, up[0].size)) + 1j * gen.standard_normal((n, up[0].size)))
            dkappa[:, up[0], up[1]] = z
            dkappa[:, up[1], up[0]] = -np.conj(z)
        di = np.diag_indices(p)
        dkappa[:, di[0], di[1]] = -2j * math.sqrt(dt) * gen.standard_normal((n, p))
    else:
        dkappa = np.zeros((n, p, p))
        if up[0].size:
            z = s2 * gen.standard_normal((n, up[0].size))
            dkappa[:, up[0], up[1]] = z
            dkappa[:, up[1], up[0]] = -z
    return dbeta, dkappa


def su_solvable_from_increments(q: int, frames, dbeta, dkappa):
    """(b, c) by the Heun rule over the whole time axis: b, then c, as cumulative sums.

        b_t = int l dbeta,   c_t = int l (dkappa) l* + int b (dbeta*) l*.
    """
    n, p = len(dbeta), frames.shape[1]
    dtype = complex if (frames.dtype.kind == "c" or dbeta.dtype.kind == "c") else float
    frames_h = frames.conj().transpose(0, 2, 1)
    b = np.empty((n + 1, p, q - p), dtype=dtype)
    b[0] = 0.0
    np.matmul(0.5 * (frames[:-1] + frames[1:]), dbeta, out=b[1:])
    np.cumsum(b[1:], axis=0, out=b[1:])
    dbs = dbeta.conj().transpose(0, 2, 1)
    dc = (0.5 * (frames[:-1] @ dkappa @ frames_h[:-1] + frames[1:] @ dkappa @ frames_h[1:])
          + 0.5 * (b[:-1] @ dbs @ frames_h[:-1] + b[1:] @ dbs @ frames_h[1:]))
    c = np.empty((n + 1, p, p), dtype=dtype)
    c[0] = 0.0
    np.cumsum(dc, axis=0, out=c[1:])
    return b, c


# --------------------------------------------------------------------------
# the Gram engine's noise, one replica at a time


def _lone_normals(gen, shape: tuple, cplx: bool) -> np.ndarray:
    """Standard normals x, or x + iy: all real parts are drawn before the imaginary ones."""
    z = gen.standard_normal((2,) + shape if cplx else shape)
    return z[0] + 1j * z[1] if cplx else z


def triangular_increments_lone(p: int, field: str, grid, rng) -> np.ndarray:
    """Increments of lambda from one stream, (n, p, p): the diagonal's normals, then those below it."""
    gen = rng.generator()
    n, dt = grid.n_steps, grid.dt
    out = np.zeros((n, p, p), dtype=float if field == "real" else complex)
    idx = np.diag_indices(p)
    out[:, idx[0], idx[1]] = math.sqrt(dt) * gen.standard_normal((n, p))
    low = np.tril_indices(p, -1)
    if low[0].size:
        out[:, low[0], low[1]] = math.sqrt(2.0 * dt) * _lone_normals(gen, (n, low[0].size), field == "complex")
    return out


def kappa_increments_per_replica(p: int, cplx: bool, n: int, dt: float, rngs) -> np.ndarray:
    """Increments of kappa, entries first (p, p, n, len(rngs)), each replica drawn and stored in turn:
    its normals above the diagonal, then (complex field only) the diagonal's."""
    dkappa = np.empty((p, p, n, len(rngs)), dtype=complex if cplx else float)
    up = np.triu_indices(p, 1)
    for i, rng in enumerate(rngs):
        gen = rng.generator()
        one = np.zeros((n, p, p), dtype=dkappa.dtype)
        z = math.sqrt(2.0 * dt) * _lone_normals(gen, (n, up[0].size), cplx)
        one[:, up[0], up[1]] = z
        one[:, up[1], up[0]] = -np.conj(z)
        if cplx:
            di = np.diag_indices(p)
            one[:, di[0], di[1]] = -2j * math.sqrt(dt) * gen.standard_normal((n, p))
        dkappa[:, :, :, i] = np.moveaxis(one, 0, -1)
    return dkappa


def transverse_noise_per_replica(p: int, widths, cplx: bool, n: int, dt: float, rngs) -> np.ndarray:
    """Reduced column noise K = [G, A], entries first (p, 2p, n, len(rngs), groups), each replica and
    column group drawn and stored in turn: G's normals, those below the Bartlett factor's diagonal
    (masked to the group's width - p columns), then its chi^2 variates."""
    cols = np.arange(p)
    low = np.tril_indices(p, -1)
    K = np.zeros((p, 2 * p, n, len(rngs), len(widths)), dtype=complex if cplx else float)
    for i, rng in enumerate(rngs):
        gen = rng.generator()
        for g, width in enumerate(widths):
            nu = width - p
            K[:, :p, :, i, g] = np.moveaxis(_lone_normals(gen, (n, p, p), cplx), 0, -1)
            K[low[0], p + low[1], :, i, g] = (_lone_normals(gen, (n, low[0].size), cplx) * (low[1] < nu)).T
            dof = np.maximum((2 if cplx else 1) * (nu - cols), 0)
            K[cols, p + cols, :, i, g] = np.sqrt(2.0 * gen.gamma(dof / 2.0, 1.0, (n, p))).T
    K *= math.sqrt(2.0 * dt)
    return K


def philox_generator(seed: int, stream_id: int) -> np.random.Generator:
    """RngStream(seed, stream_id).generator() built from a fresh Philox(0) per call, whose key and
    zero counter then replace the state its seed gave."""
    bitgen = np.random.Philox(0)
    key = np.array([seed, stream_id & ((1 << 64) - 1)], dtype=np.uint64)
    bitgen.state = {**bitgen.state, "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key}}
    return np.random.Generator(bitgen)


def sample_bm(grid, rng) -> np.ndarray:
    """Standard Brownian path from 0 on the grid, shape (n_steps + 1,): one standard_normal(n_steps)
    from rng.generator(), scaled by sqrt(dt) and summed."""
    increments = math.sqrt(grid.dt) * rng.generator().standard_normal(grid.n_steps)
    return np.concatenate([[0.0], np.cumsum(increments)])


def hyperbolic_radial_columns(q: int, b, dt: float, rng) -> np.ndarray:
    """Distance to the origin of the ground-state process on H^q, driven by the
    vertical Brownian path b (its values on a grid of step dt):

        cosh d_t = [e^{B_t} + e^{-B_t} + e^{-B_t} sum_{k<q} (int_0^t e^{B_s} dbeta_s^k)^2] / 2

    with left-point Ito integrals of q - 1 independent standard Brownian
    motions beta^k, drawn at once as standard_normal((q - 1, n)) from rng.generator().
    """
    eb = np.exp(b)
    dbeta = math.sqrt(dt) * rng.generator().standard_normal((q - 1, len(b) - 1))
    integrals = np.cumsum(eb[:-1] * dbeta, axis=1)
    sq = np.concatenate([[0.0], np.einsum("ij,ij->j", integrals, integrals)])
    return np.arccosh(np.maximum(0.5 * (eb + 1.0 / eb + sq / eb), 1.0))


def exp_functional_stepwise(times, dt: float, n_paths: int, rng, mu: float = 2.0, drift: float = 0.0):
    """(X_t, Z_t) at the given grid times for one functional, Z_t = int_0^t e^{mu X_s - X_t} ds,
    where X is a Brownian path with the given drift accumulated step by step
    from rng.generator(), one standard_normal(n_paths) per step."""
    marks = {round(t / dt): i for i, t in enumerate(times)}
    gen = rng.generator()
    x = np.zeros(n_paths)
    integral = np.zeros(n_paths)
    emu = np.ones(n_paths)
    out_x = np.empty((len(times), n_paths))
    out_z = np.empty((len(times), n_paths))
    for k in range(1, max(marks) + 1):
        x_next = x + drift * dt + math.sqrt(dt) * gen.standard_normal(n_paths)
        emu_next = np.exp(mu * x_next)
        integral = integral + 0.5 * dt * (emu + emu_next)
        x, emu = x_next, emu_next
        if k in marks:
            out_x[marks[k]] = x
            out_z[marks[k]] = integral * np.exp(-x)
    return out_x, out_z


def exp_functional_serial(times, dt: float, n_paths: int, rng, mu=2.0, drift=0.0):
    """exp_functional_samples with each step's normals drawn on the calling thread, right before
    the step: the same read map, arithmetic and output, in one loop and one scratch buffer."""
    mus, drifts = np.broadcast_arrays(np.atleast_1d(np.asarray(mu, dtype=float)),
                                      np.atleast_1d(np.asarray(drift, dtype=float)))
    keys = list(times)
    steps = [round(t / dt) for t in keys]
    rows = [(j, i) for j in range(mus.size) for i, t in enumerate(keys) if j in times[t]]
    rows = {slot: r for r, slot in enumerate(rows)}
    ends = [max([steps[i] for f, i in rows if f == j], default=0) for j in range(mus.size)]
    marks = {k: i for i, k in enumerate(steps)}
    gen = rng.generator()
    b = np.zeros(n_paths)
    spare = np.empty(n_paths)
    emu = {m: (np.empty(n_paths), max(e for e, mj in zip(ends, mus) if mj == m)) for m in mus.tolist()}
    sums = [np.zeros(n_paths) for _ in mus]
    out_b = np.empty((len(keys), n_paths))
    out_z = np.empty((len(rows), n_paths))
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
                z = np.subtract(1.0, e, out=out_z[r])
                z *= 0.5
                z += sums[j]
                z *= dt
                z *= np.exp(np.subtract(-shift, b, out=spare), out=spare)
    return out_b, np.split(out_z, np.cumsum(np.bincount([j for j, _ in rows], minlength=mus.size))[:-1])


def ks_two_sample(a, b, level: float = 0.01) -> TestReport:
    """Two-sample KS test at the given asymptotic level (batch sizes >= 100)."""
    va, vb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if va.size < 100 or vb.size < 100:
        raise ValueError("KS test needs batches of size >= 100")
    stat = ks_statistic(va, vb)
    thr = ks_threshold(va.size, vb.size, level)
    return TestReport(stat, thr, stat <= thr, {"level": level, "n_a": int(va.size), "n_b": int(vb.size)})


def hypergeometric_spherical(lam, mult, r: float):
    """phi_lam(r) = 2F1((rho + lam)/2, (rho - lam)/2; (m_a + m_2a + 1)/2; -sinh^2 r), rho = m_a/2 + m_2a,
    at the current mpmath precision (lam may be an mpmath number)."""
    rho = mpmath.mpf(mult.m_alpha) / 2 + mult.m_2alpha
    c = mpmath.mpf(mult.m_alpha + mult.m_2alpha + 1) / 2
    return mpmath.hyp2f1((rho + lam) / 2, (rho - lam) / 2, c, -mpmath.sinh(r) ** 2)
