"""Matrix-valued processes: Brownian motion on the lower-triangular group,
the singular-value functional SingVal(l_t^{-1} int_0^t l l* ds), and the
finite-q radial part of the distinguished Brownian motion on the solvable
model of SU(p,q) / SO(p,q).

Conventions for the driving noise (one place, so the real/complex scaling
distinction cannot be misapplied):

  * lambda (lower triangular, p x p): diagonal entries are standard real
    Brownian motions; strictly-lower entries are sqrt(2) W in the real case
    and sqrt(2) (W1 + i W2) in the complex case.
  * beta (p x (q-p)): sqrt(2) W, resp. sqrt(2) (W1 + i W2); hence the
    quadratic covariation <beta, beta-bar> is 2t, resp. 4t, per entry.
  * kappa (p x p skew-Hermitian): diagonal -2i W (complex; zero in the real
    case); above-diagonal entries as for lambda, mirrored by kappa* = -kappa.

Integrators: l is advanced by the stepwise exponential l_{k+1} = l_k exp(dl),
exact in the triangular group (positive diagonal and exact zeros above the
diagonal); the exponentials of all n increments come from one call of the
stacked expm_tri, and only the running product l_k exp(dl_k) is sequential.
The Stratonovich integrals for b and c use the trapezoid-in-noise (Heun)
rule, which preserves c + c* = b b* up to O(dt).  Every increment is drawn
before integration, so the rule runs over the whole time axis at once:
b is a cumulative sum of (l_k + l_{k+1})/2 dbeta_k, after which each step's
c-increment is known and c is a second cumulative sum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .paths import ArcoshDomainError, RngStream, TimeGrid

__all__ = [
    "TriangularPath",
    "SuSolvablePath",
    "expm_tri",
    "singular_values",
    "triangular_increments",
    "triangular_from_increments",
    "sample_triangular_bm",
    "integrated_ll_star",
    "eta_matrix",
    "su_noise_increments",
    "su_solvable_from_increments",
    "simulate_su_solvable",
    "finite_q_radial",
    "radial_to_csv",
]


# --------------------------------------------------------------------------
# small dense linear algebra

def expm_tri(L: np.ndarray) -> np.ndarray:
    """exp of a lower-triangular matrix, or of each one in a stack (..., p, p),
    by scaling-and-squaring Taylor.

    Each matrix gets its own scale s and stops adding Taylor terms once they
    fall below 1e-20 of its partial sum; the squarings are masked per matrix.
    Every operation is a product of lower-triangular matrices, so entries
    above the diagonal remain exactly 0.0 and the diagonal stays positive
    for real diagonal input.
    """
    L = np.asarray(L)
    norm = np.max(np.abs(L), axis=(-2, -1)) * L.shape[-1]
    s = np.ceil(np.log2(np.maximum(norm, 0.25) / 0.25)).astype(int)
    A = L / (2.0**s)[..., None, None]
    X = np.broadcast_to(np.eye(L.shape[-1], dtype=L.dtype), L.shape).copy()
    term = X
    active = np.ones(L.shape[:-2], dtype=bool)
    for k in range(1, 24):
        term = term @ A / k
        X = np.where(active[..., None, None], X + term, X)
        active &= np.max(np.abs(term), axis=(-2, -1)) > 1e-20 * np.max(np.abs(X), axis=(-2, -1))
        if not active.any():
            break
    for i in range(int(s.max(initial=0))):
        sq = s > i
        X[sq] = X[sq] @ X[sq]
    return X


def singular_values(n_matrix: np.ndarray) -> np.ndarray:
    """Singular values in decreasing order, of one matrix or of each matrix in a stack."""
    return np.linalg.svd(np.asarray(n_matrix), compute_uv=False)


# --------------------------------------------------------------------------
# triangular-group Brownian motion

@dataclass
class TriangularPath:
    """Trajectory of a lower-triangular matrix process with positive diagonal."""

    p: int
    field: str  # "real" or "complex"
    grid: TimeGrid
    frames: np.ndarray  # (n_steps + 1, p, p)

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise ValueError("field must be 'real' or 'complex'")
        if self.frames.shape != (self.grid.n_steps + 1, self.p, self.p):
            raise ValueError("frames shape mismatch")


def triangular_increments(p: int, field: str, grid: TimeGrid, rng: RngStream) -> np.ndarray:
    """Increments of the triangular driver lambda over each step, shape (n, p, p)."""
    gen = rng.generator()
    n, dt = grid.n_steps, grid.dt
    dtype = float if field == "real" else complex
    out = np.zeros((n, p, p), dtype=dtype)
    sd = math.sqrt(dt)
    idx = np.diag_indices(p)
    out[:, idx[0], idx[1]] = sd * gen.standard_normal((n, p))
    low = np.tril_indices(p, -1)
    if low[0].size:
        if field == "real":
            out[:, low[0], low[1]] = math.sqrt(2.0 * dt) * gen.standard_normal((n, low[0].size))
        else:
            re = gen.standard_normal((n, low[0].size))
            im = gen.standard_normal((n, low[0].size))
            out[:, low[0], low[1]] = math.sqrt(2.0 * dt) * (re + 1j * im)
    return out


def triangular_from_increments(p: int, field: str, grid: TimeGrid, increments: np.ndarray,
                               diag_drift: Optional[Sequence[float]] = None) -> TriangularPath:
    """Stepwise-exponential solution of dl = l dlambda (+ diagonal drift dt)."""
    n, dt = grid.n_steps, grid.dt
    dtype = float if field == "real" else complex
    drift_mat = np.zeros((p, p), dtype=dtype)
    if diag_drift is not None:
        drift_mat[np.diag_indices(p)] = np.asarray(diag_drift, dtype=float)
    steps = expm_tri(increments + drift_mat * dt)
    frames = np.empty((n + 1, p, p), dtype=dtype)
    frames[0] = np.eye(p, dtype=dtype)
    for k in range(n):
        np.matmul(frames[k], steps[k], out=frames[k + 1])
    return TriangularPath(p, field, grid, frames)


def sample_triangular_bm(p: int, field: str, grid: TimeGrid, rng: RngStream,
                         diag_drift: Optional[Sequence[float]] = None) -> TriangularPath:
    """Brownian motion on the lower-triangular group with positive diagonal."""
    return triangular_from_increments(p, field, grid, triangular_increments(p, field, grid, rng),
                                      diag_drift)


def integrated_ll_star(lpath: TriangularPath) -> np.ndarray:
    """Cumulative trapezoid of int_0^t l_s l_s* ds, shape (n+1, p, p)."""
    f = lpath.frames
    ll = f @ f.conj().transpose(0, 2, 1)
    steps = 0.5 * lpath.grid.dt * (ll[:-1] + ll[1:])
    out = np.empty_like(ll)
    out[0] = 0.0
    np.cumsum(steps, axis=0, out=out[1:])
    return out


def eta_matrix(lpath: TriangularPath, indices: Optional[Sequence[int]] = None):
    """Per-time singular values of l_t^{-1} int_0^t l_s l_s* ds.

    Returns (indices, radial) with radial of shape (len(indices), p), each row
    weakly decreasing.  Defaults to every grid point from the first step on.
    """
    J = integrated_ll_star(lpath)
    if indices is None:
        indices = range(1, lpath.grid.n_steps + 1)
    indices = np.asarray(list(indices), dtype=int)
    if np.any(indices < 1):
        raise ValueError("eta is defined from the first grid point on")
    return indices, singular_values(np.linalg.solve(lpath.frames[indices], J[indices]))


# --------------------------------------------------------------------------
# solvable-group model of SU(p,q) / SO(p,q)

# transverse columns per noise-drawing block and time steps per block of the
# dbeta* temporaries; it bounds the size of temporary arrays only
_BLOCK = 64


@dataclass
class SuSolvablePath:
    """Trajectory of the distinguished Brownian motion in horocyclic coordinates."""

    q: int
    l_path: TriangularPath
    b: np.ndarray  # (n+1, p, q-p)
    c: np.ndarray  # (n+1, p, p)

    @property
    def p(self) -> int:
        return self.l_path.p

    @property
    def grid(self) -> TimeGrid:
        return self.l_path.grid

    def invariant_defect(self) -> np.ndarray:
        """sup-norm of c + c* - b b* at every grid point (O(dt) drift of the scheme)."""
        bb = self.b @ self.b.conj().transpose(0, 2, 1)
        sym = self.c + self.c.conj().transpose(0, 2, 1)
        return np.max(np.abs(sym - bb), axis=(1, 2))


def su_noise_increments(p: int, q: int, field: str, grid: TimeGrid, rng: RngStream):
    """Step increments (dbeta, dkappa) with the scaling table from the module docstring.

    Each transverse column of beta draws from its own derived stream
    (rng.child(column + 1)), so increasing q extends the columns of a
    smaller-q run without changing them: q-sweeps with a shared rng are
    coupled realizations of the same infinite noise array.
    """
    if q <= p:
        raise ValueError("need q > p")
    n, dt = grid.n_steps, grid.dt
    w = q - p
    s2 = math.sqrt(2.0 * dt)
    cplx = field == "complex"
    dbeta = np.empty((n, p, w), dtype=complex if cplx else float)
    # a block of columns is drawn into contiguous buffers (real parts, then
    # imaginary parts, per column as before) and scaled into dbeta in one pass
    parts = (dbeta.real, dbeta.imag) if cplx else (dbeta,)
    block = np.empty((len(parts), min(w, _BLOCK), n, p))
    for j0 in range(0, w, _BLOCK):
        width = min(_BLOCK, w - j0)
        for jj in range(width):
            gen = rng.child(j0 + jj + 1).generator()
            for buf in block[:, jj]:
                gen.standard_normal(out=buf)
        for part, buf in zip(parts, block):
            np.multiply(buf[:width].transpose(1, 2, 0), s2, out=part[:, :, j0:j0 + width])
    gen = rng.child(0).generator()
    if cplx:
        dkappa = np.zeros((n, p, p), dtype=complex)
        up = np.triu_indices(p, 1)
        if up[0].size:
            z = s2 * (gen.standard_normal((n, up[0].size)) + 1j * gen.standard_normal((n, up[0].size)))
            dkappa[:, up[0], up[1]] = z
            dkappa[:, up[1], up[0]] = -np.conj(z)
        di = np.diag_indices(p)
        dkappa[:, di[0], di[1]] = -2j * math.sqrt(dt) * gen.standard_normal((n, p))
    else:
        dkappa = np.zeros((n, p, p))
        up = np.triu_indices(p, 1)
        if up[0].size:
            z = s2 * gen.standard_normal((n, up[0].size))
            dkappa[:, up[0], up[1]] = z
            dkappa[:, up[1], up[0]] = -z
    return dbeta, dkappa


def su_solvable_from_increments(q: int, l_path: TriangularPath, dbeta: np.ndarray,
                                dkappa: np.ndarray) -> SuSolvablePath:
    """Heun (trapezoid-in-noise) Stratonovich integration of

        b_t = int l dbeta,   c_t = int l (dkappa) l* + int b (dbeta*) l*.
    """
    n = l_path.grid.n_steps
    p = l_path.p
    w = q - p
    dtype = complex if (l_path.field == "complex" or dbeta.dtype.kind == "c") else float
    frames = l_path.frames
    frames_h = frames.conj().transpose(0, 2, 1)
    b = np.empty((n + 1, p, w), dtype=dtype)
    b[0] = 0.0
    np.matmul(0.5 * (frames[:-1] + frames[1:]), dbeta, out=b[1:])
    np.cumsum(b[1:], axis=0, out=b[1:])
    dc = (0.5 * (frames[:-1] @ dkappa @ frames_h[:-1] + frames[1:] @ dkappa @ frames_h[1:])
          ).astype(dtype, copy=False)
    for k in range(0, n, _BLOCK):
        blk = slice(k, k + _BLOCK)
        dbs = dbeta[blk].conj().transpose(0, 2, 1)
        dc[blk] += 0.5 * (b[:-1][blk] @ dbs @ frames_h[:-1][blk] + b[1:][blk] @ dbs @ frames_h[1:][blk])
    c = np.empty((n + 1, p, p), dtype=dtype)
    c[0] = 0.0
    np.cumsum(dc, axis=0, out=c[1:])
    return SuSolvablePath(q, l_path, b, c)


def simulate_su_solvable(p: int, q: int, grid: TimeGrid, rng: RngStream,
                         shared_l: TriangularPath) -> SuSolvablePath:
    """Distinguished Brownian motion on the solvable group, reusing a given l trajectory.

    shared_l must live on the same grid; passing the same l across several q
    values realizes the coupled comparison in which only the transverse noise
    dimension grows.
    """
    if shared_l.grid != grid:
        raise ValueError("shared_l must be sampled on the same grid")
    dbeta, dkappa = su_noise_increments(p, q, shared_l.field, grid, rng)
    return su_solvable_from_increments(q, shared_l, dbeta, dkappa)


def finite_q_radial(path: SuSolvablePath, indices: Optional[Sequence[int]] = None):
    """Radial part along the trajectory: cosh Rad = SingVal(l + l^{*-1} + c l^{*-1}) / 2.

    Returns (indices, radial) with radial rows in the closed Weyl chamber.
    Arguments below 1 - 1e-12 abort (integrator bug); round-off dips are clamped.
    """
    if indices is None:
        indices = range(path.grid.n_steps + 1)
    indices = np.asarray(list(indices), dtype=int)
    l = path.l_path.frames[indices]
    l_star_inv = np.linalg.inv(l.conj().transpose(0, 2, 1))
    arg = 0.5 * singular_values(l + l_star_inv + path.c[indices] @ l_star_inv)
    low = np.any(arg < 1.0 - 1e-12, axis=1)
    if np.any(low):
        raise ArcoshDomainError(f"cosh argument {arg[low].min()} below 1 at step {indices[low][0]}")
    return indices, np.arccosh(np.maximum(arg, 1.0))


def radial_to_csv(times: Sequence[float], radial: np.ndarray, fileobj) -> None:
    """Write per-time chamber vectors as columns t, r_1..r_p."""
    radial = np.asarray(radial)
    writer = csv.writer(fileobj)
    writer.writerow(["t"] + [f"r_{i + 1}" for i in range(radial.shape[1])])
    for t, row in zip(times, radial):
        writer.writerow([f"{t:.12g}"] + [f"{v:.17g}" for v in row])
