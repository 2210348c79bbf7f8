"""Matrix-valued processes: Brownian motion on the lower-triangular group,
the singular-value functional SingVal(l_t^{-1} int_0^t l l* ds), and the
finite-q radial part of the distinguished Brownian motion on the solvable
model of SU(p,q) / SO(p,q).  The p = 1, real case is the hyperbolic space
H^q = SO(1,q) / SO(q): with l = e^B it gives the radial part on H^q driven by
the vertical Brownian path B, cosh Rad = cosh B + e^{-B} c / 2.

Conventions for the driving noise (one place, so the real/complex scaling
distinction cannot be misapplied):

  * lambda (lower triangular, p x p): diagonal entries are standard real
    Brownian motions; strictly-lower entries are sqrt(2) W in the real case
    and sqrt(2) (W1 + i W2) in the complex case.
  * beta (p x (q-p), the transverse columns): sqrt(2) W, resp.
    sqrt(2) (W1 + i W2); hence <beta, beta-bar> is 2t, resp. 4t, per entry.
    The scheme sees beta only through two p x p blocks per step and column
    group: G, entries as for beta, and the Wishart matrix S = A A* of the
    group's other width - p columns, from its Bartlett factor A (chi
    diagonal, beta-like entries below it, both scaled as beta).
  * kappa (p x p skew-Hermitian): diagonal -2i W (complex; zero in the real
    case); above-diagonal entries as for lambda, mirrored by kappa* = -kappa.

Each replica's stream draws, in order: for lambda the diagonal, then the
entries below it; for the columns, group by group, G, the entries below A's
diagonal, then its chi^2 variates; for kappa (the stream's child(0)) the
entries above the diagonal, then the diagonal.  Complex normals draw all real
parts before the imaginary ones.  Each block lands in the replica's slot of a
float buffer with a leading replica axis, and one vectorised assignment over
all replicas writes it into the engine's array.

Integrators: l is advanced by the stepwise exponential l_{k+1} = l_k exp(dl),
exact in the triangular group (positive diagonal and exact zeros above the
diagonal); the exponentials of all n increments come from one call of the
stacked expm_tri, and the running product l_k exp(dl_k) is a first-order
linear recurrence per entry, solved for all steps at once by cumprod and
cumsum (triangular_from_increments).
The Stratonovich integrals for b and c use the trapezoid-in-noise (Heun)
rule, which preserves c + c* = b b* up to O(dt).  The column noise is
rotation invariant, so the rule depends on b only through its Gram matrix
W = b b*, a Wishart process (Bru 1991): each column group carries W and its
Cholesky factor instead of its columns, and a step costs O(p^3) at any
q, with the law of the column scheme on the grid.  Only the Cholesky factor
and W are sequential, and a step runs just their two kernels: the einsum that
forms W = Z Z* (over the few dozen matrices of a step, one einsum call beats
the per-k passes below), and the LAPACK gufunc behind np.linalg.cholesky,
which writes the factor in place; the errstate that turns a Gram matrix that
is not positive definite into LinAlgError is entered once per block of
steps, not once a step.  The engine keeps its arrays entries first, (p, p |
2p, time, replicas, groups), so a product over the time axis is one long
elementwise pass per inner index k over the entries it reaches (_mul_nz,
which skips the structural zeros of l and of the Cholesky factors), not one
BLAS call per tiny matrix; it holds K (twice W's size), W, c and l, with
l_{k+1} K and the factors of one block of steps only.  Outside it, one l path
per stream rides a leading replica axis; W and c (views) add a q-value axis;
the radial read-outs return plain arrays with the same leading axes.  p, the
field and the grid are read from the frames and their path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo  # the gufunc np.linalg.cholesky wraps

from .paths import RngStream, TimeGrid

__all__ = [
    "ArcoshDomainError",
    "TriangularPath",
    "SuSolvablePath",
    "expm_tri",
    "singular_values",
    "triangular_increments",
    "triangular_from_increments",
    "sample_triangular_bm",
    "integrated_ll_star",
    "eta_matrix",
    "simulate_su_solvable",
    "finite_q_radial",
]


# --------------------------------------------------------------------------
# small dense linear algebra

def _mul_nz(a: np.ndarray, b: np.ndarray, structure: str, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix product of each pair in two entries-first stacks (p, m, ...), (m, r, ...), broadcast over the
    rest (the same number of axes in both), taken over the structural nonzeros only.

    structure names the shape of a, then of b: "L" square lower triangular, "F" full, or (b only) "U"
    square upper triangular.  Each output entry is a running sum of the elementwise products
    a[i, k] b[k, j], in increasing k and over the k where both factors are structurally nonzero: the pass
    for k multiplies column k of a into row k of b over the block of entries they reach, setting the
    entries it reaches first and adding into the others.  An entry no k reaches (above the diagonal of a
    lower x lower product) is exact 0.0.  A real sum has the bits of the einsum "ik...,kj...->ij...",
    which adds the same products in the same order and exact zeros besides (but a sum that is exactly
    zero may carry the sign of its first product).  A complex sum may differ from it at round-off, even
    of one term: numpy's complex multiply may fuse a multiply and an add that the einsum rounds apart.
    """
    p, m, r = a.shape[0], a.shape[1], b.shape[1]
    if out is None:
        out = np.empty((p, r) + np.broadcast_shapes(a.shape[2:], b.shape[2:]), dtype=np.result_type(a, b))
    for k in range(m):
        i0 = k if structure[0] == "L" else 0  # column k of a reaches rows i0..p-1
        ak, bk = a[i0:, k, None], b[None, k]
        if structure[1] == "L":  # row k of b reaches columns 0..k, and column k first
            out[:i0, k] = 0.0
            np.multiply(ak, bk[:, k:k + 1], out=out[i0:, k:k + 1])
            if k:
                out[i0:, :k] += ak * bk[:, :k]
        elif k == 0:  # row 0 of b reaches every column, so every entry first
            np.multiply(ak, bk, out=out)
        else:
            j0 = k if structure[1] == "U" else 0
            out[i0:, j0:] += ak * bk[:, j0:]
    return out


def expm_tri(L: np.ndarray) -> np.ndarray:
    """exp of a lower-triangular matrix, or of each one in a stack (..., p, p),
    by scaling-and-squaring Taylor.

    Each matrix gets its own scale s, so that its scaled max-entry norm times
    p is at most 1/4, and then the same degree-13 Taylor polynomial, by Horner
    (truncation below 0.25^14 / 14! ~ 4e-20), and s squarings.  The work runs
    on an entries-first copy (p, p, N) of the stack, and squaring i takes the
    matrices with s > i by mask; each product is a few long elementwise passes
    over the N matrices (_mul_nz), and no matrix's result depends on the other
    matrices of its stack.  Every operation is a product of lower-triangular
    matrices, so entries above the diagonal are exactly 0.0 and the diagonal
    stays positive for real diagonal input.
    """
    L = np.asarray(L)
    p = L.shape[-1]
    stack = L.reshape((-1, p, p))
    norm = np.max(np.abs(stack), axis=(-2, -1)) * p
    s = np.ceil(np.log2(np.maximum(norm, 0.25) / 0.25)).astype(int)
    A = np.empty((p, p, len(stack)), dtype=np.result_type(L, 1.0))
    np.divide(np.moveaxis(stack, 0, -1), 2.0**s, out=A)
    # Horner from the top, X <- I + A X / k for k = 13, ..., 1; the strided
    # view [::p+1] of the (p*p, N) entries is the diagonal, so adding I copies nothing
    X = A / 13
    X.reshape(p * p, -1)[:: p + 1] += 1
    T = np.empty_like(X)
    for k in range(12, 0, -1):
        _mul_nz(A, X, "LL", out=T)
        T *= 1.0 / k  # cheaper than T /= k, and the same bits for complex T (numpy divides by multiplying by 1/k)
        T.reshape(p * p, -1)[:: p + 1] += 1
        X, T = T, X
    del A, T
    for i in range(s.max(initial=0)):
        Y = X[..., s > i]
        X[..., s > i] = _mul_nz(Y, Y, "LL")
    # C-contiguous: returning the strided view of X raised supq-limit's peak RSS by 1 MiB
    return np.ascontiguousarray(np.moveaxis(X, -1, 0)).reshape(L.shape)


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _grid_indices(indices: Sequence[int], first: int, n_steps: int) -> np.ndarray:
    """indices as an int array, each checked to be whole and in first..n_steps (a cast would truncate a
    fractional index, and numpy would wrap a negative one)."""
    given = np.asarray(list(indices))
    indices = given.astype(int)
    off = given[(indices != given) | (indices < first) | (indices > n_steps)]
    if off.size:
        raise ValueError(f"grid index {off[0]} is not whole, or is off the valid range {first}..{n_steps}")
    return indices


def singular_values(n_matrix: np.ndarray) -> np.ndarray:
    """Singular values in decreasing order, of one matrix or of each matrix in a stack."""
    return np.linalg.svd(np.asarray(n_matrix), compute_uv=False)


# --------------------------------------------------------------------------
# triangular-group Brownian motion

@dataclass
class TriangularPath:
    """Trajectory of a lower-triangular matrix process with positive diagonal;
    p is frames.shape[-1], and the field is complex iff the frames are."""

    grid: TimeGrid
    frames: np.ndarray  # (n_steps + 1, p, p), or a stack (replicas, n_steps + 1, p, p)

    def __post_init__(self):
        if self.frames.shape[-3:] != (self.grid.n_steps + 1,) + self.frames.shape[-1:] * 2:
            raise ValueError("frames shape mismatch")


def _replica_normals(gens: Sequence[np.random.Generator], shape: tuple, cplx: bool = False) -> np.ndarray:
    """Standard normals of each generator in turn, stacked on a leading replica axis (len(gens), *shape):
    x, or x + iy.  A generator fills its slot of one float buffer with one draw, all its real parts
    before its imaginary ones."""
    z = np.empty((len(gens),) + (2,) * cplx + shape)
    for gen, slot in zip(gens, z):
        gen.standard_normal(out=slot)
    return z[:, 0] + 1j * z[:, 1] if cplx else z


def triangular_increments(p: int, field: str, grid: TimeGrid, rngs: Sequence[RngStream]) -> np.ndarray:
    """Increments of the triangular driver lambda over each step, one path per stream, (len(rngs), n, p, p)."""
    if field not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    gens = [r.generator() for r in rngs]
    n, dt = grid.n_steps, grid.dt
    out = np.zeros((len(rngs), n, p, p), dtype=float if field == "real" else complex)
    idx = np.diag_indices(p)
    out[:, :, idx[0], idx[1]] = math.sqrt(dt) * _replica_normals(gens, (n, p))
    low = np.tril_indices(p, -1)
    out[:, :, low[0], low[1]] = math.sqrt(2.0 * dt) * _replica_normals(gens, (n, low[0].size), field == "complex")
    return out


def triangular_from_increments(grid: TimeGrid, increments: np.ndarray) -> TriangularPath:
    """Stepwise-exponential solution l_{k+1} = l_k S_k, S_k = exp(dlambda_k), in the dtype of the increments.

    increments (..., n, p, p) may carry leading replica axes; the frames keep them.
    The product runs over all steps at once, not step by step.  The diagonal
    of l_k is P_k = cumprod of the steps' diagonals, bit for bit the running
    matrix product (which only adds exact zeros to it), so p = 1 is exactly
    l_k = prod e^{dlambda}.  Column j below the diagonal then follows, from the
    right, x_{k+1} = x_k S_k[j,j] + b_k with b_k = l_k[j+1:, j+1:] S_k[j+1:, j]
    (columns already known), solved as x_k = P_k[j] sum_{t<k} b_t / P_{t+1}[j]:
    one stacked matrix-vector product and one cumsum per column, written into
    the frames in place.  A diagonal product outside the normal double range,
    or a column that overflows, raises OverflowError.
    """
    n, p = grid.n_steps, increments.shape[-1]
    steps = expm_tri(increments)
    frames = np.zeros(increments.shape[:-3] + (n + 1, p, p), dtype=increments.dtype)
    P = frames.reshape(frames.shape[:-2] + (p * p,))[..., :: p + 1]  # view of the diagonals, (..., n + 1, p)
    P[..., 0, :] = 1.0
    info = np.finfo(frames.real.dtype)
    with np.errstate(all="ignore"):  # a value out of range raises below
        np.cumprod(steps.reshape(steps.shape[:-2] + (p * p,))[..., :: p + 1], axis=-2, out=P[..., 1:, :])
        in_range = info.tiny <= P.real.min() and P.real.max() <= info.max  # False on nan
        for j in range(p - 2, -1, -1):
            w = np.matmul(frames[..., :-1, j + 1:, j + 1:], steps[..., j + 1:, j, None])[..., 0]
            w /= P[..., 1:, j, None]
            np.cumsum(w, axis=-2, out=w)
            x = frames[..., 1:, j + 1:, j]
            np.multiply(w, P[..., 1:, j, None], out=x)
            in_range &= np.all(np.isfinite(x))
    if not in_range:
        raise OverflowError("triangular path left double range (a diagonal product or a ratio "
                            "l_k[i,i] / P_{t+1}[j]); use shorter horizons or smaller drifts")
    return TriangularPath(grid, frames)


def sample_triangular_bm(p: int, field: str, grid: TimeGrid, rngs: Sequence[RngStream]) -> TriangularPath:
    """Brownian motion on the lower-triangular group with positive diagonal, one path per
    stream: frames (len(rngs), n_steps + 1, p, p), path i bit for bit the lone draw from rngs[i]."""
    return triangular_from_increments(grid, triangular_increments(p, field, grid, rngs))


def integrated_ll_star(lpath: TriangularPath) -> np.ndarray:
    """Cumulative trapezoid of int_0^t l_s l_s* ds, shape (..., n+1, p, p)."""
    f = lpath.frames
    ll = f @ _h(f)
    steps = 0.5 * lpath.grid.dt * (ll[..., :-1, :, :] + ll[..., 1:, :, :])
    out = np.zeros_like(ll)
    np.cumsum(steps, axis=-3, out=out[..., 1:, :, :])
    return out


def eta_matrix(lpath: TriangularPath, indices: Sequence[int]):
    """Singular values of l_t^{-1} int_0^t l_s l_s* ds at the grid indices given (each in 1..n),
    shape (..., len(indices), p): the leading replica axes of the frames, each row weakly decreasing.
    """
    indices = _grid_indices(indices, 1, lpath.grid.n_steps)
    J = integrated_ll_star(lpath)
    return singular_values(np.linalg.solve(lpath.frames[..., indices, :, :], J[..., indices, :, :]))


# --------------------------------------------------------------------------
# solvable-group model of SU(p,q) / SO(p,q)

@dataclass
class SuSolvablePath:
    """Trajectory of the distinguished Brownian motion in horocyclic coordinates.

    W = b b* is the Gram matrix of the transverse part b.  W and c have shape
    (replicas, q values, n+1, p, p): one row per stream and nested q value of
    the call that made them.
    """

    l_path: TriangularPath
    W: np.ndarray
    c: np.ndarray

    @property
    def grid(self) -> TimeGrid:
        return self.l_path.grid

    def invariant_defect(self) -> np.ndarray:
        """sup-norm of c + c* - W at every grid point (O(dt) drift of the scheme)."""
        return np.max(np.abs(self.c + _h(self.c) - self.W), axis=(-2, -1))


def _kappa_increments(p: int, cplx: bool, n: int, dt: float, rngs: Sequence[RngStream]) -> np.ndarray:
    """Increments of kappa over each step, one replica per stream, entries first (p, p, n, len(rngs)), from
    the table in the module docstring."""
    gens = [r.generator() for r in rngs]
    dkappa = np.zeros((p, p, n, len(rngs)), dtype=complex if cplx else float)
    up = np.triu_indices(p, 1)
    z = (math.sqrt(2.0 * dt) * _replica_normals(gens, (n, up[0].size), cplx)).T
    dkappa[up] = z
    dkappa[up[::-1]] = -np.conj(z)
    if cplx:
        dkappa[np.diag_indices(p)] = (-2j * math.sqrt(dt) * _replica_normals(gens, (n, p))).T
    return dkappa


def _transverse_noise(p: int, widths: np.ndarray, cplx: bool, n: int, dt: float,
                      rngs: Sequence[RngStream]) -> np.ndarray:
    """Reduced column noise K = [G, A] of each replica and column group, entries first (p, 2p, n, R, groups).

    G is a p x p block of column noise; A is the Bartlett factor of the Wishart
    matrix S = A A* (width - p degrees of freedom) of the group's other columns.
    Replica i draws every group, in order, from rngs[i], and one assignment per
    block writes all replicas' draws into K.
    """
    gens = [r.generator() for r in rngs]
    cols = np.arange(p)
    low = np.tril_indices(p, -1)
    K = np.zeros((p, 2 * p, n, len(rngs), len(widths)), dtype=complex if cplx else float)
    chi2 = np.empty((len(rngs), n, p))
    for g, width in enumerate(widths):
        nu = width - p
        # G's real parts, then (complex field) imaginary ones, written part by part: no complex copy of G
        G = _replica_normals(gens, (1 + cplx, n, p, p))
        for part, x in zip((K.real, K.imag) if cplx else (K,), G.swapaxes(0, 1)):
            part[:, :p, :, :, g] = x.transpose(2, 3, 1, 0)
        del G  # before the next group's buffer
        K[low[0], p + low[1], :, :, g] = (_replica_normals(gens, (n, low[0].size), cplx) * (low[1] < nu)).T
        dof = np.maximum((2 if cplx else 1) * (nu - cols), 0)  # chi^2 degrees of freedom on the diagonal
        for gen, slot in zip(gens, chi2):
            gen.standard_gamma(dof / 2.0, out=slot)
        K[cols, p + cols, :, :, g] = np.sqrt(2.0 * chi2).T
    K *= math.sqrt(2.0 * dt)
    return K


_BLOCK = 100  # time steps per block of the Gram engine's step-local arrays (l_{k+1} K, the Cholesky factors)


def _not_positive_definite(err, flag):
    """np.errstate callback: the Cholesky gufunc flags a matrix that is not positive definite as invalid."""
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def simulate_su_solvable(q: Sequence[int], rngs: Sequence[RngStream], l: TriangularPath) -> SuSolvablePath:
    """Distinguished Brownian motion on the solvable group, reusing a given l trajectory.

    p, the grid and the field are those of l, whose frames (len(rngs), n+1, p, p)
    hold one path per replica; rngs holds the replicas' streams, and both index
    the leading axis of W and c.  A caller that shares one l repeats it.
    q holds increasing values q_1 < q_2 < ... (the next axis) whose
    transverse columns are nested: q_j sums the column groups 1..j, of widths
    q_1 - p, q_2 - q_1, ..., each at least p and with its own noise, so every
    q_j has the law of a lone run and a shorter sequence reproduces the leading
    groups of a longer one.  Passing the same l across q values realizes the
    coupled comparison in which only the transverse noise dimension grows.

    Each group is integrated through its Gram matrix.  Before step k its columns
    are b_k = [X_k, 0] U_k with X_k X_k* = W_k (X_0 = 0, then the Cholesky
    factor); seen through U_k the step's column noise is [G, H] U_k with
    H H* = A A*, so with lbar = (l_k + l_{k+1}) / 2 only Z = [X_k, 0] + lbar K
    enters the Heun step:

        W_{k+1} = Z Z*,   c-increment = X_k (lbar G)* + 1/2 lbar K K* l_{k+1}*
                                        + 1/2 (l_k dkappa l_k* + l_{k+1} dkappa l_{k+1}*).

    A non-finite entry of l raises ValueError, and a Gram matrix that is not
    positive definite raises numpy's LinAlgError.
    """
    frames = l.frames
    p, n, dt, cplx = frames.shape[-1], l.grid.n_steps, l.grid.dt, np.iscomplexobj(frames)
    widths = np.diff(q, prepend=p)
    if np.any(widths < p):
        raise ValueError(f"need column groups q_1 - p, q_2 - q_1, ... of at least p = {p} columns, got {widths}")
    if frames.shape[:-3] != (len(rngs),):
        raise ValueError(f"l must hold one path per stream, {len(rngs)}, got frames {frames.shape}")
    if not np.isfinite(frames).all():
        i, k = np.argwhere(~np.isfinite(frames))[0][:2]
        raise ValueError(f"l must be finite, got a non-finite entry in frame {k} of replica {i}")
    L = np.ascontiguousarray(frames.transpose(2, 3, 1, 0))[..., None]  # broadcast over the groups
    K = _transverse_noise(p, widths, cplx, n, dt, rngs)
    W = np.zeros((p, p, n + 1) + K.shape[3:], dtype=K.dtype)
    c = np.zeros_like(W)  # holds the increments until the last cumsum
    X = np.zeros((p, p, _BLOCK + 1) + K.shape[3:], dtype=K.dtype)  # one block's Cholesky factors, X_0 = 0
    Wt, Xt = (np.moveaxis(a, (0, 1), (-2, -1)) for a in (W, X))  # (time, replicas, groups, p, p) views
    L0, L1, c1 = L[:, :, :-1], L[:, :, 1:], c[:, :, 1:]  # at steps k and k + 1
    Xe = np.moveaxis(X, 2, 0)  # X time first, entries first: the step's X_k
    blocks = [slice(k, k + _BLOCK) for k in range(0, n, _BLOCK)]
    for s in blocks:
        LK, dc = K[:, :, s], c1[:, :, s]
        L1K = _mul_nz(L1[:, :, s], LK, "LF")
        lbar = np.add(L0[:, :, s], L1[:, :, s], out=dc[..., :1])  # in dc, free until the product below overwrites it
        lbar *= 0.5
        LK[...] = _mul_nz(lbar, LK, "LF")  # lbar K
        _mul_nz(LK, np.conj(L1K, out=L1K).swapaxes(0, 1), "FF", out=dc)
        dc *= 0.5  # 1/2 lbar K K* l_{k+1}*
        del L1K
        X[:, :, 0] = X[:, :, -1]  # every block but the last is full
        # only the factor and W are sequential; Z = [X_k, 0] + lbar K overwrites lbar K.  The time-first
        # views (W_{k+1} entries first for the einsum, matrices last for the factor) and np.linalg.cholesky's
        # errstate are set up once per block, and the gufunc writes each factor into its slot of X
        Z, We, Wm = np.moveaxis(LK, 2, 0), np.moveaxis(W[:, :, s.start + 1:s.stop + 1], 2, 0), Wt[s.start + 1:]
        with np.errstate(call=_not_positive_definite, invalid="call", over="ignore", divide="ignore", under="ignore"):
            for j in range(len(Z)):
                z = Z[j]
                z[:, :p] += Xe[j]
                np.einsum("ik...,kj...->ij...", z, z.conj().swapaxes(0, 1), out=We[j])
                _cholesky_lo(Wm[j], out=Xt[j + 1])
        lbar_g = np.subtract(LK[:, :p], X[:, :, :LK.shape[2]], out=LK[:, :p])
        dc += _mul_nz(X[:, :, :LK.shape[2]], np.conj(lbar_g, out=lbar_g).swapaxes(0, 1), "LF")
        np.cumsum(dc, axis=-1, out=dc)
    del K, LK, lbar_g, Z, z  # every view of K goes with it, before dkappa is allocated
    dkappa = _kappa_increments(p, cplx, n, dt, [r.child(0) for r in rngs])[..., None]
    for s in blocks:
        for lk in (L0[:, :, s], L1[:, :, s]):
            c1[:, :, s] += 0.5 * _mul_nz(_mul_nz(lk, dkappa[:, :, s], "LF"), lk.conj().swapaxes(0, 1), "FU")
    np.cumsum(c1, axis=2, out=c1)
    np.cumsum(W, axis=-1, out=W)
    return SuSolvablePath(l, W.transpose(3, 4, 2, 0, 1), c.transpose(3, 4, 2, 0, 1))


class ArcoshDomainError(RuntimeError):
    """arcosh argument below 1 by more than round-off: integrator bug."""


def finite_q_radial(path: SuSolvablePath, indices: Sequence[int]):
    """Radial part along the trajectory: cosh Rad = SingVal(l + l^{*-1} + c l^{*-1}) / 2.

    Returns the radial parts at the grid indices given (each in 0..n), shape (replicas, q values,
    len(indices), p), with rows in the closed Weyl chamber.
    Arguments below 1 - 1e-12 abort (integrator bug); round-off dips are clamped.
    """
    indices = _grid_indices(indices, 0, path.grid.n_steps)
    l = path.l_path.frames[..., None, indices, :, :]
    l_star_inv = np.linalg.inv(_h(l))
    total = path.c[..., indices, :, :] @ l_star_inv
    total += np.add(l_star_inv, l, out=l_star_inv)  # in place, with the bits of l + l^{*-1} + c l^{*-1}
    arg = 0.5 * singular_values(total)
    low = arg < 1.0 - 1e-12
    if np.any(low):
        step = indices[np.nonzero(low)[-2][0]]
        raise ArcoshDomainError(f"cosh argument {arg[low].min()} below 1 at step {step}")
    return np.arccosh(np.maximum(arg, 1.0))

