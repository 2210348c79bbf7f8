import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from scipy.stats import ks_2samp

from myproc import experiments as ex
from myproc import matrixproc as mx
from myproc.experiments import _convergence_rows, _supq_errors
from myproc.matrixproc import (
    ArcoshDomainError,
    SuSolvablePath,
    TriangularPath,
    eta_matrix,
    expm_tri,
    finite_q_radial,
    integrated_ll_star,
    sample_triangular_bm,
    simulate_su_solvable,
    singular_values,
    triangular_from_increments,
    triangular_increments,
)
from myproc.paths import RngStream, TimeGrid, eta_functional

from oracles import (
    charpoly_singular_values,
    expm_tri_2x2,
    expm_tri_single,
    hyperbolic_radial_columns,
    kappa_increments_per_replica,
    ks_two_sample,
    su_heun_step,
    su_heun_stepwise,
    su_noise_increments,
    su_solvable_from_increments,
    transverse_noise_per_replica,
    triangular_frames_stepwise,
    triangular_increments_lone,
)

RNG = RngStream(77, 0)


class TestExpmTri:
    def test_against_scipy_real(self):
        L = np.tril(np.random.default_rng(0).normal(size=(5, 5)))
        assert np.max(np.abs(expm_tri(L) - scipy_expm(L))) < 1e-12

    def test_against_scipy_complex(self):
        rng = np.random.default_rng(1)
        L = np.tril(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        L[np.diag_indices(4)] = L[np.diag_indices(4)].real
        assert np.max(np.abs(expm_tri(L) - scipy_expm(L))) < 1e-12

    @pytest.mark.parametrize("p", [8, 25])
    def test_against_scipy_complex_large_p(self, p):
        # largest entries from 0.1 to 20: from two squarings to eleven in one stack
        rng = np.random.default_rng(p)
        L = np.tril(rng.normal(size=(6, p, p)) + 1j * rng.normal(size=(6, p, p)), -1) / p
        L[:, range(p), range(p)] = rng.normal(size=(6, p))
        L *= np.geomspace(0.1, 20.0, 6)[:, None, None] / np.max(np.abs(L), axis=(-2, -1), keepdims=True)
        for M, E in zip(L, expm_tri(L)):
            ref = scipy_expm(M)
            assert np.max(np.abs(E - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_structure_exact(self):
        L = np.tril(np.random.default_rng(2).normal(size=(4, 4))) * 3.0
        E = expm_tri(L)
        assert np.all(E[np.triu_indices(4, 1)] == 0.0)
        assert np.all(np.diagonal(E) > 0.0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stack_matches_single(self, field):
        # norms from about 0.01 to a few hundred: small ones take no squaring, large ones several,
        # so the stack's order by squarings differs from its own
        for p in (3, 8):
            rng = np.random.default_rng(5)
            scales = np.geomspace(0.01, 40.0, 24)
            L = np.tril(rng.normal(size=(24, p, p)))
            if field == "complex":
                L = L + 1j * np.tril(rng.normal(size=(24, p, p)), -1)
            L = (L * scales[:, None, None]).reshape(4, 6, p, p)
            norms = np.max(np.abs(L), axis=(-2, -1)) * p
            assert np.any(norms < 0.25) and np.any(norms > 0.25 * 2**5)
            E = expm_tri(L)
            assert E.shape == L.shape
            for idx in np.ndindex(L.shape[:2]):
                ref = expm_tri_single(L[idx])
                assert np.max(np.abs(E[idx] - ref)) <= 1e-12 * np.max(np.abs(ref))
                # a matrix's exponential has the same bits alone as in its stack
                assert E[idx].tobytes() == expm_tri(L[idx]).tobytes()
            assert np.all(E[(...,) + np.triu_indices(p, 1)] == 0.0)
            diag = np.diagonal(E, axis1=-2, axis2=-1)
            assert np.all(diag.real > 0.0) and np.all(diag.imag == 0.0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_closed_form_2x2(self, field):
        # generic diagonals, a = d exactly and |a - d| = 1e-9, at norms 0.01 to 40
        # (up to eight squarings), against c (e^a - e^d) / (a - d) below the diagonal
        rng = np.random.default_rng(6)
        mats = []
        for norm in np.geomspace(0.01, 40.0, 16):
            for gap in (None, 0.0, 1e-9):
                a, d, c = rng.uniform(-1.0, 1.0, 3)
                if field == "complex":
                    c = c + 1j * rng.uniform(-1.0, 1.0)
                if gap is not None:
                    d = a + gap
                M = np.array([[a, 0.0], [c, d]])
                mats.append(M * norm / (2.0 * np.max(np.abs(M))))
        L = np.array(mats)
        for M, E in zip(L, expm_tri(L)):
            ref = expm_tri_2x2(M)
            assert np.max(np.abs(E - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_one_matrix_input_untouched(self):
        L = np.array([[4.0, 0.0], [1.0, 3.0]])
        expm_tri(L)
        assert np.array_equal(L, [[4.0, 0.0], [1.0, 3.0]])

    def test_memory_peak(self):
        # the temporaries of a supq-limit-sized stack of step increments stay
        # within a few copies of the output
        grid = TimeGrid(2.0, 2000)
        L = triangular_increments(2, "complex", grid, [RngStream(8, i) for i in range(48)])
        tracemalloc.start()
        try:
            E = expm_tri(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * E.nbytes


class TestMul:
    """The entries-first product of the Gram engine and expm_tri, over structural nonzeros (_mul_nz)."""

    @staticmethod
    def _matmul(a, b):
        return np.moveaxis(np.moveaxis(a, (0, 1), (-2, -1)) @ np.moveaxis(b, (0, 1), (-2, -1)), (-2, -1), (0, 1))

    @staticmethod
    def _operands(rs, structure, p, field, rest):
        """Entries-first (p, m, *rest), (m, r, *rest) with the shapes structure names: L lower, U upper, F full."""
        m = 2 * p if structure == "FF" else p
        r = 2 * p if structure == "LF" else p
        a, b = _normal(rs, (p, m) + rest, field), _normal(rs, (m, r) + rest, field)
        keep = {"L": np.tril, "U": np.triu, "F": np.ones_like}
        for x, shape in zip((a, b), structure):
            x *= keep[shape](np.ones(x.shape[:2]))[(...,) + (None,) * len(rest)]
        return a, b

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    @pytest.mark.parametrize("structure", ["LL", "LF", "FF", "FU"])
    def test_against_einsum(self, structure, p, field):
        # real sums have the einsum's bits, complex ones agree at round-off; a lower x lower product
        # is exact 0.0 above the diagonal, and a result written into a given array is the same
        rs = np.random.default_rng(10 * p + len(field))
        a, b = self._operands(rs, structure, p, field, (40, 3))
        got, ref = mx._mul_nz(a, b, structure), np.einsum("ik...,kj...->ij...", a, b)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        if field == "real":
            assert got.tobytes() == ref.tobytes()
        else:
            assert _rel_err(got, ref) <= 1e-15
        if structure == "LL":
            above = got[np.triu_indices(p, 1)]
            assert np.all(above == 0.0) and not np.any(np.signbit(above.view(float)))
        out = np.full_like(ref, np.nan)
        assert mx._mul_nz(a, b, structure, out=out) is out and out.tobytes() == got.tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_broadcast_trailing_axes_match_matmul(self, field):
        # frames (p, p, n, replicas, 1) against noise (p, 2p, n, replicas, groups)
        rs = np.random.default_rng(4)
        a, b = self._operands(rs, "LF", 2, field, (60, 7, 3))
        a = np.ascontiguousarray(a[..., :1])
        got, ref = mx._mul_nz(a, b, "LF"), self._matmul(a, b)
        assert got.shape == ref.shape == (2, 4, 60, 7, 3)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matrix_independent_of_its_stack(self, field):
        # each matrix's product has the same bits alone, in a slice, or in a broadcast stack
        rs = np.random.default_rng(5)
        a, b = self._operands(rs, "LF", 3, field, (101, 5, 4))
        a = np.ascontiguousarray(a[..., :1])
        full = mx._mul_nz(a, b, "LF")
        assert np.array_equal(full, mx._mul_nz(np.broadcast_to(a, (3, 3, 101, 5, 4)).copy(), b, "LF"))
        for part in (np.s_[:, :, 17:18, 2:3], np.s_[:, :, :64, 1:4], np.s_[:, :, 33:]):
            alone = mx._mul_nz(a[part].copy(), b[part].copy(), "LF")
            assert np.array_equal(alone, full[part])
        for i, j, g in ((0, 0, 0), (50, 3, 2), (100, 4, 3)):
            assert np.array_equal(mx._mul_nz(a[:, :, i, j, 0], b[:, :, i, j, g], "LF"), full[:, :, i, j, g])


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(3)), 1.0)

    def test_diagonal_absolute_sorted(self):
        assert np.allclose(singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])

    def test_random_matrix_against_charpoly(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            N = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert np.max(np.abs(singular_values(N) - charpoly_singular_values(N))) < 1e-10

    def test_matches_lapack(self):
        rng = np.random.default_rng(4)
        N = rng.normal(size=(5, 5))
        assert np.allclose(singular_values(N), np.linalg.svd(N, compute_uv=False), atol=1e-12)


class TestTriangularBrownian:
    def test_p1_is_scalar_exponential(self):
        grid = TimeGrid(1.0, 500)
        inc = triangular_increments(1, "real", grid, [RNG.child(1)])[0]
        lp = triangular_from_increments(grid, inc)
        lam = np.concatenate([[0.0], np.cumsum(inc[:, 0, 0])])
        assert np.max(np.abs(lp.frames[:, 0, 0] - np.exp(lam))) < 1e-12

    def test_group_structure_bitwise(self):
        grid = TimeGrid(1.0, 200)
        lp = sample_triangular_bm(3, "complex", grid, [RNG.child(2)])
        upper = np.triu_indices(3, 1)
        for frame in lp.frames[0]:
            assert np.all(frame[upper] == 0.0)
            assert np.all(np.diagonal(frame).real > 0.0)
            assert np.all(np.diagonal(frame).imag == 0.0)

    def test_determinant_identity(self):
        grid = TimeGrid(1.0, 400)
        inc = triangular_increments(2, "complex", grid, [RNG.child(3)])[0]
        lp = triangular_from_increments(grid, inc)
        expected = math.exp(float(inc[:, 0, 0].real.sum() + inc[:, 1, 1].real.sum()))
        assert np.linalg.det(lp.frames[-1]) == pytest.approx(expected, rel=1e-12)

    def test_p2_closed_form(self):
        # dl = l dlambda gives l_21 = e^{lam_11(t)} int_0^t e^{lam_22 - lam_11} dlam_21
        # (Stratonovich; evaluated with the trapezoid-in-noise rule on the same increments)
        grid = TimeGrid(1.0, 10_000)
        inc = triangular_increments(2, "real", grid, [RNG.child(4)])[0]
        lp = triangular_from_increments(grid, inc)
        l1 = np.concatenate([[0.0], np.cumsum(inc[:, 0, 0])])
        l2 = np.concatenate([[0.0], np.cumsum(inc[:, 1, 1])])
        f = np.exp(l2 - l1)
        strat = np.concatenate([[0.0], np.cumsum(0.5 * (f[:-1] + f[1:]) * inc[:, 1, 0])])
        closed = np.exp(l1) * strat
        rel = abs(lp.frames[-1, 1, 0] - closed[-1]) / abs(closed[-1])
        assert rel <= 5.0 * math.sqrt(grid.dt)

    def test_reproducible(self):
        grid = TimeGrid(0.5, 100)
        a = sample_triangular_bm(2, "real", grid, [RNG.child(5)]).frames
        b = sample_triangular_bm(2, "real", grid, [RNG.child(5)]).frames
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stack_matches_lone_draws(self, field):
        # one path per stream, each bit for bit the lone draw from its stream
        grid = TimeGrid(1.0, 200)
        rngs = [RNG.child(70 + i) for i in range(4)]
        lp = sample_triangular_bm(3, field, grid, rngs)
        assert lp.frames.shape == (4, 201, 3, 3)
        for i, r in enumerate(rngs):
            assert np.array_equal(lp.frames[i], sample_triangular_bm(3, field, grid, [r]).frames[0])
            assert np.array_equal(lp.frames[i], triangular_from_increments(
                grid, triangular_increments(3, field, grid, [r])[0]).frames)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_replica_axis_matches_single_paths(self, field):
        grid = TimeGrid(1.0, 200)
        inc = triangular_increments(3, field, grid, [RNG.child(60 + i) for i in range(4)])
        lp = triangular_from_increments(grid, inc.reshape(2, 2, 200, 3, 3))
        assert lp.frames.shape == (2, 2, 201, 3, 3)
        for i in range(4):
            single = triangular_from_increments(grid, inc[i]).frames
            assert np.array_equal(lp.frames.reshape(4, 201, 3, 3)[i], single)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_long_drifted_path_matches_stepwise(self, field, p):
        # the all-steps recurrence against the one-step-at-a-time product, with a deterministic
        # diagonal part (0.3, -0.2, 0.1, -0.4) dt, over 5000 steps
        grid = TimeGrid(1.0, 5000)
        inc = triangular_increments(p, field, grid, [RngStream(31, p)])[0]
        inc[:, range(p), range(p)] += np.array([0.3, -0.2, 0.1, -0.4][:p]) * grid.dt
        frames = triangular_from_increments(grid, inc).frames
        assert _rel_err(frames, triangular_frames_stepwise(p, field, inc)) <= 1e-13

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 3])
    def test_diagonal_is_cumprod_bitwise(self, field, p):
        # p = 1 frames and every diagonal are exactly the running product of the steps' diagonals
        grid = TimeGrid(1.0, 300)
        inc = triangular_increments(p, field, grid, [RNG.child(80 + i) for i in range(3)])
        diag = np.diagonal(expm_tri(inc), axis1=-2, axis2=-1)
        expected = np.concatenate([np.ones((3, 1, p), dtype=inc.dtype), np.cumprod(diag, axis=1)], axis=1)
        frames = triangular_from_increments(grid, inc).frames
        assert np.array_equal(np.diagonal(frames, axis1=-2, axis2=-1), expected)

    def test_out_of_range_raises(self):
        # lambda_11 = -400 t, lambda_22 = +400 t: l stays near e^400, finite step by step, but the
        # ratios l_k[1,1] / P_{t+1}[0] ~ e^{800 t} leave double range, which must raise, not give inf
        grid = TimeGrid(1.0, 200)
        inc = triangular_increments(2, "real", grid, [RNG.child(90)])[0]
        inc[:, range(2), range(2)] += np.array([-400.0, 400.0]) * grid.dt
        assert np.all(np.isfinite(triangular_frames_stepwise(2, "real", inc)))
        with pytest.raises(OverflowError):
            triangular_from_increments(grid, inc)
        # a diagonal product beyond double range raises too, where the step-by-step product is inf
        with pytest.raises(OverflowError):
            triangular_from_increments(grid, inc[:, 1:, 1:] * 2.0)


def _rel_err(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


class TestEngineAgainstStepwise:
    """The batched engine agrees with the one-step-at-a-time rule of tests/oracles.py."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("drift", [False, True])
    def test_frames_and_heun(self, field, p, drift):
        grid = TimeGrid(1.0, 300)
        r = RngStream(123, 10 * p + drift)
        inc = triangular_increments(p, field, grid, [r.child(10**6)])[0]
        if drift:  # increments with a deterministic diagonal part (0.3, -0.2, 0.1) dt
            inc[:, range(p), range(p)] += np.array([0.3, -0.2, 0.1][:p]) * grid.dt
        lp = triangular_from_increments(grid, inc)
        assert _rel_err(lp.frames, triangular_frames_stepwise(p, field, inc)) <= 1e-12
        q = p + 70
        dbeta, dkappa = su_noise_increments(p, q, field, grid, r)
        b_cols, c_cols = su_solvable_from_increments(q, lp.frames, dbeta, dkappa)
        b, c = su_heun_stepwise(q, lp.frames, dbeta, dkappa)
        assert b_cols.dtype == b.dtype and c_cols.dtype == c.dtype
        assert _rel_err(b_cols, b) <= 1e-12
        assert _rel_err(c_cols, c) <= 1e-12


class TestNoiseStreams:
    # SHA-256 of triangular_increments and the explicit-column noise on TimeGrid(0.5, 100),
    # RngStream(11, p), q = p + 70, p = 1, 2, 3: the streams of the column engine
    DIGESTS = {
        "real": "ab726e31630035f93ad66041be91a4af050eccf0b454fe7cb890e7cb89238267",
        "complex": "e223e9f84d34d3843d9708740f7e366de04567ad60711e14dfa84b9fec575581",
    }

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pinned_digest(self, field):
        grid = TimeGrid(0.5, 100)
        h = hashlib.sha256()
        for p in (1, 2, 3):
            h.update(triangular_increments(p, field, grid, [RngStream(11, p)])[0].tobytes())
            for a in su_noise_increments(p, p + 70, field, grid, RngStream(11, p)):
                h.update(a.tobytes())
        assert h.hexdigest() == self.DIGESTS[field]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_kappa_stream_unchanged(self, field, p):
        # the Gram engine draws dkappa from rng.child(0) exactly as the column engine does
        grid = TimeGrid(0.5, 50)
        ref = su_noise_increments(p, p + 3, field, grid, RngStream(13, p))[1]
        got = np.moveaxis(mx._kappa_increments(p, field == "complex", grid.n_steps, grid.dt,
                                               [RngStream(13, p).child(0)])[..., 0], -1, 0)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        # in the real field at p = 1 kappa has no entry above the diagonal and none on it
        assert np.any(got) == (p > 1 or field == "complex")

    @pytest.mark.parametrize("n_rep", [1, 3])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_buffered_draw_matches_per_replica(self, p, field, n_rep):
        # the stacked draws of lambda, kappa and K, bit for bit (signed zeros too) the
        # one-replica-at-a-time references of tests/oracles.py, K and kappa C-contiguous and entries
        # first; K at one column group and at three, the first of width exactly p, so that its
        # Bartlett factor is zero
        n, dt, cplx = 40, 0.0125, field == "complex"
        rngs = [RngStream(17, 10 * p + i) for i in range(n_rep)]

        def same_bits(a, ref):
            return a.dtype == ref.dtype and a.shape == ref.shape and a.tobytes() == ref.tobytes()

        for widths in ([p + 5], [p, p + 1, 2 * p + 3]):
            K = mx._transverse_noise(p, np.array(widths), cplx, n, dt, rngs)
            assert K.flags.c_contiguous and K.shape == (p, 2 * p, n, n_rep, len(widths))
            assert same_bits(K, transverse_noise_per_replica(p, widths, cplx, n, dt, rngs))
        assert not np.any(K[:, p:, :, :, 0]) and np.all(K[:, :p, :, :, 0] != 0.0)
        dkappa = mx._kappa_increments(p, cplx, n, dt, rngs)
        assert dkappa.flags.c_contiguous and dkappa.shape == (p, p, n, n_rep)
        assert same_bits(dkappa, kappa_increments_per_replica(p, cplx, n, dt, rngs))
        assert np.any(dkappa) == (p > 1 or cplx)  # the real field's kappa at p = 1 has no entry
        grid = TimeGrid(n * dt, n)
        inc = triangular_increments(p, field, grid, rngs)
        assert same_bits(inc, np.stack([triangular_increments_lone(p, field, grid, r) for r in rngs]))


class TestEngineBitsPinned:
    # SHA-256 of W then c from simulate_su_solvable on TimeGrid(1.0, 257) (no block size divides
    # 257), three replicas RngStream(24, i) with l from their child 10**6: the engine's arithmetic
    DIGESTS = {
        (1, "real", (5, 40)): "826f9144e18c47b5f1f911d76ac9daab9da91e196b6779186b0eaf02a1bb45b4",
        (2, "complex", (5, 12, 30)): "a7e4d6feeb86c0f4a36b03c68fe6747d0bed990c0db29de9b4894159153de0e8",
        (3, "real", (7,)): "f41c7aedead9677c5925bc7f834466e79c3dbc72f8bfac290ebd7fe2ec1114fc",
        (1, "complex", (4, 16)): "0ed821b825360fa0308cd737cc2785f3880461b1f5bca30423d628191d5638c5",
    }

    @pytest.mark.parametrize("p, field, q", list(DIGESTS))
    def test_pinned_digest(self, p, field, q):
        grid = TimeGrid(1.0, 257)
        rngs = [RngStream(24, i) for i in range(3)]
        sp = simulate_su_solvable(q, rngs, sample_triangular_bm(p, field, grid, [r.child(10**6) for r in rngs]))
        digest = hashlib.sha256(sp.W.tobytes() + sp.c.tobytes()).hexdigest()
        assert digest == self.DIGESTS[p, field, q]


class TestEngineMemory:
    def test_gram_engine_peak_at_invariant_halving_shape(self):
        # the shapes of supq-limit's invariant_halving chunk (q = (100,), n = 2000; it holds 24
        # replicas, here 16, and the bounds are in units of W's size) and of its monotone chunk (two
        # seeds of 8 replicas, three groups, n = 1000), p = 2 complex: the peak holds K
        # (twice W's size), W, c and the entries-first copy of l (W's size at one group, a third at
        # three), plus one block's l_{k+1} K and lbar K; measured at 5.41 W and 4.92 W, so one more
        # W-sized array exceeds either bound
        for q, n, bound in (((100,), 2000, 6.0), ((50, 200, 800), 1000, 5.5)):
            grid = TimeGrid(1.0, n)
            rngs = [RngStream(5 + i, 11) for i in range(16)]
            l = sample_triangular_bm(2, "complex", grid, [r.child(10**6) for r in rngs])
            tracemalloc.start()
            try:
                sp = simulate_su_solvable(q, rngs, l)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sp.W.shape == sp.c.shape == (16, len(q), n + 1, 2, 2)
            assert peak <= bound * sp.W.nbytes, q

    def test_gram_engine_cost_flat_in_q(self, monkeypatch):
        # the normals and Gamma variates drawn, and the traced memory peak, do not grow with q;
        # p = 1, real is the radial part on the hyperbolic space H^q
        grid = TimeGrid(1.0, 400)
        drawn = []
        plain = RngStream.generator

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    out = getattr(self.gen, name)(*args, **kwargs)
                    drawn.append(np.size(out))
                    return out
                return draw

        monkeypatch.setattr(RngStream, "generator", lambda self: Counting(plain(self)))
        for p, field, qs in ((2, "complex", (50, 5000)), (1, "real", (100, 10_000))):
            # one l shared by the four replicas, repeated on their axis
            lsh = sample_triangular_bm(p, field, grid, [RngStream(8, 0).child(10**6)])
            lsh = TriangularPath(grid, np.repeat(lsh.frames, 4, axis=0))
            cost = []
            for q in qs:
                drawn.clear()
                tracemalloc.start()
                try:
                    sp = simulate_su_solvable((q,), [RngStream(8, i) for i in range(4)], lsh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert np.all(np.isfinite(sp.c))
                cost.append((sum(drawn), peak))
            (draws_small, peak_small), (draws_large, peak_large) = cost
            assert draws_small == draws_large > 0, p
            assert peak_large <= 1.05 * peak_small, p


class TestEtaMatrix:
    def test_p1_reduces_to_scalar_eta(self):
        grid = TimeGrid(1.0, 2000)
        inc = triangular_increments(1, "real", grid, [RNG.child(6)])[0]
        lp = triangular_from_increments(grid, inc)
        scalar = eta_functional(np.concatenate([[0.0], np.cumsum(inc[:, 0, 0])]), grid.dt)
        rad = eta_matrix(lp, range(1, grid.n_steps + 1))
        assert np.max(np.abs(rad[:, 0] - scalar[1:])) < 1e-12

    def test_replica_stack_matches_single_paths(self):
        # stacked frames (replicas, n+1, p, p): the indices pick times of every replica,
        # each replica's rows bit for bit those of its lone path
        grid = TimeGrid(1.0, 10)
        rngs = [RNG.child(50 + i) for i in range(3)]
        rad = eta_matrix(sample_triangular_bm(2, "complex", grid, rngs), [5, 10])
        assert rad.shape == (3, 2, 2)
        for i, r in enumerate(rngs):
            assert np.array_equal(rad[i], eta_matrix(sample_triangular_bm(2, "complex", grid, [r]), [5, 10])[0])

    def test_indices_off_grid_rejected(self):
        # numpy would wrap -1 to the last step and end past n in a bare IndexError
        lp = sample_triangular_bm(2, "complex", TimeGrid(1.0, 10), [RNG.child(50)])
        for idx in ([0], [-1], [5, 11]):
            with pytest.raises(ValueError, match=r"off the valid range 1\.\.10"):
                eta_matrix(lp, idx)

    def test_fractional_index_rejected(self):
        # a cast to int would read 1.5 as step 1
        lp = sample_triangular_bm(2, "complex", TimeGrid(1.0, 10), [RNG.child(50)])
        with pytest.raises(ValueError, match=r"grid index 1\.5 is not whole"):
            eta_matrix(lp, [1.5])
        assert np.array_equal(eta_matrix(lp, [1.0, 10.0]), eta_matrix(lp, [1, 10]))

    def test_small_time_slope(self):
        grid = TimeGrid(0.02, 20)
        lp = sample_triangular_bm(2, "complex", grid, [RNG.child(40 + i) for i in range(5)])
        rad = eta_matrix(lp, indices=[1])
        assert np.all(rad > grid.dt * 0.8) and np.all(rad < grid.dt * 1.2)

    def test_rows_weakly_decreasing(self):
        grid = TimeGrid(1.0, 300)
        lp = sample_triangular_bm(3, "complex", grid, [RNG.child(7)])
        rad = eta_matrix(lp, range(1, grid.n_steps + 1))
        assert np.all(rad[..., :-1] >= rad[..., 1:] - 1e-14)

    def test_shift_identity(self):
        # SingVal(J l^{*-1}) == SingVal(l^{-1} J) on trajectory frames
        grid = TimeGrid(1.0, 50)
        lp = sample_triangular_bm(2, "complex", grid, [RNG.child(8)])
        J, frames = integrated_ll_star(lp)[0], lp.frames[0]
        for k in (10, 30, 50):
            a = singular_values(J[k] @ np.linalg.inv(frames[k].conj().T))
            b = singular_values(np.linalg.inv(frames[k]) @ J[k])
            assert np.max(np.abs(a - b)) < 1e-10


def _rotation_to(b, X):
    """Unitary U with b = [X, 0] U, for b (p x w) of full row rank and X X* = b b*."""
    p = b.shape[0]
    V = np.linalg.solve(X, b)  # orthonormal rows
    Q = np.linalg.qr(V.conj().T, mode="complete")[0]  # its last columns are orthogonal to V's rows
    return np.vstack([V, Q[:, p:].conj().T])


def _normal(rs, shape, field):
    z = rs.normal(size=shape)
    return z + 1j * rs.normal(size=shape) if field == "complex" else z


def _fixed_noise(monkeypatch, K):
    """Let the Gram engine run on the reduced noise K (n, p, 2p) of one replica and one group,
    handed over entries first as (p, 2p, n, 1, 1)."""
    monkeypatch.setattr(mx, "_transverse_noise", lambda *args: np.moveaxis(K, 0, -1)[..., None, None])


class TestSuSolvable:
    def test_initial_state(self):
        grid = TimeGrid(0.5, 100)
        lsh = sample_triangular_bm(2, "complex", grid, [RNG.child(9)])
        sp = simulate_su_solvable((30,), [RNG.child(10)], lsh)
        assert sp.W.shape == sp.c.shape == (1, 1, grid.n_steps + 1, 2, 2)
        assert np.allclose(sp.l_path.frames[0, 0], np.eye(2))
        assert np.all(sp.W[..., 0, :, :] == 0.0) and np.all(sp.c[..., 0, :, :] == 0.0)
        assert sp.invariant_defect()[0, 0, 0] == 0.0

    def test_deterministic_debug_product_rule(self):
        # all noises zero except one linear beta entry: c + c* = b b* exactly
        grid = TimeGrid(1.0, 64)
        p, q = 2, 5
        frames = np.broadcast_to(np.eye(p, dtype=complex), (grid.n_steps + 1, p, p)).copy()
        dbeta = np.zeros((grid.n_steps, p, q - p), dtype=complex)
        dbeta[:, 0, 0] = grid.dt  # beta_{11}(t) = t
        dkappa = np.zeros((grid.n_steps, p, p), dtype=complex)
        b, c = su_solvable_from_increments(q, frames, dbeta, dkappa)
        defect = np.abs(c + c.conj().transpose(0, 2, 1) - b @ b.conj().transpose(0, 2, 1))
        assert np.max(defect) < 1e-15

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_reduced_step_matches_rotated_columns(self, field, p, monkeypatch):
        # the explicit Heun step on b = [X, 0] U with column noise [G, H] U gives, step
        # after step, the (W, c) of the reduced step driven by G and a factor of H H*
        n, q = 6, 3 * p + 2
        w = q - p
        grid = TimeGrid(0.3, n)
        rs = np.random.default_rng(p)
        G, H = _normal(rs, (n, p, p), field), _normal(rs, (n, p, w - p), field)
        _fixed_noise(monkeypatch, np.concatenate([G, np.linalg.cholesky(H @ H.conj().swapaxes(1, 2))], axis=2))
        lp = sample_triangular_bm(p, field, grid, [RNG.child(20 + p)])
        sp = simulate_su_solvable((q,), [RNG.child(30)], lp)
        dkappa = su_noise_increments(p, q, field, grid, RNG.child(30))[1]
        b = np.zeros((p, w), dtype=G.dtype)
        c = np.zeros((p, p), dtype=G.dtype)
        for k in range(n):
            U = _rotation_to(b, np.linalg.cholesky(b @ b.conj().T)) if k else np.eye(w)
            dbeta = np.concatenate([G[k], H[k]], axis=1) @ U
            b, c = su_heun_step(b, c, lp.frames[0, k], lp.frames[0, k + 1], dbeta, dkappa[k])
            assert _rel_err(sp.W[0, 0, k + 1], b @ b.conj().T) <= 1e-12
            assert _rel_err(sp.c[0, 0, k + 1], c) <= 1e-12

    def test_reduced_noise_structure(self):
        # widths p, p + 1 and p + 6 at p = 3: G is a full p x p block, and the
        # Bartlett factor has width - p chi columns
        p = 3
        K = mx._transverse_noise(p, np.array([3, 4, 9]), True, 50, 0.01, [RngStream(14, 0), RngStream(14, 1)])
        assert K.shape == (p, 2 * p, 50, 2, 3) and K.flags.c_contiguous  # entries first
        K = np.moveaxis(K, (0, 1), (-2, -1))  # (n, replicas, groups, p, 2p)
        G, A = K[..., :p], K[..., p:]
        assert np.all(G != 0.0)
        assert np.all(A[:, :, 0] == 0.0)
        assert np.all(A[:, :, 1, :, 1:] == 0.0) and np.all(A[:, :, 1, 1:, 0] != 0.0)
        diag = np.diagonal(A[:, :, 2], axis1=-2, axis2=-1)
        assert np.all(diag.real > 0.0) and np.all(diag.imag == 0.0)
        assert np.all(A[:, :, 2][..., np.triu_indices(p, 1)[0], np.triu_indices(p, 1)[1]] == 0.0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_law_matches_explicit_columns(self, field, p):
        # given l, W_T and cosh Rad_T have the law of the explicit-column engine:
        # two-sample KS on every entry, Bonferroni at 1% overall
        n_rep, q = 800, 2 * p + 5
        grid = TimeGrid(0.5, 40)
        # one l shared by every replica, repeated on their axis
        lp = sample_triangular_bm(p, field, grid, [RngStream(41, p)])
        lp = TriangularPath(grid, np.repeat(lp.frames, n_rep, axis=0))
        gram = simulate_su_solvable((q,), [RngStream(42, 10_000 * p + i) for i in range(n_rep)], lp)
        cols = [su_solvable_from_increments(q, lp.frames[0], *su_noise_increments(
            p, q, field, grid, RngStream(43, 10_000 * p + i))) for i in range(n_rep)]
        b_end = np.array([b[-1] for b, _ in cols])
        # the explicit runs in the engine's layout: W at the end time only, c on the grid
        explicit = SuSolvablePath(lp, (b_end @ b_end.conj().swapaxes(1, 2))[:, None, None],
                                  np.array([c for _, c in cols])[:, None])
        samples = []
        for path in (gram, explicit):
            W_end = path.W[:, 0, -1]
            low = np.tril_indices(p, -1)
            parts = [np.diagonal(W_end, axis1=1, axis2=2).real, W_end[:, low[0], low[1]].real,
                     W_end[:, low[0], low[1]].imag if field == "complex" else np.empty((n_rep, 0)),
                     np.cosh(finite_q_radial(path, [grid.n_steps])[:, 0, 0])]
            samples.append(np.concatenate(parts, axis=1))
        pvalues = [ks_2samp(a, b).pvalue for a, b in zip(samples[0].T, samples[1].T)]
        assert min(pvalues) >= 0.01 / len(pvalues), pvalues

    def test_invariant_defect_scales_with_dt(self):
        rel = {}
        for n_steps in (500, 1000):
            acc = 0.0
            for i in range(6):
                grid = TimeGrid(1.0, n_steps)
                r = RngStream(900 + i, 0)
                lsh = sample_triangular_bm(2, "complex", grid, [r.child(10**6)])
                sp = simulate_su_solvable((60,), [r], lsh)
                scale = 1.0 + np.max(np.abs(sp.W[0, 0, -1]))
                acc += sp.invariant_defect().max() / scale
            rel[n_steps] = acc / 6
        assert 1.2 <= rel[500] / rel[1000] <= 3.2

    def test_q_scaling_of_c(self):
        grid = TimeGrid(1.0, 500)
        r = RngStream(42, 0)
        lsh = sample_triangular_bm(2, "complex", grid, [r.child(10**6)])
        sp = simulate_su_solvable((800,), [r], lsh)
        J = integrated_ll_star(lsh)
        ratio = np.real(np.trace(sp.c[0, 0, -1])) / (800 * np.real(np.trace(J[0, -1])))
        assert ratio == pytest.approx(2.0, abs=0.3)

    def test_nested_transverse_columns(self):
        grid = TimeGrid(0.5, 100)
        r = RngStream(11, 0)
        db_small, dk_small = su_noise_increments(2, 20, "complex", grid, r)
        db_large, dk_large = su_noise_increments(2, 50, "complex", grid, r)
        assert np.array_equal(db_small, db_large[:, :, : 20 - 2])
        assert np.array_equal(dk_small, dk_large)
        # the integrated paths agree to round-off (BLAS summation order differs by shape)
        frames = sample_triangular_bm(2, "complex", grid, [r.child(10**6)]).frames[0]
        small, _ = su_solvable_from_increments(20, frames, db_small, dk_small)
        large, _ = su_solvable_from_increments(50, frames, db_large, dk_large)
        assert np.max(np.abs(small[-1] - large[-1][:, : 20 - 2])) < 1e-12

    def test_nested_groups_extend_smaller_q(self):
        # q values ride on one axis: the leading groups of a longer q sequence are the
        # groups of a shorter one, and a lone q is the first group; p = 1, real is H^q
        grid = TimeGrid(0.5, 100)
        rngs = [RNG.child(16), RNG.child(17)]
        for p, field, qs in ((2, "complex", (20, 50, 90)), (1, "real", (100, 10_000))):
            # one l shared by both replicas, repeated on their axis
            lsh = sample_triangular_bm(p, field, grid, [RNG.child(15)])
            lsh = TriangularPath(grid, np.repeat(lsh.frames, len(rngs), axis=0))
            lone = simulate_su_solvable(qs[:1], rngs, lsh)
            W, c = lone.W, lone.c
            for j in range(2, len(qs) + 1):
                longer = simulate_su_solvable(qs[:j], rngs, lsh)
                assert longer.c.shape == (2, j, grid.n_steps + 1, p, p)
                assert _rel_err(longer.W[:, :j - 1], W) <= 1e-12 and _rel_err(longer.c[:, :j - 1], c) <= 1e-12
                W, c = longer.W, longer.c
            with pytest.raises(ValueError):
                simulate_su_solvable((qs[0], qs[0]), rngs, lsh)

    def test_replica_paths_match_single_calls(self):
        # replicas with their own l and nested q values: each slice is a lone call
        grid = TimeGrid(0.5, 60)
        rngs = [RNG.child(18), RNG.child(19)]
        stacked = sample_triangular_bm(2, "complex", grid, [r.child(10**6) for r in rngs])
        both = simulate_su_solvable((20, 50), rngs, stacked)
        rad = finite_q_radial(both, [30, 60])
        assert rad.shape == (2, 2, 2, 2)
        for i, r in enumerate(rngs):
            one = simulate_su_solvable((20, 50), [r], TriangularPath(grid, stacked.frames[i:i + 1]))
            assert _rel_err(both.W[i], one.W[0]) <= 1e-12 and _rel_err(both.c[i], one.c[0]) <= 1e-12
            assert _rel_err(rad[i], finite_q_radial(one, [30, 60])[0]) <= 1e-12

    def test_one_l_path_per_stream_required(self):
        # frames with no replica axis, or another number of paths than streams, are refused
        grid = TimeGrid(0.5, 20)
        rngs = [RNG.child(18), RNG.child(19)]
        stacked = sample_triangular_bm(2, "complex", grid, rngs)
        for frames, streams in ((stacked.frames[0], rngs[:1]), (stacked.frames, rngs * 2),
                                (stacked.frames, rngs[:1]), (stacked.frames[None], rngs)):
            with pytest.raises(ValueError, match="one path per stream"):
                simulate_su_solvable((20,), streams, TriangularPath(grid, frames))

    def test_shared_draw_matches_per_q_redraw(self):
        # the batched replicas and nested q values of _supq_errors give the errors
        # of one simulate_su_solvable call per replica
        seed, dt, T, p, q_list, inner = 5, 0.01, 0.3, 2, (5, 12, 30), 3
        errs = _supq_errors([(seed, rep) for rep in range(inner)], dt, T, p, q_list)
        grid = TimeGrid(T, round(T / dt))
        r = RngStream(seed, 0)
        lsh = sample_triangular_bm(p, "complex", grid, [r.child(10**6)])
        idx = [grid.n_steps // 2, grid.n_steps]
        target = eta_matrix(lsh, indices=idx)[0]
        assert len(errs) == inner
        for rep, err in enumerate(errs):
            rad = finite_q_radial(simulate_su_solvable(q_list, [r.child(rep)], lsh), indices=idx)[0]
            # one error per (q, time, component)
            ref = np.abs(np.cosh(rad) / np.reshape(q_list, (-1, 1, 1)) - target)
            assert err.shape == ref.shape and np.max(np.abs(err - ref) / np.abs(ref)) <= 1e-12

    def test_supq_targets_are_per_path_eta(self, monkeypatch):
        # _supq_errors reads its seeds' targets with one eta_matrix call on the stack of
        # their l paths, one per seed however many replicas it has in the run; each seed's
        # targets are bit for bit a lone call on its own path
        seeds, dt, T, p = [5, 6, 7], 0.01, 0.2, 2
        plain, calls = mx.eta_matrix, []

        def recording(lpath, indices):
            calls.append((lpath, list(indices), plain(lpath, indices)))
            return calls[-1][-1]

        monkeypatch.setattr(mx, "eta_matrix", recording)
        _supq_errors([(seed, rep) for seed in seeds for rep in range(2)], dt, T, p, (5, 12))
        [(lpath, idx, target)] = calls
        grid = TimeGrid(T, round(T / dt))
        assert idx == [grid.n_steps // 2, grid.n_steps] and target.shape == (len(seeds), 2, p)
        for i, seed in enumerate(seeds):
            lone = sample_triangular_bm(p, "complex", grid, [RngStream(seed, 0).child(10**6)])
            assert np.array_equal(lpath.frames[i], lone.frames[0])
            assert np.array_equal(target[i], plain(lone, idx)[0])

    def test_replica_chunks_change_no_result(self):
        # my-convergence puts runs of seeds on the replica axis, supq-limit runs of (seed, replica)
        # items: a seed's row, and an item's errors, are exactly the same alone as in a run with
        # others, also where a run holds only some of a seed's replicas
        seeds = [6, 7, 8]
        args = (0.01, 0.2, (100, 10_000))
        together = _convergence_rows(seeds, *args)
        assert [row[0] for row in together] == seeds
        assert together == [row for seed in seeds for row in _convergence_rows([seed], *args)]
        for args, inner, size in (((0.01, 0.2, 2, (50, 200, 800)), 8, 5), ((0.01, 0.2, 3, (9, 15, 40)), 3, 2),
                                  ((0.01, 0.2, 4, (9, 15, 40)), 8, 4)):
            items = [(seed, rep) for seed in seeds for rep in range(inner)]
            together = np.array(_supq_errors(items, *args))
            for runs in ([items[i:i + size] for i in range(0, len(items), size)], [[item] for item in items]):
                assert np.array_equal(np.array([e for run in runs for e in _supq_errors(run, *args)]), together)

    def test_chunk_plan(self, monkeypatch):
        # supq-limit's monotone phase counts its runs in replicas: at the default p = 2 and dt = 1e-3
        # an engine call runs 16 (two seeds), at p = 4 the 4 of _chunk_size, half a seed's 8
        class Planned(Exception):
            pass

        def first_call(q, rngs, l):
            raise Planned(len(rngs))

        monkeypatch.setattr(mx, "simulate_su_solvable", first_call)
        assert ex._chunk_size(1000, 3, 4, "complex") == 4
        for p, replicas in ((2, 16), (4, 4)):
            with pytest.raises(Planned) as per_call:
                ex.run_supq_limit(ex.ExperimentConfig("supq-limit", p=p, n_seeds=10))
            assert per_call.value.args[0] == replicas

        def plan(fn, items, size, workers):
            raise Planned(size)

        monkeypatch.setattr(ex, "_chunk_map", plan)
        # my-convergence counts its finite_q_radial read-out: its 100 default seeds split into
        # runs, and a run still holds the 10 seeds of a --seeds 10 call; a real-field path
        # counts 8 bytes an entry, not 16
        with pytest.raises(Planned) as seeds_per_call:
            ex.run_my_convergence(ex.ExperimentConfig("my-convergence", n_paths=2))
        assert 10 <= seeds_per_call.value.args[0] < 100
        for n_q, p in ((1, 2), (3, 2), (2, 1)):
            assert ex._chunk_size(1000, n_q, p, "real") // 2 == ex._chunk_size(1000, n_q, p, "complex")

    def test_q_not_above_p_rejected(self):
        # a q value holds q - p transverse columns, so q = p has none
        lsh = sample_triangular_bm(2, "complex", TimeGrid(1.0, 100), [RNG.child(11)])
        with pytest.raises(ValueError):
            simulate_su_solvable((2,), [RNG.child(12)], lsh)

    def test_group_narrower_than_p_rejected(self):
        # every column group needs at least p columns, so that its Gram matrix has a Cholesky factor
        lsh = sample_triangular_bm(3, "complex", TimeGrid(0.1, 10), [RNG.child(11)])
        for q in ((5,), (6, 8), (6, 9, 11)):
            with pytest.raises(ValueError, match="of at least p = 3 columns"):
                simulate_su_solvable(q, [RNG.child(12)], lsh)
        assert simulate_su_solvable((6, 9, 12), [RNG.child(12)], lsh).W.shape == (1, 3, 11, 3, 3)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_singular_gram_raises_linalgerror(self, field, monkeypatch):
        # zero column noise makes W_1 = Z Z* = 0, which has no Cholesky factor: numpy's LinAlgError,
        # as np.linalg.cholesky raises it, and the caller's floating-point error state is restored
        # after the raise as after a normal return
        grid = TimeGrid(0.2, 250)
        lsh = sample_triangular_bm(2, field, grid, [RNG.child(40)])
        zero = np.zeros((2, 4, grid.n_steps, 1, 1), dtype=complex if field == "complex" else float)
        for state in ({}, {"divide": "raise", "under": "warn", "invalid": "ignore"}):
            with np.errstate(**state):
                caller = np.geterr()
                with monkeypatch.context() as m:
                    m.setattr(mx, "_transverse_noise", lambda *args: zero)
                    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                        simulate_su_solvable((5,), [RNG.child(41)], lsh)
                assert np.geterr() == caller
                sp = simulate_su_solvable((5,), [RNG.child(41)], lsh)
                assert np.geterr() == caller and np.all(np.isfinite(sp.c))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("p, field", [(1, "real"), (2, "complex"), (3, "real")])
    def test_non_finite_l_rejected(self, p, field, bad):
        # a nan or inf in any frame of l, the first, a middle or the last, is refused up front;
        # the engine would otherwise return W and c that are not finite at the last step
        grid = TimeGrid(0.5, 250)
        lsh = sample_triangular_bm(p, field, grid, [RNG.child(42), RNG.child(43)])
        for k in (0, 120, 250):
            frames = lsh.frames.copy()
            frames[1, k, p - 1, 0] = bad
            with pytest.raises(ValueError, match=f"frame {k} of replica 1"):
                simulate_su_solvable((3 * p,), [RNG.child(44), RNG.child(45)], TriangularPath(grid, frames))


class TestFiniteQRadial:
    def test_zero_at_origin(self):
        grid = TimeGrid(0.5, 100)
        lsh = sample_triangular_bm(2, "complex", grid, [RNG.child(13)])
        sp = simulate_su_solvable((30,), [RNG.child(14)], lsh)
        rad = finite_q_radial(sp, indices=[0])
        assert rad.shape == (1, 1, 1, 2) and np.allclose(rad, 0.0)

    def test_indices_off_grid_rejected(self):
        grid = TimeGrid(0.5, 20)
        sp = simulate_su_solvable((30,), [RNG.child(14)], sample_triangular_bm(2, "complex", grid, [RNG.child(13)]))
        for idx in ([-1], [0, 21]):
            with pytest.raises(ValueError, match=r"off the valid range 0\.\.20"):
                finite_q_radial(sp, idx)
        assert finite_q_radial(sp, [0, 20]).shape == (1, 1, 2, 2)

    def test_fractional_index_rejected(self):
        # a cast to int would read 2.9 as step 2
        grid = TimeGrid(0.5, 20)
        sp = simulate_su_solvable((30,), [RNG.child(14)], sample_triangular_bm(2, "complex", grid, [RNG.child(13)]))
        with pytest.raises(ValueError, match=r"grid index 2\.9 is not whole"):
            finite_q_radial(sp, [0, 2.9])
        assert np.array_equal(finite_q_radial(sp, [2.0]), finite_q_radial(sp, [2]))

    @pytest.mark.xfail(strict=True, raises=ArcoshDomainError,
                       reason="ROADMAP item 13: at q = 3 the Heun read-out cosh B + e^{-B} c/2 dips below 1 "
                              "on about 1% of paths; the projected read-out cosh B + e^{-B} W/4 cannot")
    def test_p1_real_q3_read_out_in_domain(self):
        # valid input at p = 1, real field, q = 3: every radial part exists and is finite
        grid = TimeGrid(1.0, 1000)
        rngs = [RngStream(2027, i) for i in range(1000)]
        lsh = sample_triangular_bm(1, "real", grid, [r.child(10**6) for r in rngs])
        rad = finite_q_radial(simulate_su_solvable((3,), rngs, lsh), range(grid.n_steps + 1))
        assert np.isfinite(rad).all()

    def test_flat_limit_toward_eta(self):
        grid = TimeGrid(1.0, 500)
        r = RngStream(4242, 0)
        lsh = sample_triangular_bm(2, "complex", grid, [r.child(10**6)])
        target = eta_matrix(lsh, indices=[500])[0]
        errs = []
        for q in (50, 800):
            sp = simulate_su_solvable((q,), [r.child(1)], lsh)
            rad = finite_q_radial(sp, indices=[500])
            errs.append(np.max(np.abs(np.cosh(rad[0, 0]) / q - target)))
        assert errs[1] < errs[0]

    @pytest.mark.slow
    def test_p1_matches_hyperbolic_radial_in_law(self):
        # the Gram engine's Heun rule at p = 1 against the left-point Ito columns on H^q,
        # driven by the same B: two-sample KS at 1% must not reject
        q, n_rep, t = 50, 500, 1.0
        grid = TimeGrid(t, 250)
        a = np.empty(n_rep)
        b = np.empty(n_rep)
        for i in range(n_rep):
            r = RngStream(31_000 + i, 0)
            lsh = sample_triangular_bm(1, "real", grid, [r.child(10**6)])
            sp = simulate_su_solvable((q,), [r], lsh)
            rad = finite_q_radial(sp, indices=[grid.n_steps])
            a[i] = rad[0, 0, 0, 0]
            b[i] = hyperbolic_radial_columns(q, np.log(lsh.frames[0, :, 0, 0]), grid.dt, r.child(5))[-1]
        rep = ks_two_sample(a, b, level=0.01)
        assert rep.passed, rep

