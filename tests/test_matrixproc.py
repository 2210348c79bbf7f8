import io
import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from myproc.matrixproc import (
    TriangularPath,
    eta_matrix,
    expm_tri,
    finite_q_radial,
    integrated_ll_star,
    radial_to_csv,
    sample_triangular_bm,
    simulate_su_solvable,
    singular_values,
    su_noise_increments,
    su_solvable_from_increments,
    triangular_from_increments,
    triangular_increments,
)
from myproc.paths import RngStream, ScalarPath, TimeGrid, eta_functional, hyperbolic_radial

from oracles import charpoly_singular_values

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

    def test_structure_exact(self):
        L = np.tril(np.random.default_rng(2).normal(size=(4, 4))) * 3.0
        E = expm_tri(L)
        assert np.all(E[np.triu_indices(4, 1)] == 0.0)
        assert np.all(np.diagonal(E) > 0.0)


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
        inc = triangular_increments(1, "real", grid, RNG.child(1))
        lp = triangular_from_increments(1, "real", grid, inc)
        lam = np.concatenate([[0.0], np.cumsum(inc[:, 0, 0])])
        assert np.max(np.abs(lp.frames[:, 0, 0] - np.exp(lam))) < 1e-12

    def test_group_structure_bitwise(self):
        grid = TimeGrid(1.0, 200)
        lp = sample_triangular_bm(3, "complex", grid, RNG.child(2))
        upper = np.triu_indices(3, 1)
        for frame in lp.frames:
            assert np.all(frame[upper] == 0.0)
            assert np.all(np.diagonal(frame).real > 0.0)
            assert np.all(np.diagonal(frame).imag == 0.0)

    def test_determinant_identity(self):
        grid = TimeGrid(1.0, 400)
        inc = triangular_increments(2, "complex", grid, RNG.child(3))
        lp = triangular_from_increments(2, "complex", grid, inc, diag_drift=[0.3, -0.1])
        diag_sum = float(inc[:, 0, 0].real.sum() + inc[:, 1, 1].real.sum())
        expected = math.exp(diag_sum + 1.0 * (0.3 - 0.1))
        assert np.linalg.det(lp.frames[-1]) == pytest.approx(expected, rel=1e-12)

    def test_p2_closed_form(self):
        # dl = l dlambda gives l_21 = e^{lam_11(t)} int_0^t e^{lam_22 - lam_11} dlam_21
        # (Stratonovich; evaluated with the trapezoid-in-noise rule on the same increments)
        grid = TimeGrid(1.0, 10_000)
        inc = triangular_increments(2, "real", grid, RNG.child(4))
        lp = triangular_from_increments(2, "real", grid, inc)
        l1 = np.concatenate([[0.0], np.cumsum(inc[:, 0, 0])])
        l2 = np.concatenate([[0.0], np.cumsum(inc[:, 1, 1])])
        f = np.exp(l2 - l1)
        strat = np.concatenate([[0.0], np.cumsum(0.5 * (f[:-1] + f[1:]) * inc[:, 1, 0])])
        closed = np.exp(l1) * strat
        rel = abs(lp.frames[-1, 1, 0] - closed[-1]) / abs(closed[-1])
        assert rel <= 5.0 * math.sqrt(grid.dt)

    def test_reproducible(self):
        grid = TimeGrid(0.5, 100)
        a = sample_triangular_bm(2, "real", grid, RNG.child(5)).frames
        b = sample_triangular_bm(2, "real", grid, RNG.child(5)).frames
        assert np.array_equal(a, b)


class TestEtaMatrix:
    def test_p1_reduces_to_scalar_eta(self):
        grid = TimeGrid(1.0, 2000)
        inc = triangular_increments(1, "real", grid, RNG.child(6))
        lp = triangular_from_increments(1, "real", grid, inc)
        driver = ScalarPath(grid, np.concatenate([[0.0], np.cumsum(inc[:, 0, 0])]))
        scalar = eta_functional(driver).values
        _, rad = eta_matrix(lp)
        assert np.max(np.abs(rad[:, 0] - scalar[1:])) < 1e-12

    def test_small_time_slope(self):
        grid = TimeGrid(0.02, 20)
        for i in range(5):
            lp = sample_triangular_bm(2, "complex", grid, RNG.child(40 + i))
            _, rad = eta_matrix(lp, indices=[1])
            assert np.all(rad[0] > grid.dt * 0.8) and np.all(rad[0] < grid.dt * 1.2)

    def test_rows_weakly_decreasing(self):
        grid = TimeGrid(1.0, 300)
        lp = sample_triangular_bm(3, "complex", grid, RNG.child(7))
        _, rad = eta_matrix(lp)
        assert np.all(rad[:, :-1] >= rad[:, 1:] - 1e-14)

    def test_shift_identity(self):
        # SingVal(J l^{*-1}) == SingVal(l^{-1} J) on trajectory frames
        grid = TimeGrid(1.0, 50)
        lp = sample_triangular_bm(2, "complex", grid, RNG.child(8))
        J = integrated_ll_star(lp)
        for k in (10, 30, 50):
            a = singular_values(J[k] @ np.linalg.inv(lp.frames[k].conj().T))
            b = singular_values(np.linalg.inv(lp.frames[k]) @ J[k])
            assert np.max(np.abs(a - b)) < 1e-10


class TestSuSolvable:
    def test_initial_state(self):
        grid = TimeGrid(0.5, 100)
        lsh = sample_triangular_bm(2, "complex", grid, RNG.child(9))
        sp = simulate_su_solvable(2, 30, grid, RNG.child(10), lsh)
        assert np.allclose(sp.l_path.frames[0], np.eye(2))
        assert np.all(sp.b[0] == 0.0) and np.all(sp.c[0] == 0.0)
        assert sp.invariant_defect()[0] == 0.0

    def test_deterministic_debug_product_rule(self):
        # all noises zero except one linear beta entry: c + c* = b b* exactly
        grid = TimeGrid(1.0, 64)
        p, q = 2, 5
        frames = np.broadcast_to(np.eye(p, dtype=complex), (grid.n_steps + 1, p, p)).copy()
        lpath = TriangularPath(p, "complex", grid, frames)
        dbeta = np.zeros((grid.n_steps, p, q - p), dtype=complex)
        dbeta[:, 0, 0] = grid.dt  # beta_{11}(t) = t
        dkappa = np.zeros((grid.n_steps, p, p), dtype=complex)
        sp = su_solvable_from_increments(q, lpath, dbeta, dkappa)
        assert np.max(sp.invariant_defect()) < 1e-15

    def test_invariant_defect_scales_with_dt(self):
        rel = {}
        for n_steps in (500, 1000):
            acc = 0.0
            for i in range(6):
                grid = TimeGrid(1.0, n_steps)
                r = RngStream(900 + i, 0)
                lsh = sample_triangular_bm(2, "complex", grid, r.child(10**6))
                sp = simulate_su_solvable(2, 60, grid, r, lsh)
                scale = 1.0 + np.max(np.abs(sp.b[-1] @ sp.b[-1].conj().T))
                acc += sp.invariant_defect().max() / scale
            rel[n_steps] = acc / 6
        assert 1.2 <= rel[500] / rel[1000] <= 3.2

    def test_q_scaling_of_c(self):
        grid = TimeGrid(1.0, 500)
        r = RngStream(42, 0)
        lsh = sample_triangular_bm(2, "complex", grid, r.child(10**6))
        sp = simulate_su_solvable(2, 800, grid, r, lsh)
        J = integrated_ll_star(lsh)
        ratio = np.real(np.trace(sp.c[-1])) / (800 * np.real(np.trace(J[-1])))
        assert ratio == pytest.approx(2.0, abs=0.3)

    def test_nested_transverse_columns(self):
        grid = TimeGrid(0.5, 100)
        r = RngStream(11, 0)
        db_small, dk_small = su_noise_increments(2, 20, "complex", grid, r)
        db_large, dk_large = su_noise_increments(2, 50, "complex", grid, r)
        assert np.array_equal(db_small, db_large[:, :, : 20 - 2])
        assert np.array_equal(dk_small, dk_large)
        # the integrated paths agree to round-off (BLAS summation order differs by shape)
        lsh = sample_triangular_bm(2, "complex", grid, r.child(10**6))
        small = simulate_su_solvable(2, 20, grid, r, lsh)
        large = simulate_su_solvable(2, 50, grid, r, lsh)
        assert np.max(np.abs(small.b[-1] - large.b[-1][:, : 20 - 2])) < 1e-12

    def test_grid_mismatch_rejected(self):
        lsh = sample_triangular_bm(2, "complex", TimeGrid(1.0, 100), RNG.child(11))
        with pytest.raises(ValueError):
            simulate_su_solvable(2, 10, TimeGrid(1.0, 200), RNG.child(12), lsh)


class TestFiniteQRadial:
    def test_zero_at_origin(self):
        grid = TimeGrid(0.5, 100)
        lsh = sample_triangular_bm(2, "complex", grid, RNG.child(13))
        sp = simulate_su_solvable(2, 30, grid, RNG.child(14), lsh)
        _, rad = finite_q_radial(sp, indices=[0])
        assert np.allclose(rad[0], 0.0)

    def test_flat_limit_toward_eta(self):
        grid = TimeGrid(1.0, 500)
        r = RngStream(4242, 0)
        lsh = sample_triangular_bm(2, "complex", grid, r.child(10**6))
        _, target = eta_matrix(lsh, indices=[500])
        errs = []
        for q in (50, 800):
            sp = simulate_su_solvable(2, q, grid, r.child(1), lsh)
            _, rad = finite_q_radial(sp, indices=[500])
            errs.append(np.max(np.abs(np.cosh(rad) / q - target)))
        assert errs[1] < errs[0]

    @pytest.mark.slow
    def test_p1_matches_hyperbolic_radial_in_law(self):
        # same law, different couplings: two-sample KS at 1% must not reject
        q, n_rep, t = 50, 500, 1.0
        grid = TimeGrid(t, 250)
        a = np.empty(n_rep)
        b = np.empty(n_rep)
        for i in range(n_rep):
            r = RngStream(31_000 + i, 0)
            lsh = sample_triangular_bm(1, "real", grid, r.child(10**6))
            sp = simulate_su_solvable(1, q, grid, r, lsh)
            _, rad = finite_q_radial(sp, indices=[grid.n_steps])
            a[i] = rad[0, 0]
            bm = ScalarPath(grid, np.log(lsh.frames[:, 0, 0]))
            b[i] = hyperbolic_radial(q, bm, r.child(5)).values[-1]
        from myproc.stats import SampleBatch, ks_two_sample

        rep = ks_two_sample(SampleBatch(a), SampleBatch(b), level=0.01)
        assert rep.passed, rep.as_dict()


class TestCsv:
    def test_radial_csv(self):
        buf = io.StringIO()
        radial_to_csv([0.0, 0.5], np.array([[0.0, 0.0], [2.0, 1.0]]), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,r_1,r_2"
        assert lines[2].startswith("0.5,2")
