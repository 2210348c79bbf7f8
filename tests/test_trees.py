from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from myproc.trees import (
    ExactDistribution,
    ExactKernel,
    QPow,
    bessel3_kernel,
    exact_distribution,
    distribution_to_strings,
    graph_distance_marginal,
    graph_kernel,
    ground_state_kernel,
    phi0_tree,
    pitman_walk_distribution,
    radial_kernel,
    tree_spectral_radius,
)

from oracles import pitman_walk_enumeration


class TestQPow:
    def test_normalization_canonical(self):
        a = QPow(Fraction(3), 2, 4)   # 3 q = 12
        assert a.normalized() == QPow(Fraction(12), 0, 4)
        b = QPow(Fraction(8), -1, 4)  # 8 q^{-1/2} = 2 q^{1/2}
        assert b.normalized() == QPow(Fraction(2), 1, 4)

    def test_addition_requires_matching_grade(self):
        with pytest.raises(ValueError):
            _ = QPow(Fraction(1), 1, 4) + QPow(Fraction(1), 0, 4)

    def test_rational_extraction_guards(self):
        assert (QPow(Fraction(3), 1, 4) / QPow(Fraction(1), 1, 4)).rational() == 3
        with pytest.raises(ValueError):
            QPow(Fraction(1), 1, 4).rational()

    @settings(max_examples=40, deadline=None)
    @given(hst.integers(-6, 6), hst.integers(-6, 6),
           hst.fractions(min_value=-5, max_value=5), hst.fractions(min_value=-5, max_value=5))
    def test_multiplication_adds_grades(self, h1, h2, c1, c2):
        a, b = QPow(c1, h1, 9), QPow(c2, h2, 9)
        prod = a * b
        assert prod.half == h1 + h2 and prod.coef == c1 * c2

        def squared_value(x):  # (coef q^(half/2))^2, exact
            n = x.normalized()
            return n.coef**2 * Fraction(9) ** n.half

        assert squared_value(prod) == squared_value(a) * squared_value(b)


class TestRadialKernel:
    def test_forced_first_step(self):
        assert radial_kernel(5).row(0) == [(1, Fraction(1))]

    def test_interior_values(self):
        row = dict(radial_kernel(5).row(3))
        assert row[2] == Fraction(1, 6)
        assert row[4] == Fraction(5, 6)

    def test_row_sums_exact(self):
        k = radial_kernel(7)
        for n in range(51):
            assert sum(p for _, p in k.row(n)) == 1

    def test_q_validation(self):
        with pytest.raises(ValueError):
            radial_kernel(1)


class TestGroundState:
    def test_phi0_values(self):
        assert phi0_tree(0, 5).rational() == 1
        v = phi0_tree(2, 4).normalized()
        assert v == QPow(Fraction(11, 20), 0, 4)  # (1 + 2*3/5) / 4

    def test_eigenfunction_identity_exact(self):
        q = 4
        k = radial_kernel(q)
        rho = tree_spectral_radius(q)
        for n in range(31):
            acc = None
            for m, p in k.transition(n):
                term = QPow(p, 0, q) * phi0_tree(m, q)
                acc = term if acc is None else acc + term
            assert acc.normalized() == (rho * phi0_tree(n, q)).normalized()

    def test_forced_first_step(self):
        assert ground_state_kernel(6).row(0) == [(1, Fraction(1))]

    def test_simplified_formula(self):
        for q in (2, 4, 9):
            assert dict(ground_state_kernel(q).row(1))[2] == Fraction(3 * q - 1, 4 * q)

    def test_rows_sum_exactly_one(self):
        k = ground_state_kernel(3)
        for n in range(40):
            assert sum(p for _, p in k.row(n)) == 1

    def test_limit_is_bessel3(self):
        # n = 0 is exact at every q (forced step); the gap shrinks for n >= 1
        b = bessel3_kernel()
        for n in range(1, 8):
            up_b = dict(b.row(n))[n + 1]
            gap_prev = abs(dict(ground_state_kernel(100).row(n))[n + 1] - up_b)
            gap_next = abs(dict(ground_state_kernel(1000).row(n))[n + 1] - up_b)
            assert gap_next < gap_prev


class TestBessel3:
    def test_values(self):
        b = bessel3_kernel()
        assert b.row(0) == [(1, Fraction(1))]
        row = dict(b.row(1))
        assert row[2] == Fraction(3, 4) and row[0] == Fraction(1, 4)

    def test_row_sums(self):
        b = bessel3_kernel()
        for n in range(30):
            assert sum(p for _, p in b.row(n)) == 1


class TestGraphKernel:
    def test_diagonal_moves(self):
        row = dict(graph_kernel(3).row((0, 0)))
        assert row[(1, 1)] == Fraction(1, 2)
        assert row[(-1, -1)] == Fraction(1, 6)
        assert row[(1, -1)] == Fraction(1, 3)

    def test_limit_kernel(self):
        row = dict(graph_kernel(limit=True).row((2, 2)))
        assert row.get((1, 1), Fraction(0)) == 0
        assert row[(3, 3)] == Fraction(1, 2)
        assert row[(3, 1)] == Fraction(1, 2)

    def test_interior_moves(self):
        row = dict(graph_kernel(5).row((4, 0)))
        assert row[(3, 1)] == Fraction(1, 2)
        assert row[(5, -1)] == Fraction(1, 2)

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            graph_kernel(3).row((1, 0))


class TestExactDistribution:
    def test_point_mass_at_zero_steps(self):
        d = exact_distribution(bessel3_kernel(), 0, 0)
        assert d == {0: Fraction(1)}

    def test_two_step_bessel(self):
        d = exact_distribution(bessel3_kernel(), 0, 2)
        assert d == {0: Fraction(1, 4), 2: Fraction(3, 4)}

    def test_mass_conservation_50_steps(self):
        d = exact_distribution(radial_kernel(3), 0, 50)
        assert d.total() == 1

    def test_cap(self):
        with pytest.raises(RuntimeError):
            exact_distribution(graph_kernel(2), (0, 0), 12, cap=10)


class TestPitmanWalk:
    def test_one_step(self):
        assert pitman_walk_distribution(1) == {1: Fraction(1)}

    def test_two_steps(self):
        assert pitman_walk_distribution(2) == {0: Fraction(1, 4), 2: Fraction(3, 4)}

    @pytest.mark.parametrize("n", range(0, 13))
    def test_enumeration_oracle(self, n):
        assert pitman_walk_distribution(n) == pitman_walk_enumeration(n)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 20, 24])
    def test_equals_bessel3_law(self, n):
        assert pitman_walk_distribution(n) == exact_distribution(bessel3_kernel(), 0, n)

    def test_string_encoding(self):
        enc = distribution_to_strings(pitman_walk_distribution(2))
        assert enc == {"0": "1/4", "2": "3/4"}


class TestSameLaw:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_distance_marginal_matches_ground_state(self, q):
        gk = graph_kernel(q)
        r0 = ground_state_kernel(q)
        for n in range(21):
            lhs = graph_distance_marginal(exact_distribution(gk, (0, 0), n))
            rhs = exact_distribution(r0, 0, n)
            assert lhs == rhs, (q, n)

    def test_x_marginal_differs_at_finite_q(self):
        # below-origin diagonal mass makes the raw x-marginal differ from the
        # distance law at finite q (they agree on the limit walk)
        d = exact_distribution(graph_kernel(2), (0, 0), 1)
        x_law = d.marginal(lambda s: s[0])
        assert x_law != graph_distance_marginal(d)
        assert x_law[-1] == Fraction(1, 4)

    def test_limit_x_marginal_is_pitman(self):
        d = exact_distribution(graph_kernel(limit=True), (0, 0), 14)
        assert d.marginal(lambda s: s[0]) == pitman_walk_distribution(14)

    def test_limit_state_invariant(self):
        d = exact_distribution(graph_kernel(limit=True), (0, 0), 15)
        assert all(x >= abs(y) and (x - y) % 2 == 0 for (x, y) in d)


class TestRatesAndSpectra:
    def test_kernel_convergence_rate(self):
        b = bessel3_kernel()

        def err(q):
            gs = ground_state_kernel(q)
            return max(abs(dict(gs.row(n))[n + 1] - dict(b.row(n))[n + 1]) for n in range(11))

        for q in (4, 16, 64):
            ratio = err(q) / err(4 * q)
            assert Fraction(7, 2) <= ratio <= Fraction(9, 2)

    def test_height_chain_spectral_identity(self):
        # height (Busemann) walk on Z: down 1/(q+1), up q/(q+1)
        q = 7
        k = ExactKernel("Z", lambda n: [(n - 1, Fraction(1, q + 1)), (n + 1, Fraction(q, q + 1))])
        rho = tree_spectral_radius(q)
        for n in (-4, 0, 3):
            acc = None
            for m, p in k.transition(n):
                term = QPow(p, 0, q) * QPow(Fraction(1), -m, q)
                acc = term if acc is None else acc + term
            assert acc.normalized() == (rho * QPow(Fraction(1), -n, q)).normalized()

    def test_marginal_helper(self):
        d = ExactDistribution({(2, 0): Fraction(1, 2), (0, -2): Fraction(1, 2)})
        m = d.marginal(lambda s: s[0])
        assert m == {2: Fraction(1, 2), 0: Fraction(1, 2)}
