from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from myproc import trees
from myproc.trees import (
    ExactKernel,
    QPow,
    bessel3_kernel,
    exact_distribution,
    distribution_to_strings,
    graph_distance,
    graph_kernel,
    ground_state_kernel,
    phi0_tree,
    pitman_walk_distribution,
    radial_kernel,
    tree_spectral_radius,
)

from oracles import exact_distribution_fractions, pitman_walk_enumeration, walk_with_max


def _counted(transition):
    """A kernel over transition that records each state whose row it is asked for."""
    calls = []

    def counted(state):
        calls.append(state)
        return transition(state)

    return ExactKernel(counted), calls


class TestQPow:
    @settings(max_examples=60, deadline=None)
    @given(hst.integers(-6, 6), hst.fractions(min_value=-5, max_value=5), hst.integers(2, 9))
    def test_rational_is_the_exact_value(self, half, coef, q):
        x = QPow(coef, half, q)
        if half % 2 == 0:  # q^(half/2) as an integer power or its reciprocal
            assert x.rational() == (coef * q ** (half // 2) if half >= 0 else coef / q ** (-half // 2))
        elif coef != 0:
            with pytest.raises(ValueError, match="did not cancel"):
                x.rational()

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
            return x.coef**2 * Fraction(9) ** x.half

        assert squared_value(prod) == squared_value(a) * squared_value(b)

    def test_float_operand_rejected(self):
        a = QPow(Fraction(1), 0, 4)
        for other in (0.1, 3, Fraction(1, 2)):
            for op in (lambda: a * other, lambda: other * a, lambda: a / other):
                with pytest.raises(TypeError, match=type(other).__name__):
                    op()
        with pytest.raises(ValueError, match="different q"):
            _ = a * QPow(Fraction(1), 0, 5)


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
        v = phi0_tree(2, 4).rational()
        assert v == Fraction(11, 20)  # (1 + 2*3/5) / 4

    def test_eigenfunction_identity_exact(self):
        q = 4
        k = radial_kernel(q)
        rho = tree_spectral_radius(q)
        for n in range(31):
            # each term over rho phi_0(n) is rational (its grading asserted) and the terms sum to 1
            terms = [QPow(p, 0, q) * phi0_tree(m, q) / (rho * phi0_tree(n, q)) for m, p in k.transition(n)]
            assert sum(term.rational() for term in terms) == 1

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
        row = dict(graph_kernel().row((2, 2)))
        assert row.get((1, 1), Fraction(0)) == 0
        assert row[(3, 3)] == Fraction(1, 2)
        assert row[(3, 1)] == Fraction(1, 2)

    def test_q_below_two_rejected(self):
        # q = None, not a sentinel q, is the flat limit
        for q in (0, 1):
            with pytest.raises(ValueError, match="q must be >= 2"):
                graph_kernel(q)

    def test_interior_moves(self):
        row = dict(graph_kernel(5).row((4, 0)))
        assert row[(3, 1)] == Fraction(1, 2)
        assert row[(5, -1)] == Fraction(1, 2)

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            graph_kernel(3).row((1, 0))

    def test_limit_is_walk_with_max(self):
        # the flat-limit row at (2M - S, S) is the (S, M) chain's row under (S, M) -> (2M - S, S), in order
        def fold(sm):
            return 2 * sm[1] - sm[0], sm[0]

        limit, chain = graph_kernel(), ExactKernel(walk_with_max)
        for m in range(31):
            for s in range(-30, m + 1):
                assert limit.row(fold((s, m))) == [(fold(t), p) for t, p in chain.row((s, m))], (s, m)


class TestExactDistribution:
    def test_point_mass_at_zero_steps(self):
        assert exact_distribution(bessel3_kernel(), 0, 0) == [{0: Fraction(1)}]

    def test_two_step_bessel(self):
        laws = exact_distribution(bessel3_kernel(), 0, 2)
        assert laws == [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1, 4), 2: Fraction(3, 4)}]

    def test_mass_conservation_50_steps(self):
        laws = exact_distribution(radial_kernel(3), 0, 50)
        assert len(laws) == 51
        assert all(sum(d.values()) == 1 for d in laws)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(trees, "_MAX_STATES", 10)
        with pytest.raises(RuntimeError):
            exact_distribution(graph_kernel(2), (0, 0), 12)
        with pytest.raises(RuntimeError):  # the cap counts the chain's states, not the image's keys
            exact_distribution(graph_kernel(2), (0, 0), 12, image=lambda state: 0)

    def test_each_row_fetched_once(self):
        kernel, calls = _counted(bessel3_kernel().transition)
        laws = exact_distribution(kernel, 0, 30)
        expanded = set().union(*laws[:-1])
        assert sorted(calls) == sorted(expanded) == list(range(30))

    def test_zero_mass_target_kept_but_never_expanded(self):
        # every state n >= 0 moves up surely and to -1 with probability 0
        def transition(n):
            return [(-1, Fraction(0)), (n + 1, Fraction(1))]

        kernel, calls = _counted(transition)
        laws = exact_distribution(kernel, 0, 6)
        oracle = exact_distribution_fractions(ExactKernel(transition), 0, 6)
        assert [list(law.items()) for law in laws] == [list(law.items()) for law in oracle]
        assert all(law[-1] == 0 for law in laws[1:])
        assert sorted(calls) == list(range(6))

    def test_float_probability_rejected(self):
        kernel = ExactKernel(lambda n: [(n - 1, 0.5), (n + 1, 0.5)])
        with pytest.raises(TypeError, match=r"at 0 is a float"):
            exact_distribution(kernel, 0, 3)
        with pytest.raises(TypeError, match=r"at 7 is a float"):
            kernel.row(7)

    def test_row_checks_messages(self):
        too_much = ExactKernel(lambda n: [(n - 1, Fraction(1, 2)), (n + 1, Fraction(1))])
        with pytest.raises(AssertionError, match=r"^row at 0 sums to 3/2, not 1$"):
            exact_distribution(too_much, 0, 1)
        negative = ExactKernel(lambda n: [(n - 1, Fraction(-1, 2)), (n + 1, Fraction(3, 2))])
        with pytest.raises(AssertionError, match=r"^negative probability at 0$"):
            exact_distribution(negative, 0, 1)

    def test_integer_weights_over_row_lcm(self):
        assert ExactKernel(lambda n: [(0, Fraction(1, 6)), (1, 0), (2, Fraction(5, 6))]).weights(0) == (
            6, [(0, 1), (1, 0), (2, 5)])
        assert ground_state_kernel(3).weights(1) == (3, [(0, 1), (2, 2)])


_ORACLE_CHAINS = {
    "radial-3": (radial_kernel(3), 0),
    "ground-2": (ground_state_kernel(2), 0),
    "ground-3": (ground_state_kernel(3), 0),
    "ground-5": (ground_state_kernel(5), 0),
    "bessel3": (bessel3_kernel(), 0),
    "graph-2": (graph_kernel(2), (0, 0)),
    "graph-3": (graph_kernel(3), (0, 0)),
    "graph-limit": (graph_kernel(), (0, 0)),
    "walk-with-max": (ExactKernel(walk_with_max), (0, 0)),
    # every state moves up surely and to -1 with probability 0
    "zero-target": (ExactKernel(lambda n: [(-1, Fraction(0)), (n + 1, Fraction(1))]), 0),
}

_IMAGES = {
    "distance": graph_distance,
    "x": lambda state: state[0],
    "pitman": lambda sm: 2 * sm[1] - sm[0],
    "sign": lambda n: n < 0,  # one zero-mass key from step 1 on
}


class TestOracleEquivalence:
    @pytest.mark.parametrize("chain", sorted(_ORACLE_CHAINS))
    def test_laws_match_fraction_engine(self, chain):
        kernel, start = _ORACLE_CHAINS[chain]
        laws = exact_distribution(kernel, start, 20)
        oracle = exact_distribution_fractions(kernel, start, 20)
        assert [list(law.items()) for law in laws] == [list(law.items()) for law in oracle]
        assert all(type(m) is Fraction for law in laws for m in law.values())

    @pytest.mark.parametrize("chain, image", [
        ("graph-3", "distance"), ("graph-3", "x"), ("graph-2", "distance"), ("graph-2", "x"),
        ("graph-limit", "distance"), ("graph-limit", "x"), ("walk-with-max", "pitman"), ("zero-target", "sign"),
    ])
    def test_push_forward_matches_fraction_sum(self, chain, image):
        kernel, start = _ORACLE_CHAINS[chain]
        fn = _IMAGES[image]
        laws = exact_distribution(kernel, start, 20, image=fn)
        oracle = []
        for law in exact_distribution_fractions(kernel, start, 20):
            pushed = {}
            for state, mass in law.items():
                pushed[fn(state)] = pushed.get(fn(state), Fraction(0)) + mass
            oracle.append(pushed)
        assert [list(law.items()) for law in laws] == [list(law.items()) for law in oracle]
        assert all(type(m) is Fraction for law in laws for m in law.values())
        assert list(exact_distribution(kernel, start, 0, image=fn)[0].items()) == [(fn(start), Fraction(1))]


@pytest.fixture(scope="module")
def bessel3_laws():
    """Discrete Bessel(3) laws at steps 0..24 from 0, from one run of the chain."""
    return exact_distribution(bessel3_kernel(), 0, 24)


@pytest.fixture(scope="module")
def pitman_laws():
    """Laws of 2M - S at steps 0..24, from one run of the flat-limit folded walk."""
    return pitman_walk_distribution(24)


class TestPitmanWalk:
    def test_one_step(self):
        assert pitman_walk_distribution(1) == [{0: Fraction(1)}, {1: Fraction(1)}]

    def test_two_steps(self):
        assert pitman_walk_distribution(2)[-1] == {0: Fraction(1, 4), 2: Fraction(3, 4)}

    @pytest.mark.parametrize("n", range(0, 13))
    def test_enumeration_oracle(self, pitman_laws, n):
        assert pitman_laws[n] == pitman_walk_enumeration(n)

    @pytest.mark.parametrize("n", range(0, 25))
    def test_equals_bessel3_law(self, pitman_laws, bessel3_laws, n):
        assert pitman_laws[n] == bessel3_laws[n]

    def test_walk_with_max_chain(self, pitman_laws):
        # the (S, M) chain pushed forward by 2M - S gives the same laws, key order included
        laws = exact_distribution(ExactKernel(walk_with_max), (0, 0), 24, image=lambda sm: 2 * sm[1] - sm[0])
        assert [list(law.items()) for law in laws] == [list(law.items()) for law in pitman_laws]

    def test_string_encoding(self):
        enc = distribution_to_strings(pitman_walk_distribution(2)[-1])
        assert enc == {"0": "1/4", "2": "3/4"}


class TestSameLaw:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_distance_marginal_matches_ground_state(self, q):
        graph = exact_distribution(graph_kernel(q), (0, 0), 20, image=graph_distance)
        ground = exact_distribution(ground_state_kernel(q), 0, 20)
        assert len(graph) == len(ground) == 21
        for n, (g, r) in enumerate(zip(graph, ground)):
            assert g == r, (q, n)

    def test_x_marginal_differs_at_finite_q(self):
        # below-origin diagonal mass makes the raw x-marginal differ from the
        # distance law at finite q (they agree on the limit walk)
        x_law = exact_distribution(graph_kernel(2), (0, 0), 1, image=lambda s: s[0])[-1]
        assert x_law != exact_distribution(graph_kernel(2), (0, 0), 1, image=graph_distance)[-1]
        assert x_law[-1] == Fraction(1, 4)

    def test_limit_x_marginal_is_pitman(self, pitman_laws):
        x_law = exact_distribution(graph_kernel(), (0, 0), 14, image=lambda s: s[0])[-1]
        assert x_law == pitman_laws[14]

    def test_limit_state_invariant(self):
        d = exact_distribution(graph_kernel(), (0, 0), 15)[-1]
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
        k = ExactKernel(lambda n: [(n - 1, Fraction(1, q + 1)), (n + 1, Fraction(q, q + 1))])
        rho = tree_spectral_radius(q)
        for n in (-4, 0, 3):
            terms = [QPow(p, 0, q) * QPow(Fraction(1), -m, q) / (rho * QPow(Fraction(1), -n, q))
                     for m, p in k.transition(n)]
            assert sum(term.rational() for term in terms) == 1
