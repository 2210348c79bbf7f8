import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from myproc.paths import my_drift
from myproc.specialfn import (
    Multiplicities,
    gamma,
    ktilde_det,
    log_a_normalizer,
    log_c_function,
    macdonald_k,
    macdonald_k_dlambda,
    macdonald_ratio,
)

from oracles import central_even_derivative, macdonald_raw_integral

SQRT_PI = 1.7724538509055160273


class TestGamma:
    def test_classical_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-13)

    def test_accuracy_against_stdlib(self):
        for z in np.linspace(0.05, 50.0, 700):
            assert gamma(float(z)) == pytest.approx(math.gamma(z), rel=1e-12)

    def test_log_abs_gamma_large_argument(self):
        # a(q) at m_alpha = 510 needs log Gamma(510), far beyond the range of Gamma itself
        expected = float(mpmath.log(mpmath.gamma(255) ** 2 / (mpmath.gamma(510) * 2)))
        assert log_a_normalizer(Multiplicities(510, 0)) == pytest.approx(expected, rel=1e-13)

    def test_poles(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError):
                gamma(z)

    def test_reflection_and_sign(self):
        assert gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-12)
        assert gamma(-1.5) == pytest.approx(4.0 * SQRT_PI / 3.0, rel=1e-12)


class TestMacdonald:
    def test_half_integer_closed_form(self):
        # K_{1/2}(x) = sqrt(pi / 2x) e^{-x}
        assert macdonald_k(0.5, 2.0) == pytest.approx(0.11993777196806145, abs=1e-13)

    def test_against_raw_integral_oracle(self):
        for lam, x in [(0.0, 1.0), (0.3, 0.5), (1.2, 3.0), (0.0, 0.05)]:
            assert macdonald_k(lam, x) == pytest.approx(macdonald_raw_integral(lam, x), abs=1e-10)

    def test_symmetry_is_exact(self):
        assert macdonald_k(0.7, 1.3) == macdonald_k(-0.7, 1.3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            macdonald_k(0.3, -1.0)
        with pytest.raises(ValueError):
            macdonald_k(0.3, 0.0)

    def test_array_input(self):
        xs = np.array([0.3, 1.0, 4.0])
        vec = macdonald_k(0.4, xs)
        assert vec.shape == (3,)
        for i, x in enumerate(xs):
            assert vec[i] == pytest.approx(macdonald_k(0.4, float(x)), rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(hst.floats(-3.0, 3.0), hst.floats(0.01, 10.0))
    def test_symmetry_property(self, lam, x):
        assert abs(macdonald_k(lam, x) - macdonald_k(-lam, x)) <= 1e-9

    def test_k0_positive_strictly_decreasing(self):
        xs = np.linspace(0.05, 10.0, 60)
        vals = macdonald_k(0.0, xs)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_ratio_matches_direct_quotient(self):
        assert macdonald_ratio(0.8, 2.0) == pytest.approx(
            macdonald_k(0.8, 2.0) / macdonald_k(0.0, 2.0), rel=1e-12)

    def test_ratio_stable_at_huge_argument(self):
        # direct K underflows near x ~ 750; the ratio must stay finite and ~ 1
        val = macdonald_ratio(1.0, 900.0)
        assert 1.0 < val < 1.01


class TestMacdonaldDerivatives:
    def test_zeroth_derivative(self):
        assert macdonald_k_dlambda(0, 1.5) == pytest.approx(macdonald_k(0.0, 1.5), rel=1e-13)

    def test_odd_derivatives_vanish(self):
        assert macdonald_k_dlambda(1, 1.5) == 0.0
        assert macdonald_k_dlambda(3, 0.7) == 0.0

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_against_finite_differences(self, order, x):
        got = macdonald_k_dlambda(order, x)
        ref = central_even_derivative(lambda lam: macdonald_k(lam, x), order, 1e-3 if order == 2 else 5e-2)
        assert got == pytest.approx(ref, rel=1e-5)

    def test_dx_is_minus_k1_at_order_zero(self):
        # K_0' = -K_1, so my_drift(r, 0) = -x K_0'(x) / K_0(x) = x K_1(x) / K_0(x) at x = e^{-r}
        x = 0.4
        expected = x * macdonald_k(1.0, x) / macdonald_k(0.0, x)
        assert my_drift(-math.log(x), 0.0) == pytest.approx(expected, rel=1e-12)

    def test_dx_against_finite_difference(self):
        # the x-derivative quadrature behind my_drift: K'(x) = -K(x) my_drift(-log x) / x
        h, x = 1e-5, 2.0
        fd = (macdonald_k(0.3, x + h) - macdonald_k(0.3, x - h)) / (2.0 * h)
        dx = -macdonald_k(0.3, x) * my_drift(-math.log(x), 0.3) / x
        assert dx == pytest.approx(fd, rel=1e-8)


class TestKtildeDet:
    def test_p1_reduces_to_k0(self):
        assert ktilde_det([0.4]) == pytest.approx(macdonald_k(0.0, math.exp(-0.4)), rel=1e-13)

    def test_equal_rows_vanish(self):
        assert ktilde_det([1.0, 1.0]) == 0.0

    def test_cofactor_expansion(self):
        r = (1.2, 0.3)
        x = [math.exp(-v) for v in r]
        expected = (macdonald_k_dlambda(0, x[0]) * macdonald_k_dlambda(2, x[1])
                    - macdonald_k_dlambda(2, x[0]) * macdonald_k_dlambda(0, x[1]))
        assert ktilde_det(r) == pytest.approx(expected, rel=1e-12)

    def test_accepts_chamber_vector(self):
        assert ktilde_det(np.array([1.2, 0.3])) == ktilde_det((1.2, 0.3))

    def test_vanishing_at_coincidence(self):
        near = abs(ktilde_det([1.0 + 1e-4, 1.0]))
        far = abs(ktilde_det([1.5, 1.0]))
        assert near <= 1e-3 * far


class TestConstants:
    def test_c_function_su_example(self):
        mult = Multiplicities(8, 1)
        expected = 2**4.8 * math.gamma(5.0) / (math.gamma(2.6) * math.gamma(2.6))
        assert math.exp(log_c_function(0.2, mult)) == pytest.approx(expected, rel=1e-12)

    def test_c_function_so_example(self):
        mult = Multiplicities(3, 0)
        expected = 2**1.2 * math.gamma(2.0) / (math.gamma(1.4) * math.gamma(0.9))
        assert math.exp(log_c_function(0.3, mult)) == pytest.approx(expected, rel=1e-12)

    def test_a_normalizer_values(self):
        for mult, expected in ((Multiplicities(2, 0), 0.5), (Multiplicities(4, 0), 1.0 / 12.0),
                               (Multiplicities(2, 1), 2.0**-2.5)):
            assert math.exp(log_a_normalizer(mult)) == pytest.approx(expected, rel=1e-12)

    def test_a_normalizer_domain(self):
        with pytest.raises(ValueError):
            log_a_normalizer(Multiplicities(1, 0))


class TestDomainTypes:
    @pytest.mark.parametrize("group,q,expected", [
        ("SO", 7, (6, 0)),
        ("SU", 7, (12, 1)),
        ("Sp", 7, (24, 3)),
    ])
    def test_group_multiplicities(self, group, q, expected):
        m = Multiplicities.from_group(group, q)
        assert (m.m_alpha, m.m_2alpha) == expected

    def test_rho(self):
        assert Multiplicities(8, 1).rho == 5.0

    def test_rho_nonnegative(self):
        assert Multiplicities(0, 0).rho == 0.0

    def test_invalid_group(self):
        with pytest.raises(ValueError):
            Multiplicities.from_group("SL", 3)

    def test_negative_multiplicity(self):
        with pytest.raises(ValueError):
            Multiplicities(-1, 0)
