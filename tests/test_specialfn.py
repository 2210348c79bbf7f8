import cmath
import math
import threading
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.special import kve

from myproc.paths import my_drift
from myproc import specialfn
from myproc.series import g_q_even_derivative
from myproc.specialfn import (
    Multiplicities,
    gamma,
    ktilde_det,
    log_a_normalizer,
    log_c_function,
    loggamma,
    macdonald_k,
    macdonald_k_dlambda,
    macdonald_ratio,
)

from oracles import central_even_derivative, macdonald_raw_integral, scaled_macdonald_integral_serial

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

    @pytest.mark.parametrize("z", [0.25, 0.25j, 0.1 + 0.23j, -0.23 + 0.1j, -2.7 + 1.0j, 1.0 + 0.25j,
                                   3.3 - 2.0j, 31.0 + 0.125j, 256.0 + 0.3j, 255.9 - 0.2j])
    def test_complex_loggamma_against_mpmath(self, z):
        # exp(loggamma) is Gamma: compare the difference modulo 2 pi i (reflection picks its own
        # branch), to round-off of a log of that size
        with mpmath.workdps(30):
            ref = complex(mpmath.loggamma(z))
        assert abs(cmath.exp(loggamma(z) - ref) - 1.0) <= 1e-15 * max(1.0, abs(ref))
        if z.real >= 0.5:
            assert abs(loggamma(z) - ref) <= 2e-15 * max(1.0, abs(ref))

    def test_complex_loggamma_poles(self):
        for z in (0j, -1 + 0j, -3 + 0j):
            with pytest.raises(ValueError):
                loggamma(z)


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

    def test_odd_orders_rejected(self):
        # K is even in lam; an odd order is a caller's error, as in series.even_lambda_derivatives
        for order, x in ((1, 1.5), (3, 0.7)):
            with pytest.raises(ValueError, match="even"):
                macdonald_k_dlambda(order, x)
        with pytest.raises(ValueError, match="even"):
            g_q_even_derivative(1, 1.0, Multiplicities(2, 0))

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


ORACLE_XS = np.array([1e-7, 1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0, 900.0, 1100.0])


class TestFixedRule:
    """The fixed 128-panel rule against independent references, and its pointwise independence."""

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
    def test_ratio_against_scipy(self, lam):
        ref = kve(lam, ORACLE_XS) / kve(0.0, ORACLE_XS)
        assert np.max(np.abs(macdonald_ratio(lam, ORACLE_XS) / ref - 1.0)) <= 1e-13

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
    def test_drift_against_scipy(self, lam):
        # -x K_lam'(x) / K_lam(x) with 2 K_lam' = -(K_{lam-1} + K_{lam+1})
        x = ORACLE_XS
        ref = x * (kve(lam - 1.0, x) + kve(lam + 1.0, x)) / (2.0 * kve(lam, x))
        assert np.max(np.abs(my_drift(-np.log(x), lam) / ref - 1.0)) <= 1e-13

    @pytest.mark.parametrize("order", [2, 4])
    def test_lambda_derivatives_against_mpmath(self, order):
        for x in (1e-4, 0.1, 1.0, 10.0):
            with mpmath.workdps(30):
                ref = float(mpmath.diff(lambda lam: mpmath.besselk(lam, x), 0, order))
            assert macdonald_k_dlambda(order, x) == pytest.approx(ref, rel=1e-13)

    def test_array_entries_equal_scalar_calls(self):
        # a point's value depends neither on the other points of the call
        # nor on the block of points it is evaluated in
        assert macdonald_ratio(0.5, np.array([0.001, 3.0]))[1] == macdonald_ratio(0.5, 3.0)
        assert isinstance(macdonald_ratio(0.5, 3.0), float)
        xs = np.geomspace(1e-7, 900.0, 4200).reshape(2, 2100)
        rs = -np.log(xs)
        ratio, drift, k2 = macdonald_ratio(1.0, xs), my_drift(rs, 0.5), macdonald_k_dlambda(2, xs)
        assert ratio.shape == drift.shape == k2.shape == xs.shape
        for i, j in [(0, 0), (0, 2099), (1, 1995), (1, 1996), (1, 2099)]:
            x = float(xs[i, j])
            assert ratio[i, j] == macdonald_ratio(1.0, x)
            assert drift[i, j] == my_drift(float(rs[i, j]), 0.5)
            assert k2[i, j] == macdonald_k_dlambda(2, x)


def _serial_drift(x, lam):
    """my_drift(-log x, lam) on the single-thread rule."""
    y = np.exp(np.log(x))  # the point my_drift recovers from r = -log x
    return y * scaled_macdonald_integral_serial(y, lam, dx_weight=1, per=(lam, 0))


# each case: the library function of x, and the same on the single-thread rule
SPLIT_CASES = {
    "macdonald_ratio": (lambda x: macdonald_ratio(0.5, x),
                        lambda x: scaled_macdonald_integral_serial(x, 0.5, per=(0.0, 0))),
    "my_drift(lam=0)": (lambda x: my_drift(-np.log(x)), lambda x: _serial_drift(x, 0.0)),
    "my_drift(lam=0.5)": (lambda x: my_drift(-np.log(x), 0.5), lambda x: _serial_drift(x, 0.5)),
    "macdonald_k": (lambda x: macdonald_k(0.7, x), lambda x: np.exp(-x) * scaled_macdonald_integral_serial(x, 0.7)),
    "macdonald_k_dlambda(2)": (lambda x: macdonald_k_dlambda(2, x),
                               lambda x: np.exp(-x) * scaled_macdonald_integral_serial(x, moment=2)),
}
SPLIT_XS = np.exp(np.random.default_rng(40).uniform(math.log(1e-7), math.log(900.0), 100_000))


class TestSplitQuadrature:
    """A call of more than one block of 256 points runs its odd blocks on one helper thread: the
    values are the single-thread rule's bit for bit, the caller's errstate and every error of the
    helper's blocks reach the caller, and no thread outlives the call."""

    # one point (no thread), one block short, full and one past it, three blocks, and my-generator's size
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 100_000])
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_equals_single_thread_rule(self, case, n):
        library, serial = SPLIT_CASES[case]
        before = threading.active_count()
        got = library(SPLIT_XS[:n])
        assert threading.active_count() == before
        assert np.array_equal(got, serial(SPLIT_XS[:n]))

    def test_one_block_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("thread started")

        monkeypatch.setattr(specialfn, "threading", SimpleNamespace(Thread=no_thread))
        macdonald_ratio(0.5, SPLIT_XS[:256])
        with pytest.raises(AssertionError, match="thread started"):
            macdonald_ratio(0.5, SPLIT_XS[:257])

    @staticmethod
    def _overflow_in_helper_block() -> np.ndarray:
        # 1 / 1e-310 overflows in the window of point 300, in block 1 of three: the helper's
        x = np.ones(513)
        x[300] = 1e-310
        return x

    def test_callers_errstate_reaches_the_helper(self):
        before = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            macdonald_ratio(0.5, self._overflow_in_helper_block())
        assert threading.active_count() == before

    def test_helper_warning_reaches_the_caller(self):
        # the suite turns RuntimeWarning into an error, so the helper's overflow warning raises
        before = threading.active_count()
        with pytest.raises(RuntimeWarning, match="overflow"):
            macdonald_ratio(0.5, self._overflow_in_helper_block())
        assert threading.active_count() == before

    @pytest.mark.parametrize("error", [ZeroDivisionError, KeyboardInterrupt])
    def test_helper_error_reaches_the_caller(self, monkeypatch, error):
        caller, plain = threading.get_ident(), np.arccosh

        def failing(*args, **kwargs):
            if threading.get_ident() != caller:
                raise error("helper block failed")
            return plain(*args, **kwargs)

        monkeypatch.setattr(specialfn.np, "arccosh", failing)
        before = threading.active_count()
        with pytest.raises(error, match="helper block failed"):
            my_drift(-np.log(SPLIT_XS[:1000]), 0.5)
        assert threading.active_count() == before


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
    def test_negative_multiplicity(self):
        with pytest.raises(ValueError):
            Multiplicities(-1, 0)
