import cmath
import math

import mpmath
import numpy as np
import pytest

from myproc.series import (
    ResonanceError,
    TruncationError,
    _flat_limit_derivatives,
    _potential_coeffs,
    cms_series,
    even_lambda_derivatives,
    eval_series,
    finite_q_ktilde,
    g_q_error,
    g_q_even_derivative,
    hoogenboom_det,
    log_delta_q,
    rank1_spherical,
    toda_series,
)
from myproc.specialfn import Multiplicities, gamma, ktilde_det, log_a_normalizer, log_c_function, macdonald_k

from oracles import hypergeometric_spherical, ode_spherical_converged


def series_residual(lam, coeffs, mult, r):
    """|H psi - lam^2 psi| / |psi| with term-wise analytic derivatives."""
    n = np.arange(len(coeffs))
    psi = float((coeffs * np.exp((lam - n) * r)).sum())
    d2 = float((coeffs * (lam - n) ** 2 * np.exp((lam - n) * r)).sum())
    if mult is None:
        pot = math.exp(-2.0 * r)
    else:
        ma, m2 = mult.m_alpha, mult.m_2alpha
        pot = 0.25 * ma * (ma + 2 * m2 - 2) / math.sinh(r) ** 2 + m2 * (m2 - 2) / math.sinh(2 * r) ** 2
    return abs(d2 - pot * psi - lam**2 * psi) / abs(psi)


class TestTodaSeries:
    def test_first_coefficients(self):
        b = toda_series(0.0, 8)
        assert b[0] == 1.0
        assert b[1] == 0.0
        assert b[2] == pytest.approx(0.25, rel=1e-15)
        assert b[4] == pytest.approx(1.0 / 64.0, rel=1e-15)

    def test_odd_coefficients_vanish(self):
        assert np.all(toda_series(0.37, 12)[1::2] == 0.0)

    def test_resonance_rejected(self):
        # the recurrence divides by n (n - 2 lam), n even: only nonzero integer lam resonate
        for lam in (1.0, -1.0, -2.0 + 1e-7, 3.0):
            with pytest.raises(ResonanceError):
                toda_series(lam, 8)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
    def test_half_integer_lambda_two_branch_sum(self, r):
        # lam = 1/2 does not resonate: the two-branch sum is K_{1/2}(x) = sqrt(pi / 2x) e^{-x}, x = e^{-r}
        x = math.exp(-r)
        lhs = sum(gamma(sl) * 2.0 ** (sl - 1.0) * eval_series(sl, toda_series(sl, 60), r) for sl in (0.5, -0.5))
        assert lhs == pytest.approx(math.sqrt(math.pi / (2.0 * x)) * math.exp(-x), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.2, -0.35])
    @pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
    def test_eigen_equation_residual(self, lam, r):
        assert series_residual(lam, toda_series(lam, 40), None, r) <= 1e-9


class TestCmsSeries:
    def test_b0_is_one(self):
        assert cms_series(0.2, Multiplicities(4, 0), 10)[0] == 1.0

    def test_zero_potential(self):
        assert np.all(cms_series(0.3, Multiplicities(0, 0), 10)[1:] == 0.0)

    @pytest.mark.parametrize("mult", [Multiplicities(4, 0), Multiplicities(8, 1), Multiplicities(12, 3)])
    @pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
    def test_eigen_equation_residual(self, mult, r):
        assert series_residual(0.2, cms_series(0.2, mult, 60), mult, r) <= 1e-9

    def test_even_truncation_required(self):
        with pytest.raises(ValueError):
            cms_series(0.2, Multiplicities(4, 0), 9)

    @pytest.mark.parametrize("mult", [Multiplicities(4, 0), Multiplicities(7, 1), Multiplicities(12, 3)])
    def test_potential_coefficients_bitwise(self, mult):
        # v_k term by term: 1/sinh^2 r feeds every k, 1/sinh^2 2r the even ones
        ma, m2 = mult.m_alpha, mult.m_2alpha
        ref = []
        for k in range(1, 21):
            v = 4.0 * k * (0.25 * ma * (ma + 2 * m2 - 2))
            if k % 2 == 0:
                v += 2.0 * k * float(m2 * (m2 - 2))
            ref.append(v)
        assert np.array_equal(_potential_coeffs(mult, 20)[1:], ref)


class TestEvalSeries:
    def test_single_term(self):
        single = toda_series(0.3, 4)
        single[2:] = 0.0
        assert eval_series(0.3, single, 2.0) == pytest.approx(math.exp(0.6), rel=1e-14)

    def test_truncation_doubling_agreement(self):
        a = eval_series(0.0, toda_series(0.0, 20), 3.0)
        b = eval_series(0.0, toda_series(0.0, 40), 3.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_cms_truncation_stability(self):
        m = Multiplicities(4, 0)
        a = eval_series(0.2, cms_series(0.2, m, 40), 4.0)
        b = eval_series(0.2, cms_series(0.2, m, 80), 4.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_tail_error_raised(self):
        with pytest.raises(TruncationError):
            eval_series(0.2, cms_series(0.2, Multiplicities(40, 1), 8), 0.3)


class TestDeltaQ:
    def test_vanishes_at_origin(self):
        # delta_q(0) = 0, so its log is undefined there and rejected
        with pytest.raises(ValueError):
            log_delta_q(0.0, Multiplicities(1, 0))

    def test_simple_value(self):
        assert math.exp(log_delta_q(1.0, Multiplicities(1, 0))) == pytest.approx(
            math.e - 1.0 / math.e, rel=1e-14)

    def test_mixed_multiplicities(self):
        expected = (math.exp(0.5) - math.exp(-0.5)) ** 2 * (math.e - 1.0 / math.e)
        assert math.exp(log_delta_q(0.5, Multiplicities(2, 1))) == pytest.approx(expected, rel=1e-14)

    def test_log_form_consistent(self):
        direct = (math.exp(0.8) - math.exp(-0.8)) ** 6 * (math.exp(1.6) - math.exp(-1.6))
        assert log_delta_q(0.8, Multiplicities(6, 1)) == pytest.approx(math.log(direct), rel=1e-13)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            log_delta_q(-0.1, Multiplicities(2, 0))


class TestRankOneSpherical:
    def test_even_in_lambda(self):
        m = Multiplicities(6, 1)
        assert rank1_spherical(0.2, m, 1.5) == rank1_spherical(-0.2, m, 1.5)

    def test_closed_form_rank_one_so3(self):
        # m = (2, 0): delta^{1/2} phi_lam = (e^{lam r} - e^{-lam r}) / lam
        m = Multiplicities(2, 0)
        lam, r = 0.3, 1.7
        expected = (math.exp(lam * r) - math.exp(-lam * r)) / lam
        assert rank1_spherical(lam, m, r) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mult,lam,r", [
        (Multiplicities(8, 1), 0.3, 1.5),
        (Multiplicities(4, 0), 0.2, 2.0),
        (Multiplicities(4, 3), 0.45, 1.0),
    ])
    def test_against_ode_shooting(self, mult, lam, r):
        phi = ode_spherical_converged(lam, mult, r)
        target = math.exp(0.5 * log_delta_q(r, mult)) * phi
        assert rank1_spherical(lam, mult, r) == pytest.approx(target, rel=1e-7)

    @pytest.mark.parametrize("lam", [0.5, 1.5, 1.500002])
    def test_closed_form_so3_negative_gamma_argument(self, lam):
        # for lam in (1, 3) the -lam branch's c has Gamma((1 - lam) / 2) < 0 in its denominator;
        # its sign must survive the log: delta^{1/2} phi_lam = 2 sinh(lam r) / lam at m = (2, 0)
        r = 1.7
        assert rank1_spherical(lam, Multiplicities(2, 0), r) == pytest.approx(2.0 * math.sinh(lam * r) / lam, rel=1e-12)

    def test_large_r_leading_asymptote(self):
        # value * e^{-lam r} -> Gamma(lam) c(lam) (leading series term, b_0 = 1);
        # the residual shrinks like e^{-2 lam r} from the mirror branch
        m = Multiplicities(6, 1)
        lam = 0.3
        lead = gamma(lam) * math.exp(log_c_function(lam, m))
        gaps = [abs(rank1_spherical(lam, m, r) * math.exp(-lam * r) - lead) for r in (8.0, 10.0, 12.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 5e-3 * lead

    def test_lambda_zero_rejected(self):
        # lam = 0 is a pole of Gamma in each branch
        with pytest.raises(ValueError):
            rank1_spherical(0.0, Multiplicities(4, 0), 1.0)

    def test_cancelling_branches_raise(self):
        # at SU(1,19), r = 0.8 the two branches cancel to ~7e-15 of their size: the sum was 0.4766
        # against the true 0.0523
        with pytest.raises(TruncationError, match="cancel"):
            rank1_spherical(0.45, Multiplicities(36, 1), 0.8)

    def test_partial_cancellation_still_accurate(self):
        # the branches cancel to ~7e-5 of their size, above the guard, and the sum keeps its digits
        m, lam, r = Multiplicities(2, 1), 0.45, 0.02
        with mpmath.workdps(30):
            want = float(hypergeometric_spherical(lam, m, mpmath.mpf(r)))
        got = rank1_spherical(lam, m, r, log_scale=-0.5 * log_delta_q(r, m))
        assert got == pytest.approx(want, rel=1e-10)

    def test_complex_lambda_closed_form_so3(self):
        m = Multiplicities(2, 0)
        lam, r = 0.2 + 0.15j, 1.7
        expected = 2.0 * cmath.sinh(lam * r) / lam
        assert abs(rank1_spherical(lam, m, r) - expected) <= 1e-12 * abs(expected)


class TestFlatLimit:
    def test_toda_macdonald_identity(self):
        for lam in (0.1, 0.3, 0.45):
            for r in (0.5, 1.0, 2.0, 3.0):
                lhs = sum(
                    gamma(s * lam) * 2.0 ** (s * lam - 1.0) * eval_series(s * lam, toda_series(s * lam, 60), r)
                    for s in (1.0, -1.0)
                )
                assert abs(lhs - macdonald_k(lam, math.exp(-r))) <= 1e-8

    def test_g_q_decay_squared_variant(self):
        vals = [abs(g_q_error(0.2, 1.0, Multiplicities(2 * (q - 1), 1))) for q in (8, 32, 128, 512)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_g_q_single_variant_does_not_normalize(self):
        # dropping the square on Gamma(m_alpha/2) sends a(q) delta^{1/2} phi to 0,
        # so g_q tends to -K instead of 0
        k = macdonald_k(0.2, math.exp(-1.0))
        g = g_q_error(0.2, 1.0, Multiplicities(2 * 511, 1), a_variant="single")
        assert g == pytest.approx(-k, rel=1e-2)

    def test_g_q_second_derivative_decay(self):
        vals = [abs(g_q_even_derivative(2, 1.0, Multiplicities(2 * (q - 1), 1)))
                for q in (8, 32, 128, 512)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_inozemtsev_potential_limit(self):
        # CMS potential at r + log m_alpha approaches e^{-2r}, error shrinking ~ 1/m_alpha
        rs = np.linspace(0.0, 3.0, 31)
        sups = []
        for q in (10, 100, 1000):
            ma, m2 = 2 * (q - 1), 1
            shift = math.log(ma)
            v = (0.25 * ma * (ma + 2 * m2 - 2) / np.sinh(rs + shift) ** 2
                 + m2 * (m2 - 2) / np.sinh(2 * (rs + shift)) ** 2)
            sups.append(np.max(np.abs(v - np.exp(-2 * rs))))
        assert sups[0] > 5 * sups[1] > 25 * sups[2]


class TestEvenDerivatives:
    @pytest.mark.parametrize("r", [1.0, 1.7, 2.5])
    def test_so13_closed_forms(self, r):
        # on SO(1,3), m = (2, 0): delta^{1/2} phi_lam(r) = 2 sinh(lam r) / lam, whose
        # derivatives of order 0, 2, 4 at lam = 0 are 2r, 2r^3/3, 2r^5/5 (r >= 1 keeps
        # the fourth derivative from being small against the round-off of the values)
        got = even_lambda_derivatives(lambda lam: rank1_spherical(lam, Multiplicities(2, 0), r), [0, 2, 4])
        assert got == pytest.approx([2 * r, 2 * r**3 / 3, 2 * r**5 / 5], rel=1e-10)

    def test_ground_state_so13(self):
        # the order-0 term is phi_0 itself: r / sinh r on SO(1,3)
        m, r = Multiplicities(2, 0), 1.3
        (f0,) = even_lambda_derivatives(lambda lam: rank1_spherical(lam, m, r), [0])
        assert f0 * math.exp(-0.5 * log_delta_q(r, m)) == pytest.approx(r / math.sinh(r), rel=1e-12)

    def test_odd_orders_rejected(self):
        with pytest.raises(ValueError):
            even_lambda_derivatives(lambda x: x, [1])


class TestHoogenboom:
    def test_p1_reduction(self):
        mult = Multiplicities(2 * 5, 1)
        v1 = hoogenboom_det([0.21], 6, [2.0])
        v2 = rank1_spherical(0.21, mult, 2.0, log_scale=-0.5 * log_delta_q(2.0, mult))
        assert v1 == pytest.approx(v2, rel=1e-13)

    def test_permutation_invariance(self):
        a = hoogenboom_det([0.21, 0.47], 6, [2.0, 1.0])
        b = hoogenboom_det([0.47, 0.21], 6, [2.0, 1.0])
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("p,q,r", [(2, 3, (0.16, 0.08)), (2, 4, (0.3, 0.15)), (3, 4, (0.24, 0.16, 0.08))])
    def test_one_at_the_origin(self, p, q, r):
        # phi_lam(0) = 1: the values at s r, s = 1, 3/4, 1/2, are a series in s^2 whose fitted
        # quadratic is extrapolated to s = 0; smaller r loses the entries to the branches' cancellation
        lams, scales = [0.3, 1.3, 2.3][:p], np.array([1.0, 0.75, 0.5])
        values = [hoogenboom_det(lams, q, [s * x for x in r]) for s in scales]
        assert np.polyval(np.polyfit(scales**2, values, 2), 0.0) == pytest.approx(1.0, abs=5e-3)

    def test_truncation_stability(self):
        # rank-one entries rebuilt from explicit truncations N and 2N agree to 1e-8
        mult = Multiplicities(2 * 4, 1)

        def entry(lam, r, N):
            out = 0.0
            for s in (1.0, -1.0):
                sl = s * lam
                w = gamma(sl) * math.exp(log_c_function(sl, mult) - 0.5 * log_delta_q(r, mult))
                out += w * eval_series(sl, cms_series(sl, mult, N), r, tol=1e-6)
            return out

        for lam, r in [(0.21, 2.0), (0.47, 1.0)]:
            assert entry(lam, r, 64) == pytest.approx(entry(lam, r, 128), rel=1e-8)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            hoogenboom_det([0.21, 0.21], 6, [2.0, 1.0])
        with pytest.raises(ValueError):
            hoogenboom_det([1.0, 0.47], 6, [2.0, 1.0])
        with pytest.raises(ValueError):
            hoogenboom_det([0.21, 0.47], 6, [1.0, 2.0])

    def test_finite_q_ktilde_ratio_converges(self):
        r, r0 = (1.5, 0.5), (2.0, 1.0)
        target = ktilde_det(r) / ktilde_det(r0)
        val = finite_q_ktilde(r, 64) / finite_q_ktilde(r0, 64)
        assert val == pytest.approx(target, abs=5e-4)

    @pytest.mark.parametrize("r,r0", [((1.5, 0.5), (2.0, 1.0)), ((2.5, 1.5, 0.5), (3.0, 2.0, 1.0))],
                             ids=["p2", "p3"])
    def test_finite_q_ktilde_converges_without_sign_change(self, r, r0):
        # the ratio error keeps one sign and each x4 in q shrinks it at least 8x (it goes like q^-2)
        target = ktilde_det(r) / ktilde_det(r0)
        errs = [finite_q_ktilde(r, q) / finite_q_ktilde(r0, q) - target for q in (16, 64, 256, 1024, 4096)]
        assert all(e < 0 for e in errs) or all(e > 0 for e in errs)
        assert all(abs(a) >= 8 * abs(b) for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("p,q", [(2, 16), (2, 64), (3, 64)])
    @pytest.mark.parametrize("r", [0.5, 1.5, 2.5])
    def test_entries_against_hypergeometric_oracle(self, p, q, r):
        # entry = d^k/dlam^k of a(q) delta^{1/2} phi_lam(r + log m_alpha) at 0; the shifted r
        # keeps the oracle clear of the small-r cancellation of the two branches
        mult = Multiplicities(2 * (q - p), 1)
        rs = r + math.log(mult.m_alpha)
        orders = [2 * j for j in range(p)]
        scale = math.exp(0.5 * log_delta_q(rs, mult) + log_a_normalizer(mult))
        with mpmath.workdps(40):
            want = [float(mpmath.diff(lambda lam: hypergeometric_spherical(lam, mult, mpmath.mpf(rs)), 0, k)) * scale
                    for k in orders]
        assert _flat_limit_derivatives(r, mult, orders) == pytest.approx(want, rel=1e-10)
