import math

import numpy as np
import pytest

from myproc.series import (
    ResonanceError,
    TruncationError,
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
from myproc.specialfn import Multiplicities, gamma, ktilde_det, log_c_function, macdonald_k

from oracles import ode_spherical_converged


def series_residual(s, mult, r):
    """|H psi - lam^2 psi| / |psi| with term-wise analytic derivatives."""
    n = np.arange(len(s.coeffs))
    psi = float((s.coeffs * np.exp((s.lam - n) * r)).sum())
    d2 = float((s.coeffs * (s.lam - n) ** 2 * np.exp((s.lam - n) * r)).sum())
    if mult is None:
        pot = math.exp(-2.0 * r)
    else:
        ma, m2 = mult.m_alpha, mult.m_2alpha
        pot = 0.25 * ma * (ma + 2 * m2 - 2) / math.sinh(r) ** 2 + m2 * (m2 - 2) / math.sinh(2 * r) ** 2
    return abs(d2 - pot * psi - s.lam**2 * psi) / abs(psi)


class TestTodaSeries:
    def test_first_coefficients(self):
        s = toda_series(0.0, 8)
        assert s.coeffs[0] == 1.0
        assert s.coeffs[1] == 0.0
        assert s.coeffs[2] == pytest.approx(0.25, rel=1e-15)
        assert s.coeffs[4] == pytest.approx(1.0 / 64.0, rel=1e-15)

    def test_odd_coefficients_vanish(self):
        s = toda_series(0.37, 12)
        assert np.all(s.coeffs[1::2] == 0.0)

    def test_resonance_rejected(self):
        for lam in (0.5, 1.0, -1.5, 3.0):
            with pytest.raises(ResonanceError):
                toda_series(lam, 8)

    @pytest.mark.parametrize("lam", [0.0, 0.2, -0.35])
    @pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
    def test_eigen_equation_residual(self, lam, r):
        s = toda_series(lam, 40)
        assert series_residual(s, None, r) <= 1e-9


class TestCmsSeries:
    def test_b0_is_one(self):
        s = cms_series(0.2, Multiplicities(4, 0), 10)
        assert s.coeffs[0] == 1.0

    def test_zero_potential(self):
        s = cms_series(0.3, Multiplicities(0, 0), 10)
        assert np.all(s.coeffs[1:] == 0.0)

    @pytest.mark.parametrize("mult", [Multiplicities(4, 0), Multiplicities(8, 1), Multiplicities(12, 3)])
    @pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
    def test_eigen_equation_residual(self, mult, r):
        s = cms_series(0.2, mult, 60)
        assert series_residual(s, mult, r) <= 1e-9

    def test_even_truncation_required(self):
        with pytest.raises(ValueError):
            cms_series(0.2, Multiplicities(4, 0), 9)


class TestEvalSeries:
    def test_single_term(self):
        s = toda_series(0.3, 4)
        single = s.coeffs.copy()
        single[2:] = 0.0
        s2 = type(s)(0.3, "toda", single)
        assert eval_series(s2, 2.0) == pytest.approx(math.exp(0.6), rel=1e-14)

    def test_truncation_doubling_agreement(self):
        a = eval_series(toda_series(0.0, 20), 3.0)
        b = eval_series(toda_series(0.0, 40), 3.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_cms_truncation_stability(self):
        m = Multiplicities(4, 0)
        a = eval_series(cms_series(0.2, m, 40), 4.0)
        b = eval_series(cms_series(0.2, m, 80), 4.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_tail_error_raised(self):
        with pytest.raises(TruncationError):
            eval_series(cms_series(0.2, Multiplicities(40, 1), 8), 0.3)


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
        with pytest.raises(ValueError):
            rank1_spherical(0.0, Multiplicities(4, 0), 1.0)


class TestFlatLimit:
    def test_toda_macdonald_identity(self):
        for lam in (0.1, 0.3, 0.45):
            for r in (0.5, 1.0, 2.0, 3.0):
                lhs = sum(
                    gamma(s * lam) * 2.0 ** (s * lam - 1.0) * eval_series(toda_series(s * lam, 60), r)
                    for s in (1.0, -1.0)
                )
                assert abs(lhs - macdonald_k(lam, math.exp(-r))) <= 1e-8

    def test_g_q_decay_squared_variant(self):
        vals = [abs(g_q_error(0.2, 1.0, Multiplicities.from_group("SU", q))) for q in (8, 32, 128, 512)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_g_q_single_variant_does_not_normalize(self):
        # dropping the square on Gamma(m_alpha/2) sends a(q) delta^{1/2} phi to 0,
        # so g_q tends to -K instead of 0
        k = macdonald_k(0.2, math.exp(-1.0))
        g = g_q_error(0.2, 1.0, Multiplicities.from_group("SU", 512), a_variant="single")
        assert g == pytest.approx(-k, rel=1e-2)

    def test_g_q_second_derivative_decay(self):
        vals = [abs(g_q_even_derivative(2, 1.0, Multiplicities.from_group("SU", q)))
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
    def test_matches_known_k_derivatives(self):
        from myproc.specialfn import macdonald_k_dlambda

        x = math.exp(-1.2)
        f0, f2 = even_lambda_derivatives(lambda lam: macdonald_k(lam, x), 5e-3, [0, 2])
        assert f0 == pytest.approx(macdonald_k(0.0, x), rel=1e-10)
        assert f2 == pytest.approx(macdonald_k_dlambda(2, x), rel=1e-7)

    def test_odd_orders_rejected(self):
        with pytest.raises(ValueError):
            even_lambda_derivatives(lambda x: x, 1e-2, [1])


class TestHoogenboom:
    def test_p1_reduction(self):
        mult = Multiplicities(2 * 5, 1)
        v1 = hoogenboom_det([0.21], 1, 6, [2.0])
        v2 = rank1_spherical(0.21, mult, 2.0, log_scale=-0.5 * log_delta_q(2.0, mult))
        assert v1 == pytest.approx(v2, rel=1e-13)

    def test_permutation_invariance(self):
        a = hoogenboom_det([0.21, 0.47], 2, 6, [2.0, 1.0])
        b = hoogenboom_det([0.47, 0.21], 2, 6, [2.0, 1.0])
        assert a == pytest.approx(b, rel=1e-12)

    def test_truncation_stability(self):
        # rank-one entries rebuilt from explicit truncations N and 2N agree to 1e-8
        mult = Multiplicities(2 * 4, 1)

        def entry(lam, r, N):
            out = 0.0
            for s in (1.0, -1.0):
                sl = s * lam
                w = gamma(sl) * math.exp(log_c_function(sl, mult) - 0.5 * log_delta_q(r, mult))
                out += w * eval_series(cms_series(sl, mult, N), r, tol=1e-6)
            return out

        for lam, r in [(0.21, 2.0), (0.47, 1.0)]:
            assert entry(lam, r, 64) == pytest.approx(entry(lam, r, 128), rel=1e-8)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            hoogenboom_det([0.21, 0.21], 2, 6, [2.0, 1.0])
        with pytest.raises(ValueError):
            hoogenboom_det([1.0, 0.47], 2, 6, [2.0, 1.0])
        with pytest.raises(ValueError):
            hoogenboom_det([0.21, 0.47], 2, 6, [1.0, 2.0])

    def test_finite_q_ktilde_ratio_converges(self):
        r, r0 = (1.5, 0.5), (2.0, 1.0)
        target = ktilde_det(r) / ktilde_det(r0)
        val = finite_q_ktilde(r, 2, 64) / finite_q_ktilde(r0, 2, 64)
        assert val == pytest.approx(target, abs=5e-4)

    def test_finite_q_ktilde_rank_three(self):
        # fourth-order lambda entries (wider stencil step kicks in by default)
        r, r0 = (2.2, 1.4, 0.6), (2.0, 1.2, 0.4)
        target = ktilde_det(r) / ktilde_det(r0)
        errs = [abs(finite_q_ktilde(r, 3, q) / finite_q_ktilde(r0, 3, q) - target)
                for q in (16, 64)]
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3
