import math

import numpy as np
import pytest

from myproc.paths import RngStream, exp_functional_samples
from myproc.stats import (
    gaussian_bump,
    generator_test,
    indicator_bins,
    conditional_law_test,
    ks_statistic,
    ks_threshold,
    markov_property_test,
)
from oracles import ks_two_sample


def _gen(seed):
    return RngStream(seed, 0).generator()


class TestKsTwoSample:
    def test_identical_batches(self):
        x = _gen(1).standard_normal(2000)
        rep = ks_two_sample(x, x)
        assert rep.statistic == 0.0 and rep.passed

    def test_undersized_batch(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.zeros(10), np.zeros(500))

    def test_null_calibration(self):
        # two independent standard-normal batches of 1e4: pass at 1% in >= 98/100 reps
        passed = 0
        for i in range(100):
            g = _gen(100 + i)
            rep = ks_two_sample(g.standard_normal(10_000), g.standard_normal(10_000))
            passed += rep.passed
        assert passed >= 98

    def test_power_against_shift(self):
        for i in range(10):
            g = _gen(300 + i)
            rep = ks_two_sample(g.standard_normal(10_000), g.standard_normal(10_000) + 0.5)
            assert not rep.passed

    def test_statistic_matches_scipy(self):
        from scipy.stats import ks_2samp

        g = _gen(7)
        a, b = g.standard_normal(500), g.standard_normal(700) + 0.1
        assert ks_statistic(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)

    def test_threshold_formula(self):
        # c(0.01) = sqrt(-ln(0.005)/2) ~ 1.6276
        assert ks_threshold(100, 100, 0.01) == pytest.approx(1.6276 * math.sqrt(0.02), abs=1e-3)


class TestGeneratorTest:
    @staticmethod
    def _bm_pairs(seed, n, h):
        g = _gen(seed)
        x0 = g.standard_normal(n)  # X_1 ~ N(0, 1)
        x1 = x0 + math.sqrt(h) * g.standard_normal(n)
        return x0, x1

    def test_null_calibration(self):
        # standard BM against zero drift: |z| <= 3 in >= 97/100 runs
        bump = gaussian_bump(0.0, 1.0)
        rejects = 0
        for i in range(100):
            x0, x1 = self._bm_pairs(400 + i, 100_000, 1e-3)
            rep = generator_test(x0, x1, np.zeros_like(x0), bump, 1e-3)
            rejects += not rep.passed
        assert rejects <= 3

    def test_power_wrong_drift(self):
        # OU data against zero drift must reject in >= 90/100 runs
        bump = gaussian_bump(0.0, 1.0)
        h = 1e-3
        rejects = 0
        for i in range(100):
            g = _gen(600 + i)
            x0 = g.normal(0.0, math.sqrt(0.5), 100_000)
            x1 = x0 * math.exp(-h) + math.sqrt((1 - math.exp(-2 * h)) / 2) * g.standard_normal(100_000)
            rep = generator_test(x0, x1, np.zeros_like(x0), bump, h)
            rejects += not rep.passed
        assert rejects >= 90

    def test_correct_ou_drift_passes(self):
        bump = gaussian_bump(0.0, 1.0)
        h = 1e-3
        g = _gen(9)
        x0 = g.normal(0.0, math.sqrt(0.5), 200_000)
        x1 = x0 * math.exp(-h) + math.sqrt((1 - math.exp(-2 * h)) / 2) * g.standard_normal(200_000)
        rep = generator_test(x0, x1, -x0, bump, h)
        assert rep.passed, rep

    def test_degenerate_variance(self):
        with pytest.raises(ValueError):
            generator_test(np.zeros(50), np.zeros(50), np.zeros(50), gaussian_bump(0.0, 1.0), 1e-3)

    @pytest.mark.parametrize("sizes", [(50, 49, 50), (50, 50, 49), (49, 50, 50)])
    def test_misaligned_inputs(self, sizes):
        x_now, x_next, drift = (np.linspace(0.0, 1.0, n) for n in sizes)
        with pytest.raises(ValueError, match="aligned"):
            generator_test(x_now, x_next, drift, gaussian_bump(0.0, 1.0), 1e-3)

    def test_bump_derivatives(self):
        bump = gaussian_bump(0.3, 0.7)
        x = np.linspace(-2, 2, 11)
        d1_fd = (bump.f(x + 1e-6) - bump.f(x - 1e-6)) / 2e-6
        h2 = 1e-4  # second difference loses ~eps/h^2: keep h large enough
        d2_fd = (bump.f(x + h2) - 2 * bump.f(x) + bump.f(x - h2)) / h2**2
        assert np.allclose(bump.d1(x), d1_fd, atol=1e-8)
        assert np.allclose(bump.d2(x), d2_fd, atol=1e-5)


class TestMarkovPropertyTest:
    @staticmethod
    def _synthetic(seed, n, leak):
        g = _gen(seed)
        past = g.standard_normal(n)
        mid = past + g.standard_normal(n)
        noise = g.standard_normal(n)
        end = mid + noise + leak * past
        return mid, end, past

    def test_markov_chain_passes(self):
        mid, end, past = self._synthetic(1, 60_000, leak=0.0)
        rep = markov_property_test(mid, end, past)
        assert rep.passed, rep

    def test_leaky_chain_rejects(self):
        mid, end, past = self._synthetic(2, 60_000, leak=0.5)
        rep = markov_property_test(mid, end, past)
        assert not rep.passed

    def test_calibration(self):
        rejects = 0
        for i in range(30):
            mid, end, past = self._synthetic(700 + i, 30_000, leak=0.0)
            rejects += not markov_property_test(mid, end, past).passed
        assert rejects <= 1

    def test_sparse_bins_error(self):
        with pytest.raises(ValueError):
            markov_property_test(np.arange(200.0), np.arange(200.0), np.arange(200.0))

    def test_determinism(self):
        mid, end, past = self._synthetic(3, 40_000, leak=0.1)
        a = markov_property_test(mid, end, past)
        b = markov_property_test(mid, end, past)
        assert a == b

    @pytest.mark.slow
    def test_mu3_power(self):
        # the non-Markov exponential functional is rejected in >= 9/10 runs
        rejects = 0
        reads = dict.fromkeys([0.9, 1.0, 1.5], [0])
        for i in range(10):
            b, (z,) = exp_functional_samples(reads, 1e-3, 100_000, RngStream(50 + i, 0), mu=3.0)
            cond = np.log(z[1]) - np.log(z[0])
            rep = markov_property_test(np.log(z[1]), np.log(z[2]), cond)
            rejects += not rep.passed
        assert rejects >= 9


class TestConditionalLawTest:
    def test_lambda_zero_trivial(self):
        g = _gen(5)
        b = g.standard_normal(5000)
        eta = np.exp(g.standard_normal(5000))
        rep = conditional_law_test(b, eta, np.ones_like(eta), 0.0, [lambda e: np.ones_like(e)])
        assert rep.statistic == 0.0 and rep.passed

    def test_exact_conditional_mean_passes(self):
        # analytic toy: B | eta ~ N(eta, 1) so E[e^{lam B}|eta] = e^{lam eta + lam^2/2}
        g = _gen(6)
        eta = g.standard_normal(100_000)
        b = eta + g.standard_normal(100_000)
        lam = 0.5
        fns = [lambda e: np.ones_like(e), lambda e: np.exp(-0.5 * e * e)]
        rep = conditional_law_test(b, eta, np.exp(lam * eta + 0.5 * lam * lam), lam, fns)
        assert rep.passed, rep

    def test_wrong_conditional_mean_rejects(self):
        g = _gen(7)
        eta = g.standard_normal(100_000)
        b = eta + g.standard_normal(100_000)
        rep = conditional_law_test(b, eta, np.exp(0.5 * eta), 0.5,  # misses the lam^2/2 factor
                                   [lambda e: np.ones_like(e)])
        assert not rep.passed

    @pytest.mark.parametrize("ratio, lam, fns", [
        (np.ones(50), 0.5, indicator_bins([100.0, 200.0])),  # no eta in (100, 200]: the function has no mass
        (np.full(50, 0.5), 0.0, [np.ones_like]),  # every weight is 1 - 0.5: a constant product
    ], ids=["no-mass", "constant-weight"])
    def test_zero_standard_error_raises(self, ratio, lam, fns):
        # a zero standard error would count as z = 0, a pass that tested nothing
        x = _gen(8).standard_normal(50)
        with pytest.raises(ValueError, match="degenerate variance"):
            conditional_law_test(x, np.abs(x) + 0.1, ratio, lam, fns)

    def test_lambda_range_guard(self):
        with pytest.raises(ValueError):
            conditional_law_test(np.zeros(200), np.zeros(200), np.zeros(200), 2.5, [lambda e: e])

    @pytest.mark.parametrize("sizes", [(200, 199, 200), (200, 200, 199), (199, 200, 200)])
    def test_misaligned_inputs(self, sizes):
        b, eta, ratio = (np.ones(n) for n in sizes)
        with pytest.raises(ValueError, match="aligned"):
            conditional_law_test(b, eta, ratio, 0.5, [lambda e: e])

    def test_indicator_bins(self):
        fns = indicator_bins([0.0, 1.0, 2.0])
        x = np.array([0.5, 1.5, 2.5])
        assert np.array_equal(fns[0](x), [1.0, 0.0, 0.0])
        assert np.array_equal(fns[1](x), [0.0, 1.0, 0.0])
