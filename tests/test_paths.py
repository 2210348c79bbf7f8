import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from myproc.paths import (
    RngStream,
    ScalarPath,
    TimeGrid,
    eta_functional,
    exp_functional_samples,
    hyperbolic_radial,
    log_eta,
    my_drift,
    paths_to_csv,
    pitman_transform,
    sample_bm,
)
from myproc.specialfn import macdonald_k
from myproc.stats import SampleBatch, ks_two_sample

GRID = TimeGrid(1.0, 1000)
RNG = RngStream(20240809, 0)


class TestGridAndStreams:
    def test_grid_basics(self):
        assert GRID.dt == pytest.approx(1e-3)
        assert GRID.times().shape == (1001,)
        assert GRID.index_of(0.1) == 100
        with pytest.raises(ValueError):
            GRID.index_of(0.10037)

    def test_stream_reproducible(self):
        a = RngStream(5, 9).generator().standard_normal(8)
        b = RngStream(5, 9).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(5, 1).generator().standard_normal(8)
        b = RngStream(5, 2).generator().standard_normal(8)
        c = RngStream(6, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_children_distinct_and_stable(self):
        base = RngStream(7, 3)
        assert base.child(0) == base.child(0)
        assert base.child(0) != base.child(1)


class TestBrownian:
    def test_deterministic_debug_mode(self):
        p = sample_bm(GRID, 1.5, RNG, sigma=0.0)
        assert np.allclose(p.values, 1.5 * GRID.times())

    def test_same_stream_same_path(self):
        assert np.array_equal(sample_bm(GRID, 0.0, RNG).values, sample_bm(GRID, 0.0, RNG).values)

    def test_terminal_variance(self):
        grid = TimeGrid(1.0, 8)
        finals = np.array([sample_bm(grid, 0.0, RNG.child(i)).values[-1] for i in range(10_000)])
        var = finals.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(finals) - 1))
        assert abs(var - 1.0) <= 5.0 * se

    def test_starts_at_zero(self):
        assert sample_bm(GRID, 2.0, RNG).values[0] == 0.0


class TestEtaFunctional:
    def test_zero_path_gives_t(self):
        p = ScalarPath(GRID, np.zeros(1001))
        assert np.allclose(eta_functional(p).values, GRID.times(), atol=1e-12)

    def test_linear_path_gives_sinh(self):
        c = 0.8
        p = ScalarPath(GRID, c * GRID.times())
        got = eta_functional(p).values
        assert np.max(np.abs(got - np.sinh(c * GRID.times()) / c)) < 1e-5

    def test_positive_after_zero(self):
        eta = eta_functional(sample_bm(GRID, 0.0, RNG.child(1))).values
        assert eta[0] == 0.0
        assert np.all(eta[1:] > 0.0)

    def test_small_time_behavior(self):
        # eta at the first grid point is dt up to a sqrt(dt)-sized band
        for i in range(20):
            eta = eta_functional(sample_bm(GRID, 0.0, RNG.child(100 + i))).values
            assert abs(eta[1] - GRID.dt) <= 0.1 * math.sqrt(GRID.dt) * GRID.dt + 1e-12

    def test_log_domain_matches_direct(self):
        b = ScalarPath(GRID, 31.0 * np.sin(3.0 * GRID.times()))
        direct_integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * GRID.dt * (np.exp(2 * b.values[:-1]) + np.exp(2 * b.values[1:])))])
        expected = np.exp(-b.values) * direct_integral
        got = eta_functional(b).values
        assert np.max(np.abs(got[1:] / expected[1:] - 1.0)) < 1e-12

    def test_overflow_guard(self):
        b = ScalarPath(GRID, np.linspace(0.0, 800.0, 1001))
        with pytest.raises(OverflowError):
            eta_functional(b)

    def test_log_eta_consistent(self):
        b = sample_bm(GRID, 0.0, RNG.child(2))
        le = log_eta(b).values
        eta = eta_functional(b).values
        assert le[0] == -np.inf
        assert np.allclose(le[1:], np.log(eta[1:]), atol=1e-12)

    def test_mean_at_t1(self):
        _, z = exp_functional_samples([1.0], 1e-3, 20_000, RNG.child(3))
        m = z[0].mean()
        se = z[0].std(ddof=1) / math.sqrt(z[0].size)
        assert abs(m - math.exp(0.5)) <= 3.0 * se


class TestPitman:
    def test_zero_path(self):
        p = ScalarPath(GRID, np.zeros(1001))
        assert np.all(pitman_transform(p).values == 0.0)

    def test_nondecreasing_path_fixed(self):
        p = ScalarPath(GRID, np.linspace(0.0, 2.0, 1001))
        assert np.array_equal(pitman_transform(p).values, p.values)

    def test_nonnegative_on_random_paths(self):
        for i in range(1000):
            path = sample_bm(TimeGrid(1.0, 50), 0.0, RNG.child(2000 + i))
            assert pitman_transform(path).values.min() >= 0.0

    @settings(max_examples=50, deadline=None)
    @given(hst.lists(hst.floats(-5, 5), min_size=1, max_size=40))
    def test_nonnegative_property(self, increments):
        vals = np.concatenate([[0.0], np.cumsum(increments)])
        out = 2.0 * np.maximum.accumulate(vals) - vals
        assert out.min() >= 0.0


class TestHyperbolicRadial:
    def test_starts_at_zero(self):
        b = sample_bm(GRID, 0.0, RNG.child(4))
        d = hyperbolic_radial(50, b, RNG.child(5))
        assert d.values[0] == 0.0
        assert d.values.min() >= 0.0

    def test_zero_noise_reduces_to_abs(self):
        b = sample_bm(GRID, 0.0, RNG.child(6))
        d = hyperbolic_radial(50, b, RNG.child(7), zero_noise=True)
        assert np.max(np.abs(d.values - np.abs(b.values))) < 1e-9

    def test_shared_noise_convergence(self):
        wins = 0
        for i in range(10):
            b = sample_bm(GRID, 0.0, RNG.child(300 + i))
            lg = log_eta(b).values
            k0 = GRID.index_of(0.1)
            errs = []
            for q in (100, 10_000):
                d = hyperbolic_radial(q, b, RNG.child(400 + i)).values
                errs.append(np.max(np.abs(d[k0:] - math.log(q) - lg[k0:])))
            wins += errs[1] < errs[0]
        assert wins >= 9

    def test_q_validation(self):
        b = sample_bm(GRID, 0.0, RNG.child(8))
        with pytest.raises(ValueError):
            hyperbolic_radial(1, b, RNG.child(9))


class TestMyDrift:
    def test_value_at_origin(self):
        # d/dr log K_0(e^-r) at r=0 equals K_1(1)/K_0(1) through K_0' = -K_1
        expected = macdonald_k(1.0, 1.0) / macdonald_k(0.0, 1.0)
        assert my_drift(0.0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_log_derivative_oracle(self):
        h = 1e-6
        for lam in (0.0, 0.7):
            for r in (-2.0, 0.5, 3.0, 10.0):
                fd = (math.log(macdonald_k(lam, math.exp(-(r + h))))
                      - math.log(macdonald_k(lam, math.exp(-(r - h))))) / (2.0 * h)
                assert my_drift(r, lam) == pytest.approx(fd, rel=1e-6)

    def test_far_right_decay(self):
        # K_0(x) ~ log(2/x) for small x, so the drift decays like 1/(r + log 2 - gamma)
        val = my_drift(10.0, 0.0)
        assert val == pytest.approx(1.0 / (10.0 + math.log(2.0) - 0.5772156649), rel=1e-3)
        assert my_drift(14.0, 0.0) < val

    def test_repulsive_wall(self):
        assert math.exp(3.0) * 0.8 <= my_drift(-3.0, 0.0) <= math.exp(3.0) * 1.2

    def test_vectorized(self):
        rs = np.array([-1.0, 0.0, 2.0])
        vec = my_drift(rs, 0.5)
        assert np.allclose(vec, [my_drift(float(r), 0.5) for r in rs], rtol=1e-13)


class TestEulerDiffusion:
    def test_cross_simulation_marginal(self):
        # Euler with the Macdonald drift, started from log eta at t0, must match
        # the directly simulated log eta at t = 1 in law (two-sample KS at 1%)
        t0, n, dt = 0.01, 4000, 1e-3
        _, z = exp_functional_samples([t0, 1.0], dt, n, RNG.child(14))
        x = np.log(z[0])
        direct = np.log(z[1])
        nodes = np.linspace(x.min() - 6.0, x.max() + 8.0, 4001)
        drift = my_drift(nodes, 0.0)
        gen = RNG.child(15).generator()
        for _ in range(990):
            x = x + np.interp(x, nodes, drift) * dt + math.sqrt(dt) * gen.standard_normal(n)
            assert nodes[0] <= x.min() and x.max() <= nodes[-1]
        rep = ks_two_sample(SampleBatch(x), SampleBatch(direct), level=0.01)
        assert rep.passed, rep.as_dict()


class TestBatchSamples:
    def test_reproducible(self):
        a = exp_functional_samples([0.5, 1.0], 1e-3, 64, RNG.child(16))
        b = exp_functional_samples([0.5, 1.0], 1e-3, 64, RNG.child(16))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_off_grid_time_rejected(self):
        with pytest.raises(ValueError):
            exp_functional_samples([0.50007], 1e-3, 16, RNG.child(17))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_along_the_path_raises(self):
        # mu B_s leaves double range before t = 1 although the final B is moderate
        with pytest.raises(OverflowError):
            exp_functional_samples([1.0], 1e-3, 1, RngStream(10, 0), mu=1000.0)

    def test_csv_roundtrip(self):
        p = sample_bm(TimeGrid(0.01, 10), 0.0, RNG.child(18))
        buf = io.StringIO()
        paths_to_csv([p], buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 12
        _, t, v = lines[3].split(",")
        assert float(t) == pytest.approx(p.grid.times()[2])
        assert float(v) == p.values[2]

    def test_batch_csv_long_format(self):
        grid = TimeGrid(0.01, 2)
        batch = [sample_bm(grid, 0.0, RNG.child(20 + i)) for i in range(3)]
        buf = io.StringIO()
        paths_to_csv(batch, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "replica,t,value"
        assert len(lines) == 1 + 3 * 3
        assert lines[4].startswith("1,0,")
