import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from myproc.paths import (
    RngStream,
    TimeGrid,
    eta_functional,
    exp_functional_samples,
    log_eta,
    my_drift,
    sample_bm,
)
from myproc.experiments import _convergence_rows
from myproc.matrixproc import finite_q_radial, simulate_su_solvable, triangular_from_increments
from myproc.specialfn import macdonald_k
from oracles import exp_functional_stepwise, ks_two_sample

GRID = TimeGrid(1.0, 1000)
GRID_TIMES = np.linspace(0.0, 1.0, 1001)  # the points of GRID
RNG = RngStream(20240809, 0)


class TestGridAndStreams:
    def test_grid_basics(self):
        assert GRID.dt == pytest.approx(1e-3)
        assert GRID.index_of(0.1) == 100
        with pytest.raises(ValueError):
            GRID.index_of(0.10037)
        # a nan or infinite horizon would give a nan or infinite dt
        for horizon in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="need horizon > 0"):
                TimeGrid(horizon, 10)

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

    def test_generator_reads_no_os_entropy(self, monkeypatch):
        # the stream is Philox keyed by (seed, stream_id); building it reads no OS entropy
        key = np.array([5, 9], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key)).standard_normal(8)

        def no_entropy(*args):
            raise AssertionError("OS entropy read")

        monkeypatch.setattr("numpy.random.bit_generator.randbits", no_entropy)
        with pytest.raises(AssertionError):
            np.random.SeedSequence()  # the patch reaches numpy's entropy source
        assert np.array_equal(RngStream(5, 9).generator().standard_normal(8), ref)

    def test_children_distinct_and_stable(self):
        base = RngStream(7, 3)
        assert base.child(0) == base.child(0)
        assert base.child(0) != base.child(1)


class TestBrownian:
    def test_same_stream_same_path(self):
        assert np.array_equal(sample_bm(GRID, RNG), sample_bm(GRID, RNG))

    def test_terminal_variance(self):
        grid = TimeGrid(1.0, 8)
        finals = np.array([sample_bm(grid, RNG.child(i))[-1] for i in range(10_000)])
        var = finals.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(finals) - 1))
        assert abs(var - 1.0) <= 5.0 * se

    def test_starts_at_zero(self):
        assert sample_bm(GRID, RNG)[0] == 0.0


class TestEtaFunctional:
    def test_zero_path_gives_t(self):
        assert np.allclose(eta_functional(np.zeros(1001), GRID.dt), GRID_TIMES, atol=1e-12)

    def test_linear_path_gives_sinh(self):
        c = 0.8
        got = eta_functional(c * GRID_TIMES, GRID.dt)
        assert np.max(np.abs(got - np.sinh(c * GRID_TIMES) / c)) < 1e-5

    def test_positive_after_zero(self):
        eta = eta_functional(sample_bm(GRID, RNG.child(1)), GRID.dt)
        assert eta[0] == 0.0
        assert np.all(eta[1:] > 0.0)

    def test_small_time_behavior(self):
        # eta at the first grid point is dt up to a sqrt(dt)-sized band
        for i in range(20):
            eta = eta_functional(sample_bm(GRID, RNG.child(100 + i)), GRID.dt)
            assert abs(eta[1] - GRID.dt) <= 0.1 * math.sqrt(GRID.dt) * GRID.dt + 1e-12

    def test_log_domain_matches_direct(self):
        b = 31.0 * np.sin(3.0 * GRID_TIMES)
        direct_integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * GRID.dt * (np.exp(2 * b[:-1]) + np.exp(2 * b[1:])))])
        expected = np.exp(-b) * direct_integral
        got = eta_functional(b, GRID.dt)
        assert np.max(np.abs(got[1:] / expected[1:] - 1.0)) < 1e-12

    def test_overflow_guard(self):
        b = np.linspace(0.0, 800.0, 1001)
        with pytest.raises(OverflowError):
            eta_functional(b, GRID.dt)

    def test_overflow_is_read_off_eta_not_the_path(self):
        # a path inside +-700 whose eta leaves double range raises, not returns inf
        with pytest.raises(OverflowError, match="eta left double range"):
            eta_functional(np.array([0.0, 700.0, 700.0, -700.0]), 1.0)
        # a path beyond -700 whose eta stays in range returns it: log eta = log(1/2) + 701, then 0
        eta = eta_functional(np.array([0.0, -701.0, 0.0]), 1.0)
        assert eta[0] == 0.0 and np.isfinite(eta).all()
        assert np.allclose(np.log(eta[1:]), [math.log(0.5) + 701.0, 0.0], rtol=0.0, atol=1e-12)

    def test_log_eta_consistent(self):
        b = sample_bm(GRID, RNG.child(2))
        le = log_eta(b, GRID.dt)
        eta = eta_functional(b, GRID.dt)
        assert le[0] == -np.inf
        assert np.allclose(le[1:], np.log(eta[1:]), atol=1e-12)

    def test_log_eta_stack_matches_rows(self):
        # time on the last axis; each path of a stack is bit for bit its lone call
        b = np.stack([sample_bm(GRID, RNG.child(20 + i)) for i in range(6)])
        for stack in (b, b.reshape(2, 3, -1)):
            got = log_eta(stack, GRID.dt).reshape(b.shape)
            for row, path in zip(got, b):
                assert np.array_equal(row, log_eta(path, GRID.dt))

    def test_mean_at_t1(self):
        _, [[z]] = exp_functional_samples({1.0: [0]}, 1e-3, 20_000, RNG.child(3))
        m = z.mean()
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(m - math.exp(0.5)) <= 3.0 * se


def _radial(q: tuple, b: np.ndarray, rng: RngStream) -> np.ndarray:
    """Radial part on H^q driven by the GRID path b, one row per q value and a column per
    grid point: the SO(1,q) solvable-group engine with l = e^B."""
    l = triangular_from_increments(GRID, np.diff(b)[None, :, None, None])
    return finite_q_radial(simulate_su_solvable(q, [rng], l), range(GRID.n_steps + 1))[0, ..., 0]


class TestHyperbolicRadial:
    def test_starts_at_zero(self):
        b = sample_bm(GRID, RNG.child(4))
        [d] = _radial((50,), b, RNG.child(5))
        assert d[0] == 0.0
        assert d.min() >= 0.0

    def test_shared_noise_convergence(self):
        # one nested (100, 10^4) call per driver: q = 10^4 extends the columns of q = 100
        wins = 0
        k0 = GRID.index_of(0.1)
        for i in range(10):
            b = sample_bm(GRID, RNG.child(300 + i))
            lg = log_eta(b, GRID.dt)
            d = _radial((100, 10_000), b, RNG.child(400 + i))
            errs = [np.max(np.abs(row[k0:] - math.log(q) - lg[k0:])) for row, q in zip(d, (100, 10_000))]
            wins += errs[1] < errs[0]
        assert wins >= 9

    def test_convergence_stream_pinned(self):
        # a given version and seed give byte-identical my-convergence seed errors
        [(_, e_small, e_large)] = _convergence_rows([3], 0.01, 0.2, (100, 10_000))
        assert hashlib.sha256(np.array([e_small, e_large]).tobytes()).hexdigest() == (
            "5c19d5b07f1e679a791f70ab730c88bbc32949603ff2ea9099d2e15aa61f0052")

    def test_q_validation(self):
        b = sample_bm(GRID, RNG.child(8))
        with pytest.raises(ValueError):  # q = 1 = p: H^1 has no transverse column
            _radial((1,), b, RNG.child(9))


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
        _, (z,) = exp_functional_samples({t0: [0], 1.0: [0]}, dt, n, RNG.child(14))
        x = np.log(z[0])
        direct = np.log(z[1])
        nodes = np.linspace(x.min() - 6.0, x.max() + 8.0, 4001)
        drift = my_drift(nodes, 0.0)
        gen = RNG.child(15).generator()
        for _ in range(990):
            x = x + np.interp(x, nodes, drift) * dt + math.sqrt(dt) * gen.standard_normal(n)
            assert nodes[0] <= x.min() and x.max() <= nodes[-1]
        rep = ks_two_sample(x, direct, level=0.01)
        assert rep.passed, rep


class TestBatchSamples:
    def test_reproducible(self):
        a = exp_functional_samples({0.5: [0], 1.0: [0]}, 1e-3, 64, RNG.child(16))
        b = exp_functional_samples({0.5: [0], 1.0: [0]}, 1e-3, 64, RNG.child(16))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1][0], b[1][0])

    def test_off_grid_time_rejected(self):
        with pytest.raises(ValueError):
            exp_functional_samples({0.50007: [0]}, 1e-3, 16, RNG.child(17))

    def test_colliding_times_rejected(self):
        # both times round to step 1000; the first row would never be written
        with pytest.raises(ValueError):
            exp_functional_samples({1.0: [0], 1.0 + 1e-11: [0]}, 1e-3, 4, RngStream(1, 0))

    def test_time_at_step_zero_rejected(self):
        # 1e-12 rounds to step 0, which no step writes
        with pytest.raises(ValueError):
            exp_functional_samples({1e-12: [0]}, 1e-3, 4, RngStream(1, 0))

    def test_overflow_along_the_path_raises(self):
        # mu B_s leaves double range before t = 1 although the final B is moderate
        with pytest.raises(OverflowError):
            exp_functional_samples({1.0: [0]}, 1e-3, 1, RngStream(10, 0), mu=1000.0)


class TestSharedDriver:
    """Several functionals of one Brownian driver: exp_functional_samples with sequence mu, drift,
    each read at the times that its index is mapped from."""

    TIMES = [0.25, 0.5, 1.0]
    MUS = [2.0, 2.0, 1.0, 3.0]
    DRIFTS = [0.0, 0.5, 0.0, 0.0]
    ALL = dict.fromkeys(TIMES, range(len(MUS)))  # every functional read at every time
    ONE = dict.fromkeys(TIMES, [0])

    def test_shapes(self):
        b, z = exp_functional_samples(self.ALL, 1e-3, 16, RNG.child(30), mu=self.MUS, drift=self.DRIFTS)
        assert b.shape == (3, 16) and [zj.shape for zj in z] == [(3, 16)] * 4
        for mu in ([2.0], 2.0):  # a scalar mu is one functional, and keeps the list of functionals
            b, z = exp_functional_samples(self.ONE, 1e-3, 16, RNG.child(30), mu=mu)
            assert b.shape == (3, 16) and [zj.shape for zj in z] == [(3, 16)]

    def test_driftless_functionals_equal_scalar_calls(self):
        b, z = exp_functional_samples(self.ALL, 1e-3, 256, RNG.child(31), mu=self.MUS, drift=self.DRIFTS)
        for j, (mu, drift) in enumerate(zip(self.MUS, self.DRIFTS)):
            if drift == 0.0:
                b1, (z1,) = exp_functional_samples(self.ONE, 1e-3, 256, RNG.child(31), mu=mu)
                assert np.array_equal(z[j], z1) and np.array_equal(b, b1)

    @pytest.mark.parametrize("mu, drift", [(2.0, 0.5), (1.0, -0.7), (3.0, 0.0)])
    def test_matches_stepwise_oracle(self, mu, drift):
        # the drifted functional reads B + drift t; the oracle accumulates the drift step by step
        _, z = exp_functional_samples(dict.fromkeys(self.TIMES, (0, 1)), 1e-3, 256, RNG.child(32),
                                      mu=[2.0, mu], drift=[0.0, drift])
        x_ref, z_ref = exp_functional_stepwise(self.TIMES, 1e-3, 256, RNG.child(32), mu=mu, drift=drift)
        assert np.max(np.abs(z[1] / z_ref - 1.0)) <= 1e-12
        b, (z1,) = exp_functional_samples(self.ONE, 1e-3, 256, RNG.child(32), mu=mu, drift=drift)
        assert np.max(np.abs(z1 / z_ref - 1.0)) <= 1e-12
        assert np.max(np.abs(b + drift * np.array(self.TIMES)[:, None] - x_ref)) <= 1e-12

    def test_generator_family_matches_stepwise_oracle(self):
        # my-generator's four functionals in one call, each read only at its own times; the
        # drifted one stops at t = 0.5, and every functional matches its one-functional oracle
        reads = {0.25: (0, 2, 3), 0.5: (0, 1, 2, 3), 0.501: (0, 1), 1.0: (0, 2, 3)}
        b, z = exp_functional_samples(reads, 1e-3, 256, RNG.child(34), mu=self.MUS, drift=self.DRIFTS)
        assert b.shape == (4, 256) and [zj.shape for zj in z] == [(4, 256), (2, 256), (3, 256), (3, 256)]
        for j, (mu, drift) in enumerate(zip(self.MUS, self.DRIFTS)):
            times = [t for t, js in reads.items() if j in js]
            x_ref, z_ref = exp_functional_stepwise(times, 1e-3, 256, RNG.child(34), mu=mu, drift=drift)
            assert np.max(np.abs(z[j] / z_ref - 1.0)) <= 1e-12

    def test_scalar_driftless_stream_pinned(self):
        # digest of the scalar drift-0 output, since the running-sum trapezoid
        b, (z,) = exp_functional_samples(self.ONE, 1e-3, 512, RngStream(20240809, 7))
        h = hashlib.sha256()
        h.update(b.tobytes())
        h.update(z.tobytes())
        assert h.hexdigest() == "534538f55bc37b9b60af948c47250c9f73dd7b63b0ed7f51bf2aaee768b57c78"

    def test_sequence_lengths_must_match(self):
        with pytest.raises(ValueError):
            exp_functional_samples({1.0: [0]}, 1e-3, 4, RNG.child(33), mu=[1.0, 2.0], drift=[0.0, 0.0, 0.5])
        with pytest.raises(ValueError):
            exp_functional_samples({1.0: [0]}, 1e-3, 4, RNG.child(33), mu=[])
        with pytest.raises(ValueError):  # a mapping names a functional that is not there
            exp_functional_samples({1.0: (0, 2)}, 1e-3, 4, RNG.child(33), mu=[1.0, 2.0])

    def test_noise_and_memory_flat_in_functionals(self, monkeypatch):
        # m functionals draw exactly n_steps * n_paths normals, and the traced peak is
        # the result plus O(m) arrays of n_paths: no per-step or per-time state
        n_paths, steps = 20_000, 200
        times = [0.05, 0.1, 0.2]
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
        row = n_paths * 8
        for m in (1, 8):
            drawn.clear()
            tracemalloc.start()
            try:
                b, z = exp_functional_samples(dict.fromkeys(times, range(m)), 1e-3, n_paths, RngStream(9, 0),
                                              mu=np.linspace(1.0, 3.0, m), drift=np.resize([0.0, 0.5], m))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(drawn) == steps * n_paths
            assert peak <= b.nbytes + sum(zj.nbytes for zj in z) + (2 * m + 4) * row
