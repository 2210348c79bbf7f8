import hashlib
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from myproc.paths import (
    RngStream,
    TimeGrid,
    exp_functional_samples,
    my_drift,
)
from myproc.experiments import _convergence_rows
from myproc.matrixproc import (
    eta_matrix,
    finite_q_radial,
    sample_triangular_bm,
    simulate_su_solvable,
    triangular_from_increments,
    triangular_increments,
)
from myproc.specialfn import macdonald_k
from oracles import exp_functional_serial, exp_functional_stepwise, ks_two_sample, philox_generator, sample_bm

GRID = TimeGrid(1.0, 1000)
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

    def test_stream_equals_a_philox_built_per_call(self):
        # the generator starts from one cached seed sequence; its state and draws are those of
        # a Philox(0) built per call, up to the largest seed and a child id near 2^64
        top = RngStream(2**63 - 1, 5).child(300)
        assert top.stream_id > 2**64 - 2**52
        for rng in (RngStream(0, 0), RngStream(5, 9), RngStream(20240801, 2), RngStream(2**63 - 1, 0),
                    RngStream(2**64 - 1, 1), top):
            gen, ref = rng.generator(), philox_generator(rng.seed, rng.stream_id)
            assert str(gen.bit_generator.state) == str(ref.bit_generator.state)
            assert np.array_equal(gen.standard_normal(1000), ref.standard_normal(1000))

    def test_seed_outside_64_bits_rejected(self):
        # Philox keys on 64 bits: -1 and 2^64 + 1 would repeat the draws of 2^64 - 1 and 1
        for seed in (-1, 2**64, 2**64 + 1):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
                RngStream(seed, 0)
        top = RngStream(2**64 - 1, 0).generator().standard_normal(4)
        assert not np.array_equal(top, RngStream(0, 0).generator().standard_normal(4))

    def test_children_distinct_and_stable(self):
        base = RngStream(7, 3)
        assert base.child(0) == base.child(0)
        assert base.child(0) != base.child(1)


class TestBrownian:
    """The Brownian driver B of the flat limits: the p = 1 real triangular driver, l = e^B."""

    def test_same_stream_same_path(self):
        paths = [sample_triangular_bm(1, "real", GRID, [RNG]).frames for _ in range(2)]
        assert np.array_equal(*paths)

    def test_increments_sum_to_the_scalar_path(self):
        # the driver's steps draw the normals of one standard_normal(n_steps), as the scalar oracle does
        increments = triangular_increments(1, "real", GRID, [RNG])[0, :, 0, 0]
        assert np.array_equal(np.cumsum(increments), sample_bm(GRID, RNG)[1:])

    def test_terminal_variance(self):
        grid = TimeGrid(1.0, 8)
        l = sample_triangular_bm(1, "real", grid, [RNG.child(i) for i in range(10_000)])
        finals = np.log(l.frames[:, -1, 0, 0])
        var = finals.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(finals) - 1))
        assert abs(var - 1.0) <= 5.0 * se

    def test_starts_at_zero(self):
        assert sample_triangular_bm(1, "real", GRID, [RNG]).frames[0, 0, 0, 0] == 1.0  # l_0 = e^{B_0}


def _frames(b: np.ndarray):
    """The p = 1 real triangular path l = e^B of the GRID path b, one replica."""
    return triangular_from_increments(GRID, np.diff(b)[None, :, None, None])


def _radial(q: tuple, b: np.ndarray, rng: RngStream) -> np.ndarray:
    """Radial part on H^q driven by the GRID path b, one row per q value and a column per
    grid point: the SO(1,q) solvable-group engine with l = e^B."""
    return finite_q_radial(simulate_su_solvable(q, [rng], _frames(b)), range(GRID.n_steps + 1))[0, ..., 0]


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
            lg = np.log(eta_matrix(_frames(b), range(k0, GRID.n_steps + 1))[0, :, 0])
            d = _radial((100, 10_000), b, RNG.child(400 + i))
            errs = [np.max(np.abs(row[k0:] - math.log(q) - lg)) for row, q in zip(d, (100, 10_000))]
            wins += errs[1] < errs[0]
        assert wins >= 9

    def test_convergence_stream_pinned(self):
        # a given version and seed give byte-identical my-convergence seed errors
        [(_, e_small, e_large)] = _convergence_rows([3], 0.01, 0.2, (100, 10_000))
        assert hashlib.sha256(np.array([e_small, e_large]).tobytes()).hexdigest() == (
            "8feb2191642fb54d27943503a26e6fd4efb8f355c0116ab7e01c86082caae253")

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
    def test_mean_at_t1(self):
        _, [[z]] = exp_functional_samples({1.0: [0]}, 1e-3, 20_000, RNG.child(3))
        m = z.mean()
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(m - math.exp(0.5)) <= 3.0 * se

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
        # mu B_s leaves double range before t = 1 although the final B is moderate; the helper
        # thread, then a step ahead and waiting for a free buffer, ends with the call
        before = threading.active_count()
        with pytest.raises(OverflowError):
            exp_functional_samples({1.0: [0]}, 1e-3, 1, RngStream(10, 0), mu=1000.0)
        assert threading.active_count() == before

    def test_overflow_on_a_read_step_raises_overflow_error(self):
        # e^{mu X} first overflows on the step read at t = 1e-3, where the trapezoid forms
        # (1 - inf) / 2 + inf = nan: OverflowError, not numpy's "invalid value" RuntimeWarning
        with pytest.raises(OverflowError, match="left double range"):
            exp_functional_samples({1e-3: [0], 1.0: [0]}, 1e-3, 64, RngStream(10, 0), mu=[1e6])

    def test_drifted_functional_stops_at_its_last_read(self):
        # e^{mu drift t} leaves double range past t = 709 / 600 ~ 1.18, after functional 1's
        # last read at 0.5 but before functional 0's at 1.5: no error, and functional 1 is
        # the one it would be alone
        b, z = exp_functional_samples({0.5: (0, 1), 1.5: (0,)}, 1e-3, 8, RngStream(1, 0),
                                      mu=[2.0, 2.0], drift=[0.0, 300.0])
        assert [zj.shape for zj in z] == [(2, 8), (1, 8)] and all(np.isfinite(zj).all() for zj in z)
        b1, z1 = exp_functional_samples({0.5: (0,)}, 1e-3, 8, RngStream(1, 0), mu=2.0, drift=300.0)
        assert np.array_equal(b[:1], b1) and np.array_equal(z[1], z1[0])

    @pytest.mark.parametrize("kwargs, message", [
        ({"dt": 0.0}, "dt must be finite and > 0"),
        ({"dt": -1e-3}, "dt must be finite and > 0"),
        ({"dt": math.nan}, "dt must be finite and > 0"),
        ({"dt": math.inf}, "dt must be finite and > 0"),
        ({"mu": math.nan}, "every mu must be finite"),
        ({"mu": [2.0, math.inf]}, "every mu must be finite"),
        ({"drift": math.nan}, "every drift must be finite"),
        ({"mu": [2.0, 1.0], "drift": [0.0, -math.inf]}, "every drift must be finite"),
    ], ids=["dt=0", "dt<0", "dt=nan", "dt=inf", "mu=nan", "mu=inf", "drift=nan", "drift=-inf"])
    def test_bad_arguments_rejected_before_any_draw(self, monkeypatch, kwargs, message):
        # no generator is built, so nothing is drawn and no helper thread starts
        monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("a stream was drawn from"))
        args = {"dt": 1e-3, "mu": 2.0, "drift": 0.0, **kwargs}
        with pytest.raises(ValueError, match=message):
            exp_functional_samples({1.0: [0]}, args.pop("dt"), 4, RngStream(1, 0), **args)


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
        # drifted one stops at t = 0.501, and every functional matches its one-functional oracle
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
        # m functionals draw exactly n_steps * n_paths normals, and the traced peak is the result
        # plus one running sum per functional and a few shared arrays of n_paths (B and the two
        # normal buffers, the current one the step's scratch): no per-step or per-time state
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
            assert peak <= b.nbytes + sum(zj.nbytes for zj in z) + (m + 5) * row


class TestHelperThread:
    """exp_functional_samples draws each step's normals on a helper thread, a step ahead of the
    arithmetic: its output is the serial loop's bit for bit, and the thread ends with the call."""

    MUS, DRIFTS = (2.0, 2.0, 1.0, 3.0), (0.0, 0.5, 0.0, 0.0)
    # my-generator's read map at dt = 1e-3: the drifted functional 1 ends at 1.001
    READS = {0.9: (0, 2, 3), 1.0: (0, 1, 2, 3), 1.001: (0, 1), 1.5: (0, 2, 3)}

    @pytest.mark.parametrize("reads, mu, drift, n_paths", [
        (READS, MUS, DRIFTS, 256),
        ({1e-3: [0], 2e-3: [0], 0.5: [0], 0.501: [0]}, 2.0, 0.0, 64),  # reads at consecutive steps
        ({1.0: [0]}, 1.0, -0.7, 256),  # a single functional
        (READS, MUS, DRIFTS, 1),
        (READS, MUS, DRIFTS, 20_000),
    ])
    def test_equals_serial_loop(self, reads, mu, drift, n_paths):
        before = threading.active_count()
        b, z = exp_functional_samples(reads, 1e-3, n_paths, RngStream(20240801, 2), mu=mu, drift=drift)
        assert threading.active_count() == before
        b_ref, z_ref = exp_functional_serial(reads, 1e-3, n_paths, RngStream(20240801, 2), mu=mu, drift=drift)
        assert np.array_equal(b, b_ref)
        assert len(z) == len(z_ref) and all(np.array_equal(zj, zr) for zj, zr in zip(z, z_ref))

    def test_helper_ends_before_the_call_raises(self, monkeypatch):
        # e^{mu B} overflows at step 1 (B_1 > 0) and the read at step 2 raises (B_2 < 0, so no
        # inf - inf) while the helper still draws step 3 (a draw after the second takes 0.2 s):
        # the call returns only once the helper has finished that draw and ended
        plain = RngStream.generator

        class Slow:
            def __init__(self, gen):
                self.gen, self.draws = gen, 0

            def standard_normal(self, *args, **kwargs):
                self.draws += 1
                if self.draws > 2:
                    time.sleep(0.2)
                return self.gen.standard_normal(*args, **kwargs)

        monkeypatch.setattr(RngStream, "generator", lambda self: Slow(plain(self)))
        before = threading.active_count()
        with pytest.raises(OverflowError):
            exp_functional_samples({2e-3: [0], 1.0: [0]}, 1e-3, 1, RngStream(8, 0), mu=1e6)
        assert threading.active_count() == before

    def test_raise_while_the_helper_waits_for_a_buffer(self):
        # the read at step 1 overflows (B_1 > 0 at mu = 1e6) before the step frees its buffer, so
        # the helper draws into the two buffers and then can only end on the None the call queues
        before = threading.active_count()
        with pytest.raises(OverflowError):
            exp_functional_samples({1e-3: [0], 1.0: [0]}, 1e-3, 1, RngStream(1, 0), mu=1e6)
        assert threading.active_count() == before

    def test_concurrent_calls_under_fast_switching(self):
        # four callers and their four helpers, more threads than a small host has CPUs, with a
        # thread switch every microsecond: a buffer read before its draw ends, or drawn into
        # while its step still reads it, breaks the equality with the serial loop
        reads, mu, drift = {0.1: [0], 0.2: [0, 1]}, [2.0, 1.0], [0.0, 0.5]
        got = {}

        def call(i):
            got[i] = exp_functional_samples(reads, 1e-3, 8, RngStream(5, i), mu=mu, drift=drift)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers) and sorted(got) == [0, 1, 2, 3]
        for i, (b, z) in got.items():
            b_ref, z_ref = exp_functional_serial(reads, 1e-3, 8, RngStream(5, i), mu=mu, drift=drift)
            assert np.array_equal(b, b_ref) and all(np.array_equal(zj, zr) for zj, zr in zip(z, z_ref))

    def test_generator_family_pinned(self):
        # digest of the four-functional output, taken from the serial loop before the helper thread
        b, z = exp_functional_samples(self.READS, 1e-3, 512, RngStream(20240801, 2), mu=self.MUS, drift=self.DRIFTS)
        h = hashlib.sha256(b.tobytes())
        for zj in z:
            h.update(zj.tobytes())
        assert h.hexdigest() == "3338baf3e7b1826d982ffe88549dda3cba17958514094753e832afa0d6f9449b"

    @pytest.mark.parametrize("error", [FloatingPointError, KeyboardInterrupt])
    @pytest.mark.parametrize("failing_draw", [1, 3, 1000])
    def test_draw_error_reaches_the_caller(self, monkeypatch, error, failing_draw):
        # the first, a middle and the last draw fail on the helper thread; the call raises the
        # same exception type instead of waiting for a step that never comes
        plain = RngStream.generator

        class Failing:
            def __init__(self, gen):
                self.gen, self.draws = gen, 0

            def standard_normal(self, *args, **kwargs):
                self.draws += 1
                if self.draws == failing_draw:
                    raise error("draw failed")
                return self.gen.standard_normal(*args, **kwargs)

        monkeypatch.setattr(RngStream, "generator", lambda self: Failing(plain(self)))
        before = threading.active_count()
        with pytest.raises(error, match="draw failed"):
            exp_functional_samples({0.5: [0], 1.0: [0]}, 1e-3, 16, RngStream(1, 0))
        assert threading.active_count() == before
