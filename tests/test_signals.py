"""Signal generators: Lorenz63 RK4 integration and synthetic traces."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagssm import (
    ArgumentError,
    LorenzParams,
    NumericError,
    SignalTrace,
    lorenz63,
    normalize_trace,
    sine_mixture,
    zoh_function,
)
from lagssm.experiments import ExperimentConfig, LorenzSignal, make_signal
from lagssm.signals import LorenzSystem, lorenz_rhs, rk4_step


def test_origin_is_fixed_point():
    assert np.array_equal(lorenz_rhs(np.zeros(3), 10.0, 28.0, 8.0 / 3.0), np.zeros(3))
    params = LorenzParams(x0=(0.0, 0.0, 0.0), steps=50, burn_in=0)
    trace = lorenz63(params)
    np.testing.assert_array_equal(trace.values, np.zeros(50))


def test_single_rk4_step_against_hand_coded():
    """Independently written Runge-Kutta arithmetic agrees to 1e-14."""
    sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
    dt = 0.01
    v = np.array([1.0, 1.0, 1.0])

    def f(s):
        x, y, z = s
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

    k1 = f(v)
    k2 = f(v + dt / 2.0 * k1)
    k3 = f(v + dt / 2.0 * k2)
    k4 = f(v + dt * k3)
    expect = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    got = rk4_step(v, dt, sigma, rho, beta)
    np.testing.assert_allclose(got, expect, atol=1e-14)


def test_attractor_bounding_box():
    """10k post-burn-in steps stay inside the standard envelope."""
    state = np.array([1.0, 1.0, 1.0])
    dt = 0.01
    for _ in range(1000):
        state = rk4_step(state, dt, 10.0, 28.0, 8.0 / 3.0)
    xs = np.empty(10000)
    zs = np.empty(10000)
    for i in range(10000):
        state = rk4_step(state, dt, 10.0, 28.0, 8.0 / 3.0)
        xs[i] = state[0]
        zs[i] = state[2]
    assert np.abs(xs).max() <= 25.0
    assert np.abs(zs).max() <= 55.0


def test_deterministic():
    params = LorenzParams(steps=200, burn_in=10)
    a = lorenz63(params)
    b = lorenz63(params)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.times, b.times)


def test_rk4_order():
    """Halving the step cuts the error over a fixed interval by about 2^4."""
    sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
    v0 = np.array([1.0, 1.0, 1.0])
    dt = 0.01

    def advance(n, h):
        v = v0.copy()
        for _ in range(n):
            v = rk4_step(v, h, sigma, rho, beta)
        return v

    ref = advance(100, dt / 100.0)
    err_full = np.linalg.norm(advance(1, dt) - ref)
    err_half = np.linalg.norm(advance(2, dt / 2.0) - ref)
    ratio = err_full / err_half
    assert 8.0 <= ratio <= 32.0


def test_dt_guard():
    with pytest.raises(ArgumentError, match=r"sample spacing delta must be in \(0, MAX_LORENZ_DT=0.02\], got 0.05"):
        LorenzParams(dt=0.05)
    with pytest.raises(ArgumentError):
        LorenzParams(steps=0)
    with pytest.raises(ArgumentError, match="signal burn_in must be a nonnegative integer, got -1"):
        LorenzParams(burn_in=-1)


def test_make_signal_passes_every_lorenz_field_through():
    """make_signal hands each field LorenzSignal shares with LorenzParams to
    the generator: a value unlike either class's default in each gives the
    trace LorenzParams gives with the same values, byte for byte."""
    shared = {"sigma": 9.5, "rho": 27.0, "beta": 2.5, "x0": (0.5, -1.0, 20.0), "burn_in": 7}
    assert set(shared) == {f.name for f in dataclasses.fields(LorenzSystem)}
    signal = LorenzSignal(**shared, normalize=False)
    got = make_signal(ExperimentConfig(delta=0.01, total_time=1.0, signal=signal))
    want = lorenz63(LorenzParams(**shared, dt=0.01, steps=100))
    assert got.values.tobytes() == want.values.tobytes()


def test_lorenz63_matches_rk4_step_fold():
    """lorenz63 runs rk4_step's arithmetic on floats: the output must be
    bit-identical to folding rk4_step, burn-in included."""
    params = LorenzParams(x0=(0.3, -1.2, 20.0), dt=0.015, steps=700, burn_in=123)
    state = np.asarray(params.x0, dtype=float)
    expect = []
    for i in range(params.burn_in + params.steps):
        state = rk4_step(state, params.dt, params.sigma, params.rho, params.beta)
        if i >= params.burn_in:
            expect.append(state[0])
    assert np.array_equal(lorenz63(params).values, np.array(expect))


def test_lorenz63_divergence_names_step():
    with pytest.raises(NumericError, match="diverged at step 0"):
        lorenz63(LorenzParams(x0=(1e200, 1e200, 1e200), steps=10, burn_in=0))


def test_lorenz63_divergence_in_z_alone():
    """After one step x is -3.6e293, still finite; only z overflows, so a
    check on x alone would pass this trajectory."""
    params = LorenzParams(x0=(1.5057502190205949e100, 0.0, 0.0), steps=1, burn_in=0)
    with np.errstate(over="ignore"):
        state = rk4_step(np.asarray(params.x0), params.dt, params.sigma, params.rho, params.beta)
    assert np.isfinite(state[0]) and not np.isfinite(state[2])
    with pytest.raises(NumericError, match="diverged at step 0$"):
        lorenz63(params)


def test_lorenz63_divergence_inside_burn_in_names_step():
    with pytest.raises(NumericError, match="diverged at step 2$"):
        lorenz63(LorenzParams(x0=(1e5, 1e5, 1e5), steps=3, burn_in=5))


_component = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exp: sign * 10.0**exp, st.sampled_from([-1.0, 1.0]), st.floats(0.0, 200.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    x0=st.tuples(_component, _component, _component),
    burn_in=st.integers(0, 4),
    steps=st.integers(1, 4),
)
def test_lorenz63_is_the_fold_or_names_its_first_bad_step(x0, burn_in, steps):
    """Zero, moderate and overflowing starts alike: lorenz63 returns the x
    samples of the rk4_step fold bit for bit, or raises naming the fold's
    first non-finite step, and lets no RuntimeWarning escape."""
    params = LorenzParams(x0=x0, steps=steps, burn_in=burn_in)
    state = np.asarray(x0, dtype=float)
    xs, bad = [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(burn_in + steps):
            state = rk4_step(state, params.dt, params.sigma, params.rho, params.beta)
            if bad is None and not np.isfinite(state).all():
                bad = i
            xs.append(state[0])
    if bad is None:
        assert lorenz63(params).values.tobytes() == np.array(xs[burn_in:]).tobytes()
    else:
        with pytest.raises(NumericError, match=f"diverged at step {bad}$"):
            lorenz63(params)


def test_trace_shape_and_timestamps():
    params = LorenzParams(steps=100, burn_in=5, dt=0.02)
    trace = lorenz63(params)
    assert trace.values.size == 100
    assert trace.times[0] == trace.t0 == 0.0
    assert trace.delta == 0.02


class TestSineMixture:
    def test_empty_is_zero(self):
        trace = sine_mixture([], [], [], delta=0.1, steps=10)
        np.testing.assert_array_equal(trace.values, np.zeros(10))

    def test_quarter_period_samples(self):
        trace = sine_mixture([1.0], [1.0], [0.0], delta=0.25, steps=5)
        np.testing.assert_allclose(trace.values, [0.0, 1.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_amplitude_scaling_is_exact(self):
        a = sine_mixture([0.3, 1.7], [1.0, 0.5], [0.1, 2.0], delta=0.05, steps=64)
        b = sine_mixture([0.3, 1.7], [2.0, 1.0], [0.1, 2.0], delta=0.05, steps=64)
        np.testing.assert_array_equal(b.values, 2.0 * a.values)

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            sine_mixture([1.0], [1.0, 2.0], [0.0], delta=0.1, steps=4)

    def test_long_grid_builds(self):
        """Its times pass t = 8192, where their float spacing exceeds 1e-12."""
        trace = sine_mixture([0.5], [1.0], [0.0], 0.01, 10**6)
        assert trace.values.size == 10**6
        assert (trace.t0, trace.delta) == (0.0, 0.01)


class TestZohFunction:
    def test_zero_before_start(self):
        trace = sine_mixture([1.0], [1.0], [0.5], delta=0.1, steps=10)
        u = zoh_function(trace)
        assert u(-1.0) == 0.0

    def test_zero_after_end(self):
        trace = sine_mixture([1.0], [1.0], [0.5], delta=0.1, steps=10)
        u = zoh_function(trace)
        assert u(1.0) == 0.0
        assert u(5.0) == 0.0

    def test_interval_reads_its_sample(self):
        trace = SignalTrace(np.array([10.0, 20.0, 30.0, 40.0]), delta=0.5)
        u = zoh_function(trace)
        # third interval is [1.0, 1.5)
        assert u(1.2) == 30.0

    def test_boundaries_are_right_continuous(self):
        trace = SignalTrace(np.arange(1.0, 8.0), delta=0.01)
        u = zoh_function(trace)
        for k in range(1, 6):
            assert u(trace.times[k]) == trace.values[k]

    def test_grid_starts_at_t0(self):
        u = zoh_function(SignalTrace(np.array([10.0, 20.0, 30.0]), delta=0.5, t0=4.0))
        assert [u(s) for s in (3.9, 4.0, 4.6, 5.2, 5.5)] == [0.0, 10.0, 20.0, 30.0, 0.0]

    def test_vectorized_call(self):
        trace = SignalTrace(np.array([1.0, 2.0]), delta=1.0)
        u = zoh_function(trace)
        np.testing.assert_array_equal(u(np.array([-0.5, 0.5, 1.5, 2.5])), [0.0, 1.0, 2.0, 0.0])

    @settings(max_examples=300, deadline=None)
    @given(
        t0=st.floats(-1e3, 1e3),
        delta=st.floats(1e-3, 1.0),
        m=st.integers(1, 60),
        k=st.integers(0, 59),
    )
    @example(t0=0.0, delta=0.01, m=50, k=41)  # 0.41 sits one ulp below times[41]
    def test_boundaries_are_the_grid_times(self, t0, delta, m, k):
        """Sample k holds from times[k] on, and the float just below it
        still reads sample k - 1 (0 before the trace); the trace ends at
        t0 + m * delta."""
        k %= m
        trace = SignalTrace(np.arange(1.0, m + 1.0), delta=delta, t0=t0)
        u, at = zoh_function(trace), trace.times[k]
        assert u(at) == trace.values[k]
        assert u(np.nextafter(at, -np.inf)) == (trace.values[k - 1] if k else 0.0)
        assert u(t0 + m * delta) == 0.0


def test_normalize_trace():
    trace = sine_mixture([0.25], [3.0], [0.3], delta=0.1, steps=200)
    normed = normalize_trace(trace)
    assert abs(normed.values.mean()) <= 1e-12
    assert np.abs(normed.values).max() == pytest.approx(1.0, abs=1e-15)
    zero = normalize_trace(sine_mixture([], [], [], delta=0.1, steps=5))
    np.testing.assert_array_equal(zero.values, np.zeros(5))


def test_normalize_trace_is_bit_exact_on_the_same_grid():
    """The values are (v - mean) / peak bit for bit, the input's values are
    left as they were, and the grid (t0, delta) is passed through."""
    raw = lorenz63(LorenzParams(steps=300, burn_in=10))
    trace = SignalTrace(raw.values, raw.delta, t0=7.5)
    before = trace.values.copy()
    normed = normalize_trace(trace)
    centred = trace.values - trace.values.mean()
    want = centred / np.abs(centred).max()
    assert normed.values.tobytes() == want.tobytes()
    assert trace.values.tobytes() == before.tobytes()
    assert (normed.delta, normed.t0) == (trace.delta, 7.5)
