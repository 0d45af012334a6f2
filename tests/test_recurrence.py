"""Recurrence stepping, reconstruction, and the direct-projection oracle."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagssm import (
    ArgumentError,
    BasisSpec,
    FohVectors,
    MemoryState,
    QuadratureConfig,
    SignalTrace,
    WarpSpec,
    build_a_delta,
    build_b_delta,
    build_b_gen,
    correct_a_delta,
    hippo_legs_reference,
    matrix_exp,
    normalize_trace,
    project_direct,
    reconstruct,
    run,
    step,
    zoh_function,
)
from lagssm.quadrature import panel_nodes
from lagssm.basis import phi_matrix
from lagssm.recurrence import _BLOCK_CHUNKS, _MAX_CHUNK, Trajectory
from lagssm.signals import sine_mixture

W = WarpSpec()
QUAD = QuadratureConfig()

# dense panels so the oracle resolves piecewise-constant warped histories
ORACLE_QUAD = QuadratureConfig(points_per_panel=64, panels=1024)


def coefficient_transition(spec, delta, quad=QUAD):
    """Transition that advances projection coefficients: the transpose of the
    corrected basis-shift operator."""
    return correct_a_delta(build_a_delta(spec, W, delta, quad), delta).T


class TestStep:
    def test_identity_keeps_state(self):
        state = MemoryState(coeffs=np.array([1.0, -2.0]), t=0.3)
        out = step(state, np.eye(2), np.zeros(2), u_next=5.0, delta=0.1)
        np.testing.assert_array_equal(out.coeffs, state.coeffs)
        assert out.t == pytest.approx(0.4)

    def test_zero_state_picks_up_input(self):
        spec = BasisSpec(n_basis=4)
        delta = 0.05
        b = build_b_gen(spec, W) * delta
        state = MemoryState(coeffs=np.zeros(4), t=0.0)
        out = step(state, np.diag([2.0, 3.0, 4.0, 5.0]), b, u_next=1.0, delta=delta)
        np.testing.assert_array_equal(out.coeffs, b)

    def test_foh_requires_previous_sample(self):
        pair = FohVectors(v_next=np.ones(2), v_prev=np.ones(2))
        state = MemoryState(coeffs=np.zeros(2), t=0.0)
        with pytest.raises(ArgumentError):
            step(state, np.eye(2), pair, u_next=1.0, delta=0.1)
        out = step(state, np.eye(2), pair, u_next=1.0, u_prev=2.0, delta=0.1)
        np.testing.assert_array_equal(out.coeffs, [3.0, 3.0])

    def test_single_step_matches_projection(self):
        """One step from rest under a held unit input equals the projection
        of that one-interval history."""
        spec = BasisSpec(n_basis=4)
        delta = 0.01
        a = coefficient_transition(spec, delta)
        b = build_b_delta(spec, W, delta, "zoh", QUAD)
        state = step(MemoryState(coeffs=np.zeros(4), t=0.0), a, b, u_next=1.0, delta=delta)
        # brute force: integrate phi_n over the support of the held sample
        z, w = panel_nodes(np.exp(-delta), 1.0, QUAD)
        expect = phi_matrix(spec, z) @ w
        np.testing.assert_allclose(state.coeffs, expect, atol=1e-6)


class TestRun:
    def test_zero_trace(self):
        trace = SignalTrace(np.zeros(20), delta=0.1)
        states = run(trace, np.eye(3) * 0.5, np.ones(3))
        assert len(states) == 21
        for st in states:
            np.testing.assert_array_equal(st.coeffs, np.zeros(3))

    def test_times_are_integer_scaled(self):
        trace = SignalTrace(np.ones(1000), delta=0.01)
        states = run(trace, np.eye(2) * 0.9, np.ones(2) * 0.01)
        for k, st in enumerate(states):
            assert st.t == k * 0.01

    def test_states_start_at_t0(self):
        """A trace from t0 = 5 gives the t0 = 0 run's states, stamped t0 +
        k delta: the final state is the projection of the history up to
        t0 + L delta = 8, and reconstructs on the trace's own times."""
        spec, delta = BasisSpec(n_basis=16), 0.01
        a, b = coefficient_transition(spec, delta), build_b_delta(spec, W, delta, "zoh", QUAD)
        u = np.sin(np.pi * delta * np.arange(300))
        early, late = SignalTrace(u, delta), SignalTrace(u, delta, t0=5.0)
        states = run(late, a, b)
        final, final0 = states[-1], run(early, a, b)[-1]
        assert final.coeffs.tobytes() == final0.coeffs.tobytes()
        assert final.t == 5.0 + 300 * 0.01
        assert [s.t for s in states[:3]] == [5.0, 5.0 + delta, 5.0 + 2 * delta]
        np.testing.assert_allclose(
            reconstruct(final, spec, W, late.times),
            reconstruct(final0, spec, W, early.times),
            rtol=0.0,
            atol=1e-12,
        )
        oracle = project_direct(
            zoh_function(late), spec, W, t=final.t, quad=QuadratureConfig(points_per_panel=64, panels=128)
        )
        assert np.linalg.norm(final.coeffs - oracle.coeffs) <= 1e-3 * np.linalg.norm(oracle.coeffs)

    def test_constant_input_converges_to_fixed_point(self):
        spec = BasisSpec(n_basis=16)
        delta = 0.01
        a = coefficient_transition(spec, delta)
        b = np.asarray(build_b_delta(spec, W, delta, "zoh", QUAD))
        trace = SignalTrace(np.ones(4500), delta=delta)
        states = run(trace, a, b)
        # successive updates settle once the history looks constant
        for k in range(4000, 4500):
            diff = np.linalg.norm(states[k + 1].coeffs - states[k].coeffs)
            assert diff < 1e-8
        fixed = np.linalg.solve(np.eye(16) - a, b)
        np.testing.assert_allclose(states[-1].coeffs, fixed, atol=1e-10)

    def test_linearity(self):
        spec = BasisSpec(n_basis=8)
        delta = 0.02
        a = coefficient_transition(spec, delta)
        b = build_b_delta(spec, W, delta, "zoh", QUAD)
        rng = np.random.default_rng(17)
        u1 = rng.standard_normal(100)
        u2 = rng.standard_normal(100)
        alpha, beta = 1.7, -0.4
        mixed = run(SignalTrace(alpha * u1 + beta * u2, delta), a, b)[-1]
        c1 = run(SignalTrace(u1, delta), a, b)[-1].coeffs
        c2 = run(SignalTrace(u2, delta), a, b)[-1].coeffs
        np.testing.assert_allclose(mixed.coeffs, alpha * c1 + beta * c2, atol=1e-10)

    def test_decay_rate_with_zero_input(self):
        """With no input the state envelope decays like exp(-t): the
        log-norm slope over the late window is -1 within 5%."""
        spec = BasisSpec(n_basis=32)
        delta = 0.01
        a = coefficient_transition(spec, delta)
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(32)
        norms = []
        for _ in range(3000):
            coeffs = a @ coeffs
            norms.append(np.linalg.norm(coeffs))
        t = delta * np.arange(1, 3001)
        slope = np.polyfit(t[200:], np.log(np.array(norms[200:])), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_final_state_matches_direct_projection(self):
        """Recurrence vs offline oracle on a held sine; the gap is set by the
        piecewise-constant residual outside the basis span, hence the loose
        1e-3 budget."""
        spec = BasisSpec(n_basis=32)
        delta, total = 0.01, 5.0
        steps = int(round(total / delta))
        trace = sine_mixture([1.0], [1.0], [0.0], delta, steps)
        a = coefficient_transition(spec, delta)
        b = build_b_delta(spec, W, delta, "zoh", QUAD)
        final = run(trace, a, b)[-1]
        oracle = project_direct(zoh_function(trace), spec, W, t=total, quad=ORACLE_QUAD)
        assert np.linalg.norm(final.coeffs - oracle.coeffs) <= 1e-3


class TestReconstruct:
    def test_constant_mode(self):
        spec = BasisSpec(n_basis=4)
        state = MemoryState(coeffs=np.array([1.0, 0.0, 0.0, 0.0]), t=2.0)
        grid = np.linspace(-3.0, 2.0, 50)
        np.testing.assert_allclose(reconstruct(state, spec, W, grid), 1.0, atol=1e-14)

    def test_first_mode_boundary(self):
        spec = BasisSpec(n_basis=2)
        state = MemoryState(coeffs=np.array([0.0, 1.0]), t=1.5)
        val = reconstruct(state, spec, W, np.array([1.5]))
        assert val[0] == pytest.approx(np.sqrt(3.0), abs=1e-14)

    def test_lag_below_float_range_reads_z_zero(self):
        """A lag s - t, or a lag / tau, that overflows to -inf sits at z = 0,
        as any lag whose exp(lag / tau) underflows does, without a
        RuntimeWarning (an error here)."""
        spec = BasisSpec(n_basis=2)
        at_zero = np.ones(2) @ phi_matrix(spec, 0.0)
        for t, s, warp in [(1e308, -1e308, W), (0.0, -1e300, WarpSpec(rate=1e-10))]:
            got = reconstruct(MemoryState(coeffs=np.ones(2), t=t), spec, warp, [s])
            np.testing.assert_array_equal(got, at_zero)

    def test_future_grid_rejected(self):
        spec = BasisSpec(n_basis=2)
        state = MemoryState(coeffs=np.zeros(2), t=1.0)
        with pytest.raises(ArgumentError, match="grid points must not exceed t=1.0"):
            reconstruct(state, spec, W, np.array([0.5, 1.2]))

    def test_round_trip_for_in_span_history(self):
        """Projecting a warped basis function and reconstructing recovers it
        on a 200-point grid."""
        spec = BasisSpec(n_basis=8)
        t = 4.0
        u = lambda s: phi_matrix(spec, np.exp(s - t))[2]
        state = project_direct(u, spec, W, t, QUAD)
        grid = np.linspace(t - 6.0, t, 200)
        got = reconstruct(state, spec, W, grid)
        expect = u(grid)
        np.testing.assert_allclose(got, expect, atol=1e-8)


class TestProjectDirect:
    def test_zero_signal(self):
        spec = BasisSpec(n_basis=6)
        state = project_direct(np.zeros_like, spec, W, t=1.0, quad=QUAD)
        np.testing.assert_array_equal(state.coeffs, np.zeros(6))
        assert state.t == 1.0

    def test_warped_mode_is_unit_vector(self):
        spec = BasisSpec(n_basis=6)
        t = 2.5
        state = project_direct(
            lambda s: phi_matrix(spec, np.exp(s - t))[1], spec, W, t, QUAD
        )
        expect = np.zeros(6)
        expect[1] = 1.0
        np.testing.assert_allclose(state.coeffs, expect, atol=1e-10)

    def test_constant_history_is_first_mode(self):
        spec = BasisSpec(n_basis=6)
        state = project_direct(np.ones_like, spec, W, t=0.0, quad=QUAD)
        expect = np.zeros(6)
        expect[0] = 1.0
        np.testing.assert_allclose(state.coeffs, expect, atol=1e-10)

    def test_non_finite_signal_names_its_time(self):
        """The message names the first history time s whose value is not
        finite, as a plain float literal."""
        spec, t = BasisSpec(n_basis=6), 1.0
        z, _ = panel_nodes(0.0, 1.0, QUAD)
        s = t + W.g(z)
        first = s[s > 0.5][0]  # nodes run from the far past to t
        with pytest.raises(ArgumentError, match="signal non-finite at s=") as err:
            project_direct(lambda s: np.where(s > 0.5, np.nan, 0.0), spec, W, t, QUAD)
        message = str(err.value)
        assert "np.float64" not in message
        assert float(message.split("s=")[1]) == first

    def test_u_must_return_one_value_per_node(self):
        """u is called once on the node array; a scalar-indexing callable,
        whose one value would broadcast over every node, is refused."""
        spec, t = BasisSpec(n_basis=6), 2.5
        nodes = QUAD.points_per_panel * QUAD.panels
        for u, shape in [
            (lambda s: phi_matrix(spec, np.exp(s - t))[1, 0], "()"),
            (lambda s: phi_matrix(spec, np.exp(s - t)), f"(6, {nodes})"),
        ]:
            with pytest.raises(
                ArgumentError, match=rf"one value per history time: got shape {re.escape(shape)} for {nodes} times"
            ):
                project_direct(u, spec, W, t, QUAD)

    def test_u_is_called_once_on_the_nodes(self):
        """u runs once, on every node of the rule, and the coefficients
        equal those of a per-node evaluation."""
        spec = BasisSpec(n_basis=16)
        u = zoh_function(sine_mixture([1.0], [1.0], [0.0], 0.01, 500))
        calls = []
        state = project_direct(lambda s: calls.append(s.size) or u(s), spec, W, 5.0, QUAD)
        z, w = panel_nodes(0.0, 1.0, QUAD)
        assert calls == [z.size]
        each = np.array([u(si) for si in 5.0 + W.g(z)])
        assert state.coeffs.tobytes() == (phi_matrix(spec, z) @ (w * each)).tobytes()


def write_rows(path, times, values=None):
    """A t,u file with the given times, written as to_csv writes floats."""
    values = np.zeros(len(times)) if values is None else values
    rows = [f"{float(t)!r},{float(u)!r}" for t, u in zip(times, values)]
    path.write_text("t,u\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestSignalTrace:
    def test_fields_are_the_grid_and_values(self):
        """No times array is stored: times are t0 + k * delta, built on read."""
        assert [f.name for f in dataclasses.fields(SignalTrace)] == ["values", "delta", "t0"]
        assert not hasattr(SignalTrace, "from_values")
        values = np.arange(7.0)
        trace = SignalTrace(values, 0.3, t0=-2.5)
        assert trace.times.tobytes() == (-2.5 + 0.3 * np.arange(7)).tobytes()
        assert SignalTrace(values, 0.3).times.tobytes() == (0.0 + 0.3 * np.arange(7)).tobytes()
        # A numpy-scalar grid is stored as floats, so state times and
        # messages print plain floats.
        with pytest.raises(ArgumentError, match=r"state 1024 \(t=10\.24\)"):
            run(SignalTrace(np.ones(2000), delta=np.float64(0.01)), 2 * np.eye(3), np.ones(3))
        trace = SignalTrace(np.ones(5), delta=np.float64(0.01), t0=np.float32(0.5))
        assert type(trace.delta) is float and type(trace.t0) is float
        assert type(run(trace, 0.5 * np.eye(3), np.ones(3))[-1].t) is float

    def test_constructor_checks(self):
        with pytest.raises(ArgumentError, match="^values must be nonempty"):
            SignalTrace(np.zeros(0), 0.1)
        with pytest.raises(ArgumentError, match=r"^values must be a vector, got shape \(2, 2\)"):
            SignalTrace(np.zeros((2, 2)), 0.1)
        # delta and t0 meet the finite-real rule of every config float (a
        # wrong type too, not a bare TypeError), then delta > 0; an int
        # delta is a real.
        for delta, t0, shown in [(0.0, 0.0, "delta must be positive, got 0.0"),
                                 (-0.1, 0.0, "delta must be positive, got -0.1"),
                                 (np.float64(-0.1), np.float32(0.5), "delta must be positive, got -0.1"),
                                 (np.nan, 0.0, "delta must be a finite real number, got nan"),
                                 (np.inf, 0.0, "delta must be a finite real number, got inf"),
                                 (0.1, np.nan, "t0 must be a finite real number, got nan"),
                                 (0.1, np.inf, "t0 must be a finite real number, got inf"),
                                 (0.1, -np.inf, "t0 must be a finite real number, got -inf"),
                                 ("0.1", 0.0, "delta must be a finite real number, got '0.1'"),
                                 (0.1, None, "t0 must be a finite real number, got None"),
                                 (np.array([0.1]), 0.0,
                                  "delta must be a finite real number, got array([0.1])"),
                                 (True, 0.0, "delta must be a finite real number, got True")]:
            with pytest.raises(ArgumentError) as exc:
                SignalTrace(np.zeros(3), delta, t0)
            assert str(exc.value) == shown
        assert SignalTrace(np.zeros(3), 1).delta == 1.0

    @pytest.mark.parametrize(
        "values, delta, t0",
        [(np.array([1.0, 2.0, 3.0]), 1e-20, 1e3), (np.ones(3), 1e308, 1e308)],
        ids=["delta-below-the-spacing-at-t0", "final-time-overflows"],
    )
    def test_times_must_be_distinct_and_finite(self, values, delta, t0):
        """A delta below the float spacing at t0, whose times would all be
        1000, and a grid that leaves float range, whose final state would
        sit at t = inf, are refused naming delta and t0."""
        shown = f"delta={delta} at t0={t0} gives sample times that are not distinct and finite"
        with pytest.raises(ArgumentError, match=re.escape(shown)):
            SignalTrace(values, delta, t0)

    def test_smallest_delta_is_eight_ulps_of_the_largest_time(self):
        """The bound is 2 * _grid_slack: 8 ulps of the largest |time|, over
        the whole grid up to the final state's t0 + L delta."""
        ulp = float(np.spacing(1e3))
        assert SignalTrace(np.zeros(3), 9 * ulp, 1e3).times.tolist() == [
            1e3, 1e3 + 9 * ulp, 1e3 + 18 * ulp]
        with pytest.raises(ArgumentError, match="not distinct and finite"):
            SignalTrace(np.zeros(3), 8 * ulp, 1e3)
        with pytest.raises(ArgumentError, match=r"t0 \+ 3 \* delta must be finite"):
            SignalTrace(np.zeros(3), 5e307, 1.2e308)

    def test_late_grid_is_accepted(self):
        """Past t = 8192 the float spacing of the times exceeds 1e-12; the
        grid is no longer re-checked, so such a trace builds."""
        trace = SignalTrace(np.zeros(1000), 0.01, t0=1e4)
        assert trace.times[-1] == 1e4 + 0.01 * 999

    def test_building_allocates_no_values_sized_array(self):
        """At L = 1e5 a trace builds with no array of its values' size
        (a per-sample flag array is an eighth of it), and normalize_trace
        with none beyond its output."""
        values = np.random.default_rng(0).standard_normal(100_000)
        size = values.nbytes
        tracemalloc.start()
        try:
            trace = SignalTrace(values, 0.01, t0=3.0)
            _, built = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            normed = normalize_trace(trace)
            _, normalized = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built < size / 2
        assert normalized < size + size / 2
        assert (normed.delta, normed.t0) == (0.01, 3.0)

    def test_uniform_spacing_enforced(self, tmp_path):
        """Times from a file must lie on one grid; the error names the path
        and the row."""
        for times, row in (([0.0, 0.1, 0.25], 3), ([0.0, 0.0], 3), ([0.0, 0.2, 0.1, 0.3], 4)):
            path = write_rows(tmp_path / "bad.csv", times)
            with pytest.raises(ArgumentError, match=f"bad.csv' row {row}: times must be"):
                SignalTrace.from_csv(path)

    def test_nul_byte_in_path_is_named(self):
        """A path no file can have is refused like one that cannot be read."""
        with pytest.raises(ArgumentError, match=r"cannot read signal file 'a\\x00b': "):
            SignalTrace.from_csv("a\0b")

    def test_csv_round_trip(self, tmp_path):
        trace = SignalTrace(np.array([0.5, -1.25, 3.0]), delta=0.25)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = SignalTrace.from_csv(path)
        np.testing.assert_array_equal(back.values, trace.values)
        np.testing.assert_array_equal(back.times, trace.times)
        assert back.delta == trace.delta

    @settings(max_examples=60, deadline=None)
    @given(
        t0=st.floats(1e-3, 1e6),
        sign=st.sampled_from([-1.0, 1.0]),
        delta=st.floats(1e-4, 10.0),
        length=st.integers(2, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_csv_round_trip_property(self, tmp_path_factory, t0, sign, delta, length, seed):
        """to_csv then from_csv gives the values bit for bit and the same
        t0; the grid of the delta inferred from the whole span stays within
        a few ulps of the largest |t| of the written times."""
        trace = SignalTrace(np.random.default_rng(seed).standard_normal(length), delta, sign * t0)
        path = tmp_path_factory.mktemp("rt") / "trace.csv"
        trace.to_csv(path)
        back = SignalTrace.from_csv(path)
        assert back.values.tobytes() == trace.values.tobytes()
        assert back.t0 == trace.t0
        times = trace.times
        slack = 4 * np.spacing(np.abs(times[[0, -1]]).max())
        assert np.abs(back.times - times).max() <= slack

    def test_late_csv_round_trips(self, tmp_path):
        trace = SignalTrace(np.random.default_rng(1).standard_normal(100_000), 0.01, t0=1e4)
        path = tmp_path / "late.csv"
        trace.to_csv(path)
        back = SignalTrace.from_csv(path)
        assert back.values.tobytes() == trace.values.tobytes()
        assert back.t0 == 1e4
        assert np.abs(back.times - trace.times).max() <= 4 * np.spacing(trace.times[-1])

    @pytest.mark.parametrize(
        "t0, delta, jitter, row, what",
        [
            (1e4, 0.01, 1e-6, 7, "uniformly spaced"),  # 1e-8 vs ulps of 1.8e-12
            (0.0, 0.01, 1e-9, 7, "uniformly spaced"),  # stays below t = 10
            (2.0, 0.5, 0.0, 4, "strictly increasing"),  # repeats its previous time
        ],
        ids=["late-jitter", "early-jitter", "repeated"],
    )
    def test_off_grid_times_refused(self, tmp_path, t0, delta, jitter, row, what):
        times = t0 + delta * np.arange(500)
        times[5] += jitter * delta
        if not jitter:
            times[2] = times[1]
        path = write_rows(tmp_path / "off.csv", times)
        with pytest.raises(ArgumentError, match=f"off.csv' row {row}: times must be {what}"):
            SignalTrace.from_csv(path)

    def test_grid_slack_is_a_few_ulps(self, tmp_path):
        """A time one ulp of the largest |t| off its grid point is read;
        sixteen ulps off is refused."""
        times = 1e4 + 0.01 * np.arange(500)
        ulp = np.spacing(times[-1])
        times[5] += ulp
        SignalTrace.from_csv(write_rows(tmp_path / "ok.csv", times))
        times[5] += 15 * ulp
        with pytest.raises(ArgumentError, match="off.csv' row 7: times must be uniformly spaced"):
            SignalTrace.from_csv(write_rows(tmp_path / "off.csv", times))

    def test_state_validation(self):
        with pytest.raises(ArgumentError):
            MemoryState(coeffs=np.array([np.inf, 1.0]), t=0.0)
        with pytest.raises(ArgumentError, match=r"coeffs must be a vector, got shape \(2, 2\)"):
            MemoryState(coeffs=np.eye(2), t=0.0)

    @pytest.mark.parametrize(
        "content, named",
        [("t,u\n", "no samples in"), ("t,u\n0.5,1.0\n", "need at least two samples in")],
        ids=["header-only", "one-sample"],
    )
    def test_too_few_samples_refused(self, tmp_path, content, named):
        path = tmp_path / "short.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ArgumentError, match=f"{named} .*short.csv"):
            SignalTrace.from_csv(path)

    def test_non_finite_samples_rejected(self, tmp_path):
        with pytest.raises(ArgumentError, match=r"^values\[1\] must be finite, got nan$"):
            SignalTrace(np.array([0.0, np.nan, 1.0]), delta=0.1)
        for bad in (np.inf, -np.inf, np.nan):
            for i in (0, 2):
                times = [0.0, 0.1, 0.2]
                times[i] = bad
                path = write_rows(tmp_path / "nonfinite.csv", times)
                with pytest.raises(
                    ArgumentError, match=f"nonfinite.csv' row {i + 2}: times must be finite"
                ):
                    SignalTrace.from_csv(path)


class TestFohRun:
    def test_foh_run_close_to_zoh_on_smooth_signal(self):
        """The two hold models bracket the same continuous limit: on a smooth
        trace their final states differ at the discretization scale, and the
        gap shrinks roughly linearly with the step."""
        spec = BasisSpec(n_basis=16)
        devs = {}
        for delta in (0.01, 0.005):
            steps = int(round(5.0 / delta))
            trace = sine_mixture([0.5], [1.0], [0.0], delta, steps)
            a = coefficient_transition(spec, delta)
            zoh_final = run(trace, a, build_b_delta(spec, W, delta, "zoh", QUAD))[-1]
            foh_final = run(trace, a, build_b_delta(spec, W, delta, "foh", QUAD))[-1]
            devs[delta] = np.linalg.norm(foh_final.coeffs - zoh_final.coeffs)
        assert 0.0 < devs[0.01] <= 5e-2
        assert devs[0.01] / devs[0.005] == pytest.approx(2.0, rel=0.25)


def step_fold(trace, a, b_model):
    """Reference path: fold `step` over the trace, stacking every state."""
    state = MemoryState(coeffs=np.zeros(a.shape[0]), t=0.0)
    rows, u_prev = [state.coeffs], 0.0
    for u in trace.values:
        state = step(state, a, b_model, float(u), u_prev, delta=trace.delta)
        rows.append(state.coeffs)
        u_prev = float(u)
    return np.array(rows)


def rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestRunMatchesStepFold:
    """`run` sums the states in chunks; it must agree with the step fold to
    1e-12 relative, with lengths on and off the chunk boundaries."""

    @pytest.mark.parametrize("model", ["dirac", "zoh", "foh"])
    @pytest.mark.parametrize("n", [1, 8, 64, 128])
    def test_hold_models(self, model, n):
        """An impulse input ("dirac") drives with the plain b_gen vector, a
        single column like zoh's; foh takes the two-column path."""
        delta, spec = 0.01, BasisSpec(n_basis=n)
        a = coefficient_transition(spec, delta)
        if model == "dirac":
            b = build_b_gen(spec, W)
        else:
            b = build_b_delta(spec, W, delta, model, QUAD)
        rng = np.random.default_rng(n)
        for length in (1, 2, 31, 32, 33, 1000):
            trace = SignalTrace(rng.standard_normal(length), delta)
            assert rel_gap(run(trace, a, b).coeffs, step_fold(trace, a, b)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 48),
        length=st.integers(1, 300),
        delta=st.floats(1e-3, 0.5),
        foh=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_sizes(self, n, length, delta, foh, seed):
        ref = hippo_legs_reference(n)
        a = matrix_exp(delta * ref.a_hippo)
        b = delta * ref.b_hippo
        if foh:
            b = FohVectors(v_next=0.5 * b, v_prev=0.5 * b)
        rng = np.random.default_rng(seed)
        trace = SignalTrace(rng.standard_normal(length), delta)
        assert rel_gap(run(trace, a, b).coeffs, step_fold(trace, a, b)) <= 1e-12

    @pytest.mark.parametrize("model", ["zoh", "foh"])
    @pytest.mark.parametrize(
        "n, length",
        [(1, 20011), (8, 20011), (64, 20011), (64, 8704), (64, 60)],
        ids=["n1-three-slabs", "n8-three-slabs", "n64-three-slabs", "n64-one-slab", "n64-k-is-1"],
    )
    def test_many_blocks(self, model, n, length):
        """Long traces, whose block starts run carries one block at a time
        with (a^K)^16.  At K = 32 the lengths give 39 folded blocks (three
        slabs; the last block is a whole chunk and a partial one) and 16
        (one slab; a whole last block).  K = 1 (N >= L) never has enough
        blocks for the block power and keeps the serial chain."""
        delta, spec = 0.01, BasisSpec(n_basis=n)
        a = coefficient_transition(spec, delta)
        b = build_b_delta(spec, W, delta, model, QUAD)
        trace = SignalTrace(np.random.default_rng(length).standard_normal(length), delta)
        assert rel_gap(run(trace, a, b).coeffs, step_fold(trace, a, b)) <= 1e-12


class TestShiftInvariance:
    """The recurrence is time-invariant and starts from zero, so k leading
    zero samples change nothing: the final state and the reconstructed
    history at each offset behind it match the unshifted run's to 1e-12
    relative, although the chunk length and alignment differ."""

    @pytest.mark.parametrize("model", ["zoh", "foh"])
    @pytest.mark.parametrize("n", [8, 64])
    @settings(max_examples=20, deadline=None)
    @given(shift=st.integers(1, 400), length=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_leading_zeros_change_nothing(self, model, n, shift, length, seed):
        delta = 0.01
        spec = BasisSpec(n_basis=n)
        a, b = coefficient_transition(spec, delta), build_b_delta(spec, W, delta, model, QUAD)
        u = np.random.default_rng(seed).standard_normal(length)
        final = run(SignalTrace(u, delta), a, b)[-1]
        padded = np.concatenate([np.zeros(shift), u])
        shifted = run(SignalTrace(padded, delta), a, b)[-1]
        assert rel_gap(shifted.coeffs, final.coeffs) <= 1e-12

        offsets = np.linspace(0.0, 2.0 * final.t, 201)
        want = reconstruct(final, spec, W, final.t - offsets)
        got = reconstruct(shifted, spec, W, shifted.t - offsets)
        assert rel_gap(got, want) <= 1e-12


class TestTrajectoryView:
    def setup_method(self):
        self.delta, self.length = 0.01, 100
        trace = SignalTrace(np.sin(np.arange(self.length)), self.delta)
        self.states = run(trace, np.eye(3) * 0.9, np.array([1.0, 0.5, 0.25]))

    def test_length_and_shape(self):
        assert len(self.states) == self.length + 1
        assert self.states.coeffs.shape == (self.length + 1, 3)

    def test_items_are_states_at_step_times(self):
        for k, state in enumerate(self.states):
            assert state.t == k * self.delta
            np.testing.assert_array_equal(state.coeffs, self.states.coeffs[k])
        assert k == self.length

    def test_negative_indexing(self):
        last = self.states[-1]
        assert last.t == self.length * self.delta
        np.testing.assert_array_equal(last.coeffs, self.states.coeffs[self.length])
        assert self.states[-(self.length + 1)].t == 0.0
        with pytest.raises(IndexError):
            self.states[self.length + 1]
        with pytest.raises(IndexError):
            self.states[-(self.length + 2)]

    def test_slices(self):
        picked = self.states[10:40:10]
        assert [s.t for s in picked] == [k * self.delta for k in (10, 20, 30)]
        np.testing.assert_array_equal(picked[1].coeffs, self.states.coeffs[20])
        assert [s.t for s in self.states[-2:]] == [99 * self.delta, 100 * self.delta]
        assert self.states[5:5] == []

    def test_read_only(self):
        with pytest.raises(ValueError):
            self.states.coeffs[0, 0] = 1.0
        item = self.states[3]
        item.coeffs[0] = 1e9
        assert self.states.coeffs[3, 0] != 1e9


def first_failing_step(a, b, trace):
    """Reference fold: the step whose state `step` first refuses as non-finite."""
    state = MemoryState(coeffs=np.zeros(a.shape[0]), t=0.0)
    with np.errstate(over="ignore"):
        for k, u in enumerate(trace.values, start=1):
            try:
                state = step(state, a, b, float(u), delta=trace.delta)
            except ArgumentError:
                return k
    return None


class TestLazyTrajectory:
    """`run` builds states in blocks of chunks on demand; a state must be
    bit-identical however it is read, on and off block and chunk edges."""

    BLOCK = _BLOCK_CHUNKS * _MAX_CHUNK  # states per block when K = 32 (N = 8)

    @pytest.mark.parametrize(
        "n, length, foh",
        [
            (8, BLOCK, False),
            (8, BLOCK + _MAX_CHUNK, False),
            (8, 2 * BLOCK + 5, False),
            (8, 5, False),
            (64, _BLOCK_CHUNKS + 5, False),
            (8, BLOCK + _MAX_CHUNK, True),
        ],
        ids=[
            "one-block",
            "one-chunk-past-a-block",
            "last-block-one-partial-chunk",
            "length-below-n",
            "k-is-1-two-blocks",
            "foh-two-columns",
        ],
    )
    def test_reads_are_bit_identical(self, n, length, foh):
        delta = 0.01
        ref = hippo_legs_reference(n)
        a, b = matrix_exp(delta * ref.a_hippo), delta * ref.b_hippo
        if foh:
            b = FohVectors(v_next=0.5 * b, v_prev=0.5 * b)
        values = np.random.default_rng(length).standard_normal(length)
        trace = SignalTrace(values, delta)
        order = np.random.default_rng(n).permutation(length + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            indexed = run(trace, a, b)
            before = {int(k): indexed[int(k)].coeffs for k in order}
            coeffs = indexed.coeffs
            after = [indexed[k].coeffs for k in range(length + 1)]
            iterated = [state.coeffs for state in run(trace, a, b)]
            whole = run(trace, a, b).coeffs
        assert coeffs.shape == (length + 1, n) and len(iterated) == length + 1
        assert coeffs.tobytes() == whole.tobytes()
        for k in range(length + 1):
            row = coeffs[k].tobytes()
            assert before[k].tobytes() == row
            assert after[k].tobytes() == row
            assert iterated[k].tobytes() == row

    @staticmethod
    def final_state_peak(length):
        """Traced peak of run(...)[-1] at N=64 over `length` samples."""
        n, delta = 64, 0.01
        ref = hippo_legs_reference(n)
        a, b = matrix_exp(delta * ref.a_hippo), delta * ref.b_hippo
        trace = SignalTrace(np.random.default_rng(0).standard_normal(length), delta)
        tracemalloc.start()
        try:
            final = run(trace, a, b)[-1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert final.t == length * delta
        return peak

    def test_final_state_builds_one_block_not_the_trajectory(self):
        """run(...)[-1] at L=1e5, N=64 holds rhs (1.6 MB), one copy of the
        inputs (0.8 MB), the (blocks, N) table of block starts and one
        block: at most 3 MB traced, against 51.2 MB for the (L+1) x N
        trajectory, with no array of every chunk start."""
        assert self.final_state_peak(100_000) <= 3e6

    def test_final_state_peak_at_a_million_samples(self):
        """At L=1e6 the input copy (8 MB) dominates: at most 12 MB traced,
        against 512 MB for the trajectory."""
        assert self.final_state_peak(1_000_000) <= 12e6

    @pytest.mark.parametrize("foh", [False, True], ids=["zoh", "foh"])
    def test_trajectory_owns_its_inputs(self, foh):
        """Overwriting trace.values after run changes no later read, in
        the first block or the last: the trajectory keeps its own copy."""
        delta, n = 0.01, 8
        ref = hippo_legs_reference(n)
        a, b = matrix_exp(delta * ref.a_hippo), delta * ref.b_hippo
        if foh:
            b = FohVectors(v_next=0.5 * b, v_prev=0.5 * b)
        values = np.random.default_rng(3).standard_normal(3 * self.BLOCK + 5)
        want = run(SignalTrace(values.copy(), delta), a, b).coeffs
        trace = SignalTrace(values, delta)
        states = run(trace, a, b)
        trace.values[:] = 1e3
        assert states[1].coeffs.tobytes() == want[1].tobytes()
        assert states[-1].coeffs.tobytes() == want[-1].tobytes()
        assert states.coeffs.tobytes() == want.tobytes()

    def test_later_block_read_names_first_non_finite_state(self):
        """Reading any state of a block that holds an overflow raises,
        naming the first non-finite state of the run, even when that lies in
        an earlier block.  Built by hand (x_{k+1} = x_k + w_k, K = 1, block
        starts given) so that only blocks read later overflow.  With g =
        _BLOCK_CHUNKS chunks a block, two inputs of 1e308 in block 1 first
        overflow state g + 6, and in block 2 a start of 1e308 and one such
        input overflow state 2g + 2."""
        g = _BLOCK_CHUNKS
        inputs, table = np.zeros((4 * g, 1)), np.zeros((4, 1))
        inputs[[g + 4, g + 5, 2 * g + 1]] = 1e308
        table[2] = 1e308
        states = Trajectory(inputs, np.ones((2, 1)), table, SignalTrace(np.zeros(4 * g), 0.5, t0=2.0))
        first = g + 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert states[-1].coeffs[0] == 0.0
            assert states[g].coeffs[0] == 0.0  # block 0 is finite
            for k in (first, 2 * g + 2, first - 1):
                with pytest.raises(
                    ArgumentError, match=f"coeffs must be finite: state {first} \\(t={2.0 + first * 0.5!r}\\)"
                ):
                    states[k]
            with pytest.raises(ArgumentError, match=f"state {first} "):
                states.coeffs


class TestRunErrors:
    def test_unstable_transition_names_first_non_finite_state(self):
        a, b = 2.0 * np.eye(3), np.ones(3)
        trace = SignalTrace(np.ones(2000), delta=0.01)
        first_bad = first_failing_step(a, b, trace)
        assert first_bad == 1024
        with pytest.raises(ArgumentError, match=f"coeffs must be finite: state {first_bad} "):
            run(trace, a, b)

    def test_overflow_inside_a_chunk_names_that_state(self):
        """3 I first overflows mid-chunk, so naming the first non-finite chunk
        start would be wrong; run must name the state the fold fails at."""
        a, b = 3.0 * np.eye(3), np.ones(3)
        trace = SignalTrace(np.ones(2000), delta=0.01)
        first_bad = first_failing_step(a, b, trace)
        assert first_bad is not None and first_bad % _MAX_CHUNK != 0
        with pytest.raises(ArgumentError, match=f"coeffs must be finite: state {first_bad} "):
            run(trace, a, b)

    @pytest.mark.parametrize("zeros, ones, first_bad", [(600, 1400, 1042), (3000, 1000, 3442)])
    def test_overflowing_block_power_names_the_folds_state(self, zeros, ones, first_bad):
        """With a = 5 I, (a^K)^16 = 5^512 overflows, and 0 * inf would make
        a zero block start nan.  Zeros then ones first overflow 442 states
        into the ones, as the fold finds; run names that state, both where
        the trace is too short for the block power (600 zeros, 4 blocks) and
        where it is long enough (3000, 8 blocks)."""
        a, b = 5.0 * np.eye(3), np.ones(3)
        trace = SignalTrace(np.concatenate([np.zeros(zeros), np.ones(ones)]), delta=0.01)
        assert first_failing_step(a, b, trace) == first_bad
        with pytest.raises(ArgumentError, match=f"coeffs must be finite: state {first_bad} "):
            run(trace, a, b)

    def test_overflowing_block_power_keeps_a_zero_trace_zero(self):
        final = run(SignalTrace(np.zeros(20000), delta=0.01), 5.0 * np.eye(3), np.ones(3))[-1]
        assert final.coeffs.tobytes() == np.zeros(3).tobytes()

    def test_non_square_transition(self):
        trace = SignalTrace(np.ones(5), delta=0.1)
        with pytest.raises(ArgumentError, match="square"):
            run(trace, np.ones((3, 4)), np.ones(3))

    def test_input_vector_length_mismatch(self):
        trace = SignalTrace(np.ones(5), delta=0.1)
        with pytest.raises(ArgumentError, match="shape"):
            run(trace, np.eye(3), np.ones(4))
        with pytest.raises(ArgumentError, match="shape"):
            run(trace, np.eye(3), FohVectors(v_next=np.ones(3), v_prev=np.ones(2)))
