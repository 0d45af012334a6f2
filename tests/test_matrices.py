"""Matrix builders: generators, discrete transitions, hold models, tools."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagssm import (
    ArgumentError,
    BasisSpec,
    ExperimentConfig,
    FohVectors,
    NumericError,
    QuadratureConfig,
    WarpSpec,
    backward_shift,
    bilinear_discretize,
    build_a_delta,
    build_a_gen,
    build_b_delta,
    build_b_gen,
    correct_a_delta,
    frobenius_rel_diff,
    hippo_legs_reference,
    lag_matrix,
    matrix_exp,
)
from lagssm.matrices import (
    INPUT_MODELS,
    MATRIX_SCHEMA_VERSION,
    exact_shift,
    hold_vectors,
    load_matrices_json,
    save_matrices_json,
)

W = WarpSpec()
QUAD = QuadratureConfig()


def analytic_a0(n_basis):
    """Closed-form reference entries: sqrt((2n+1)(2m+1)) below the diagonal,
    n on it."""
    a = np.zeros((n_basis, n_basis))
    for n in range(n_basis):
        a[n, n] = n
        for m in range(n):
            a[n, m] = np.sqrt((2 * n + 1) * (2 * m + 1))
    return a


class TestAGen:
    def test_small_closed_form(self):
        expect = np.array(
            [
                [0.0, np.sqrt(3.0), np.sqrt(5.0)],
                [0.0, 1.0, np.sqrt(15.0)],
                [0.0, 0.0, 2.0],
            ]
        )
        got = build_a_gen(BasisSpec(n_basis=3), W)
        np.testing.assert_allclose(got, expect, atol=1e-13)

    def test_first_column_vanishes(self):
        got = build_a_gen(BasisSpec(n_basis=8), W)
        np.testing.assert_allclose(got[:, 0], 0.0, atol=1e-14)

    def test_matches_analytic_transpose(self):
        got = build_a_gen(BasisSpec(n_basis=64), W)
        assert frobenius_rel_diff(analytic_a0(64).T, got) <= 1e-10

    def test_rate_rescales(self):
        # g'(z) = tau / z, so the generator scales by 1/tau.
        a1 = build_a_gen(BasisSpec(n_basis=6), WarpSpec(rate=1.0))
        a2 = build_a_gen(BasisSpec(n_basis=6), WarpSpec(rate=2.0))
        np.testing.assert_allclose(a2, a1 / 2.0, atol=1e-13)

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 64, 128, 192, 256])
    def test_exact_over_the_basis_range(self, n, tau):
        """a_gen is -(a_hippo / tau)^T - I / tau to 1e-12 relative, exactly
        zero below the diagonal, and generates the lag matrix:
        matrix_exp(delta a_gen) is M(exp(delta / tau)) to 1e-11.

        The N=256 cases fail on the composite-rule a_gen that this builder
        replaced: its error against the closed form there is 0.82 (0.16 at
        N=192), with entries of 4.6e2 below the diagonal.  Its N=64 and
        N=128 cases fail too, on rule noise below the diagonal (up to
        4.7e-12 and 9.9e-11).
        """
        spec = BasisSpec(n_basis=n)
        a_gen = build_a_gen(spec, WarpSpec(rate=tau))
        want = -(hippo_legs_reference(n).a_hippo / tau).T - np.eye(n) / tau
        assert np.linalg.norm(a_gen - want) <= 1e-12 * np.linalg.norm(want)
        assert np.all(np.tril(a_gen, -1) == 0.0)
        for delta in (1e-4, 1e-2, 0.1):
            m = lag_matrix(spec, np.exp(delta / tau))
            assert frobenius_rel_diff(m, matrix_exp(delta * a_gen)) <= 1e-11

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 256), tau=st.floats(0.01, 10.0))
    def test_closed_form_property(self, n, tau):
        """Over the basis range and tau in [0.01, 10], a_gen has exact zeros
        below the diagonal and is -(a_hippo / tau)^T - I / tau to 1e-12
        relative."""
        a_gen = build_a_gen(BasisSpec(n_basis=n), WarpSpec(rate=tau))
        want = -(hippo_legs_reference(n).a_hippo / tau).T - np.eye(n) / tau
        assert np.all(np.tril(a_gen, -1) == 0.0)
        assert np.linalg.norm(a_gen - want) <= 1e-12 * np.linalg.norm(want)


class TestBGen:
    def test_small(self):
        np.testing.assert_allclose(
            build_b_gen(BasisSpec(n_basis=3), W),
            [1.0, np.sqrt(3.0), np.sqrt(5.0)],
            atol=1e-15,
        )

    def test_rate_halves(self):
        b1 = build_b_gen(BasisSpec(n_basis=5), WarpSpec(rate=1.0))
        b2 = build_b_gen(BasisSpec(n_basis=5), WarpSpec(rate=2.0))
        np.testing.assert_allclose(b2, b1 / 2.0, atol=1e-15)

    def test_single(self):
        w = WarpSpec(rate=4.0)
        np.testing.assert_allclose(build_b_gen(BasisSpec(n_basis=1), w), [0.25])


class TestHippoReference:
    def test_two_by_two(self):
        ref = hippo_legs_reference(2)
        np.testing.assert_allclose(
            ref.a_hippo, [[-1.0, 0.0], [-np.sqrt(3.0), -2.0]], atol=1e-15
        )
        np.testing.assert_allclose(ref.b_hippo, [1.0, np.sqrt(3.0)], atol=1e-15)

    def test_single(self):
        ref = hippo_legs_reference(1)
        np.testing.assert_array_equal(ref.a_hippo, [[-1.0]])
        np.testing.assert_array_equal(ref.b_hippo, [1.0])

    def test_structure(self):
        ref = hippo_legs_reference(20)
        np.testing.assert_array_equal(np.triu(ref.a_hippo, 1), 0.0)
        np.testing.assert_allclose(np.diag(ref.a_hippo), -(np.arange(20) + 1.0))

    def test_matches_generator_shift(self):
        """Reference equals -(a_gen + I)^T to quadrature accuracy at N=50."""
        n = 50
        a_gen = build_a_gen(BasisSpec(n_basis=n), W)
        ref = hippo_legs_reference(n)
        assert frobenius_rel_diff(ref.a_hippo, -(a_gen + np.eye(n)).T) <= 1e-10

    def test_transpose_forms_agree(self):
        # -(a_gen + I)^T and -(a_gen^T + I) are the same matrix.
        a_gen = build_a_gen(BasisSpec(n_basis=12), W)
        i = np.eye(12)
        np.testing.assert_array_equal(-(a_gen + i).T, -(a_gen.T + i))

    def test_size_validation(self):
        with pytest.raises(ArgumentError):
            hippo_legs_reference(0)

    @pytest.mark.parametrize("n", [8.5, True])
    def test_size_must_be_an_integer(self, n):
        """The size is checked by BasisSpec, so a non-integer is a named
        ArgumentError, not numpy's TypeError."""
        with pytest.raises(ArgumentError, match="n_basis must be an integer"):
            hippo_legs_reference(n)


class TestADelta:
    def test_identity_limit(self):
        a = build_a_delta(BasisSpec(n_basis=8), W, 1e-8, QUAD)
        assert np.linalg.norm(a - np.eye(8)) <= 1e-6

    def test_top_left_entry(self):
        a = build_a_delta(BasisSpec(n_basis=4), W, 0.2, QUAD)
        assert a[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_exponential(self):
        spec = BasisSpec(n_basis=64)
        a_gen = build_a_gen(spec, W)
        a_d = build_a_delta(spec, W, 1e-2, QUAD)
        assert frobenius_rel_diff(a_d, matrix_exp(1e-2 * a_gen)) <= 1e-7

    def test_upper_triangular_with_geometric_diagonal(self):
        spec = BasisSpec(n_basis=64)
        delta = 0.01
        a_d = build_a_delta(spec, W, delta, QUAD)
        assert np.abs(np.tril(a_d, -1)).max() <= 1e-9
        expect = np.exp(np.arange(64) * delta)
        np.testing.assert_allclose(np.diag(a_d), expect, rtol=1e-9)

    def test_semigroup(self):
        spec = BasisSpec(n_basis=32)
        for d1, d2 in [(0.01, 0.01), (0.01, 0.05), (0.05, 0.05)]:
            a1 = build_a_delta(spec, W, d1, QUAD)
            a2 = build_a_delta(spec, W, d2, QUAD)
            a12 = build_a_delta(spec, W, d1 + d2, QUAD)
            assert frobenius_rel_diff(a12, a1 @ a2) <= 1e-9

    def test_delta_cap(self):
        spec = BasisSpec(n_basis=4)
        with pytest.raises(ArgumentError, match="lag_matrix"):
            build_a_delta(spec, W, 0.6, QUAD)

    def test_rate_scales_diagonal(self):
        w2 = WarpSpec(rate=2.0)
        a = build_a_delta(BasisSpec(n_basis=6), w2, 0.1, QUAD)
        np.testing.assert_allclose(np.diag(a), np.exp(np.arange(6) * 0.05), rtol=1e-11)


class TestCorrectADelta:
    def test_identity_limit(self):
        a_d = build_a_delta(BasisSpec(n_basis=8), W, 1e-8, QUAD)
        corrected = correct_a_delta(a_d, 1e-8)
        assert np.linalg.norm(corrected - np.eye(8)) <= 1e-6

    def test_decaying_diagonal_and_spectral_radius(self):
        spec = BasisSpec(n_basis=64)
        delta = 1e-2
        corrected = correct_a_delta(build_a_delta(spec, W, delta, QUAD), delta)
        expect = np.exp(-(np.arange(64) + 1.0) * delta)
        np.testing.assert_allclose(np.diag(corrected), expect, rtol=1e-9)
        # triangular, so the diagonal is the spectrum
        assert np.abs(np.linalg.eigvals(corrected)).max() < 1.0

    def test_matches_stable_exponential(self):
        spec = BasisSpec(n_basis=64)
        delta = 1e-2
        a_gen = build_a_gen(spec, W)
        corrected = correct_a_delta(build_a_delta(spec, W, delta, QUAD), delta)
        target = matrix_exp(delta * -(a_gen + np.eye(64)))
        assert frobenius_rel_diff(corrected, target) <= 1e-7

    def test_condition_guard(self):
        spec = BasisSpec(n_basis=64)
        a_d = build_a_delta(spec, W, 0.1, QUAD)
        with pytest.raises(NumericError):
            correct_a_delta(a_d, 0.1)  # condition estimate is ~1e16 here
        forced = correct_a_delta(a_d, 0.1, max_condition=None)
        assert np.all(np.isfinite(forced))

    def test_singular_a_delta_is_a_numeric_error(self):
        """With the guard off, an exactly singular a_delta fails in the
        solve, as a NumericError."""
        with pytest.raises(NumericError, match="a_delta is singular"):
            correct_a_delta(np.zeros((3, 3)), 0.1, max_condition=None)


class TestBackwardShift:
    def test_zero_delta_identity(self):
        np.testing.assert_array_equal(backward_shift(np.eye(3), 0.0), np.eye(3))

    def test_inverse_pair(self):
        """Backward then forward shift is the identity."""
        spec = BasisSpec(n_basis=64)
        delta = 0.01
        a_d = build_a_delta(spec, W, delta, QUAD)
        back = backward_shift(a_d, delta)
        fwd = correct_a_delta(a_d, delta)
        assert np.linalg.norm(back @ fwd - np.eye(64)) <= 1e-9


class TestShiftsAtRate:
    """correct_a_delta and backward_shift at rate tau: the quadrature-built
    a_delta is M(exp(delta / tau)), so both shifts carry exp(-+delta / tau)."""

    N, DELTA, TAU = 64, 0.01, 2.0

    def a_delta_and_reference(self):
        spec = BasisSpec(n_basis=self.N)
        a_d = build_a_delta(spec, WarpSpec(rate=self.TAU), self.DELTA, QUAD)
        return a_d, hippo_legs_reference(self.N).a_hippo / self.TAU

    def test_backward_shift(self):
        a_d, a = self.a_delta_and_reference()
        back = backward_shift(a_d, self.DELTA, rate=self.TAU)
        assert frobenius_rel_diff(matrix_exp(-self.DELTA * a).T, back) <= 1e-11

    def test_corrected_transition(self):
        a_d, a = self.a_delta_and_reference()
        fwd = correct_a_delta(a_d, self.DELTA, rate=self.TAU)
        assert frobenius_rel_diff(matrix_exp(self.DELTA * a).T, fwd) <= 1e-11

    def test_unit_rate_is_the_default(self):
        a_d, _ = self.a_delta_and_reference()
        np.testing.assert_array_equal(
            backward_shift(a_d, self.DELTA, rate=1.0), backward_shift(a_d, self.DELTA)
        )
        np.testing.assert_array_equal(
            correct_a_delta(a_d, self.DELTA, rate=1.0), correct_a_delta(a_d, self.DELTA)
        )


class TestBDelta:
    def test_model_list_refuses_dirac(self, monkeypatch):
        """zoh and foh are the one model set: build_b_delta, hold_vectors and
        a config refuse "dirac" with the same message, build_b_delta before
        it builds a matrix.  The impulse-input vector is build_b_gen."""
        assert INPUT_MODELS == ("zoh", "foh")
        spec = BasisSpec(n_basis=3)
        message = "unknown input_model 'dirac'; expected one of ['zoh', 'foh']"

        def no_matrix(*args):
            raise AssertionError("a matrix was built before the model check")

        monkeypatch.setattr("lagssm.matrices.lag_matrix", no_matrix)
        for refuse in (
            lambda: build_b_delta(spec, W, 0.01, "dirac", QUAD),
            lambda: hold_vectors(np.eye(3), spec, W, 0.01, "dirac", QUAD),
            lambda: ExperimentConfig(input_model="dirac"),
        ):
            with pytest.raises(ArgumentError) as exc:
                refuse()
            assert str(exc.value) == message
        with pytest.raises(ArgumentError, match="delta must be positive for zoh"):
            build_b_delta(spec, W, 0.0, "zoh", QUAD)

    def test_zoh_constant_mode_closed_form(self):
        for delta in (0.01, 0.1, 0.3):
            b = build_b_delta(BasisSpec(n_basis=2), W, delta, "zoh", QUAD)
            assert b[0] == pytest.approx(1.0 - np.exp(-delta), abs=1e-14)

    def test_zoh_first_order_limit(self):
        """(B_zoh / delta - b_gen) shrinks linearly with delta; the leading
        coefficient per component is (1 + n(n+1))/2 relative."""
        spec = BasisSpec(n_basis=8)
        b_gen = build_b_gen(spec, W)
        errs = []
        for delta in (1e-4, 5e-5, 2.5e-5):
            b = build_b_delta(spec, W, delta, "zoh", QUAD)
            errs.append(np.linalg.norm(b / delta - b_gen) / np.linalg.norm(b_gen))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=1e-2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=1e-2)
        n = np.arange(8)
        predicted = 0.5 * np.linalg.norm(b_gen * (1 + n * (n + 1))) / np.linalg.norm(b_gen)
        assert errs[0] / 1e-4 == pytest.approx(predicted, rel=1e-3)

    def test_foh_pair_shape_and_sum(self):
        """v_next + v_prev telescopes to the plain hold integral."""
        spec = BasisSpec(n_basis=6)
        foh = build_b_delta(spec, W, 0.05, "foh", QUAD)
        assert isinstance(foh, FohVectors)
        zoh = build_b_delta(spec, W, 0.05, "zoh", QUAD)
        np.testing.assert_allclose(foh.v_next + foh.v_prev, zoh, atol=1e-14)

    def test_foh_on_smooth_signal_converges(self):
        """The full first-order-hold contribution on a smooth signal tends to
        b_gen * u(t): [v_next u(t+d) + v_prev u(t)] / d -> b_gen u(t),
        first order in delta (error halves when delta halves)."""
        spec = BasisSpec(n_basis=8)
        b_gen = build_b_gen(spec, W)
        u = np.cos
        t = 0.7
        errs = []
        for delta in (1e-3, 5e-4, 2.5e-4):
            foh = build_b_delta(spec, W, delta, "foh", QUAD)
            contrib = (foh.v_next * u(t + delta) + foh.v_prev * u(t)) / delta
            errs.append(
                np.linalg.norm(contrib - b_gen * u(t)) / np.linalg.norm(b_gen * abs(u(t)))
            )
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=5e-2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=5e-2)
        assert errs[-1] <= 1e-2

    def test_foh_v_prev_scales_linearly(self):
        """|v_prev| ~ (delta/2) * b_gen componentwise (the g-weighted integral
        is exactly second order; its delta^2 coefficient is -phi_n(1)/2)."""
        spec = BasisSpec(n_basis=8)
        b_gen = build_b_gen(spec, W)
        # next-order correction is O(delta * n^2) relative, hence the tolerances
        for delta, rtol in ((1e-4, 1e-2), (1e-5, 1e-3)):
            foh = build_b_delta(spec, W, delta, "foh", QUAD)
            np.testing.assert_allclose(foh.v_prev, 0.5 * delta * b_gen, rtol=rtol)

    def test_unknown_model(self):
        with pytest.raises(ArgumentError):
            build_b_delta(BasisSpec(n_basis=2), W, 0.1, "trapezoid", QUAD)


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        got = matrix_exp(np.diag([1.5, -2.0]))
        np.testing.assert_allclose(got, np.diag([np.exp(1.5), np.exp(-2.0)]), rtol=1e-13)

    def test_against_taylor_oracle(self):
        """Random unit-norm 8x8 matrices vs a 40-term Taylor sum accumulated
        in extended precision."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.standard_normal((8, 8))
            m /= np.linalg.norm(m, 2)
            expect = taylor_expm(m)
            assert np.linalg.norm(matrix_exp(m) - expect) <= 1e-12

    def test_inverse_relation(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 6)) * 0.4
        prod = matrix_exp(m) @ matrix_exp(-m)
        assert np.linalg.norm(prod - np.eye(6)) <= 1e-12

    def test_rejects_non_finite(self):
        m = np.zeros((2, 2))
        m[0, 1] = np.nan
        with pytest.raises(ArgumentError):
            matrix_exp(m)

    def test_rejects_non_square(self):
        with pytest.raises(ArgumentError):
            matrix_exp(np.zeros((2, 3)))

    def test_overflow_is_a_numeric_error(self):
        """exp(800) is beyond float range: the error names the input's
        1-norm, with no overflow warning on the way."""
        with pytest.raises(NumericError, match=r"1-norm is 8\.000e\+02"):
            matrix_exp(800.0 * np.eye(2))


def taylor_expm(m, terms=40):
    """Truncated Taylor series in extended precision; independent oracle."""
    acc = np.eye(m.shape[0], dtype=np.longdouble)
    term = np.eye(m.shape[0], dtype=np.longdouble)
    ml = m.astype(np.longdouble)
    for k in range(1, terms + 1):
        term = term @ ml / k
        acc = acc + term
    return acc.astype(float)


class TestBilinear:
    def test_zero_matrix(self):
        a_bar, b_bar = bilinear_discretize(np.zeros((3, 3)), np.ones(3), 0.2)
        np.testing.assert_allclose(a_bar, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(b_bar, 0.2 * np.ones(3), atol=1e-15)

    def test_scalar_case(self):
        a_bar, _ = bilinear_discretize(np.array([[-1.0]]), np.array([1.0]), 0.01)
        assert a_bar[0, 0] == pytest.approx(0.995 / 1.005, abs=1e-15)

    def test_close_to_exact_transition_at_small_step(self):
        """Tustin at delta=1e-4 lands within 2e-4 of the corrected transition
        (coefficient orientation, i.e. transposed)."""
        n = 64
        delta = 1e-4
        spec = BasisSpec(n_basis=n)
        ref = hippo_legs_reference(n)
        a_bar, _ = bilinear_discretize(ref.a_hippo, ref.b_hippo, delta)
        corrected = correct_a_delta(build_a_delta(spec, W, delta, QUAD), delta)
        assert frobenius_rel_diff(a_bar, corrected.T) <= 2e-4

    def test_singular_resolvent(self):
        # eigenvalue exactly 2/delta makes (I - delta/2 a) singular
        a = np.array([[2.0 / 0.1]])
        with pytest.raises(NumericError):
            bilinear_discretize(a, np.array([1.0]), 0.1)


class TestFrobeniusRelDiff:
    def test_identical(self):
        m = np.arange(9.0).reshape(3, 3) + 1
        assert frobenius_rel_diff(m, m) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_rel_diff(np.eye(2), np.zeros((2, 2))) == 1.0

    def test_scalar(self):
        assert frobenius_rel_diff(np.array([[2.0]]), np.array([[1.0]])) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            frobenius_rel_diff(np.eye(2), np.eye(3))

    def test_zero_reference(self):
        with pytest.raises(ArgumentError):
            frobenius_rel_diff(np.zeros((2, 2)), np.eye(2))

    def test_entries_whose_squares_overflow(self):
        """M(e) at N=256 has entries near 1.7e238, whose squares overflow;
        the ratio still comes out finite and right."""
        m = lag_matrix(BasisSpec(n_basis=256), np.e)
        assert np.abs(m).max() > 1e200
        assert frobenius_rel_diff(m, m * (1.0 + 2.0**-30)) == pytest.approx(2.0**-30, rel=1e-12)

    @pytest.mark.parametrize("exponent", [-600, 0, 600])
    def test_power_of_two_scale_leaves_the_ratio_bit_equal(self, exponent):
        """The plain formula's value at unit scale, bit for bit, also where
        that formula's squares would underflow (-600) or overflow (600)."""
        rng = np.random.default_rng(3)
        m1, m2 = rng.standard_normal((2, 6, 6))
        plain = np.linalg.norm(m1 - m2) / np.linalg.norm(m1)
        assert frobenius_rel_diff(np.ldexp(m1, exponent), np.ldexp(m2, exponent)) == plain

    def test_subnormal_reference(self):
        assert frobenius_rel_diff(np.full((2, 2), 5e-324), np.zeros((2, 2))) == 1.0


class TestLagMatrix:
    """lag_matrix(basis, c): the exact dilation matrix M(c) behind every
    forward transition and ZOH vector."""

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    @pytest.mark.parametrize("delta", [1e-4, 1e-2, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 64, 128, 192, 256])
    def test_forward_shift_and_zoh_match_closed_form(self, n, delta, tau):
        """(c M(c))^T with c = exp(-delta/tau) is exp(delta A) and the ZOH
        vector is A^-1 (exp(delta A) - I) B, A = a_hippo/tau, B = b_hippo/tau,
        both to 1e-10 relative, over the whole basis range.

        The N=256 cases fail on the quadrature route
        correct_a_delta(build_a_delta(...)).T: its error there is 1.2e2 to
        5.7e15 at delta <= 0.5 (and build_a_delta refuses delta=1).
        """
        spec, warp = BasisSpec(n_basis=n), WarpSpec(rate=tau)
        ref = hippo_legs_reference(n)
        a, b = ref.a_hippo / tau, ref.b_hippo / tau
        c = np.exp(-delta / tau)
        exact = matrix_exp(delta * a)
        assert frobenius_rel_diff(exact, (c * lag_matrix(spec, c)).T) <= 1e-10
        zoh = np.linalg.solve(a, (exact - np.eye(n)) @ b)
        got = build_b_delta(spec, warp, delta, "zoh", QUAD)
        assert np.linalg.norm(got - zoh) <= 1e-10 * np.linalg.norm(zoh)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=256),
        c1=st.floats(min_value=0.3, max_value=1.0),
        c2=st.floats(min_value=0.3, max_value=1.0),
    )
    def test_semigroup(self, n, c1, c2):
        spec = BasisSpec(n_basis=n)
        product = lag_matrix(spec, c1) @ lag_matrix(spec, c2)
        assert frobenius_rel_diff(lag_matrix(spec, c1 * c2), product) <= 1e-12

    @pytest.mark.parametrize("c", [0.3, 0.99, 1.0, 1.01, 1.6])
    def test_exactly_upper_triangular_with_power_diagonal(self, c):
        m = lag_matrix(BasisSpec(n_basis=256), c)
        assert np.all(np.tril(m, -1) == 0.0)
        np.testing.assert_allclose(np.diag(m), c ** np.arange(256.0), rtol=1e-12)

    def test_identity_at_one(self):
        np.testing.assert_array_equal(lag_matrix(BasisSpec(n_basis=64), 1.0), np.eye(64))

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.0, 0.01, -0.01, 0.5, -0.5])
    @pytest.mark.parametrize("n", [1, 8, 64, 128])
    def test_exact_shift_is_c_times_lag_matrix(self, n, delta, tau):
        """exact_shift(basis, warp, delta) is c M(c), c = f(-delta), bit for
        bit, for either sign of the step."""
        spec, warp = BasisSpec(n_basis=n), WarpSpec(rate=tau)
        c = warp.f(-delta)
        np.testing.assert_array_equal(exact_shift(spec, warp, delta), c * lag_matrix(spec, c))

    @pytest.mark.parametrize(
        "delta, named",
        [(800.0, "delta/tau=800 (delta=800.0, tau=1.0) is out of float range: exp(-800) is 0.0"),
         (-720.0, "delta/tau=720 (delta=720.0, tau=1.0) is out of float range: exp(720) is inf")],
    )
    def test_step_out_of_float_range_is_named(self, delta, named):
        """exp(-delta / tau) underflowing to 0 or overflowing is refused with
        delta/tau, delta and tau, and no RuntimeWarning (an error here)."""
        with pytest.raises(ArgumentError) as exc:
            exact_shift(BasisSpec(n_basis=4), W, delta)
        assert str(exc.value) == named

    def test_backward_is_a_delta(self):
        """M(exp(delta)) is the quadrature-built a_delta where the rule is
        accurate (N=64)."""
        spec, delta = BasisSpec(n_basis=64), 0.01
        a_d = build_a_delta(spec, W, delta, QUAD)
        assert frobenius_rel_diff(a_d, lag_matrix(spec, np.exp(delta))) <= 1e-12

    @pytest.mark.parametrize(
        "c", [0.0, -0.5, np.nan, np.inf, 1 + 1j, [1.0, 1 + 1j], "2", True, None]
    )
    def test_rejects_bad_c(self, c):
        """Complex or non-numeric c is refused by name (the real-array rule),
        not with numpy's TypeError or a dropped imaginary part; so is a
        non-finite or nonpositive c."""
        with pytest.raises(
            ArgumentError, match="^c must (hold finite real numbers|be finite|be positive), got "
        ):
            lag_matrix(BasisSpec(n_basis=4), c)

    def test_overflow_is_named(self):
        with pytest.raises(NumericError, match="overflows"):
            lag_matrix(BasisSpec(n_basis=256), 1e3)

    def test_hold_vectors_need_a_hold_model_and_a_step(self):
        forward = np.eye(3)
        with pytest.raises(ArgumentError):
            hold_vectors(forward, BasisSpec(n_basis=3), W, 0.01, "dirac", QUAD)
        with pytest.raises(ArgumentError):
            hold_vectors(forward, BasisSpec(n_basis=3), W, 0.0, "zoh", QUAD)


class TestSerialization:
    def test_json_round_trip_bit_identical(self, tmp_path):
        spec = BasisSpec(n_basis=6)
        arrays = {
            "a_gen": build_a_gen(spec, W),
            "b_gen": build_b_gen(spec, W),
        }
        meta = {"n_basis": 6, "delta": 0.01, "tau": 1.0}
        path = tmp_path / "m.json"
        save_matrices_json(path, arrays, meta)
        loaded, loaded_meta = load_matrices_json(path)
        assert loaded_meta["n_basis"] == 6
        for key, val in arrays.items():
            np.testing.assert_array_equal(loaded[key], np.asarray(val))

    @staticmethod
    def assert_json_dump_layout(path, arrays, meta):
        """The file equals json.dump(payload, fh, indent=1) plus a newline."""
        payload = {
            "schema_version": MATRIX_SCHEMA_VERSION,
            "meta": meta,
            "matrices": {k: np.asarray(v).tolist() for k, v in arrays.items()},
        }
        save_matrices_json(path, arrays, meta)
        expected = json.dumps(payload, indent=1) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_layout_matches_json_dump(self, tmp_path, n):
        specials = [np.inf, -np.inf, np.nan, -0.0, 1e-300]
        m = np.random.default_rng(n).standard_normal((n, n))
        m.flat[: len(specials)] = specials[: m.size]
        v = np.resize(np.array(specials), n)
        meta = {"n_basis": n, "delta": 0.01, "tau": 1.0, "note": "a, b"}
        self.assert_json_dump_layout(tmp_path / "m.json", {"m": m, "v": v}, meta)

    def test_layout_of_empty_arrays_dict(self, tmp_path):
        self.assert_json_dump_layout(tmp_path / "m.json", {}, {"n_basis": 0})

    def test_layout_of_edge_shapes(self, tmp_path):
        arrays = {
            "scalar": np.float64(1.5),
            "empty": np.zeros(0),
            "no_columns": np.zeros((2, 0)),
            "cube": np.arange(8).reshape(2, 2, 2),
        }
        self.assert_json_dump_layout(tmp_path / "m.json", arrays, {})



class TestStacked:
    """Stacked lag_matrix calls: every slice is bit-equal to the call on that
    slice.  matrix_exp and bilinear_discretize take one matrix and one step."""

    CS = (0.5, 1.0, float(np.exp(1e-2)), float(np.exp(-0.1)), 1.7)

    @pytest.mark.parametrize("n", [1, 2, 64, 256])
    def test_lag_matrix_slices_are_scalar_calls(self, n):
        spec = BasisSpec(n_basis=n)
        stack = lag_matrix(spec, np.array(self.CS))
        assert stack.shape == (len(self.CS), n, n)
        for c, m in zip(self.CS, stack):
            np.testing.assert_array_equal(m, lag_matrix(spec, c))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=256),
        cs=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=4),
    )
    def test_lag_matrix_stack_property(self, n, cs):
        spec = BasisSpec(n_basis=n)
        stack = lag_matrix(spec, cs)
        for c, m in zip(cs, stack):
            np.testing.assert_array_equal(m, lag_matrix(spec, c))

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
    def test_lag_matrix_names_the_bad_entry(self, bad):
        with pytest.raises(ArgumentError, match=r"c\[2\]"):
            lag_matrix(BasisSpec(n_basis=4), [1.0, 0.9, bad, 1.1])

    def test_lag_matrix_names_the_overflowing_c(self):
        with pytest.raises(NumericError, match="c=1000.0"):
            lag_matrix(BasisSpec(n_basis=256), [1.0, 1e3])

    def test_lag_matrix_rejects_a_2d_c(self):
        with pytest.raises(ArgumentError):
            lag_matrix(BasisSpec(n_basis=4), np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3,), (2, 2, 2, 2), (3, 4, 4)])
    def test_matrix_exp_rejects_non_square_stacks(self, shape):
        """matrix_exp takes one square matrix; a stack of them is refused."""
        with pytest.raises(ArgumentError):
            matrix_exp(np.zeros(shape))

    def test_bilinear_rejects_a_1d_delta(self):
        ref = hippo_legs_reference(8)
        with pytest.raises(ArgumentError, match=r"delta must be a finite real number, got array\("):
            bilinear_discretize(ref.a_hippo, ref.b_hippo, np.array([1e-3, 1e-2]))

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("big", [50, 64, 256])
    def test_a_gen_leading_blocks_are_smaller_builds(self, big, tau):
        warp = WarpSpec(rate=tau)
        a_gen = build_a_gen(BasisSpec(n_basis=big), warp)
        for n in (1, 10, 30, 50):
            np.testing.assert_array_equal(a_gen[:n, :n], build_a_gen(BasisSpec(n_basis=n), warp))
