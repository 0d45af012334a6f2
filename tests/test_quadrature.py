"""Gauss-Legendre rule construction and the composite integrator."""

import numpy as np
import pytest

from lagssm import ArgumentError, QuadratureConfig, gauss_rule, integrate
from lagssm.quadrature import panel_nodes


class TestGaussRule:
    def test_two_point_closed_form(self):
        nodes, weights = gauss_rule(2)
        np.testing.assert_allclose(nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(weights, [1.0, 1.0], atol=1e-15)

    def test_three_point_closed_form(self):
        nodes, weights = gauss_rule(3)
        np.testing.assert_allclose(nodes, [-np.sqrt(0.6), 0.0, np.sqrt(0.6)], atol=1e-15)
        np.testing.assert_allclose(weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)

    @pytest.mark.parametrize("k", [2, 5, 16, 64, 128])
    def test_weights_sum_to_two(self, k):
        _, weights = gauss_rule(k)
        assert abs(weights.sum() - 2.0) <= 1e-13

    @pytest.mark.parametrize("k", [4, 20, 64, 100])
    def test_matches_numpy_leggauss(self, k):
        """numpy's independently computed rule agrees node for node."""
        nodes, weights = gauss_rule(k)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(k)
        np.testing.assert_allclose(nodes, ref_nodes, atol=5e-15)
        np.testing.assert_allclose(weights, ref_weights, atol=5e-15)

    def test_symmetry_is_exact(self):
        nodes, weights = gauss_rule(64)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(weights, weights[::-1])

    def test_out_of_range(self):
        with pytest.raises(ArgumentError):
            gauss_rule(1)
        with pytest.raises(ArgumentError):
            gauss_rule(129)


class TestIntegrate:
    def test_monomial(self):
        assert integrate(lambda z: z * z, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-14)

    def test_exponential(self):
        val = integrate(np.exp, 0.0, 1.0)
        assert val == pytest.approx(np.e - 1.0, abs=1e-12)

    def test_normalized_legendre_self_product(self):
        from lagssm import BasisSpec
        from lagssm.basis import phi_matrix

        spec = BasisSpec(n_basis=4)
        val = integrate(lambda z: phi_matrix(spec, z)[3, 0] ** 2, 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_exactness(self):
        """Random polynomials of degree 2k-1 per panel integrate exactly,
        checked against numpy's antiderivative."""
        rng = np.random.default_rng(21)
        for k in (2, 8, 32):
            cfg = QuadratureConfig(points_per_panel=k, panels=3)
            coeffs = rng.uniform(-1.0, 1.0, size=2 * k)
            poly = np.polynomial.Polynomial(coeffs)
            exact = poly.integ()(2.0) - poly.integ()(-1.0)
            got = integrate(poly, -1.0, 2.0, cfg)
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_additivity(self):
        cfg = QuadratureConfig(points_per_panel=32, panels=4)
        fn = lambda z: np.sin(3.0 * z) + z**3
        whole = integrate(fn, -1.0, 2.0, cfg)
        split = integrate(fn, -1.0, 0.4, cfg) + integrate(fn, 0.4, 2.0, cfg)
        assert abs(whole - split) <= 1e-12

    def test_deterministic(self):
        fn = lambda z: np.exp(np.sin(5 * z))
        a = integrate(fn, 0.0, 2.0)
        b = integrate(fn, 0.0, 2.0)
        assert a == b

    def test_empty_interval(self):
        assert integrate(np.exp, 1.0, 1.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ArgumentError):
            integrate(np.exp, 1.0, 0.0)

    def test_non_finite_carries_abscissa(self):
        """The message names the first node where fn is not finite, as a
        plain float literal (not numpy's np.float64(...) repr)."""
        def bad(z):
            return 1.0 / (z - 0.5) if abs(z - 0.5) < 0.2 else np.inf

        with pytest.raises(ArgumentError, match="integrand non-finite at z=") as err:
            integrate(bad, 0.0, 1.0)
        message = str(err.value)
        assert "np.float64" not in message
        z = float(message.split("z=")[1])
        assert z == panel_nodes(0.0, 1.0, QuadratureConfig())[0][0]
        assert 0.0 < z < 1.0


def test_config_validation():
    with pytest.raises(ArgumentError):
        QuadratureConfig(points_per_panel=1)
    with pytest.raises(ArgumentError):
        QuadratureConfig(points_per_panel=129)
    with pytest.raises(ArgumentError):
        QuadratureConfig(panels=0)
    with pytest.raises(ArgumentError):
        QuadratureConfig(panels=1025)
