"""Basis evaluation: recurrence correctness, boundary values."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from lagssm import ArgumentError, BasisSpec, boundary_values
from lagssm.basis import phi_matrix
from lagssm.quadrature import QuadratureConfig, gauss_rule, panel_nodes

SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)


def legendre_monomial(n, x):
    """Hand-expanded P_n for n <= 5, the independent low-order oracle."""
    return {
        0: lambda x: np.ones_like(x),
        1: lambda x: x,
        2: lambda x: (3 * x**2 - 1) / 2,
        3: lambda x: (5 * x**3 - 3 * x) / 2,
        4: lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
        5: lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
    }[n](x)


class TestEvalPhi:
    """Single basis values, read off phi_matrix."""

    def test_constant_mode(self):
        spec = BasisSpec(n_basis=4)
        assert phi_matrix(spec, 0.3)[0, 0] == 1.0

    def test_boundary_first_mode(self):
        spec = BasisSpec(n_basis=4)
        assert phi_matrix(spec, 1.0)[1, 0] == pytest.approx(SQRT3, abs=1e-14)

    def test_second_mode_midpoint(self):
        # phi_2(0.5) = sqrt(5) P_2(0) = -sqrt(5)/2
        spec = BasisSpec(n_basis=4)
        assert phi_matrix(spec, 0.5)[2, 0] == pytest.approx(-SQRT5 / 2, abs=1e-14)

    def test_matches_monomial_forms(self):
        """Recurrence agrees with expanded monomials for n <= 5, z in [-2, 2]."""
        spec = BasisSpec(n_basis=6)
        rng = np.random.default_rng(7)
        z = rng.uniform(-2.0, 2.0, size=100)
        got = phi_matrix(spec, z)
        for n in range(6):
            expect = np.sqrt(2 * n + 1) * legendre_monomial(n, 2 * z - 1)
            np.testing.assert_allclose(got[n], expect, rtol=1e-13, atol=1e-13)


class TestEvalPhiAll:
    """All N basis values at one point: the column phi_matrix(spec, z)[:, 0]."""

    def test_boundary_pair(self):
        spec = BasisSpec(n_basis=2)
        np.testing.assert_allclose(phi_matrix(spec, 1.0)[:, 0], [1.0, SQRT3], atol=1e-14)

    def test_single_mode(self):
        spec = BasisSpec(n_basis=1)
        np.testing.assert_array_equal(phi_matrix(spec, 0.123), [[1.0]])

    def test_bit_identical_to_scalar(self):
        """Mode n does not depend on the truncation: it is the last row of
        the (n+1)-mode stack bit for bit."""
        z = 0.5
        column = phi_matrix(BasisSpec(n_basis=4), z)[:, 0]
        for n in range(4):
            assert column[n] == phi_matrix(BasisSpec(n_basis=n + 1), z)[n, 0]


class TestBoundaryValues:
    def test_small(self):
        np.testing.assert_allclose(
            boundary_values(BasisSpec(n_basis=3)), [1.0, SQRT3, SQRT5], atol=1e-15
        )

    def test_single(self):
        np.testing.assert_array_equal(boundary_values(BasisSpec(n_basis=1)), [1.0])

    def test_large(self):
        vals = boundary_values(BasisSpec(n_basis=64))
        assert vals[63] == pytest.approx(np.sqrt(127.0), abs=0)

    def test_boundary_identity(self):
        """phi_matrix at z=1 equals the closed form exactly."""
        spec = BasisSpec(n_basis=16)
        np.testing.assert_array_equal(phi_matrix(spec, 1.0)[:, 0], boundary_values(spec))


class TestVectorizedStacks:
    def test_phi_matrix_matches_scalar(self):
        """A batch of points gives each point's own column bit for bit."""
        spec = BasisSpec(n_basis=8)
        z = np.array([0.01, 0.25, 0.5, 0.99, 1.0, 1.05])
        mat = phi_matrix(spec, z)
        for j, zj in enumerate(z):
            np.testing.assert_array_equal(mat[:, j], phi_matrix(spec, zj)[:, 0])


def test_orthonormality():
    """Quadrature Gram matrix of the first 64 modes is the identity to 1e-12."""
    z, w = panel_nodes(0.0, 1.0, QuadratureConfig())
    phi = phi_matrix(BasisSpec(n_basis=64), z)
    gram = (phi * w) @ phi.T
    assert np.max(np.abs(gram - np.eye(64))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=127))
def test_gram_matrix_at_gauss_nodes(n):
    """The (N+1)-point Gauss rule on (0, 1] integrates phi_n phi_m exactly,
    so the Gram matrix of the first N modes is the identity to 1e-12."""
    x, w = gauss_rule(n + 1)
    phi = phi_matrix(BasisSpec(n_basis=n), 0.5 * (x + 1.0))
    gram = (phi * (0.5 * w)) @ phi.T
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_spec_validation():
    with pytest.raises(ArgumentError):
        BasisSpec(n_basis=0)
    with pytest.raises(ArgumentError):
        BasisSpec(n_basis=257)
    for not_an_int in ("8", 8.5, True):
        with pytest.raises(ArgumentError, match="integer"):
            BasisSpec(n_basis=not_an_int)
