"""Shifted, normalized Legendre basis on the canonical interval (0, 1].

phi_n(z) = sqrt(2n+1) * P_n(2z - 1), orthonormal under the plain Lebesgue
inner product on (0, 1].  Arguments outside (0, 1] are allowed: the
polynomials extend analytically, and the discrete-transition integrands
evaluate them slightly beyond 1.  This is the one basis the package builds;
matrices' lag_matrix and build_a_gen use its Jacobi matrix directly
(jacobi_offdiagonal), and hippo_legs_reference its boundary_values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._schema import check_fields, finite_array
from .errors import ArgumentError

MAX_BASIS_SIZE = 256


@dataclass(frozen=True)
class BasisSpec:
    """The shifted Legendre basis truncated to n_basis modes."""

    n_basis: int

    def __post_init__(self):
        check_fields(self, "basis")
        if not (1 <= self.n_basis <= MAX_BASIS_SIZE):
            raise ArgumentError(
                f"n_basis must be in [1, {MAX_BASIS_SIZE}], got {self.n_basis}"
            )


def _legendre_stack(n: int, x: np.ndarray) -> np.ndarray:
    """Unnormalized P_0..P_{n-1} at x on [-1, 1], shape (n, len(x)).

    The package's one copy of the three-term recurrence
    (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}.
    """
    out = np.empty((n, x.size))
    out[0] = 1.0
    if n > 1:
        out[1] = x
    for k in range(1, n - 1):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out


def boundary_values(spec: BasisSpec) -> np.ndarray:
    """phi_n(1) = sqrt(2n+1), closed form."""
    return np.sqrt(2.0 * np.arange(spec.n_basis) + 1.0)


def jacobi_offdiagonal(spec: BasisSpec) -> np.ndarray:
    """b_1..b_{N-1}, b_m = m / (2 sqrt(4m^2 - 1)): the off-diagonal of the
    basis's Jacobi matrix J, z phi_m = b_{m+1} phi_{m+1} + phi_m / 2 +
    b_m phi_{m-1}, closed form."""
    m = np.arange(1.0, spec.n_basis)
    return m / (2.0 * np.sqrt(4.0 * m * m - 1.0))


def phi_matrix(spec: BasisSpec, z: np.ndarray) -> np.ndarray:
    """Stack of basis values phi_0..phi_{N-1} at finite real z, shape (N, len(z))."""
    z = np.atleast_1d(finite_array("z", z))
    p = _legendre_stack(spec.n_basis, 2.0 * z - 1.0)
    return p * boundary_values(spec)[:, None]

