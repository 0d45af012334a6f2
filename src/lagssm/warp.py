"""The exponential time warp sigma_t(s) = f(s - t) onto the canonical interval.

f(x) = exp(x / tau) with rate tau, its inverse g(z) = tau log z and its
derivative f' are closed forms, so nothing is inverted numerically.  The
induced measure is f'(s - t) and the backward lag f(delta + g(z)) =
exp(delta / tau) * z.  This is the one warp the package builds: the exact
builders in matrices (lag_matrix's dilation, build_a_gen's D / tau, the
hold vectors' expm1(-delta / tau)) are written for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._schema import check_fields
from .errors import ArgumentError, DomainError

@dataclass(frozen=True)
class WarpSpec:
    """The exponential warp f(x) = exp(x / rate)."""

    rate: float = 1.0

    def __post_init__(self):
        check_fields(self, "warp")
        if self.rate <= 0.0:
            raise ArgumentError(f"rate must be a positive real, got {self.rate}")

    def f(self, x):
        return np.exp(x / self.rate)

    def g(self, z):
        return self.rate * np.log(z)

    def f_prime(self, x):
        return np.exp(x / self.rate) / self.rate


def warp_forward(w: WarpSpec, t: float, s) -> float:
    """Map history time s <= t to the canonical coordinate f(s - t)."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr > t):
        raise DomainError(f"s must not exceed t={t}")
    out = w.f(s_arr - t)
    return float(out) if np.ndim(s) == 0 else out


def warp_inverse(w: WarpSpec, t: float, z) -> float:
    """Map canonical z in (0, 1] back to history time t + g(z)."""
    z_arr = np.asarray(z, dtype=float)
    if np.any((z_arr <= 0.0) | (z_arr > 1.0)):
        raise DomainError("z must lie in (0, 1]")
    out = t + w.g(z_arr)
    return float(out) if np.ndim(z) == 0 else out


def measure(w: WarpSpec, t: float, s) -> float:
    """Induced density |sigma_t'(s)| = f'(s - t) at history time s <= t."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr > t):
        raise DomainError(f"s must not exceed t={t}")
    out = w.f_prime(s_arr - t)
    return float(out) if np.ndim(s) == 0 else out


def lag(w: WarpSpec, delta: float, z) -> float:
    """Backward lag f(delta + g(z)): where today's coordinate z sat one step ago.

    The result exceeds 1 when delta > 0; callers evaluate the polynomial-
    extended basis there.
    """
    if delta < 0.0:
        raise ArgumentError(f"delta must be nonnegative, got {delta}")
    z_arr = np.asarray(z, dtype=float)
    if np.any((z_arr <= 0.0) | (z_arr > 1.0)):
        raise DomainError("z must lie in (0, 1]")
    out = w.f(delta + w.g(z_arr))
    return float(out) if np.ndim(z) == 0 else out
