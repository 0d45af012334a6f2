"""The exponential time warp sigma_t(s) = f(s - t) onto the canonical interval.

WarpSpec states the warp's three maps in closed form, so nothing is
inverted numerically: f(x) = exp(x / tau) with rate tau, its inverse
g(z) = tau log z and its derivative f'.  Callers compose them directly:
history time s <= t sits at z = f(s - t), canonical z at s = t + g(z), the
induced measure is f'(s - t), and the backward lag is f(delta + g(z)) =
exp(delta / tau) * z.  This is the one warp the package builds: the exact
builders in matrices (lag_matrix's dilation, build_a_gen's D / tau, the
hold vectors' expm1(-delta / tau)) are written for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._schema import check_fields
from .errors import ArgumentError


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
