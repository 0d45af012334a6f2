"""Composite Gauss-Legendre quadrature over finite intervals.

The polynomial matrices (lag_matrix, build_a_gen, exact_shift) need no
rule; what still runs on this one is the quadrature-built build_a_delta,
FOH's Ig in matrices.hold_vectors, recurrence.project_direct and
integrate.  The rule is deterministic: no adaptivity, fixed node order,
fixed summation order, so repeated builds are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ._schema import check_fields, check_finite, finite_array
from .basis import _legendre_stack
from .errors import ArgumentError

MIN_POINTS, MAX_POINTS = 2, 128
MIN_PANELS, MAX_PANELS = 1, 1024

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100

_rule_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class QuadratureConfig:
    """Points per panel and panel count for the composite rule."""

    points_per_panel: int = 64
    panels: int = 8

    def __post_init__(self):
        check_fields(self, "quadrature")
        if not (MIN_POINTS <= self.points_per_panel <= MAX_POINTS):
            raise ArgumentError(
                f"points_per_panel must be in [{MIN_POINTS}, {MAX_POINTS}]"
            )
        if not (MIN_PANELS <= self.panels <= MAX_PANELS):
            raise ArgumentError(f"panels must be in [{MIN_PANELS}, {MAX_PANELS}]")


def _legendre_and_deriv(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_k(x) and P'_k(x) = k (x P_k - P_{k-1}) / (x^2 - 1) off the endpoints."""
    p_prev, p = _legendre_stack(k + 1, x)[k - 1 :]
    return p, k * (x * p - p_prev) / (x * x - 1.0)


def gauss_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the k-point Gauss-Legendre rule on (-1, 1).

    Nodes are the roots of P_k, found by Newton iteration from the
    Chebyshev initial guesses cos(pi (i - 1/4) / (k + 1/2)); weights are
    2 / ((1 - x^2) P'_k(x)^2).  Rules are cached per k and the returned
    arrays are read-only.  k must be an integer (numpy's included).
    """
    if not isinstance(k, Integral) or not (MIN_POINTS <= k <= MAX_POINTS):
        raise ArgumentError(f"k must be an integer in [{MIN_POINTS}, {MAX_POINTS}], got {k}")
    if k in _rule_cache:
        return _rule_cache[k]

    i = np.arange(1, k + 1)
    x = np.cos(np.pi * (i - 0.25) / (k + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_and_deriv(k, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    # Chebyshev guesses come out descending; enforce exact +- symmetry and
    # ascending order.
    x = 0.5 * (x - x[::-1])
    _, dp = _legendre_and_deriv(k, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    x = x[::-1].copy()
    w = w[::-1].copy()
    x.flags.writeable = False
    w.flags.writeable = False
    _rule_cache[k] = (x, w)
    return x, w


def panel_nodes(a: float, b: float, cfg: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Flattened nodes and weights of the composite rule on [a, b], finite reals."""
    if check_finite("a", a) > check_finite("b", b):
        raise ArgumentError(f"need a <= b, got a={a}, b={b}")
    x, w = gauss_rule(cfg.points_per_panel)
    edges = np.linspace(a, b, cfg.panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    weights = (halfs[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate(fn, a: float, b: float, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Composite Gauss-Legendre estimate of the integral of fn over [a, b].

    Exact (to rounding) for polynomials of degree <= 2 * points_per_panel - 1.
    fn is called on every node in order, then the rule is summed once.
    Raises ArgumentError naming the first abscissa where fn returns a
    non-finite value, or for a value that is not real; a and b must be
    finite reals, and panel_nodes rejects a > b.
    """
    if check_finite("a", a) == check_finite("b", b):
        return 0.0
    nodes, weights = panel_nodes(a, b, cfg)
    vals = finite_array("fn(z)", [fn(z) for z in nodes], 1, finite=False)
    if not (finite := np.isfinite(vals)).all():
        raise ArgumentError(f"integrand non-finite at z={float(nodes[np.argmin(finite)])!r}")
    return float(weights @ vals)

