"""Exponential warp: forward/inverse maps, induced measure, backward lag."""

import numpy as np
import pytest

from lagssm import ArgumentError, DomainError, WarpSpec, lag, measure, warp_forward, warp_inverse
from lagssm.quadrature import QuadratureConfig, integrate


def test_forward_examples():
    w = WarpSpec()
    assert warp_forward(w, 5.0, 5.0) == 1.0
    assert warp_forward(w, 5.0, 4.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    w2 = WarpSpec(rate=2.0)
    assert warp_forward(w2, 0.0, -2.0) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_forward_rejects_future():
    with pytest.raises(DomainError):
        warp_forward(WarpSpec(), 1.0, 1.5)


def test_inverse_examples():
    w = WarpSpec()
    assert warp_inverse(w, 3.0, 1.0) == 3.0
    assert warp_inverse(w, 0.0, np.exp(-2.0)) == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(DomainError):
        warp_inverse(w, 0.0, 0.0)
    with pytest.raises(DomainError):
        warp_inverse(w, 0.0, 1.5)


def test_inverse_round_trip():
    rng = np.random.default_rng(11)
    for tau in (1.0, 0.5, 3.0):
        w = WarpSpec(rate=tau)
        t = 2.0
        s = t - rng.uniform(0.0, 20.0, size=100)
        back = warp_inverse(w, t, warp_forward(w, t, s))
        np.testing.assert_allclose(back, s, atol=1e-12)


def test_forward_monotone():
    w = WarpSpec(rate=1.3)
    s = np.linspace(-8.0, 0.0, 200)
    z = warp_forward(w, 0.0, s)
    assert np.all(np.diff(z) > 0)
    assert z[-1] == 1.0


def test_measure_examples():
    w = WarpSpec()
    assert measure(w, 0.0, 0.0) == 1.0
    assert measure(w, 0.0, -1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    with pytest.raises(DomainError):
        measure(w, 0.0, 0.1)


def test_measure_normalizes():
    """The forgetting density integrates to one over the (truncated) history."""
    w = WarpSpec()
    t = 3.0
    val = integrate(lambda s: measure(w, t, s), t - 40.0, t, QuadratureConfig())
    assert abs(val - 1.0) <= 1e-12


def test_lag_examples():
    w = WarpSpec()
    assert lag(w, 0.0, 0.7) == pytest.approx(0.7, abs=1e-15)
    assert lag(w, 0.5, 0.5) == pytest.approx(0.5 * np.exp(0.5), abs=1e-15)
    with pytest.raises(DomainError):
        lag(w, 0.1, 0.0)
    with pytest.raises(ArgumentError):
        lag(w, -0.1, 0.5)


def test_lag_semigroup():
    """lag(d1, lag(d2, z)) == lag(d1 + d2, z); z drawn so the inner image
    stays inside the canonical interval."""
    rng = np.random.default_rng(3)
    for tau in (1.0, 2.0):
        w = WarpSpec(rate=tau)
        for _ in range(50):
            d1 = rng.uniform(0.0, 0.5)
            d2 = rng.uniform(0.0, 0.5)
            z = rng.uniform(1e-6, w.f(-d2))
            assert lag(w, d1, lag(w, d2, z)) == pytest.approx(
                lag(w, d1 + d2, z), abs=1e-12
            )


def test_spec_validation():
    with pytest.raises(ArgumentError):
        WarpSpec(rate=0.0)
    with pytest.raises(ArgumentError):
        WarpSpec(rate=-1.0)
    w = WarpSpec(rate=2.0)
    assert w.f(0.0) == 1.0
    assert w.g(1.0) == 0.0
    assert w.f_prime(0.0) == 0.5
