"""Exponential warp: WarpSpec's closed-form maps f, g and f', composed as the
history-to-canonical map f(s - t), its inverse t + g(z), the induced measure
f'(s - t) and the backward lag f(delta + g(z))."""

import numpy as np
import pytest

from lagssm import ArgumentError, BasisSpec, WarpSpec, build_a_delta
from lagssm.quadrature import QuadratureConfig, integrate


def test_forward_examples():
    w = WarpSpec()
    assert w.f(5.0 - 5.0) == 1.0
    assert w.f(4.0 - 5.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    w2 = WarpSpec(rate=2.0)
    assert w2.f(-2.0) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_inverse_examples():
    w = WarpSpec()
    assert 3.0 + w.g(1.0) == 3.0
    assert w.g(np.exp(-2.0)) == pytest.approx(-2.0, abs=1e-12)


def test_inverse_round_trip():
    rng = np.random.default_rng(11)
    for tau in (1.0, 0.5, 3.0):
        w = WarpSpec(rate=tau)
        t = 2.0
        s = t - rng.uniform(0.0, 20.0, size=100)
        back = t + w.g(w.f(s - t))
        np.testing.assert_allclose(back, s, atol=1e-12)


def test_forward_monotone():
    w = WarpSpec(rate=1.3)
    s = np.linspace(-8.0, 0.0, 200)
    z = w.f(s)
    assert np.all(np.diff(z) > 0)
    assert z[-1] == 1.0


def test_measure_examples():
    w = WarpSpec()
    assert w.f_prime(0.0) == 1.0
    assert w.f_prime(-1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_measure_normalizes():
    """The forgetting density integrates to one over the (truncated) history."""
    w = WarpSpec()
    t = 3.0
    val = integrate(lambda s: w.f_prime(s - t), t - 40.0, t, QuadratureConfig())
    assert abs(val - 1.0) <= 1e-12


def test_lag_examples():
    w = WarpSpec()
    assert w.f(0.0 + w.g(0.7)) == pytest.approx(0.7, abs=1e-15)
    assert w.f(0.5 + w.g(0.5)) == pytest.approx(0.5 * np.exp(0.5), abs=1e-15)
    # build_a_delta, the lag's one caller, refuses a negative step.
    with pytest.raises(ArgumentError):
        build_a_delta(BasisSpec(n_basis=4), w, -0.1)


def test_lag_semigroup():
    """f(d1 + g(f(d2 + g(z)))) == f(d1 + d2 + g(z)); z drawn so the inner
    image stays inside the canonical interval."""
    rng = np.random.default_rng(3)
    for tau in (1.0, 2.0):
        w = WarpSpec(rate=tau)
        for _ in range(50):
            d1 = rng.uniform(0.0, 0.5)
            d2 = rng.uniform(0.0, 0.5)
            z = rng.uniform(1e-6, w.f(-d2))
            assert w.f(d1 + w.g(w.f(d2 + w.g(z)))) == pytest.approx(
                w.f(d1 + d2 + w.g(z)), abs=1e-12
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
