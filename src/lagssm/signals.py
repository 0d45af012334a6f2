"""Test-signal generators: a Lorenz63 x-trace and deterministic synthetics."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from numbers import Integral

import numpy as np

from ._schema import check_fields, check_finite, finite_array
from .errors import ArgumentError, NumericError
from .recurrence import SignalTrace

MAX_LORENZ_DT = 0.02


@dataclass(frozen=True)
class LorenzSystem:
    """The Lorenz63 fields that LorenzParams and the config's LorenzSignal
    share, checked here for both; an error names one as `signal <field>`."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    x0: tuple[float, float, float] = (1.0, 1.0, 1.0)
    burn_in: int = 1000

    def __post_init__(self):
        check_fields(self, "signal")
        if self.burn_in < 0:
            raise ArgumentError(f"signal burn_in must be a nonnegative integer, got {self.burn_in}")


@dataclass(frozen=True)
class LorenzParams(LorenzSystem):
    """Fixed-step RK4 integration setup for the Lorenz63 system."""

    dt: float = 0.01
    steps: int = 1000

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.dt <= MAX_LORENZ_DT):
            raise ArgumentError("Lorenz sample spacing delta must be in "
                                f"(0, MAX_LORENZ_DT={MAX_LORENZ_DT}], got {self.dt}")
        if self.steps <= 0:
            raise ArgumentError(f"steps must be positive, got {self.steps}")


@contextmanager
def _allocating(steps: int):
    """A MemoryError inside is an ArgumentError naming the sample count."""
    try:
        yield
    except MemoryError as exc:
        raise ArgumentError(f"steps={steps} samples cannot be allocated: {exc}") from None


def lorenz_rhs(state: np.ndarray, sigma: float, rho: float, beta: float) -> np.ndarray:
    x, y, z = state
    return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])


def rk4_step(state: np.ndarray, dt: float, sigma: float, rho: float, beta: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of the Lorenz system."""
    k1 = lorenz_rhs(state, sigma, rho, beta)
    k2 = lorenz_rhs(state + 0.5 * dt * k1, sigma, rho, beta)
    k3 = lorenz_rhs(state + 0.5 * dt * k2, sigma, rho, beta)
    k4 = lorenz_rhs(state + dt * k3, sigma, rho, beta)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lorenz63(params: LorenzParams) -> SignalTrace:
    """x-component after burn-in: a trace from t0 = 0 with delta = dt.

    Runs rk4_step's operations, in the same order, on Python floats rather
    than numpy 3-vectors, so the output is bit-identical to folding rk4_step
    without paying numpy's per-call cost on every stage.  The steps run in
    a generator that np.fromiter drains straight into the output array.

    Divergence is checked once, on the final state.  That check is exact:
    each step sets x to x + (increment), likewise y and z, and adding
    anything to inf or nan never gives a finite number, so a component that
    goes non-finite at some step stays non-finite at every later one.  Only
    then is rk4_step folded again to name the first non-finite step.
    """
    sigma, rho, beta = float(params.sigma), float(params.rho), float(params.beta)
    dt = float(params.dt)
    half, sixth = 0.5 * dt, dt / 6.0

    # The constants are bound as defaults: the loop reads them as fast
    # locals, not as closure cells.
    def xs(x, y, z, sigma=sigma, rho=rho, beta=beta, dt=dt, half=half, sixth=sixth):
        """Yields x after each step, then the final (x, y, z)."""
        for _ in repeat(None, params.burn_in + params.steps):
            kx1, ky1, kz1 = sigma * (y - x), x * (rho - z) - y, x * y - beta * z
            x2, y2, z2 = x + half * kx1, y + half * ky1, z + half * kz1
            kx2, ky2, kz2 = sigma * (y2 - x2), x2 * (rho - z2) - y2, x2 * y2 - beta * z2
            x3, y3, z3 = x + half * kx2, y + half * ky2, z + half * kz2
            kx3, ky3, kz3 = sigma * (y3 - x3), x3 * (rho - z3) - y3, x3 * y3 - beta * z3
            x4, y4, z4 = x + dt * kx3, y + dt * ky3, z + dt * kz3
            kx4, ky4, kz4 = sigma * (y4 - x4), x4 * (rho - z4) - y4, x4 * y4 - beta * z4
            x = x + sixth * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
            y = y + sixth * (ky1 + 2.0 * ky2 + 2.0 * ky3 + ky4)
            z = z + sixth * (kz1 + 2.0 * kz2 + 2.0 * kz3 + kz4)
            yield x
        yield x, y, z

    gen = xs(*(float(v) for v in params.x0))
    next(islice(gen, params.burn_in, params.burn_in), None)  # skip the burn-in
    with _allocating(params.steps):
        out = np.fromiter(gen, float, count=params.steps)
    if not all(map(math.isfinite, next(gen))):
        state = np.asarray(params.x0, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(params.burn_in + params.steps):
                state = rk4_step(state, dt, sigma, rho, beta)
                if not np.isfinite(state).all():
                    raise NumericError(f"Lorenz trajectory diverged at step {i}")
    return SignalTrace(out, params.dt)


def sine_mixture(freqs, amps, phases, delta: float, steps: int) -> SignalTrace:
    """Samples of sum_i amps[i] * sin(2 pi freqs[i] t + phases[i]), t = k delta, k < steps."""
    names = ("freqs", "amps", "phases")
    freqs, amps, phases = (finite_array(k, v, 1) for k, v in zip(names, (freqs, amps, phases)))
    if not (freqs.shape == amps.shape == phases.shape):
        raise ArgumentError("freqs, amps, phases must have equal lengths")
    if type(steps) is bool or not isinstance(steps, Integral) or steps <= 0:
        raise ArgumentError(f"steps must be a positive integer, got {steps!r}")
    with _allocating(steps):
        t = check_finite("delta", delta) * np.arange(steps)
        waves = np.sin(2.0 * np.pi * freqs[:, None] * t + phases[:, None])
        values = (amps[:, None] * waves).sum(axis=0)
    return SignalTrace(values, delta)


def zoh_function(trace: SignalTrace):
    """Piecewise-constant extension: sample k holds on [t0 + k delta, t0 + (k+1) delta).

    The boundaries are the grid's own times t0 + k * delta, as computed by
    trace.times, so a point exactly at one reads sample k and the float
    just below it sample k - 1 (right-continuous).  Returns 0 before the
    trace starts and from t0 + m * delta on, for m samples.
    """
    values = trace.values
    m = values.size
    edges = trace.t0 + trace.delta * np.arange(m + 1)

    def u(s):
        idx = np.searchsorted(edges, s, side="right") - 1
        out = np.where((idx >= 0) & (idx < m), values[np.clip(idx, 0, m - 1)], 0.0)
        return float(out) if np.ndim(s) == 0 else out

    return u


def normalize_trace(trace: SignalTrace) -> SignalTrace:
    """Affine normalization to zero mean and unit max-abs on the same grid:
    one new values array, divided in place."""
    v = trace.values - trace.values.mean()
    peak = max(v.max(), -v.min())
    if peak != 0.0:
        v /= peak
    return SignalTrace(v, trace.delta, trace.t0)
