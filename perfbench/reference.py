"""Closed-form HiPPO-LegS reference, computed with numpy alone.

Nothing here imports lagssm: every figure the benchmark checks an output
against comes from these functions, which share no code with the library.

Orientation follows the library's coefficient convention: the state c
advances by c' = T c + b u, where T = exp(delta * A) and A is the
coefficient-side generator. For the exponential warp with rate tau the
generator is the HiPPO-LegS matrix divided by tau, and so is the input
vector.
"""

from __future__ import annotations

import math

import numpy as np

# Taylor degree after scaling to 1-norm <= 1/2: the truncation error
# 0.5**19 / 19! is far below double rounding.
_TAYLOR_DEGREE = 18
_SCALE_TARGET = 0.5


def legs_generator(n: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """HiPPO-LegS pair (A, B) at warp rate tau, written entry by entry.

    A[i, j] = -sqrt((2i+1)(2j+1)) below the diagonal, -(i+1) on it, 0 above;
    B[i] = sqrt(2i+1).
    """
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = -(i + 1.0)
        for j in range(i):
            a[i, j] = -math.sqrt((2 * i + 1) * (2 * j + 1))
    b = np.array([math.sqrt(2 * i + 1) for i in range(n)])
    return a / tau, b / tau


def expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring around a truncated Taylor series."""
    m = np.asarray(m, dtype=float)
    norm = np.abs(m).sum(axis=0).max()
    squarings = max(0, math.ceil(math.log2(norm / _SCALE_TARGET))) if norm > 0 else 0
    s = m / 2.0**squarings
    term = np.eye(m.shape[0])
    total = term.copy()
    for k in range(1, _TAYLOR_DEGREE + 1):
        term = term @ s / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def transition(n: int, tau: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step pair (T, b_zoh): T = exp(delta A), b_zoh = A^-1 (T - I) B."""
    a, b = legs_generator(n, tau)
    t = expm(delta * a)
    return t, np.linalg.solve(a, (t - np.eye(n)) @ b)


def phi(n: int, z: np.ndarray) -> np.ndarray:
    """Shifted normalized Legendre values sqrt(2k+1) P_k(2z-1), shape (n, len(z))."""
    x = 2.0 * np.asarray(z, dtype=float) - 1.0
    v = np.polynomial.legendre.legvander(x, n - 1)
    return (v * np.sqrt(2.0 * np.arange(n) + 1.0)).T


def reconstruct(coeffs: np.ndarray, tau: float, t_end: float, s: np.ndarray) -> np.ndarray:
    """sum_k c_k phi_k(exp((s - t_end) / tau)) on history times s."""
    return coeffs @ phi(coeffs.size, np.exp((np.asarray(s) - t_end) / tau))


def recur(t: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Final state of c' = T c + b u from c = 0."""
    c = np.zeros(t.shape[0])
    for uk in u.tolist():
        c = t @ c + b * uk
    return c


def lorenz_x(x0, dt: float, steps: int, sigma=10.0, rho=28.0, beta=8.0 / 3.0) -> np.ndarray:
    """x-component of classical RK4 on Lorenz63, one sample after each step."""

    def rhs(x, y, z):
        return sigma * (y - x), x * (rho - z) - y, x * y - beta * z

    x, y, z = (float(v) for v in x0)
    out = np.empty(steps)
    h = dt / 2.0
    for i in range(steps):
        k1 = rhs(x, y, z)
        k2 = rhs(x + h * k1[0], y + h * k1[1], z + h * k1[2])
        k3 = rhs(x + h * k2[0], y + h * k2[1], z + h * k2[2])
        k4 = rhs(x + dt * k3[0], y + dt * k3[1], z + dt * k3[2])
        x += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        z += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        out[i] = x
    return out


def normalize(v: np.ndarray) -> np.ndarray:
    """Zero mean, unit max-abs."""
    centred = v - v.mean()
    return centred / np.abs(centred).max()


def shift_row(n: int, tau: float, delta: float, row: int, direction: str) -> np.ndarray:
    """Row `row` of the exact one-step shift of the basis stack: T^T forward
    (the corrected transition), T^-T backward."""
    a, _ = legs_generator(n, tau)
    sign = 1.0 if direction == "forward" else -1.0
    return expm(sign * delta * a).T[row]


def shift_growth_bound(op_row: np.ndarray) -> float:
    """Bound on max |shifted| over [0, 1]: |phi_k| <= sqrt(2k+1) there, so the
    triangle inequality gives sum_k |op_row[k]| sqrt(2k+1)."""
    return float(np.abs(op_row) @ np.sqrt(2.0 * np.arange(op_row.size) + 1.0))


def rel_diff(got: np.ndarray, ref: np.ndarray) -> float:
    """||got - ref|| / ||ref|| (Frobenius); inf when got is not finite."""
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return math.inf
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
