"""Matrix builders for warped-basis state-space models.

Continuous generators come from inner products of the basis with its own
warped derivative; exact discrete transitions from inner products with the
lag-composed basis.  Closed-form HiPPO-LegS matrices are provided as the
reference the exponential-warp instance must reproduce.

Orientation convention: a_gen / a_delta and the shift operators act on the
stack of basis functions.  Coefficient vectors transform contravariantly,
i.e. with the transposes of these matrices (see recurrence docs and the
experiment drivers).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (
    MAX_BASIS_SIZE,
    BasisSpec,
    boundary_values,
    phi_matrix,
)
from .errors import ArgumentError, NumericError
from .quadrature import QuadratureConfig, panel_nodes
from .warp import WarpSpec, lag

DIRAC, ZOH, FOH = "dirac", "zoh", "foh"
INPUT_MODELS = (DIRAC, ZOH, FOH)

# build_a_delta refuses a step above this; the cap only bounds the input.
# Below it the rule is not accurate everywhere (its docstring gives the
# measured domain), and the lagshift command checks its row against the
# exact lag_matrix.
DELTA_CAP = 0.5

DEFAULT_MAX_CONDITION = 1e12

MATRIX_SCHEMA_VERSION = 1


class FohVectors(NamedTuple):
    """First-order-hold input pair; the update consumes
    v_next * u_next + v_prev * u_prev."""

    v_next: np.ndarray
    v_prev: np.ndarray


@dataclass(frozen=True)
class HippoReference:
    """Closed-form HiPPO-LegS state and input matrices (no quadrature)."""

    a_hippo: np.ndarray
    b_hippo: np.ndarray


def build_a_gen(basis: BasisSpec, warp: WarpSpec) -> np.ndarray:
    """Generator entries <phi_n, phi'_m / g'> over the canonical interval.

    For the exponential warp g'(z) = tau / z, so the generator is D / tau
    with D_{nm} = <phi_n, z phi'_m>, the derivative of lag_matrix's M(c) at
    c = 1.  Built without quadrature by differentiating that recurrence:
    with D_0 = 0,

        D_{m+1} = (J e_m + (J - 1/2) D_m - b_m D_{m-1}) / b_{m+1},

    J, b_m as in lag_matrix.  z phi'_m has degree m, so the result is exact
    in the truncated space: upper triangular with exact zeros below the
    diagonal and diagonal n / tau.
    """
    n = basis.n_basis
    b = _jacobi_offdiagonal(n)
    cols = np.zeros((n, n))  # row m: coefficients of z phi'_m(z)
    for m in range(n - 1):
        v = cols[m, : m + 2]
        nxt = np.zeros(m + 2)
        nxt[1:] += b[: m + 1] * v[: m + 1]  # (J - 1/2) D_m
        nxt[:-1] += b[: m + 1] * v[1:]
        nxt[m] += 0.5  # J e_m
        nxt[m + 1] += b[m]
        if m:
            nxt[m - 1] += b[m - 1]
            nxt[:m] -= b[m - 1] * cols[m - 1, :m]
        cols[m + 1, : m + 2] = nxt / b[m]
    return cols.T / warp.rate


def _jacobi_offdiagonal(n: int) -> np.ndarray:
    """b_1..b_{n-1} of the basis's Jacobi matrix, b_m = m / (2 sqrt(4m^2 - 1));
    entry m - 1 is b_m."""
    k = np.arange(1.0, n)
    return k / (2.0 * np.sqrt(4.0 * k * k - 1.0))


def build_b_gen(basis: BasisSpec, warp: WarpSpec) -> np.ndarray:
    """Input generator phi_n(1) * f'(0); closed form, no quadrature."""
    return boundary_values(basis) * warp.f_prime(0.0)


def hippo_legs_reference(n_basis: int) -> HippoReference:
    """Closed-form HiPPO-LegS matrices of size n_basis.

    a_hippo is lower triangular with diagonal -(n+1) and subdiagonal
    entries -sqrt((2n+1)(2m+1)); b_hippo has entries sqrt(2n+1).
    """
    if not (1 <= n_basis <= MAX_BASIS_SIZE):
        raise ArgumentError(f"n_basis must be in [1, {MAX_BASIS_SIZE}], got {n_basis}")
    n = np.arange(n_basis)
    root = np.sqrt(2.0 * n + 1.0)
    a0 = np.tril(np.outer(root, root), -1) + np.diag(n.astype(float))
    return HippoReference(a_hippo=-(a0 + np.eye(n_basis)), b_hippo=root.copy())


def build_a_delta(
    basis: BasisSpec,
    warp: WarpSpec,
    delta: float,
    quad: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Discrete transition of the basis stack over one step, on the
    composite rule.

    Entry (n, m) integrates phi_n(z) * phi_m(lag(delta, z)) over (0, 1].
    For the exponential warp this is upper triangular with diagonal
    exp(n * delta / tau); lag_matrix(basis, exp(delta / tau)) is its exact
    form, for any delta.

    On the default 64x8 rule the top row meets that exact form to 1e-7
    relative (max abs) only on a measured domain that shrinks with N:
    delta / tau up to 0.5 at N=16, 0.1 at N=32, 0.03 at N=64 (2.8e-11 at
    0.01, 5.2e-3 at 0.1) and 0.005 at N=128 (3.4e-8; 2.9e-5 at 0.01).
    Outside it the result is wrong without a warning: N=256 at 0.01 is off
    by 8e16.
    """
    if delta < 0.0:
        raise ArgumentError(f"delta must be nonnegative, got {delta}")
    if delta > DELTA_CAP:
        raise ArgumentError(
            f"delta={delta} exceeds the cap {DELTA_CAP} of the quadrature-built "
            "a_delta; lag_matrix(basis, exp(delta / tau)) is exact for any delta"
        )
    z, w = panel_nodes(0.0, 1.0, quad)
    phi = phi_matrix(basis, z)
    phi_lagged = phi_matrix(basis, lag(warp, delta, z))
    return (phi * w) @ phi_lagged.T


def lag_matrix(basis: BasisSpec, c: float | np.ndarray) -> np.ndarray:
    """Matrix of the dilation p(z) -> p(c z): entry (n, m) is the integral of
    phi_n(z) * phi_m(c z) over (0, 1].

    Built without quadrature.  Column m holds the coefficients of
    phi_m(c z), and the orthonormal three-term recurrence
    z phi_m = b_{m+1} phi_{m+1} + phi_m / 2 + b_m phi_{m-1}, with
    b_m = m / (2 sqrt(4m^2 - 1)), gives column m+1 from columns m and m-1
    with z replaced by c J, J the basis's tridiagonal Jacobi matrix.  No
    column below N reaches phi_N, so the result is exact in the truncated
    space: upper triangular with exact zeros below the diagonal, diagonal
    c^n, and M(c1 c2) = M(c1) M(c2).

    A scalar c gives (N, N); a 1-D array of k values gives the (k, N, N)
    stack from one pass of the recurrence, each slice bit-equal to the
    scalar call.

    For the exponential warp with rate tau, M(exp(delta / tau)) is a_delta,
    and with c = exp(-delta / tau) the forward basis shift is c M(c), whose
    transpose is exp(delta a_hippo / tau).
    """
    cs = np.asarray(c, dtype=float)
    if cs.ndim > 1:
        raise ArgumentError(f"c must be a scalar or a 1-D array, got shape {cs.shape}")
    stack = cs.reshape(-1)
    bad = ~(np.isfinite(stack) & (stack > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        where = f"c[{i}]" if cs.ndim else "c"
        raise ArgumentError(f"{where} must be a positive finite real, got {stack[i]}")
    n = basis.n_basis
    b = _jacobi_offdiagonal(n)
    cb = np.multiply.outer(b, cs)
    # c J - 1/2 = c (J - 1/2) + (c - 1) / 2: J's diagonal 1/2 never meets
    # the -1/2, so nothing cancels near c = 1 and M(1) is I exactly.
    half_gap = 0.5 * (cs - 1.0)
    # cols[m]: coefficients of phi_m(c z), one column per value of c when c
    # is a stack, so each update is one contiguous block.
    cols = np.zeros((n, n) + cs.shape)
    cols[0, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for m in range(n - 1):
            v = cols[m, : m + 2]
            nxt = half_gap * v
            nxt[1:] += cb[: m + 1] * v[: m + 1]
            nxt[:-1] += cb[: m + 1] * v[1:]
            if m:
                nxt[:m] -= b[m - 1] * cols[m - 1, :m]
            cols[m + 1, : m + 2] = nxt / b[m]
    finite = np.isfinite(cols).all(axis=(0, 1)).reshape(-1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericError(f"lag matrix overflows at c={stack[i]} and N={n}")
    return cols.T


def hold_vectors(
    forward: np.ndarray,
    basis: BasisSpec,
    warp: WarpSpec,
    delta: float,
    model: str,
    quad: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray | FohVectors:
    """ZOH vector or FOH pair from the forward basis shift c M(c),
    c = f(-delta).

    Row 0 of c M(c) integrates phi_n over [0, c], so the ZOH vector, the
    integral of phi_n over [c, 1], is its negative plus 1 - c in entry 0
    (taken as -expm1(-delta / tau)).  FOH adds Ig, the integral of
    phi_n * g, which is not polynomial and stays on the composite rule.
    """
    if model not in (ZOH, FOH):
        raise ArgumentError(f"hold vectors exist for zoh and foh, not {model!r}")
    if delta <= 0.0:
        raise ArgumentError(f"delta must be positive for {model}, got {delta}")
    i1 = -forward[0]
    i1[0] = -np.expm1(-delta / warp.rate)
    if model == ZOH:
        return i1
    z, w = panel_nodes(warp.f(-delta), 1.0, quad)
    ig = phi_matrix(basis, z) @ (w * warp.g(z))
    return FohVectors(v_next=i1 + ig / delta, v_prev=-ig / delta)


def correct_a_delta(
    a_delta: np.ndarray,
    delta: float,
    max_condition: float | None = DEFAULT_MAX_CONDITION,
    *,
    rate: float = 1.0,
) -> np.ndarray:
    """Stability-corrected transition inverse(a_delta) * exp(-delta / rate).

    Equals exp(delta * a_stable) with a_stable = -(a_gen + I / rate), so its
    diagonal decays like exp(-(n+1) delta / rate).  The inverse goes through
    an LU solve with partial pivoting; a condition estimate above
    max_condition raises NumericError (pass max_condition=None to force
    the solve anyway, e.g. for large-step sweeps that report conditioning).
    """
    if max_condition is not None:
        cond = float(np.linalg.cond(a_delta))
        if not np.isfinite(cond) or cond > max_condition:
            raise NumericError(
                f"a_delta condition estimate {cond:.3e} exceeds {max_condition:.3e}"
            )
    try:
        inv = np.linalg.solve(a_delta, np.eye(a_delta.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"a_delta is singular: {exc}") from exc
    return inv * np.exp(-delta / rate)


def backward_shift(a_delta: np.ndarray, delta: float, *, rate: float = 1.0) -> np.ndarray:
    """Backward shift operator a_delta * exp(delta / rate) acting on the basis
    stack; its transpose is exp(-delta a_hippo / rate)."""
    return a_delta * np.exp(delta / rate)


def build_b_delta(
    basis: BasisSpec,
    warp: WarpSpec,
    delta: float,
    model: str = ZOH,
    quad: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray | FohVectors:
    """Discrete input vector(s) for one hold model.

    dirac: b_gen = phi_n(1) f'(0), independent of delta.
    zoh:   integral of phi_n over [f(-delta), 1].
    foh:   FohVectors(v_next, v_prev) with v_next = I1 + Ig/delta and
           v_prev = -Ig/delta, where I1 integrates phi_n and Ig integrates
           phi_n * g over [f(-delta), 1].

    I1 (the zoh vector) is read exactly off the lag matrix at
    c = f(-delta) (see hold_vectors); Ig is on the composite rule.

    For the exponential warp with rate tau, b_gen = phi_n(1) / tau and
    c_n = (phi_n(1) + phi_n'(1)) / tau^2 = sqrt(2n+1) (1 + n(n+1)) / tau^2,
    the hold vectors have the first-order expansions

        zoh / delta    = b_gen   - (delta/2) c + O(delta^2)
        v_prev / delta = b_gen/2 - (delta/3) c + O(delta^2)
        v_next / delta = b_gen/2 - (delta/6) c + O(delta^2)

    and v_next + v_prev is the zoh vector.
    """
    if model not in INPUT_MODELS:
        raise ArgumentError(f"unknown input model {model!r}; pick from {INPUT_MODELS}")
    if model == DIRAC:
        return build_b_gen(basis, warp)
    if delta <= 0.0:
        raise ArgumentError(f"delta must be positive for {model}, got {delta}")
    c = warp.f(-delta)
    return hold_vectors(c * lag_matrix(basis, c), basis, warp, delta, model, quad)


_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)

# Squaring count is chosen so the scaled 1-norm is at most this; fixed for
# reproducible output.
_EXPM_SCALE_TARGET = 0.5


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a degree-13 diagonal
    Pade approximant.

    m is one (N, N) matrix or a (k, N, N) stack; each matrix keeps its own
    squaring count, so each slice is bit-equal to the 2-D call on it.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise ArgumentError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ArgumentError("matrix has non-finite entries")
    norm = np.linalg.norm(m, 1, axis=(-2, -1))
    squarings = np.zeros(norm.shape, dtype=int)
    big = norm > _EXPM_SCALE_TARGET
    squarings[big] = np.ceil(np.log2(norm[big] / _EXPM_SCALE_TARGET))
    a = m / (2.0**squarings)[..., None, None]

    b = _PADE13_B
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    try:
        r = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Pade denominator is singular: {exc}") from exc
    for j in range(squarings.max(initial=0)):
        more = squarings > j  # a 0-d mask for a 2-D m: r[True] is r[None]
        part = r[more]
        r[more] = part @ part
    return r


def bilinear_discretize(
    a: np.ndarray, b: np.ndarray, delta: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tustin transform: ((I - d/2 a)^-1 (I + d/2 a), (I - d/2 a)^-1 d b).

    A 1-D delta of k steps gives the (k, N, N) and (k, N) stacks from one
    solve, each slice bit-equal to the call at that step.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.asarray(delta, dtype=float)[..., None, None]
    n = a.shape[0]
    ident = np.eye(n)
    lhs = ident - 0.5 * d * a
    rhs = np.concatenate([ident + 0.5 * d * a, d * b[:, None]], axis=-1)
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"bilinear resolvent is singular: {exc}") from exc
    return sol[..., :n], sol[..., n]


def frobenius_rel_diff(m1: np.ndarray, m2: np.ndarray) -> float:
    """||m1 - m2||_F / ||m1||_F.

    Both operands are first scaled by the power of two that brings max|m1|
    into [1/2, 1), so the squared entries cannot overflow (M(e) at N=256
    has entries near 1.7e238).  The scaling is exact for normal floats,
    so a ratio that was finite without it is unchanged.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != m2.shape:
        raise ArgumentError(f"shape mismatch: {m1.shape} vs {m2.shape}")
    if m1.size:
        exponent = max(int(np.frexp(np.abs(m1).max())[1]), -1022)  # 2^1022 is finite
        m1, m2 = np.ldexp(m1, -exponent), np.ldexp(m2, -exponent)
    denom = np.linalg.norm(m1)
    if denom == 0.0:
        raise ArgumentError("reference matrix has zero Frobenius norm")
    return float(np.linalg.norm(m1 - m2) / denom)


# --- serialization -----------------------------------------------------------


def save_matrices_json(path, arrays: dict, meta: dict) -> None:
    """Write named arrays (str keys) with a schema-versioned metadata header.

    The file has json.dump(payload, fh, indent=1)'s layout, but is written
    one array row at a time through the C encoder.  Floats go through
    Python's shortest-round-trip repr, so a load returns bit-identical
    values.
    """
    head = json.dumps({"schema_version": MATRIX_SCHEMA_VERSION, "meta": meta}, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[: -len("\n}")] + ',\n "matrices": {')
        for i, (name, value) in enumerate(arrays.items()):
            fh.write(("," if i else "") + "\n  " + json.dumps(name) + ": ")
            _write_json_array(fh, np.asarray(value), 2)
        fh.write("\n }\n}\n" if arrays else "}\n}\n")


def _write_json_array(fh, a: np.ndarray, level: int) -> None:
    """Write a.tolist() as json.dump(indent=1) would at nesting depth level."""
    if a.ndim == 0 or len(a) == 0:
        fh.write(json.dumps(a.tolist()))
        return
    inner = "\n" + " " * (level + 1)
    if a.ndim == 1:
        items = json.dumps(a.tolist(), separators=("," + inner, ": "))
        fh.write("[" + inner + items[1:-1] + "\n" + " " * level + "]")
        return
    fh.write("[")
    for i, sub in enumerate(a):
        fh.write(("," if i else "") + inner)
        _write_json_array(fh, sub, level + 1)
    fh.write("\n" + " " * level + "]")


def load_matrices_json(path) -> tuple[dict, dict]:
    """Inverse of save_matrices_json: (arrays, meta)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != MATRIX_SCHEMA_VERSION:
        raise ArgumentError(
            f"unsupported schema version {payload.get('schema_version')!r}"
        )
    arrays = {k: np.asarray(v, dtype=float) for k, v in payload["matrices"].items()}
    return arrays, payload["meta"]
