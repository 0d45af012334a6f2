"""Matrix builders for warped-basis state-space models.

Every polynomial matrix comes from one Jacobi recurrence without
quadrature: lag_matrix's dilation M(c), whose derivative at c = 1, taken by
a complex step, is the generator build_a_gen, and whose shifts c M(c) are
exact_shift.  build_a_delta, the backward step, keeps the composite rule
only where a growth bound shows it accurate and is lag_matrix elsewhere;
FOH's Ig in hold_vectors is the one other integral on the rule.
Closed-form HiPPO-LegS matrices are provided as the reference the
exponential-warp instance must reproduce.

Orientation convention: a_gen / a_delta and the shift operators act on the
stack of basis functions.  Coefficient vectors transform contravariantly,
i.e. with the transposes of these matrices (see recurrence docs and the
experiment drivers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._schema import check_finite, finite_array, read_json, system, write_json
from .basis import BasisSpec, boundary_values, jacobi_offdiagonal, phi_matrix
from .errors import ArgumentError, NumericError
from .quadrature import QuadratureConfig, panel_nodes
from .warp import WarpSpec

ZOH, FOH = "zoh", "foh"
INPUT_MODELS = (ZOH, FOH)  # the hold models of a sampled input

# build_a_delta keeps its rule while eps * phi_{N-1}(c) is at most this:
# 9.3e-11 at N=64, delta/tau=0.01 (measured error 2.8e-11); 8.0e-7 at 0.03.
_RULE_TOL = 1e-9

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
    with D_{nm} = <phi_n, z phi'_m>, the derivative dM/dc at c = 1 of
    lag_matrix's M(c).  D is taken from lag_matrix's recurrence by a complex
    step (Squire & Trapp, SIAM Review 40(1), 1998): M(c) is a polynomial in
    c with real coefficients, so Im M(1 + i h) = h D + O(h^3).  Nothing is
    subtracted, so D is exact to rounding; h = 2^-300 is a power of two, so
    the division by h (before tau's, so h * tau never underflows) is exact,
    and h^2 is still a normal float.
    z phi'_m has degree m, so the result is exact in the truncated space:
    upper triangular with exact zeros below the diagonal and diagonal
    n / tau; one out of float range (a subnormal tau) is a NumericError.
    """
    h = 2.0**-300
    with np.errstate(over="ignore"):  # checked below
        a_gen = _dilation(basis, np.array(complex(1.0, h))).imag / h / warp.rate
    if not np.isfinite(a_gen).all():
        raise NumericError(f"a_gen = D / tau is out of float range at tau={warp.rate}")
    return a_gen


def build_b_gen(basis: BasisSpec, warp: WarpSpec) -> np.ndarray:
    """Input generator phi_n(1) * f'(0); closed form, no quadrature."""
    return boundary_values(basis) * warp.f_prime(0.0)


def hippo_legs_reference(n_basis: int) -> HippoReference:
    """Closed-form HiPPO-LegS matrices of size n_basis.

    a_hippo is lower triangular with diagonal -(n+1) and subdiagonal
    entries -sqrt((2n+1)(2m+1)); b_hippo has entries sqrt(2n+1).
    """
    # BasisSpec is the basis size check: an ArgumentError if out of range
    root = boundary_values(BasisSpec(n_basis=n_basis))
    a0 = np.tril(np.outer(root, root), -1) + np.diag(np.arange(n_basis, dtype=float))
    return HippoReference(a_hippo=-(a0 + np.eye(n_basis)), b_hippo=root)


def build_a_delta(
    basis: BasisSpec,
    warp: WarpSpec,
    delta: float,
    quad: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Discrete transition of the basis stack over one step: entry (n, m)
    is the integral of phi_n(z) * phi_m(f(delta + g(z))) over (0, 1], with
    f(delta + g(z)) = c z, c = exp(delta / tau), the backward lag of z.
    Its exact form, for any delta, is lag_matrix(basis, c): upper
    triangular with diagonal c^n.

    The integral is taken on the composite rule quad only where that rule
    is accurate: N at most quad.points_per_panel, so each panel is exact
    for the degree-(2N - 2) integrand, and the rounding error predicted by
    machine epsilon times the growth bound phi_{N-1}(c) =
    sqrt(2N - 1) P_{N-1}(2c - 1) at most _RULE_TOL.  Everywhere else the
    result is lag_matrix(basis, c), and an M(c) out of float range is its
    NumericError.
    """
    if check_finite("delta", delta) < 0.0:
        raise ArgumentError(f"delta must be nonnegative, got {delta}")
    c = step_factor(warp, delta)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound takes lag_matrix
        growth = phi_matrix(basis, c)[-1, 0]
    if basis.n_basis > quad.points_per_panel or not np.finfo(float).eps * growth <= _RULE_TOL:
        return lag_matrix(basis, c)
    z, w = panel_nodes(0.0, 1.0, quad)
    phi = phi_matrix(basis, z)
    phi_lagged = phi_matrix(basis, warp.f(delta + warp.g(z)))
    return (phi * w) @ phi_lagged.T


def lag_matrix(basis: BasisSpec, c: float | np.ndarray) -> np.ndarray:
    """Matrix of the dilation p(z) -> p(c z): entry (n, m) is the integral of
    phi_n(z) * phi_m(c z) over (0, 1].

    Built without quadrature.  Column m holds the coefficients of
    phi_m(c z), and the orthonormal three-term recurrence
    z phi_m = b_{m+1} phi_{m+1} + phi_m / 2 + b_m phi_{m-1}, with b_m
    from basis.jacobi_offdiagonal, gives column m+1 from columns m and m-1
    with z replaced by c J, J the basis's tridiagonal Jacobi matrix.  No
    column below N reaches phi_N, so the result is exact in the truncated
    space: upper triangular with exact zeros below the diagonal, diagonal
    c^n, and M(c1 c2) = M(c1) M(c2).

    A scalar c gives (N, N); a 1-D array of k values gives the (k, N, N)
    stack from one pass of the recurrence, each slice bit-equal to the
    scalar call.

    For the exponential warp with rate tau, M(exp(delta / tau)) is a_delta;
    exact_shift builds the shifts c M(c).
    """
    cs = finite_array("c", c)
    if cs.ndim > 1:
        raise ArgumentError(f"c must be a scalar or a 1-D array, got shape {cs.shape}")
    stack = cs.reshape(-1)
    if (bad := stack <= 0.0).any():
        i = int(np.argmax(bad))
        raise ArgumentError(f"c{[i] if cs.ndim else ''} must be positive, got {stack[i]}")
    n = basis.n_basis
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        m = _dilation(basis, cs)
    finite = np.isfinite(m).all(axis=(-2, -1)).reshape(-1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericError(  # ln c is delta/tau for the step factor exp(delta/tau)
            f"lag matrix overflows at c={stack[i]} (delta/tau={np.log(stack[i]):g}) and N={n}"
        )
    return m


def _dilation(basis: BasisSpec, cs: np.ndarray) -> np.ndarray:
    """lag_matrix's recurrence for the 0-d or 1-D array cs, real or complex:
    M(c) of size N for each c, in cs's dtype, unchecked."""
    n = basis.n_basis
    b = jacobi_offdiagonal(basis)  # entry m - 1 is b_m
    cb = np.multiply.outer(b, cs)
    # c J - 1/2 = c (J - 1/2) + (c - 1) / 2: J's diagonal 1/2 never meets
    # the -1/2, so nothing cancels near c = 1 and M(1) is I exactly.
    half_gap = 0.5 * (cs - 1.0)
    # cols[m]: coefficients of phi_m(c z), one column per value of c when c
    # is a stack, so each update is one contiguous block.
    cols = np.zeros((n, n) + cs.shape, dtype=cs.dtype)
    cols[0, 0] = 1.0
    for m in range(n - 1):
        v = cols[m, : m + 2]
        nxt = half_gap * v
        nxt[1:] += cb[: m + 1] * v[: m + 1]
        nxt[:-1] += cb[: m + 1] * v[1:]
        if m:
            nxt[:m] -= b[m - 1] * cols[m - 1, :m]
        cols[m + 1, : m + 2] = nxt / b[m]
    return cols.T


def check_hold(model: str, delta: float | None = None) -> None:
    """ArgumentError unless model is in INPUT_MODELS and a given delta is finite and > 0."""
    if model not in INPUT_MODELS:
        raise ArgumentError(f"unknown input_model {model!r}; expected one of {list(INPUT_MODELS)}")
    if delta is not None and check_finite("delta", delta) <= 0.0:
        raise ArgumentError(f"delta must be positive for {model}, got {delta}")


def step_factor(warp: WarpSpec, delta: float) -> float:
    """f(delta) = exp(delta / tau) for a signed step that is a finite real,
    the one place a step factor is taken; an ArgumentError naming delta/tau
    when it underflows to 0 or overflows."""
    with np.errstate(over="ignore"):
        c = warp.f(check_finite("delta", delta))
    if not 0.0 < c < np.inf:
        raise ArgumentError(
            f"delta/tau={abs(delta) / warp.rate:g} (delta={abs(delta)}, tau={warp.rate}) "
            f"is out of float range: exp({delta / warp.rate:g}) is {c}"
        )
    return c


def exact_shift(basis: BasisSpec, warp: WarpSpec, delta: float) -> np.ndarray:
    """c M(c), c = f(-delta): for delta > 0 the forward shift of the basis
    stack (its transpose is exp(delta a_hippo / tau); row 0 gives
    hold_vectors), for delta < 0 the exact backward shift, which
    backward_shift(build_a_delta(...)) meets to build_a_delta's accuracy."""
    c = step_factor(warp, -check_finite("delta", delta))  # checked before it is negated
    return c * lag_matrix(basis, c)


def hold_vectors(
    forward: np.ndarray,
    basis: BasisSpec,
    warp: WarpSpec,
    delta: float,
    model: str,
    quad: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray | FohVectors:
    """ZOH vector or FOH pair from the forward shift exact_shift(basis, warp,
    delta) = c M(c), c = f(-delta), a finite square matrix of the basis's size.

    Row 0 of c M(c) integrates phi_n over [0, c], so the ZOH vector, the
    integral of phi_n over [c, 1], is its negative plus 1 - c in entry 0
    (taken as -expm1(-delta / tau)).  FOH adds Ig, the integral of
    phi_n * g, which is not polynomial and stays on the composite rule.
    """
    check_hold(model, delta)
    (forward,) = system(forward, names=("forward",))
    if len(forward) != basis.n_basis:
        raise ArgumentError(
            f"forward must have n_basis={basis.n_basis} rows, got shape {forward.shape}")
    i1 = -forward[0]
    i1[0] = -np.expm1(-delta / warp.rate)
    if model == ZOH:
        return i1
    z, w = panel_nodes(step_factor(warp, -delta), 1.0, quad)
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
    A non-square or non-finite a_delta, a max_condition not None or finite,
    or a rate or delta that WarpSpec or step_factor refuses is an ArgumentError.
    """
    (a_delta,) = system(a_delta, names=("a_delta",))
    factor = step_factor(WarpSpec(rate=rate), -check_finite("delta", delta))
    if max_condition is not None:
        check_finite("max_condition", max_condition)
        cond = float(np.linalg.cond(a_delta))
        if not np.isfinite(cond) or cond > max_condition:
            raise NumericError(
                f"a_delta condition estimate {cond:.3e} exceeds {max_condition:.3e}"
            )
    try:
        inv = np.linalg.solve(a_delta, np.eye(a_delta.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"a_delta is singular: {exc}") from exc
    return inv * factor


def backward_shift(a_delta: np.ndarray, delta: float, *, rate: float = 1.0) -> np.ndarray:
    """Backward shift operator a_delta * exp(delta / rate) acting on the basis
    stack; its transpose is exp(-delta a_hippo / rate).  a_delta, delta and
    rate are checked as in correct_a_delta."""
    (a_delta,) = system(a_delta, names=("a_delta",))
    return a_delta * step_factor(WarpSpec(rate=rate), delta)


def build_b_delta(
    basis: BasisSpec,
    warp: WarpSpec,
    delta: float,
    model: str = ZOH,
    quad: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray | FohVectors:
    """Discrete input vector(s) for one hold model of INPUT_MODELS.

    zoh:   integral of phi_n over [f(-delta), 1].
    foh:   FohVectors(v_next, v_prev) with v_next = I1 + Ig/delta and
           v_prev = -Ig/delta, where I1 integrates phi_n and Ig integrates
           phi_n * g over [f(-delta), 1].

    I1 (the zoh vector) is read exactly off exact_shift(basis, warp, delta)
    (see hold_vectors); Ig is on the composite rule.  The input vector of an
    unsampled input, independent of delta, is build_b_gen.

    For the exponential warp with rate tau, b_gen = phi_n(1) / tau and
    c_n = (phi_n(1) + phi_n'(1)) / tau^2 = sqrt(2n+1) (1 + n(n+1)) / tau^2,
    the hold vectors have the first-order expansions

        zoh / delta    = b_gen   - (delta/2) c + O(delta^2)
        v_prev / delta = b_gen/2 - (delta/3) c + O(delta^2)
        v_next / delta = b_gen/2 - (delta/6) c + O(delta^2)

    and v_next + v_prev is the zoh vector.
    """
    check_hold(model, delta)
    return hold_vectors(exact_shift(basis, warp, delta), basis, warp, delta, model, quad)


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
    """Matrix exponential of one square matrix by scaling-and-squaring with a
    degree-13 diagonal Pade approximant (Higham, SIAM J. Matrix Anal. Appl.
    26(4), 2005).  A result that overflows is a NumericError naming m's
    1-norm.
    """
    (m,) = system(m, names=("m",))
    norm = np.linalg.norm(m, 1)
    squarings = 0
    if norm > _EXPM_SCALE_TARGET:
        squarings = int(np.ceil(np.log2(norm / _EXPM_SCALE_TARGET)))
    a = m / 2.0**squarings

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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for _ in range(squarings):
            r = r @ r
    if not np.isfinite(r).all():
        raise NumericError(f"matrix exponential overflows: the input's 1-norm is {norm:.3e}")
    return r


def bilinear_discretize(
    a: np.ndarray, b: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Tustin transform: ((I - d/2 a)^-1 (I + d/2 a), (I - d/2 a)^-1 d b)
    for one finite step d = delta; a must be a finite square matrix and b a
    finite vector of a's size."""
    d = float(check_finite("delta", delta))
    a, b = system(a, b)
    n = a.shape[0]
    ident = np.eye(n)
    lhs = ident - 0.5 * d * a
    rhs = np.concatenate([ident + 0.5 * d * a, d * b[:, None]], axis=-1)
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"bilinear resolvent is singular: {exc}") from exc
    return sol[:, :n], sol[:, n]


def frobenius_rel_diff(m1: np.ndarray, m2: np.ndarray) -> float:
    """||m1 - m2||_F / ||m1||_F of two finite real arrays.

    Both operands are first scaled by the power of two that brings max|m1|
    into [1/2, 1), so the squared entries cannot overflow (M(e) at N=256
    has entries near 1.7e238).  The scaling is exact for normal floats,
    so a ratio that was finite without it is unchanged.
    """
    m1, m2 = finite_array("m1", m1), finite_array("m2", m2)
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
    """Named arrays (str keys) under a schema-versioned header, in write_json's layout."""
    matrices = {name: np.asarray(value) for name, value in arrays.items()}
    write_json(path, {"schema_version": MATRIX_SCHEMA_VERSION, "meta": meta, "matrices": matrices})


def load_matrices_json(path) -> tuple[dict, dict]:
    """Inverse of save_matrices_json: (arrays, meta).  An unreadable file or
    one not of that layout is an ArgumentError naming the path; NaN and
    Infinity entries, which the writer emits, are read back."""
    payload, where = read_json(path), f"matrices file {str(path)!r}"
    if not isinstance(payload, dict) or not all(
        isinstance(payload.get(key), dict) for key in ("meta", "matrices")
    ):
        raise ArgumentError(f"{where} must be an object holding the objects meta and matrices")
    if (version := payload.get("schema_version")) != MATRIX_SCHEMA_VERSION:
        raise ArgumentError(f"{where}: unsupported schema version {version!r}")
    arrays = {k: finite_array(f"{where}: {k}", v, finite=False)
              for k, v in payload["matrices"].items()}
    return arrays, payload["meta"]
