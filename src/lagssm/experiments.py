"""Validation-experiment drivers behind the CLI.

Each command builds its matrices, writes plot-ready CSV/JSON, and returns a
list of Check results; the CLI exits nonzero if any check fails.

Orientation note, load-bearing for the comparisons below: a_delta and its
correction shift the *basis* stack, while coefficient vectors transform
with the transposes of those matrices (reconstruction sum_n c_n psi_n is
invariant exactly when c picks up the inverse-transpose of what the basis
picks up).  The closed-form reference a_hippo is already the coefficient-
side generator, so the corrected transition is transposed before being
compared with, or run against, anything built from a_hippo.

Every polynomial matrix here is built without quadrature: the generator
a_gen from the derivative of matrices.lag_matrix's M(c) at c = 1, a_delta
as M(exp(delta / tau)), and the corrected transition as the forward shift
matrices.exact_shift, c M(c) with c = exp(-delta / tau).  Only the default
backward lagshift stays on the quadrature-built a_delta, checked against
exact_shift at -delta, and FOH's log-weighted integral on the fixed 64x8
QuadratureConfig() rule; no command setting changes it.  Every comparison
is at rate tau: the reference pair is a_hippo / tau, b_hippo / tau.

tables builds in one stacked pass: one a_gen, at the larger of N and the
largest table2 size, serves all three tables through its leading blocks;
one lag_matrix call gives the eight M(exp(+-delta / tau)), and the
exponentials, condition numbers and Tustin solves are one stacked call
each.  Every figure equals the one from separate scalar builds, bit for
bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ._schema import build, check_fields, read_json
from .basis import BasisSpec, phi_matrix
from .errors import ArgumentError
from .matrices import (
    FOH,
    ZOH,
    backward_shift,
    bilinear_discretize,
    build_a_delta,
    build_a_gen,
    build_b_gen,
    check_hold,
    exact_shift,
    frobenius_rel_diff,
    hippo_legs_reference,
    hold_vectors,
    lag_matrix,
    matrix_exp,
    save_matrices_json,
    step_factor,
)
from .quadrature import QuadratureConfig
from .recurrence import SignalTrace, _grid_slack, run
from .signals import LorenzParams, lorenz63, normalize_trace, sine_mixture
from .warp import WarpSpec

TABLE_DELTAS = (1e-4, 1e-3, 1e-2, 1e-1)  # table1 and table3
TABLE2_SIZES = (10, 30, 50)

# Tolerance bands the commands assert on their own output.
TABLE1_TOL_SMALL = 1e-7     # deltas up to 1e-2
TABLE1_TOL_LARGE = 1e-3     # delta = 1e-1
TABLE2_TOL = 1e-10
RECONSTRUCT_MSE_TOL = 1e-5
LAGSHIFT_GRID_POINTS = 500
RECON_GRID_POINTS = 1000
SIGNAL_KINDS = ("lorenz", "sine", "csv")


@dataclass(frozen=True)
class Check:
    """One asserted property of a command's output."""

    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


@dataclass(frozen=True)
class SignalConfig:
    """Input-signal descriptor for the reconstruction command.

    The default Lorenz trace keeps the transient from x0 (burn_in=0) and is
    affinely normalized: the comparison below measures the gap between an
    exact and a Tustin-discretized recurrence, which scales with signal
    amplitude squared, so the equivalence check is defined on unit-scale
    signals.  Raw attractor traces are available via burn_in/normalize.
    """

    kind: str = "lorenz"
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    x0: tuple[float, float, float] = (1.0, 1.0, 1.0)
    burn_in: int = 0
    normalize: bool = True
    freqs: tuple[float, ...] = (0.5,)
    amps: tuple[float, ...] = (1.0,)
    phases: tuple[float, ...] = (0.0,)
    csv_path: str | None = None

    def __post_init__(self):
        check_fields(self, "signal")
        if self.kind not in SIGNAL_KINDS:
            raise ArgumentError(
                f"unknown signal kind {self.kind!r}; expected one of {list(SIGNAL_KINDS)}"
            )
        if self.kind == "csv" and not self.csv_path:
            raise ArgumentError("signal kind 'csv' needs a csv_path")
        if self.burn_in < 0:
            raise ArgumentError(
                f"signal burn_in must be a nonnegative integer, got {self.burn_in!r}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment setup; defaults give N=64, delta=0.01, T=10."""

    n_basis: int = 64
    delta: float = 0.01
    total_time: float = 10.0
    warp: WarpSpec = field(default_factory=WarpSpec)
    input_model: str = ZOH
    signal: SignalConfig = field(default_factory=SignalConfig)
    output_dir: str = "out"

    def __post_init__(self):
        check_fields(self, "config")
        check_hold(self.input_model)
        # delta == 0 is allowed so the shift commands can show the identity
        # operator; signal-driven commands reject it when they divide by it.
        if self.delta < 0.0 or self.total_time <= 0.0:
            raise ArgumentError("delta must be nonnegative and total_time positive")
        if not self.output_dir:
            raise ArgumentError("output_dir must be a nonempty path")
        BasisSpec(n_basis=self.n_basis)  # checks n_basis now, not at first use

    @property
    def basis(self) -> BasisSpec:
        return BasisSpec(n_basis=self.n_basis)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Config from parsed JSON.  An unknown key at any level, a section
        that is not an object, or a value not of its field's kind is an
        ArgumentError naming the section and field."""
        return build(cls, raw, "config")


def make_signal(cfg: ExperimentConfig) -> SignalTrace:
    """Materialize the configured input trace with spacing cfg.delta."""
    if cfg.delta == 0.0:
        raise ArgumentError("signal generation needs a positive delta")
    sig = cfg.signal
    if sig.kind == "csv":
        trace = SignalTrace.from_csv(sig.csv_path)
        span = trace.values.size - 1  # the two grids part most at the last sample
        if abs(trace.delta - cfg.delta) * span > _grid_slack(trace.t0, trace.t0 + span * cfg.delta):
            raise ArgumentError(
                f"trace spacing {trace.delta} does not match configured delta {cfg.delta}"
            )
        return trace
    steps = int(round(cfg.total_time / cfg.delta))
    if steps < 1:
        raise ArgumentError(
            f"total_time={cfg.total_time} is under half of delta={cfg.delta}, "
            "so the signal has no samples"
        )
    if sig.kind == "lorenz":
        params = LorenzParams(
            sigma=sig.sigma,
            rho=sig.rho,
            beta=sig.beta,
            x0=sig.x0,
            dt=cfg.delta,
            steps=steps,
            burn_in=sig.burn_in,
        )
        trace = lorenz63(params)
        return normalize_trace(trace) if sig.normalize else trace
    return sine_mixture(sig.freqs, sig.amps, sig.phases, cfg.delta, steps)


def _write_table(path, header: list[str], table) -> None:
    """CSV in csv.writer's excel layout; floats in shortest-round-trip repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in np.asarray(table, dtype=float).tolist():
            fh.write(",".join(map(repr, row)) + "\r\n")


def cmd_tables(cfg: ExperimentConfig) -> list[Check]:
    """Three matrix-equivalence sweeps written to table1/2/3.csv.

    table1: lag matrix M(exp(delta / tau)) vs matrix exponential of the
            generator.
    table2: closed-form reference a_hippo / tau vs -(a_gen + I / tau)^T
            across basis sizes.
    table3: forward shift c M(c), c = exp(-delta / tau), vs Tustin
            discretization of the rate-tau reference (a_hippo / tau,
            b_hippo / tau), with an exact-exponential column and
            cond(M(exp(delta / tau))), the conditioning of the backward
            transition (large-step rows are conditioning-limited).  Each
            row is checked on its exact-exponential column; the Tustin gap
            grows with N, so only its rise with delta is checked.
    """
    checks = []
    n, tau = cfg.n_basis, cfg.warp.rate
    steps = np.array(TABLE_DELTAS)

    # Column m of a_gen's recurrence reads only earlier columns, so each
    # leading block is bit-equal to a build at that size.
    a_gen = build_a_gen(BasisSpec(n_basis=max(n, *TABLE2_SIZES)), cfg.warp)
    lags = lag_matrix(
        cfg.basis, [step_factor(cfg.warp, s * d) for s in (1.0, -1.0) for d in TABLE_DELTAS]
    )
    a_deltas, shifts = lags[: len(TABLE_DELTAS)], lags[len(TABLE_DELTAS) :]
    os.makedirs(cfg.output_dir, exist_ok=True)
    exps = matrix_exp(steps[:, None, None] * a_gen[:n, :n])
    rows1 = []
    for d, a_d, exp_d in zip(TABLE_DELTAS, a_deltas, exps):
        diff = frobenius_rel_diff(a_d, exp_d)
        rows1.append([d, diff])
        tol = TABLE1_TOL_SMALL if d <= 1e-2 else TABLE1_TOL_LARGE
        checks.append(
            Check(
                name=f"table1 delta={d:g}",
                ok=diff <= tol,
                detail=f"diff={diff:.3e} (tol {tol:g})",
            )
        )
    _write_table(os.path.join(cfg.output_dir, "table1.csv"), ["delta", "diff"], rows1)

    rows2 = []
    for m in TABLE2_SIZES:
        ref = hippo_legs_reference(m)
        diff = frobenius_rel_diff(ref.a_hippo / tau, -(a_gen[:m, :m] + np.eye(m) / tau).T)
        rows2.append([m, diff])
        checks.append(
            Check(
                name=f"table2 n={m}",
                ok=diff <= TABLE2_TOL,
                detail=f"diff={diff:.3e} (tol {TABLE2_TOL:g})",
            )
        )
    _write_table(os.path.join(cfg.output_dir, "table2.csv"), ["n", "diff"], rows2)

    ref = hippo_legs_reference(n)
    a_ref = ref.a_hippo / tau
    a_bars, _ = bilinear_discretize(a_ref, ref.b_hippo / tau, steps)
    exacts = matrix_exp(steps[:, None, None] * a_ref)
    conds = np.linalg.cond(a_deltas)
    rows3 = []
    for d, shift, a_bar, exact, cond in zip(TABLE_DELTAS, shifts, a_bars, exacts, conds):
        corrected_t = (cfg.warp.f(-d) * shift).T
        diff_exact = frobenius_rel_diff(corrected_t, exact)
        rows3.append([d, frobenius_rel_diff(corrected_t, a_bar), diff_exact, float(cond)])
        checks.append(
            Check(
                name=f"table3 delta={d:g}",
                ok=diff_exact <= TABLE1_TOL_SMALL,
                detail=f"diff_exact_exp={diff_exact:.3e} (tol {TABLE1_TOL_SMALL:g})",
            )
        )
    diffs3 = [row[1] for row in rows3]
    _write_table(
        os.path.join(cfg.output_dir, "table3.csv"),
        ["delta", "diff", "diff_exact_exp", "cond_a_delta"],
        rows3,
    )
    increasing = all(a < b for a, b in zip(diffs3, diffs3[1:]))
    checks.append(
        Check(
            name="table3 monotone trend",
            ok=increasing,
            detail="diffs " + ("strictly increase" if increasing else "do not increase"),
        )
    )
    return checks


def _model_and_baseline(cfg: ExperimentConfig):
    """The exact lag-operator recurrence with cfg.input_model's input vector(s)
    and the Tustin-discretized reference, both in coefficient orientation."""
    forward = exact_shift(cfg.basis, cfg.warp, cfg.delta)
    b_model = hold_vectors(forward, cfg.basis, cfg.warp, cfg.delta, cfg.input_model)
    a_model = forward.T
    ref = hippo_legs_reference(cfg.n_basis)
    tau = cfg.warp.rate
    a_base, b_base = bilinear_discretize(ref.a_hippo / tau, ref.b_hippo / tau, cfg.delta)
    return (a_model, b_model), (a_base, b_base)


def cmd_reconstruct(cfg: ExperimentConfig) -> list[Check]:
    """Run the exact and reference recurrences on one signal and compare
    their final-state reconstructions (recon.csv, summary.json)."""
    trace = make_signal(cfg)
    (a_model, b_model), (a_base, b_base) = _model_and_baseline(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)

    final_model = run(trace, a_model, b_model)[-1]
    final_base = run(trace, a_base, b_base)[-1]

    # The history at s = t0 + x, seen x - L delta back: the figures do not depend on t0.
    span = trace.values.size * trace.delta
    x = np.linspace(0.0, span, RECON_GRID_POINTS)
    phi = phi_matrix(cfg.basis, cfg.warp.f(x - span))
    rec_model = final_model.coeffs @ phi
    rec_base = final_base.coeffs @ phi
    omega = cfg.warp.f_prime(x - span)
    mse = float(np.mean((rec_model - rec_base) ** 2))

    _write_table(
        os.path.join(cfg.output_dir, "recon.csv"),
        ["s", "u_model", "u_baseline", "omega"],
        np.column_stack([trace.t0 + x, rec_model, rec_base, omega]),
    )
    summary = {
        "mse": mse,
        "n_basis": cfg.n_basis,
        "delta": cfg.delta,
        "total_time": span,
        "signal": cfg.signal.kind,
        "normalized": cfg.signal.kind == "lorenz" and cfg.signal.normalize,
        "samples": int(trace.values.size),
    }
    with open(os.path.join(cfg.output_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")

    zero_signal = not np.any(trace.values)
    if zero_signal:
        ok = mse == 0.0
        detail = f"zero signal, mse={mse!r}"
    else:
        ok = mse <= RECONSTRUCT_MSE_TOL
        detail = f"mse={mse:.3e} (tol {RECONSTRUCT_MSE_TOL:g})"
    return [Check(name="reconstruction equivalence", ok=ok, detail=detail)]


def cmd_lagshift(
    cfg: ExperimentConfig, n_show: int | None = None, direction: str = "backward"
) -> list[Check]:
    """Emit one basis function next to its shifted image (lagshift.csv).

    The backward shift is built on the composite rule, so its row is also
    checked against the same row of the exact shift at -delta.
    """
    if direction not in ("forward", "backward"):
        raise ArgumentError(f"direction must be forward or backward, got {direction!r}")
    n_show = cfg.n_basis - 1 if n_show is None else n_show
    if not (0 <= n_show < cfg.n_basis):
        raise ArgumentError(f"n_show={n_show} out of range [0, {cfg.n_basis})")
    if direction == "backward":
        a_d = build_a_delta(cfg.basis, cfg.warp, cfg.delta)
        op = backward_shift(a_d, cfg.delta, rate=cfg.warp.rate)
    else:
        op = exact_shift(cfg.basis, cfg.warp, cfg.delta)
    os.makedirs(cfg.output_dir, exist_ok=True)

    t_end = cfg.total_time
    s_grid = np.linspace(0.0, t_end, LAGSHIFT_GRID_POINTS)
    phi = phi_matrix(cfg.basis, cfg.warp.f(s_grid - t_end))
    original = phi[n_show]
    shifted = op[n_show] @ phi
    _write_table(
        os.path.join(cfg.output_dir, "lagshift.csv"),
        ["s", "original", "shifted"],
        np.column_stack([s_grid, original, shifted]),
    )
    ok = bool(np.all(np.isfinite(shifted)))
    checks = [
        Check(
            name=f"lagshift n={n_show} {direction}",
            ok=ok,
            detail=f"max|shifted|={np.abs(shifted).max():.3e}",
        )
    ]
    if direction == "backward":
        exact = exact_shift(cfg.basis, cfg.warp, -cfg.delta)[n_show]
        err = float(np.abs(op[n_show] - exact).max() / np.abs(exact).max())
        checks.append(
            Check(
                name=f"lagshift n={n_show} backward vs exact shift",
                ok=err <= TABLE1_TOL_SMALL,
                detail=f"row err={err:.3e} (tol {TABLE1_TOL_SMALL:g})",
            )
        )
    return checks


def cmd_matrices(cfg: ExperimentConfig) -> list[Check]:
    """Dump every built matrix with metadata to matrices.json."""
    basis, warp, rule = cfg.basis, cfg.warp, QuadratureConfig()
    forward = exact_shift(basis, warp, cfg.delta)
    ref = hippo_legs_reference(cfg.n_basis)
    foh = hold_vectors(forward, basis, warp, cfg.delta, FOH)
    arrays = {
        "a_gen": build_a_gen(basis, warp),
        "b_gen": build_b_gen(basis, warp),
        "a_delta": lag_matrix(basis, step_factor(warp, cfg.delta)),
        "a_corrected": forward,
        "b_delta_zoh": hold_vectors(forward, basis, warp, cfg.delta, ZOH),
        "b_delta_foh_v_next": foh.v_next,
        "b_delta_foh_v_prev": foh.v_prev,
        "a_hippo": ref.a_hippo,
        "b_hippo": ref.b_hippo,
    }
    meta = {
        "n_basis": cfg.n_basis,
        "delta": cfg.delta,
        "tau": warp.rate,
        "input_model": cfg.input_model,
        "quad_points": rule.points_per_panel,  # the fixed rule of the FOH term
        "quad_panels": rule.panels,
    }
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, "matrices.json")
    save_matrices_json(path, arrays, meta)
    return [Check(name="matrices dump", ok=True, detail=path)]
