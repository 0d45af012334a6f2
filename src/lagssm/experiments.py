"""Validation-experiment drivers behind the CLI.

Each command builds every figure and every Check, then writes its
plot-ready CSV/JSON through _write_outputs, the one place a command writes,
and returns the Checks; the CLI exits nonzero if any check fails.  So a
command refused on its input, or by an error raised while it runs, writes
nothing, not even its directory.

Orientation note, load-bearing for the comparisons below: a_delta and its
correction shift the *basis* stack, while coefficient vectors transform
with the transposes of those matrices (reconstruction sum_n c_n psi_n is
invariant exactly when c picks up the inverse-transpose of what the basis
picks up).  The closed-form reference a_hippo is already the coefficient-
side generator, so the corrected transition is transposed before being
compared with, or run against, anything built from a_hippo.

Every polynomial matrix here is built without quadrature: the generator
a_gen as dM/dc at c = 1 of matrices.lag_matrix's M(c), a_delta
as M(exp(delta / tau)), and the corrected transition as the forward shift
matrices.exact_shift, c M(c) with c = exp(-delta / tau).  The backward
lagshift takes matrices.build_a_delta, which keeps the fixed 64x8
QuadratureConfig() rule where its growth bound shows it accurate (the
defaults among them) and is M(exp(delta / tau)) elsewhere; its row is
checked against the matrix exponential of the reference.  FOH's
log-weighted integral is the one other figure on that rule, which no
command setting changes.  Every comparison is at rate tau: the reference
pair is a_hippo / tau, b_hippo / tau.

tables builds one step at a time: one a_gen, at the larger of N and the
largest table2 size, serves all three tables through its leading blocks,
and one lag_matrix call gives the eight M(exp(+-delta / tau)); each step
then pairs M(c) with its inverse M(1/c) in per-matrix matrix_exp, Tustin
and norm calls.  Every figure equals the one from separate per-step
builds, bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from ._schema import FilePath, build, check_fields, read_json, write_json, write_table
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
from .signals import LorenzParams, LorenzSystem, lorenz63, normalize_trace, sine_mixture
from .warp import WarpSpec

TABLE_DELTAS = (1e-4, 1e-3, 1e-2, 1e-1)  # table1 and table3
TABLE2_SIZES = (10, 30, 50)

# Tolerance bands the commands assert on their own output.
TABLE1_TOL = 1e-7           # every delta
TABLE2_TOL = 1e-10
RECONSTRUCT_MSE_TOL = 1e-5
LAGSHIFT_GRID_POINTS = 500
RECON_GRID_POINTS = 1000
_DEFAULT_TOTAL_TIME = 10.0  # what an unset total_time reads as


@dataclass(frozen=True)
class Check:
    """One asserted property of a command's output."""

    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _within(name: str, label: str, value: float, tol: float) -> Check:
    """The check value <= tol, shown as label=value (tol tol)."""
    return Check(name, value <= tol, f"{label}={value:.3e} (tol {tol:g})")


@dataclass(frozen=True)
class LorenzSignal(LorenzSystem):
    """The Lorenz63 x-trace from x0, the default signal, transient kept and
    affinely normalized: the exact-vs-Tustin gap that reconstruct checks
    scales with amplitude squared, so it is checked on unit-scale signals."""

    kind: ClassVar[str] = "lorenz"
    burn_in: int = 0
    normalize: bool = True


@dataclass(frozen=True)
class SineSignal:
    """sum_i amps[i] sin(2 pi freqs[i] t + phases[i]), by signals.sine_mixture."""

    kind: ClassVar[str] = "sine"
    freqs: tuple[float, ...] = (0.5,)
    amps: tuple[float, ...] = (1.0,)
    phases: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        check_fields(self, "signal")
        lengths = [len(self.freqs), len(self.amps), len(self.phases)]
        if len(set(lengths)) > 1:
            raise ArgumentError(f"signal freqs, amps and phases differ in length: {lengths}")


@dataclass(frozen=True)
class CsvSignal:
    """The t,u samples of a file, by SignalTrace.from_csv; they set the span."""

    kind: ClassVar[str] = "csv"
    csv_path: FilePath = ""

    def __post_init__(self):
        check_fields(self, "signal")


# reconstruct's input signal: one section per kind; signal.kind picks it.
SignalConfig = LorenzSignal | SineSignal | CsvSignal


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment setup; defaults give N=64, delta=0.01, T=10.

    total_time is None when unset: T = 10 for a generated signal and the
    lagshift grid.  A csv signal's samples set its span, so a total_time
    beside it is an ArgumentError."""

    n_basis: int = 64
    delta: float = 0.01
    total_time: float | None = None
    warp: WarpSpec = field(default_factory=WarpSpec)
    input_model: str = ZOH
    signal: SignalConfig = field(default_factory=LorenzSignal)
    output_dir: FilePath = "out"

    def __post_init__(self):
        check_fields(self, "config")
        check_hold(self.input_model)
        # delta == 0 is allowed so the shift commands can show the identity
        # operator; signal-driven commands reject it when they divide by it.
        if self.delta < 0.0 or (self.total_time is not None and self.total_time <= 0.0):
            raise ArgumentError("delta must be nonnegative and total_time positive")
        if isinstance(self.signal, CsvSignal) and self.total_time is not None:
            raise ArgumentError(
                "total_time cannot be set with signal kind 'csv': "
                "the file's samples set the span"
            )
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


def _write_outputs(out_dir: str, files: dict) -> None:
    """Make out_dir, and its parents, if missing, then write each file in
    order: name -> (writer, *content) calls writer(out_dir/name, *content).
    An OSError is an ArgumentError naming the directory (a file already at
    out_dir, say) or the file that failed; files written before it stay."""
    what = f"make output directory {out_dir!r}"
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, (writer, *content) in files.items():
            path = os.path.join(out_dir, name)
            what = f"write {path!r}"
            writer(path, *content)
    except OSError as exc:
        raise ArgumentError(f"cannot {what}: [Errno {exc.errno}] {exc.strerror}") from exc


def make_signal(cfg: ExperimentConfig) -> SignalTrace:
    """Materialize the configured input trace with spacing cfg.delta."""
    if cfg.delta == 0.0:
        raise ArgumentError("signal generation needs a positive delta")
    sig = cfg.signal
    if isinstance(sig, CsvSignal):
        trace = SignalTrace.from_csv(sig.csv_path)
        span = trace.values.size - 1  # the two grids part most at the last sample
        if abs(trace.delta - cfg.delta) * span > _grid_slack(trace.t0, trace.t0 + span * cfg.delta):
            raise ArgumentError(
                f"trace spacing {trace.delta} does not match configured delta {cfg.delta}"
            )
        return trace
    total_time = _DEFAULT_TOTAL_TIME if cfg.total_time is None else cfg.total_time
    count, limit = total_time / cfg.delta, np.iinfo(np.intp).max // 8
    if not count <= limit:  # an inf count too
        raise ArgumentError(
            f"total_time={total_time} / delta={cfg.delta} is {count:g} samples, "
            f"more than the {limit} a float64 array can hold"
        )
    steps = int(round(count))
    if steps < 1:
        raise ArgumentError(
            f"total_time={total_time} is under half of delta={cfg.delta}, "
            "so the signal has no samples"
        )
    if isinstance(sig, SineSignal):
        return sine_mixture(sig.freqs, sig.amps, sig.phases, cfg.delta, steps)
    system = {f.name: getattr(sig, f.name) for f in fields(LorenzSystem)}
    trace = lorenz63(LorenzParams(**system, dt=cfg.delta, steps=steps))
    return normalize_trace(trace) if sig.normalize else trace


def cmd_tables(cfg: ExperimentConfig) -> list[Check]:
    """Three matrix-equivalence sweeps written to table1/2/3.csv.

    table1: lag matrix M(exp(delta / tau)) vs matrix exponential of the
            generator.
    table2: closed-form reference a_hippo / tau vs -(a_gen + I / tau)^T
            across basis sizes.
    table3: forward shift c M(c), c = exp(-delta / tau), vs Tustin
            discretization of the rate-tau reference (a_hippo / tau,
            b_hippo / tau), with an exact-exponential column and
            cond_2(M(c)) = ||M(c)||_2 ||M(1/c)||_2, c = exp(delta / tau),
            the conditioning of the backward transition (large-step rows
            are conditioning-limited).  Each row is checked on its
            exact-exponential column; the Tustin gap grows with N, so only
            its rise with delta is checked.
    """
    n, tau = cfg.n_basis, cfg.warp.rate
    # Column m of a_gen's recurrence reads only earlier columns, so each
    # leading block is bit-equal to a build at that size.
    a_gen = build_a_gen(BasisSpec(n_basis=max(n, *TABLE2_SIZES)), cfg.warp)
    k = len(TABLE_DELTAS)
    lags = lag_matrix(
        cfg.basis, [step_factor(cfg.warp, s * d) for s in (1.0, -1.0) for d in TABLE_DELTAS]
    )
    ref = hippo_legs_reference(n)
    a_ref, b_ref = ref.a_hippo / tau, ref.b_hippo / tau
    rows1, rows3 = [], []
    for d, a_delta, inverse in zip(TABLE_DELTAS, lags[:k], lags[k:]):
        rows1.append([d, frobenius_rel_diff(a_delta, matrix_exp(d * a_gen[:n, :n]))])
        corrected_t = (step_factor(cfg.warp, -d) * inverse).T
        a_bar, _ = bilinear_discretize(a_ref, b_ref, d)
        diff_exact = frobenius_rel_diff(corrected_t, matrix_exp(d * a_ref))
        # M(c)^-1 = M(1/c), so cond_2 needs only the two largest singular
        # values; the SVD's smallest one is lost past about 1/eps.
        cond = np.linalg.norm(a_delta, 2) * np.linalg.norm(inverse, 2)
        rows3.append([d, frobenius_rel_diff(corrected_t, a_bar), diff_exact, float(cond)])
    rows2 = []
    for m in TABLE2_SIZES:
        a_m = hippo_legs_reference(m).a_hippo / tau
        rows2.append([m, frobenius_rel_diff(a_m, -(a_gen[:m, :m] + np.eye(m) / tau).T)])

    checks = [_within(f"table1 delta={d:g}", "diff", diff, TABLE1_TOL) for d, diff in rows1]
    checks += [_within(f"table2 n={m}", "diff", diff, TABLE2_TOL) for m, diff in rows2]
    checks += [
        _within(f"table3 delta={row[0]:g}", "diff_exact_exp", row[2], TABLE1_TOL) for row in rows3
    ]
    diffs3 = [row[1] for row in rows3]
    increasing = all(a < b for a, b in zip(diffs3, diffs3[1:]))
    checks.append(
        Check(
            name="table3 monotone trend",
            ok=increasing,
            detail="diffs " + ("strictly increase" if increasing else "do not increase"),
        )
    )
    _write_outputs(cfg.output_dir, {
        "table1.csv": (write_table, ["delta", "diff"], rows1),
        "table2.csv": (write_table, ["n", "diff"], rows2),
        "table3.csv": (write_table, ["delta", "diff", "diff_exact_exp", "cond_a_delta"], rows3),
    })
    return checks


def cmd_reconstruct(cfg: ExperimentConfig) -> list[Check]:
    """Run the exact lag-operator recurrence, with cfg.input_model's input
    vector(s), and the Tustin-discretized reference, both in coefficient
    orientation, on one signal and compare their final-state
    reconstructions (recon.csv, summary.json)."""
    trace = make_signal(cfg)
    forward = exact_shift(cfg.basis, cfg.warp, cfg.delta)
    b_model = hold_vectors(forward, cfg.basis, cfg.warp, cfg.delta, cfg.input_model)
    ref = hippo_legs_reference(cfg.n_basis)
    tau = cfg.warp.rate
    a_base, b_base = bilinear_discretize(ref.a_hippo / tau, ref.b_hippo / tau, cfg.delta)
    final_model = run(trace, forward.T, b_model)[-1]
    final_base = run(trace, a_base, b_base)[-1]

    # The history at s = t0 + x, seen x - L delta back: the figures do not depend on t0.
    span = trace.values.size * trace.delta
    x = np.linspace(0.0, span, RECON_GRID_POINTS)
    phi = phi_matrix(cfg.basis, cfg.warp.f(x - span))
    rec_model = final_model.coeffs @ phi
    rec_base = final_base.coeffs @ phi
    omega = cfg.warp.f_prime(x - span)
    mse = float(np.mean((rec_model - rec_base) ** 2))
    if not np.any(trace.values):
        checks = [Check("reconstruction equivalence", mse == 0.0, f"zero signal, mse={mse!r}")]
    else:
        checks = [_within("reconstruction equivalence", "mse", mse, RECONSTRUCT_MSE_TOL)]
    summary = {
        "mse": mse,
        "n_basis": cfg.n_basis,
        "delta": cfg.delta,
        "total_time": span,
        "signal": cfg.signal.kind,
        "normalized": isinstance(cfg.signal, LorenzSignal) and cfg.signal.normalize,
        "samples": int(trace.values.size),
    }
    table = np.column_stack([trace.t0 + x, rec_model, rec_base, omega])
    _write_outputs(cfg.output_dir, {
        "recon.csv": (write_table, ["s", "u_model", "u_baseline", "omega"], table),
        "summary.json": (write_json, summary),
    })
    return checks


def cmd_lagshift(
    cfg: ExperimentConfig, n_show: int | None = None, direction: str = "backward"
) -> list[Check]:
    """Emit one basis function next to its shifted image (lagshift.csv).

    The backward shift comes from build_a_delta, so its row is also
    checked against the same row of exp(-delta a_hippo / tau)^T, which
    shares no code with it.
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

    t_end = _DEFAULT_TOTAL_TIME if cfg.total_time is None else cfg.total_time
    s_grid = np.linspace(0.0, t_end, LAGSHIFT_GRID_POINTS)
    phi = phi_matrix(cfg.basis, cfg.warp.f(s_grid - t_end))
    original = phi[n_show]
    shifted = op[n_show] @ phi
    ok = bool(np.all(np.isfinite(shifted)))
    checks = [
        Check(
            name=f"lagshift n={n_show} {direction}",
            ok=ok,
            detail=f"max|shifted|={np.abs(shifted).max():.3e}",
        )
    ]
    if direction == "backward":
        a_ref = hippo_legs_reference(cfg.n_basis).a_hippo / cfg.warp.rate
        exact = matrix_exp(-cfg.delta * a_ref)[:, n_show]
        err = float(np.abs(op[n_show] - exact).max() / np.abs(exact).max())
        checks.append(_within(
            f"lagshift n={n_show} backward vs matrix exponential", "row err", err, TABLE1_TOL
        ))
    table = np.column_stack([s_grid, original, shifted])
    _write_outputs(cfg.output_dir, {
        "lagshift.csv": (write_table, ["s", "original", "shifted"], table),
    })
    return checks


def cmd_matrices(cfg: ExperimentConfig) -> list[Check]:
    """Dump every matrix at rate tau, a_hippo / tau too, with metadata to matrices.json."""
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
        "a_hippo": ref.a_hippo / warp.rate,
        "b_hippo": ref.b_hippo / warp.rate,
    }
    meta = {
        "n_basis": cfg.n_basis,
        "delta": cfg.delta,
        "tau": warp.rate,
        "input_model": cfg.input_model,
        "quad_points": rule.points_per_panel,  # the fixed rule of the FOH term
        "quad_panels": rule.panels,
    }
    path = os.path.join(cfg.output_dir, "matrices.json")
    checks = [Check(name="matrices dump", ok=True, detail=path)]
    _write_outputs(cfg.output_dir, {"matrices.json": (save_matrices_json, arrays, meta)})
    return checks
