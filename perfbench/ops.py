"""Workload inputs, the operations that drive lagssm, and their output checks.

An op drives lagssm only through public entry points: `lagssm.cli.main` for
the four commands, and the README's library path for the long sequence.
Every op's output is checked against `reference`, which shares no code with
lagssm. An op fails if it raises, exits nonzero, or misses a check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

DELTA = 0.01
TOTAL_TIME = 10.0            # CLI default: 1e3 samples
STREAM_SAMPLES = 100_000
RECON_POINTS = 1000          # grid of `reconstruct` (CLI and stream)
LAGSHIFT_POINTS = 500
LORENZ_PREFIX = 1000         # chaos amplifies rounding; only a prefix is comparable
X0 = (1.0, 1.0, 1.0)
X0_JITTER = 0.05

# The five command forms, (command, lagshift direction).
FORMS = (
    ("tables", "backward"),
    ("reconstruct", "backward"),
    ("lagshift", "backward"),
    ("lagshift", "forward"),
    ("matrices", "backward"),
)
# Op kinds of each workload, (command, lagshift direction, N, tau). Every
# op of a workload must succeed, so `sweep` holds only the kinds of the rest
# of the grid N in {64, 128, 256} x tau in {1, 2} that lagssm gets right;
# the others are KNOWN_BAD (NOTES.md gives each one's cause). A kind that
# starts to pass its checks moves from KNOWN_BAD into `sweep`.
SWEEP_GRID = ((128, 1.0), (256, 1.0), (64, 2.0), (128, 2.0), (256, 2.0))
KINDS = {
    "harness": tuple((c, d, 64, 1.0) for c, d in FORMS),
    "sweep": (
        ("reconstruct", "backward", 128, 1.0),
        ("lagshift", "forward", 128, 1.0),
        ("matrices", "backward", 128, 1.0),
    ),
    "stream": (("stream", "backward", 64, 1.0),),
}
KNOWN_BAD = tuple(
    (c, d, n, tau) for n, tau in SWEEP_GRID for c, d in FORMS
    if (c, d, n, tau) not in KINDS["sweep"]
)

# Tolerances, each taken from a bound the repository already states.
TRANSITION_TOL = 1e-7        # table1 tolerance for delta <= 1e-2
RECON_MSE_TOL = 1e-5         # reconstruct's own MSE tolerance
TOLERANCES = {
    "transition_rel_frobenius": TRANSITION_TOL,
    "zoh_vector_rel": TRANSITION_TOL,
    "state_rel": TRANSITION_TOL,
    "lorenz_prefix_rel": TRANSITION_TOL,
    "lagshift_original_rel": TRANSITION_TOL,
    "lagshift_growth_slack": TRANSITION_TOL,
    "lagshift_shifted_rel": TRANSITION_TOL,
    "reconstruct_mse": RECON_MSE_TOL,
}


@dataclass(frozen=True)
class Op:
    command: str                 # tables | reconstruct | lagshift | matrices | stream
    n: int
    tau: float
    x0: tuple[float, float, float]
    direction: str = "backward"  # lagshift only

    @property
    def kind(self) -> str:
        name = f"{self.command}-forward" if self.direction == "forward" else self.command
        return f"{name} n={self.n} tau={self.tau:g}"

    @property
    def samples(self) -> int:
        if self.command == "stream":
            return STREAM_SAMPLES
        return round(TOTAL_TIME / DELTA) if self.command == "reconstruct" else 0


@dataclass
class Outcome:
    """One op's result: wall time, verdict and the accuracy figures checked."""

    seconds: float
    exited_ok: bool              # the program reported success
    ok: bool = False             # ... and the output passed every check
    reason: str = ""
    stats: dict = field(default_factory=dict)


def make_cycle(workload: str, rng: np.random.Generator) -> list[Op]:
    """One pass over every op kind of the workload, in seeded order, with a
    seeded Lorenz starting point."""
    x0 = tuple(float(v) for v in np.asarray(X0) + rng.uniform(-X0_JITTER, X0_JITTER, 3))
    ops = [Op(c, n, tau, x0, d) for c, d, n, tau in KINDS[workload]]
    return [ops[i] for i in rng.permutation(len(ops))]


# --- execution ---------------------------------------------------------------


def cli_argv(op: Op, config_path: str, out_dir: str) -> list[str]:
    argv = [op.command, "--config", config_path, "--n", str(op.n),
            "--tau", repr(op.tau), "--out", out_dir]
    if op.command == "lagshift":
        argv += ["--direction", op.direction]
    return argv


def run_cli(op: Op, lagssm, work_dir: str, perf_counter) -> tuple[Outcome, str, str]:
    """Call lagssm.cli.main in-process into a fresh output directory."""
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"signal": {"x0": list(op.x0)}}, fh)
    out_dir = os.path.join(work_dir, "out")
    argv = cli_argv(op, config_path, out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    t0 = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = lagssm.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    out = Outcome(seconds=seconds, exited_ok=rc == 0)
    if rc != 0:
        first = (stderr.getvalue().strip().splitlines() or [""])[-1]
        fails = [ln for ln in stdout.getvalue().splitlines() if ln.startswith("FAIL")]
        out.reason = error or f"exit {rc}: " + (fails[0] if fails else first)[:160]
    return out, out_dir, stdout.getvalue()


def run_stream(op: Op, lagssm, perf_counter):
    """The README library path on one long Lorenz sequence."""
    t0 = perf_counter()
    raw = lagssm.lorenz63(
        lagssm.LorenzParams(x0=op.x0, dt=DELTA, steps=STREAM_SAMPLES, burn_in=0)
    )
    trace = lagssm.normalize_trace(raw)
    spec, warp, quad = lagssm.BasisSpec(n_basis=op.n), lagssm.WarpSpec(rate=op.tau), lagssm.QuadratureConfig()
    a = lagssm.correct_a_delta(lagssm.build_a_delta(spec, warp, DELTA, quad), DELTA).T
    b = lagssm.build_b_delta(spec, warp, DELTA, "zoh", quad)
    final = lagssm.run(trace, a, b)[-1]
    s_grid = np.linspace(0.0, final.t, RECON_POINTS)
    history = lagssm.reconstruct(final, spec, warp, s_grid)
    seconds = perf_counter() - t0
    return Outcome(seconds=seconds, exited_ok=True), (raw.values, trace.values, a, b, final, s_grid, history)


# --- checks ------------------------------------------------------------------


class References:
    """Reference figures, cached per (n, tau) and per Lorenz start point."""

    def __init__(self):
        self._transitions = {}
        self._signals = {}
        self._shifts = {}

    def transition(self, n, tau):
        key = (n, tau)
        if key not in self._transitions:
            self._transitions[key] = ref.transition(n, tau, DELTA)
        return self._transitions[key]

    def signal(self, x0, steps):
        key = (x0, steps)
        if key not in self._signals:
            self._signals[key] = ref.lorenz_x(x0, DELTA, steps)
        return self._signals[key]

    def shift_row(self, n, tau, direction):
        """Top basis row of the exact shift (lagshift's default n_show)."""
        key = (n, tau, direction)
        if key not in self._shifts:
            self._shifts[key] = ref.shift_row(n, tau, DELTA, n - 1, direction)
        return self._shifts[key]


def _csv(path, columns):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != columns:
        raise ValueError(f"{os.path.basename(path)} has {data.shape[1]} columns")
    return data


def _transition_stats(refs, n, tau, a_coeff, b_zoh):
    """Relative errors of a coefficient transition and ZOH vector, and the
    transition's spectral radius."""
    t_ref, b_ref = refs.transition(n, tau)
    stats = {"transition_rel_err": ref.rel_diff(a_coeff, t_ref),
             "zoh_rel_err": ref.rel_diff(b_zoh, b_ref)}
    finite = np.all(np.isfinite(a_coeff))
    stats["spectral_radius"] = float(np.abs(np.linalg.eigvals(a_coeff)).max()) if finite else math.inf
    return stats


def _state_checks(refs, op, u_model, s_col):
    """Reconstruction of the CLI run against the reference recurrence."""
    steps = round(TOTAL_TIME / DELTA)
    t_ref, b_ref = refs.transition(op.n, op.tau)
    u = ref.normalize(refs.signal(op.x0, steps))
    c = ref.recur(t_ref, b_ref, u)
    t_end = steps * DELTA
    s = np.linspace(0.0, t_end, RECON_POINTS)
    if np.max(np.abs(s_col - s)) > 1e-12 * t_end:
        return False, "recon.csv grid differs from linspace(0, T, 1000)", {}
    want = ref.reconstruct(c, op.tau, t_end, s)
    mse = float(np.mean((u_model - want) ** 2)) if np.all(np.isfinite(u_model)) else math.inf
    stats = {"state_rel_err": ref.rel_diff(u_model, want)}
    ok = mse <= RECON_MSE_TOL
    return ok, "" if ok else f"u_model mse {mse:.3e} > {RECON_MSE_TOL:g}", stats


def check_cli(op: Op, out: Outcome, out_dir: str, refs: References) -> None:
    """Fill out.ok / out.reason / out.stats from the files the command wrote."""
    try:
        if op.command == "tables":
            ok, reason = _check_tables(out_dir)
        elif op.command == "reconstruct":
            data = _csv(os.path.join(out_dir, "recon.csv"), 4)
            ok, reason, out.stats = _state_checks(refs, op, data[:, 1], data[:, 0])
        elif op.command == "lagshift":
            ok, reason = _check_lagshift(op, out_dir, refs)
        else:
            with open(os.path.join(out_dir, "matrices.json"), encoding="utf-8") as fh:
                mats = json.load(fh)["matrices"]
            a_coeff = np.asarray(mats["a_corrected"], dtype=float).T
            out.stats = _transition_stats(refs, op.n, op.tau, a_coeff,
                                          np.asarray(mats["b_delta_zoh"], dtype=float))
            ok, reason = _transition_verdict(out.stats)
    except (OSError, ValueError, KeyError) as exc:
        ok, reason = False, f"unreadable output: {exc}"
    out.ok = out.exited_ok and ok
    if out.exited_ok and not ok:
        out.reason = "exit 0 but " + reason


def _transition_verdict(stats):
    if stats["transition_rel_err"] > TRANSITION_TOL:
        return False, f"transition rel err {stats['transition_rel_err']:.3e} > {TRANSITION_TOL:g}"
    if stats["zoh_rel_err"] > TRANSITION_TOL:
        return False, f"zoh vector rel err {stats['zoh_rel_err']:.3e} > {TRANSITION_TOL:g}"
    return True, ""


def _check_tables(out_dir):
    for name, count, cols in (("table1.csv", 4, 2), ("table2.csv", 3, 2), ("table3.csv", 4, 4)):
        data = _csv(os.path.join(out_dir, name), cols)
        if data.shape[0] != count or not np.all(np.isfinite(data)):
            return False, f"{name}: expected {count} finite rows"
    return True, ""


def _check_lagshift(op, out_dir, refs):
    data = _csv(os.path.join(out_dir, "lagshift.csv"), 3)
    if data.shape[0] != LAGSHIFT_POINTS or not np.all(np.isfinite(data)):
        return False, f"lagshift.csv: expected {LAGSHIFT_POINTS} finite rows"
    s, original, shifted = data.T
    phi = ref.phi(op.n, np.exp((s - TOTAL_TIME) / op.tau))
    err = np.abs(original - phi[-1]).max() / np.abs(phi[-1]).max()
    if err > TRANSITION_TOL:
        return False, f"original curve rel err {err:.3e} > {TRANSITION_TOL:g}"
    row = refs.shift_row(op.n, op.tau, op.direction)
    bound = ref.shift_growth_bound(row) * (1.0 + TRANSITION_TOL)
    peak = np.abs(shifted).max()
    if peak > bound:
        return False, f"max|shifted| {peak:.4g} > growth bound {bound:.4g}"
    want = row @ phi
    err = np.abs(shifted - want).max() / np.abs(want).max()
    if err > TRANSITION_TOL:
        return False, f"shifted curve rel err {err:.3e} > {TRANSITION_TOL:g}"
    return True, ""


def check_stream(op: Op, out: Outcome, result, refs: References) -> None:
    raw, values, a, b, final, s_grid, history = result
    stats = _transition_stats(refs, op.n, op.tau, a, b)
    prefix = refs.signal(op.x0, LORENZ_PREFIX)
    checks = [
        ("lorenz prefix", np.abs(raw[:LORENZ_PREFIX] - prefix).max() / np.abs(prefix).max(), TRANSITION_TOL),
        ("normalized trace", ref.rel_diff(values, ref.normalize(raw)), TRANSITION_TOL),
    ]
    ok, reason = _transition_verdict(stats)
    if ok:
        t_ref, b_ref = refs.transition(op.n, op.tau)
        c = ref.recur(t_ref, b_ref, ref.normalize(raw))
        stats["state_rel_err"] = ref.rel_diff(final.coeffs, c)
        checks.append(("final state", stats["state_rel_err"], TRANSITION_TOL))
        want = ref.reconstruct(c, op.tau, final.t, s_grid)
        checks.append(("reconstruct mse", float(np.mean((history - want) ** 2)), RECON_MSE_TOL))
    out.stats = stats
    for name, value, tol in checks:
        if not value <= tol:
            ok, reason = False, f"{name} {value:.3e} > {tol:g}"
            break
    out.ok, out.reason = ok, reason
