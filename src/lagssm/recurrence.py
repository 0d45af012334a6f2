"""Online memory recurrence, reconstruction, and the direct-projection oracle.

The recurrence advances a coefficient vector c by c' = a c + b u.  Note the
orientation: matrices from lagssm.matrices shift the *basis* stack, and
coefficients transform with their transposes.  In particular the transition
that tracks the measure-weighted projection of the history is the transpose
of the corrected basis transition (equivalently matrix_exp(delta * a_hippo));
project_direct is the offline oracle for exactly that quantity.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._schema import check_finite, finite_array, system
from .basis import BasisSpec, phi_matrix
from .errors import ArgumentError
from .matrices import FOH, ZOH, FohVectors, check_hold
from .quadrature import QuadratureConfig, panel_nodes
from .warp import WarpSpec

_GRID_ULPS = 4
_MAX_CHUNK = 32
_BLOCK_CHUNKS = 16
_SLAB_BLOCKS = 16


@dataclass(frozen=True)
class MemoryState:
    """Coefficient vector plus the finite time it describes."""

    coeffs: np.ndarray
    t: float

    def __post_init__(self):
        check_finite("t", self.t)
        object.__setattr__(self, "coeffs", finite_array("coeffs", self.coeffs, 1))


@dataclass(frozen=True)
class SignalTrace:
    """Samples values[k] taken at t0 + k * delta: the grid is (t0, delta)."""

    values: np.ndarray
    delta: float
    t0: float = 0.0

    def __post_init__(self):
        v = finite_array("values", self.values, 1)
        if v.size == 0:
            raise ArgumentError("values must be nonempty")
        if check_finite("delta", self.delta) <= 0.0:
            raise ArgumentError(f"delta must be positive, got {self.delta}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "t0", float(check_finite("t0", self.t0)))
        # Each time t0 + k delta rounds to within an ulp of the largest |t|.
        # A delta above twice _grid_slack (8 ulps) keeps neighbours distinct
        # and the +-_grid_slack windows that from_csv allows around them
        # apart; the final state sits at t0 + L delta, which must be finite.
        t_end = self.t0 + v.size * self.delta
        if not (math.isfinite(t_end) and self.delta > 2.0 * _grid_slack(self.t0, t_end)):
            raise ArgumentError(
                f"delta={self.delta} at t0={self.t0} gives sample times that are not distinct "
                "and finite: delta must exceed 8 ulps of the largest |time|, and "
                f"t0 + {v.size} * delta must be finite"
            )

    @property
    def times(self) -> np.ndarray:
        """The sample times t0 + k * delta, built on each read."""
        return self.t0 + self.delta * np.arange(self.values.size)

    def to_csv(self, path) -> None:
        _write_table(path, ["t", "u"], np.column_stack([self.times, self.values]))

    @classmethod
    def from_csv(cls, path) -> "SignalTrace":
        """Trace from t,u rows (an optional t,u header; lines starting with
        # are skipped) on the grid t0 = first time, delta = span / (n - 1).
        A file that cannot be read, a row that is not two numbers, or a time
        that is not finite, not increasing or off the grid by more than
        _grid_slack raises ArgumentError naming the path and the row."""
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
        except (OSError, ValueError, csv.Error) as exc:
            raise ArgumentError(f"cannot read signal file {str(path)!r}: {exc}") from exc
        if rows and rows[0][1][:2] == ["t", "u"]:
            rows = rows[1:]
        if not rows:
            raise ArgumentError(f"no samples in {path}")
        samples = []
        for line, r in rows:
            try:
                samples.append((float(r[0]), float(r[1])))
            except (IndexError, ValueError):
                raise ArgumentError(
                    f"signal file {str(path)!r} row {line}: "
                    f"expected two numbers t,u, got {r!r}"
                ) from None
        times, values = np.array(samples).T
        if times.size == 1:
            raise ArgumentError(f"need at least two samples in {path} to infer delta")
        ok, what = np.isfinite(times), "finite"
        if ok.all():
            ok, what = np.diff(times, prepend=-np.inf) > 0.0, "strictly increasing"
        if ok.all():
            t0, t_end = float(times[0]), float(times[-1])
            trace = cls(values, (t_end - t0) / (times.size - 1), t0)
            ok = np.abs(times - trace.times) <= _grid_slack(t0, t_end)
            what = f"uniformly spaced by {trace.delta!r}"
        if not ok.all():
            i = int(np.argmin(ok))
            raise ArgumentError(
                f"signal file {str(path)!r} row {rows[i][0]}: "
                f"times must be {what}, got {float(times[i])!r}"
            )
        return trace


def _write_table(path, header: list[str], table) -> None:
    """CSV in csv.writer's excel layout; floats in shortest-round-trip repr.
    The one writer of every CSV the package emits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in np.asarray(table, dtype=float).tolist():
            fh.write(",".join(map(repr, row)) + "\r\n")


def _grid_slack(t0: float, t_end: float) -> float:
    """How far a time read from outside may sit from its grid point: a few
    ulps of the largest |t|, the rounding of a file written by to_csv."""
    return _GRID_ULPS * float(np.spacing(max(abs(t0), abs(t_end))))


def step(
    state: MemoryState,
    a: np.ndarray,
    b_model,
    u_next: float,
    u_prev: float | None = None,
    *,
    delta: float,
) -> MemoryState:
    """One update c' = a c + (input contribution) over a finite step delta > 0,
    with a and b_model checked as in run, finite real inputs and a state of a's size."""
    foh = isinstance(b_model, FohVectors)
    check_hold(FOH if foh else ZOH, delta)
    a, *columns = system(a, *(b_model if foh else [b_model]), names=("a", "b_model"))
    if state.coeffs.shape != (a.shape[0],):
        raise ArgumentError(f"state has shape {state.coeffs.shape}, a has shape {a.shape}")
    if foh and u_prev is None:
        raise ArgumentError("first-order-hold input needs u_prev")
    coeffs = a @ state.coeffs
    for name, column, u in zip(("u_next", "u_prev"), columns, (u_next, u_prev)):
        check_finite(name, u)
        coeffs = coeffs + column * u
    return MemoryState(coeffs=coeffs, t=state.t + delta)


class Trajectory(Sequence):
    """Read-only sequence of the L+1 states of one run, built on demand.

    Row c of [s_c | w_c] @ rhs holds the K states cK+1, ..., cK+K of
    chunk c, from its start s_c and its inputs w_c (see `run`).  The
    trajectory keeps rhs, a read-only (chunks, K*m) copy of the inputs and
    a (blocks, N) table holding the first chunk start of each aligned
    block of _BLOCK_CHUNKS chunks, filled once by `run` (_fill_table: the
    serial a^K chain, or one (a^K)^16 step a block on long traces).  Block
    i is always built from its table row the same way: one product for its
    chunks' drives, the serial a^K steps to its other starts, then one
    product with rhs.  So a state is bit-identical however and in whatever
    order it is read; a one-row product is not bit-equal to that row of a
    larger one, so blocks are never split.  The last block read
    is kept, so `states[-1]` costs one block and iterating costs one block
    build per block.  `coeffs` fills every state into one (L+1, N) array,
    block by block, on first read.

    A block that holds a non-finite state raises ArgumentError naming the
    first non-finite state of the run; `run` makes this one check on the
    last block.  Item k is a MemoryState at t = t0 + k * delta on the
    trace's grid, holding a copy of row k; a slice gives a list of such
    states.
    """

    def __init__(self, inputs: np.ndarray, rhs: np.ndarray, table: np.ndarray, trace: SignalTrace):
        self._inputs = inputs
        self._rhs = rhs
        self._table = table
        self._n = table.shape[1]
        self._chunk = rhs.shape[1] // self._n
        self._steps, self._t0, self._delta = trace.values.size, trace.t0, trace.delta
        self._blocks = table.shape[0]
        # rhs's last column block carries a chunk's start to the next one's:
        # (a^K)^T on top, in Fortran order (a^K's own layout, so dot(prev,
        # a_k) runs as the mat-vec a^K prev), and below it the map from w_c
        # to chunk c's drive, copied contiguous for a faster product.
        last = rhs[:, (self._chunk - 1) * self._n :]
        self._a_k = np.asfortranarray(last[: self._n])
        self._drive = np.ascontiguousarray(last[self._n :])
        self._cached = (None, None)
        self._coeffs = None

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            out = np.empty((len(self), self._n))
            out[0] = 0.0
            for i in range(self._blocks):
                rows = self._block(i)
                first = self._first_state(i)
                out[first : first + len(rows)] = rows
            out.flags.writeable = False
            self._coeffs = out
        return self._coeffs

    def __len__(self) -> int:
        return self._steps + 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._state(k) for k in range(*index.indices(len(self)))]
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"state index {index} out of range for {len(self)} states")
        return self._state(k)

    def _state(self, k: int) -> MemoryState:
        if self._coeffs is not None:
            row = self._coeffs[k]
        elif k == 0:
            row = np.zeros(self._n)
        else:
            i = (k - 1) // (self._chunk * _BLOCK_CHUNKS)
            row = self._block(i)[k - self._first_state(i)]
        return MemoryState(coeffs=row.copy(), t=self._t0 + k * self._delta)

    def _first_state(self, i: int) -> int:
        return 1 + i * _BLOCK_CHUNKS * self._chunk

    def _starts(self, i: int) -> np.ndarray:
        """Starts s_c of block i's chunks, carried from table row i by
        s_{c+1} = a^K s_c + (chunk c's drive), and one more row: the start
        of block i+1.  Unchecked; the caller silences overflow."""
        w = self._inputs[i * _BLOCK_CHUNKS : (i + 1) * _BLOCK_CHUNKS]
        starts = np.empty((len(w) + 1, self._n))
        starts[0] = self._table[i]
        # np.dot makes the same BLAS calls as @ with less overhead per call.
        np.dot(w, self._drive, out=starts[1:])
        for prev, start in zip(starts, starts[1:]):
            np.add(start, np.dot(prev, self._a_k), out=start)
        return starts

    def _fill_table(self) -> None:
        """Write the start of every block after the first into the table,
        from its row 0: run's first pass.  Unchecked; the caller silences
        overflow.

        The serial chain runs _starts on each block in turn: B =
        _BLOCK_CHUNKS steps s_{c+1} = s_c a^K + d_c a block (rows, d_c the
        drive of chunk c).  Where it pays, the chain steps once a block
        instead, table[i+1] = table[i] A_B + e_i with A_B = (a^K)^B, four
        squarings of a^K.  Block i's own share e_i of its end is Horner's
        fold of its drives, (..(d_0 a^K + d_1) a^K + ..) + d_{B-1}, taken for
        a slab of _SLAB_BLOCKS blocks at once: one drive product and B-1
        matrix products a slab.  Each partial sum is the state of a
        zero-start run over the block, so no power above a^K meets an input.

        It pays when the four squarings cost no more than the chain steps
        they save.  A squaring is N^3 multiply-adds, but below N = B the
        cost of a call dominates and it costs about as much as one block of
        the chain, B mat-vecs; a block of the chain is B N^2.  So A_B is
        taken when 4 max(N, B) <= B (blocks - 1): at least 4 folded blocks,
        and at least N/4 from N = B up.  An A_B that overflows would meet a
        zero start as 0 * inf = nan and mark finite states bad, so the
        serial chain is kept then; it names the first non-finite state the
        step fold names.
        """
        b, n, last = _BLOCK_CHUNKS, self._n, self._blocks - 1
        a_b = np.linalg.matrix_power(self._a_k, b) if 4 * max(n, b) <= b * last else None
        if a_b is None or not np.isfinite(a_b).all():
            for i in range(last):
                self._table[i + 1] = self._starts(i)[-1]
            return
        scratch = np.empty((min(_SLAB_BLOCKS, last) * b, n))
        for first in range(0, last, _SLAB_BLOCKS):
            w = self._inputs[first * b : min(first + _SLAB_BLOCKS, last) * b]
            drives = np.dot(w, self._drive, out=scratch[: len(w)]).reshape(-1, b, n)
            for j in range(1, b):
                drives[:, j] += drives[:, j - 1] @ self._a_k
            for i, end in enumerate(drives[:, -1], start=first):
                np.add(end, np.dot(self._table[i], a_b), out=self._table[i + 1])

    def _product(self, i: int) -> np.ndarray:
        """States of block i as rows, past state L dropped; unchecked."""
        # An unstable a overflows; the caller reports the first bad state.
        with np.errstate(over="ignore", invalid="ignore"):
            starts = self._starts(i)
            w = self._inputs[i * _BLOCK_CHUNKS : (i + 1) * _BLOCK_CHUNKS]
            rows = (np.concatenate((starts[:-1], w), axis=1) @ self._rhs).reshape(-1, self._n)
        return rows[: len(self) - self._first_state(i)]

    def _block(self, i: int) -> np.ndarray:
        """States of block i, checked."""
        if self._cached[0] != i:
            rows = self._product(i)
            if not np.isfinite(rows).all():
                self._raise_first_non_finite(i)
            self._cached = (i, rows)
        return self._cached[1]

    def _raise_first_non_finite(self, last: int) -> None:
        """Raise naming the first non-finite state in blocks 0..last; one of
        them must hold one."""
        for i in range(last + 1):
            finite = np.isfinite(self._product(i)).all(axis=1)
            if not finite.all():
                k = self._first_state(i) + int(np.argmin(finite))
                raise ArgumentError(
                    f"coeffs must be finite: state {k} (t={self._t0 + k * self._delta!r}) "
                    "is the first non-finite one"
                )


def run(trace: SignalTrace, a: np.ndarray, b_model) -> Trajectory:
    """All states of the recurrence over the trace, from the zero state at t0.

    Sample k covers the interval [t0 + k delta, t0 + (k+1) delta), so the
    state after consuming it sits at t0 + (k+1) delta.  Times are t0 plus
    step-count multiples of delta rather than a running float sum.  Returns the initial state
    followed by one state per sample, as a Trajectory that builds them on
    demand: `run(...)[-1]` costs the block-start pass plus one block.

    Equivalent to folding `step` over the trace (the reference path), up to
    rounding: the states are summed in chunks, not one step at a time.
    With x_{k+1} = a x_k + b w_k (b is (N, m), w is (L, m)), the steps are
    cut into chunks of K; chunk c starts from s_c = x_{cK}, and inside it
        x_{cK+j+1} = a^{j+1} s_c + sum_{i<=j} a^{j-i} b w_{cK+i}.
    With rhs = [a^{j+1}^T ; Toeplitz(a^{j-i} b)^T] (column block j gives
    state cK+j+1), [s_c | w_{cK..cK+K-1}] @ rhs gives chunk c's states, a
    product the Trajectory forms block by block.  The chunk starts obey
    s_{c+1} = a^K s_c + d_c, where chunk c's drive d_c (its inputs' share
    of state cK+K) is its inputs times the Toeplitz part of rhs's last
    column block.  Only the first start of each block of B = 16 chunks is
    kept, in a table.  A long trace carries the block starts one block at
    a time by A_B = (a^K)^B, from four squarings: L/(BK) serial mat-vecs
    instead of the chunk chain's L/K.  A short trace, or an unstable a
    whose A_B overflows, keeps the chunk chain (Trajectory._fill_table
    states when each applies).
    K = clamp(L // N, 1, 32) keeps the powers and the operands no larger
    than the trajectory itself.  A non-finite final state, which any
    non-finite chunk start makes, raises ArgumentError naming the first
    non-finite state.

    The working set is rhs, one read-only copy of the chunked inputs (FOH's
    delayed column included) and a (blocks, N) table of block starts, plus
    one block of _BLOCK_CHUNKS chunks per read; no array holds every chunk
    start.  The inputs are one zero-padded (chunks*K, m) array viewed as
    (chunks, K*m).  The first pass fills the table, with scratch of one
    block's chunk starts (serial chain) or one slab's drives (block
    power).  The last block, which holds the final state, is then built
    and checked like any read; that is run's one finiteness check.  rhs is
    filled from one rolling power a^{j+1} (with a (K, N, m) kernel), not a
    stack of all K+1 powers.
    """
    foh = isinstance(b_model, FohVectors)  # FOH's vectors are v_next and v_prev
    a, *columns = system(a, *(b_model if foh else [b_model]), names=("a", "b_model"))
    n, b = a.shape[0], np.column_stack(columns)

    u = trace.values
    steps, m = u.size, b.shape[1]
    k = min(_MAX_CHUNK, max(1, steps // n))
    chunks = -(-steps // k)

    # An unstable a overflows; that is reported below as the first bad state.
    with np.errstate(over="ignore", invalid="ignore"):
        # Column block j of rhs yields state cK+j+1 of chunk c: (a^{j+1})^T
        # on top, from one rolling power, and the Toeplitz kernel below.
        rhs = np.zeros((n + k * m, k * n))
        toeplitz = rhs[n:].reshape(k, m, k, n)
        kernel = np.empty((k, n, m))
        power = np.eye(n)
        for j in range(k):
            np.matmul(power, b, out=kernel[j])
            toeplitz[: j + 1, :, j, :] = kernel[j::-1].transpose(0, 2, 1)
            power = a @ power
            rhs[:n, j * n : (j + 1) * n] = power.T

    # Row c of inputs is w_{cK..cK+K-1}, zero past the last sample.
    inputs = np.zeros((chunks * k, m))
    inputs[:steps, 0] = u
    if foh:  # the second column is u delayed by one sample, 0 first
        inputs[1:steps, 1] = u[:-1]
    inputs = inputs.reshape(chunks, k * m)
    inputs.flags.writeable = False

    table = np.zeros((-(-chunks // _BLOCK_CHUNKS), n))
    states = Trajectory(inputs, rhs, table, trace)
    with np.errstate(over="ignore", invalid="ignore"):
        states._fill_table()
    table.flags.writeable = False
    # A non-finite start makes every later one non-finite (inf and nan
    # carry through the mat-vec), so the last block, which holds the final
    # state, holds a non-finite state whenever a block start does; _block
    # checks it and names the first bad state, searching from block 0.
    states._block(len(table) - 1)  # checked, and kept for states[-1]
    return states


def reconstruct(
    state: MemoryState, basis: BasisSpec, warp: WarpSpec, s_grid
) -> np.ndarray:
    """Evaluate sum_n c_n phi_n(sigma_t(s)) on the grid of history times;
    a grid point not finite or after state.t, or a state whose size is not
    basis.n_basis, raises ArgumentError."""
    if state.coeffs.size != basis.n_basis:
        raise ArgumentError(
            f"state has {state.coeffs.size} coefficients, basis has n_basis={basis.n_basis}"
        )
    s = np.atleast_1d(finite_array("s_grid", s_grid))
    if np.any(s > state.t):
        raise ArgumentError(f"grid points must not exceed t={state.t}")
    with np.errstate(over="ignore"):  # a lag, or lag / tau, below float range is -inf: z = 0
        return state.coeffs @ phi_matrix(basis, warp.f(s - state.t))


def project_direct(
    u,
    basis: BasisSpec,
    warp: WarpSpec,
    t: float,
    quad: QuadratureConfig = QuadratureConfig(),
) -> MemoryState:
    """Offline oracle: measure-weighted projection of the history onto the
    warped basis, computed as c_n = integral of phi_n(z) u(sigma_t^{-1}(z))
    over the canonical interval.  u is called once, on the array of history
    times s at the rule's nodes, and must return one real value per node.
    A result of another shape or dtype, or a non-finite value, raises
    ArgumentError; the latter names the first history time s where it
    occurs.  t must be a finite real."""
    z, w = panel_nodes(0.0, 1.0, quad)
    s = check_finite("t", t) + warp.g(z)
    vals = finite_array("u(s)", u(s), finite=False)
    if vals.shape != s.shape:
        raise ArgumentError(
            f"u must return one value per history time: got shape {vals.shape} for {s.size} times"
        )
    if not (finite := np.isfinite(vals)).all():
        raise ArgumentError(f"signal non-finite at s={float(s[np.argmin(finite)])!r}")
    coeffs = phi_matrix(basis, z) @ (w * vals)
    return MemoryState(coeffs=coeffs, t=t)
