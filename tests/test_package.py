"""The package's public names."""

import os
import re
import shutil
import tempfile

import numpy as np
import pytest

import lagssm
from lagssm import ArgumentError, NumericError, basis, matrices, quadrature, signals


def test_all_names_resolve_and_are_unique():
    assert len(set(lagssm.__all__)) == len(lagssm.__all__)
    missing = [name for name in lagssm.__all__ if not hasattr(lagssm, name)]
    assert missing == []
    assert len(lagssm.__all__) == 35


SPEC, WARP, I = lagssm.BasisSpec(2), lagssm.WarpSpec(), np.eye(2)
RAGGED = [[1.0], [1.0, 2.0]]
STATE, TRACE = lagssm.MemoryState(np.zeros(2), 0.0), lagssm.SignalTrace(np.ones(5), 0.1)
FILES = os.path.join(tempfile.gettempdir(), f"lagssm-bad-files-{os.getpid()}")


def matrices_file(named, name, text=None):
    """The entry for load_matrices_json on FILES/name, a file holding text
    (no file when text is None), whose error begins with named and the path.
    The file exists only while the call runs."""
    path = os.path.join(FILES, name)

    def call():
        os.makedirs(FILES, exist_ok=True)
        try:
            if text is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            return matrices.load_matrices_json(path)
        finally:
            shutil.rmtree(FILES, ignore_errors=True)

    return f"{named} {path!r}", call

# id -> (the operand that begins the error's text, the call)
BAD_OPERANDS = {
    "bilinear-b-size": ("b", lambda: lagssm.bilinear_discretize(np.eye(3), np.ones(4), 0.1)),
    "bilinear-nan-a": ("a", lambda: lagssm.bilinear_discretize(
        np.full((3, 3), np.nan), np.ones(3), 0.1)),
    "bilinear-nan-b": ("b", lambda: lagssm.bilinear_discretize(
        np.eye(3), np.array([1.0, np.nan, 1.0]), 0.1)),
    "correct-nan": ("a_delta", lambda: lagssm.correct_a_delta(np.full((3, 3), np.nan), 0.1)),
    "correct-non-square": ("a_delta", lambda: lagssm.correct_a_delta(np.ones((3, 4)), 0.1)),
    "step-state-size": ("state", lambda: lagssm.step(
        lagssm.MemoryState(np.zeros(3), 0.0), np.eye(4), np.ones(4), 1.0, delta=0.1)),
    "step-b-size": ("b_model", lambda: lagssm.step(
        lagssm.MemoryState(np.zeros(4), 0.0), np.eye(4), np.ones(3), 1.0, delta=0.1)),
    "reconstruct-state-size": ("state", lambda: lagssm.reconstruct(
        lagssm.MemoryState(np.zeros(3), 1.0), lagssm.BasisSpec(4), lagssm.WarpSpec(), [0.5])),
    "gauss-rule-float-k": ("k", lambda: lagssm.gauss_rule(3.5)),
    "a-delta-nan-step": ("delta", lambda: lagssm.build_a_delta(
        lagssm.BasisSpec(3), lagssm.WarpSpec(), np.nan)),
    "correct-nan-step": ("delta", lambda: lagssm.correct_a_delta(np.eye(2), np.nan)),
    "correct-nan-rate": ("warp rate", lambda: lagssm.correct_a_delta(np.eye(2), 0.1, rate=np.nan)),
    "backward-shift-nan-step": ("delta", lambda: lagssm.backward_shift(np.eye(2), np.nan)),
    "backward-shift-inf-rate": ("warp rate", lambda: lagssm.backward_shift(
        np.eye(2), 0.1, rate=np.inf)),
    "bilinear-nan-step": ("delta", lambda: lagssm.bilinear_discretize(
        -np.eye(2), np.ones(2), np.nan)),
    "bilinear-inf-step": ("delta", lambda: lagssm.bilinear_discretize(
        -np.eye(2), np.ones(2), np.inf)),
    "memory-state-nan-t": ("t", lambda: lagssm.MemoryState(np.ones(3), np.nan)),
    "reconstruct-nan-grid": ("s_grid", lambda: lagssm.reconstruct(
        lagssm.MemoryState(np.ones(3), 1.0), lagssm.BasisSpec(3), lagssm.WarpSpec(), [np.nan])),
    # A string or bool step: the finite-real rule of every step.
    "b-delta-str-step": ("delta", lambda: lagssm.build_b_delta(SPEC, WARP, "0.1")),
    "exact-shift-str-step": ("delta", lambda: matrices.exact_shift(SPEC, WARP, "0.1")),
    "b-delta-bool-step": ("delta", lambda: lagssm.build_b_delta(SPEC, WARP, True)),
    "bilinear-str-step": ("delta", lambda: lagssm.bilinear_discretize(-I, np.ones(2), "0.1")),
    "bilinear-bool-step": ("delta", lambda: lagssm.bilinear_discretize(-I, np.ones(2), True)),
    # An array of strings or bools: the real-array rule of every operand.
    "matrix-exp-str": ("m", lambda: lagssm.matrix_exp([["a"]])),
    "bilinear-str-b": ("b", lambda: lagssm.bilinear_discretize(I, ["a", "b"], 0.1)),
    "run-str-a": ("a", lambda: lagssm.run(TRACE, [["a"]], [1.0])),
    "memory-state-str": ("coeffs", lambda: lagssm.MemoryState(["a"], 0.0)),
    "reconstruct-str-grid": ("s_grid", lambda: lagssm.reconstruct(STATE, SPEC, WARP, ["a"])),
    "frobenius-str": ("m1", lambda: lagssm.frobenius_rel_diff([["a"]], [["b"]])),
    "phi-matrix-str": ("z", lambda: basis.phi_matrix(SPEC, ["a"])),
    "signal-trace-str": ("values", lambda: lagssm.SignalTrace(["a", "b"], 0.1)),
    "memory-state-bool": ("coeffs", lambda: lagssm.MemoryState(np.array([True, False]), 0.0)),
    "run-bool-b": ("b_model", lambda: lagssm.run(TRACE, 0.5 * I, np.array([True, False]))),
    "correct-str-max-condition": ("max_condition", lambda: lagssm.correct_a_delta(I, 0.1, "x")),
    "project-direct-str-t": ("t", lambda: lagssm.project_direct(lambda s: s, SPEC, WARP, "x")),
    # A step factor exp(-+delta / tau) out of float range, as exact_shift's.
    "correct-factor-underflows": ("delta/tau=1000", lambda: lagssm.correct_a_delta(I, 1e3)),
    "backward-shift-factor-overflows": ("delta/tau=1000", lambda: lagssm.backward_shift(I, 1e3)),
    "frobenius-nan": ("m1", lambda: lagssm.frobenius_rel_diff(np.full((2, 2), np.nan), I)),
    # step's own step and inputs
    "step-negative-step": ("delta", lambda: lagssm.step(STATE, I, np.ones(2), 1.0, delta=-0.1)),
    "step-nan-step": ("delta", lambda: lagssm.step(STATE, I, np.ones(2), 1.0, delta=np.nan)),
    "step-str-input": ("u_next", lambda: lagssm.step(STATE, I, np.ones(2), "x", delta=0.1)),
    "step-str-delayed-input": ("u_prev", lambda: lagssm.step(
        STATE, I, lagssm.FohVectors(np.ones(2), np.ones(2)), 1.0, "x", delta=0.1)),
    # A ragged nesting, which numpy refuses with a bare ValueError.
    "matrix-exp-ragged": ("m", lambda: lagssm.matrix_exp(RAGGED)),
    "lag-matrix-ragged": ("c", lambda: lagssm.lag_matrix(SPEC, RAGGED)),
    "phi-matrix-ragged": ("z", lambda: basis.phi_matrix(SPEC, RAGGED)),
    "frobenius-ragged": ("m1", lambda: lagssm.frobenius_rel_diff(RAGGED, RAGGED)),
    "correct-ragged": ("a_delta", lambda: lagssm.correct_a_delta(RAGGED, 0.1)),
    "signal-trace-ragged": ("values", lambda: lagssm.SignalTrace(RAGGED, 0.1)),
    "sine-ragged-freqs": ("freqs", lambda: signals.sine_mixture(RAGGED, [1.0], [0.0], 0.1, 3)),
    "project-direct-ragged": ("u(s)", lambda: lagssm.project_direct(
        lambda s: RAGGED, SPEC, WARP, 1.0)),
    # hold_vectors' forward shift: a finite square matrix of the basis's size.
    "hold-str-forward": ("forward", lambda: matrices.hold_vectors(
        np.array([["a", "b"], ["c", "d"]]), SPEC, WARP, 0.1, "zoh")),
    "hold-foh-forward-size": ("forward", lambda: matrices.hold_vectors(
        np.eye(3), SPEC, WARP, 0.1, "foh")),
    "hold-zoh-forward-size": ("forward", lambda: matrices.hold_vectors(
        np.eye(3), SPEC, WARP, 0.1, "zoh")),
    # A callback's values, a rule's endpoints and a sample count.
    "project-direct-str-values": ("u(s)", lambda: lagssm.project_direct(
        lambda s: np.full(s.shape, "a"), SPEC, WARP, 1.0)),
    "integrate-str-values": ("fn(z)", lambda: quadrature.integrate(lambda z: "a", 0.0, 1.0)),
    "panel-nodes-nan-end": ("a", lambda: quadrature.panel_nodes(
        np.nan, 1.0, lagssm.QuadratureConfig())),
    "integrate-inf-end": ("b", lambda: quadrature.integrate(lambda z: z, 0.0, np.inf)),
    "sine-fractional-steps": ("steps", lambda: signals.sine_mixture([1.0], [1.0], [0.0], 0.1, 2.5)),
    "sine-bool-steps": ("steps", lambda: signals.sine_mixture([1.0], [1.0], [0.0], 0.1, True)),
    "sine-str-freqs": ("freqs", lambda: signals.sine_mixture(["a"], [1.0], [0.0], 0.1, 3)),
    # A matrices file that cannot be read or is not save_matrices_json's layout.
    "matrices-file-missing": matrices_file("cannot read", "missing.json"),
    "matrices-file-truncated": matrices_file("cannot read", "truncated.json", "{"),
    "matrices-file-list": matrices_file("matrices file", "list.json", "[1, 2]"),
    "matrices-file-no-matrices": matrices_file(
        "matrices file", "no-matrices.json", '{"schema_version": 1, "meta": {}}'),
    "matrices-file-ragged": matrices_file(
        "matrices file", "ragged.json",
        '{"schema_version": 1, "meta": {}, "matrices": {"a": [[1.0], [1.0, 2.0]]}}'),
    # A sample count no allocation can hold: 8e17 bytes is past any x86-64
    # address space, so the request fails at once.
    "sine-steps-unallocatable": ("steps=100000000000000000", lambda: signals.sine_mixture(
        [1.0], [1.0], [0.0], 0.1, 10**17)),
    "lorenz-steps-unallocatable": ("steps=100000000000000000", lambda: signals.lorenz63(
        signals.LorenzParams(steps=10**17))),
}


@pytest.mark.parametrize("named, call", BAD_OPERANDS.values(), ids=BAD_OPERANDS.keys())
def test_bad_operand_is_an_argument_error(named, call):
    """Bad input of any kind is an ArgumentError whose text begins with the
    operand's name, not numpy's ValueError, LinAlgError or TypeError, nor a
    nan result (a RuntimeWarning on the way is an error in this suite)."""
    with pytest.raises(ArgumentError) as exc:
        call()
    assert re.match(rf"{re.escape(named)}(?!\w)", str(exc.value)), str(exc.value)


def test_subnormal_rate_generator_is_a_numeric_error():
    """D / tau overflows only for a subnormal tau; it is named, not inf."""
    with pytest.raises(NumericError, match="tau=1e-320"):
        lagssm.build_a_gen(SPEC, lagssm.WarpSpec(rate=1e-320))
    a_gen = lagssm.build_a_gen(lagssm.BasisSpec(256), lagssm.WarpSpec(rate=1e-300))
    assert np.isfinite(a_gen).all()


def test_gauss_rule_takes_a_numpy_integer():
    np.testing.assert_array_equal(lagssm.gauss_rule(np.int64(3))[0], lagssm.gauss_rule(3)[0])
