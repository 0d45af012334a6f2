"""The package's public names."""

import numpy as np
import pytest

import lagssm
from lagssm import ArgumentError


def test_all_names_resolve_and_are_unique():
    assert len(set(lagssm.__all__)) == len(lagssm.__all__)
    missing = [name for name in lagssm.__all__ if not hasattr(lagssm, name)]
    assert missing == []
    assert len(lagssm.__all__) == 35


BAD_OPERANDS = {
    "bilinear-b-size": lambda: lagssm.bilinear_discretize(np.eye(3), np.ones(4), 0.1),
    "bilinear-nan-a": lambda: lagssm.bilinear_discretize(np.full((3, 3), np.nan), np.ones(3), 0.1),
    "bilinear-nan-b": lambda: lagssm.bilinear_discretize(
        np.eye(3), np.array([1.0, np.nan, 1.0]), 0.1
    ),
    "correct-nan": lambda: lagssm.correct_a_delta(np.full((3, 3), np.nan), 0.1),
    "correct-non-square": lambda: lagssm.correct_a_delta(np.ones((3, 4)), 0.1),
    "step-state-size": lambda: lagssm.step(
        lagssm.MemoryState(np.zeros(3), 0.0), np.eye(4), np.ones(4), 1.0, delta=0.1
    ),
    "step-b-size": lambda: lagssm.step(
        lagssm.MemoryState(np.zeros(4), 0.0), np.eye(4), np.ones(3), 1.0, delta=0.1
    ),
    "reconstruct-state-size": lambda: lagssm.reconstruct(
        lagssm.MemoryState(np.zeros(3), 1.0), lagssm.BasisSpec(4), lagssm.WarpSpec(), [0.5]
    ),
    "gauss-rule-float-k": lambda: lagssm.gauss_rule(3.5),
    "a-delta-nan-step": lambda: lagssm.build_a_delta(lagssm.BasisSpec(3), lagssm.WarpSpec(), np.nan),
    "correct-nan-step": lambda: lagssm.correct_a_delta(np.eye(2), np.nan),
    "correct-nan-rate": lambda: lagssm.correct_a_delta(np.eye(2), 0.1, rate=np.nan),
    "backward-shift-nan-step": lambda: lagssm.backward_shift(np.eye(2), np.nan),
    "backward-shift-inf-rate": lambda: lagssm.backward_shift(np.eye(2), 0.1, rate=np.inf),
    "bilinear-nan-step": lambda: lagssm.bilinear_discretize(-np.eye(2), np.ones(2), np.nan),
    "bilinear-inf-step": lambda: lagssm.bilinear_discretize(-np.eye(2), np.ones(2), np.inf),
    "memory-state-nan-t": lambda: lagssm.MemoryState(np.ones(3), np.nan),
    "reconstruct-nan-grid": lambda: lagssm.reconstruct(
        lagssm.MemoryState(np.ones(3), 1.0), lagssm.BasisSpec(3), lagssm.WarpSpec(), [np.nan]
    ),
}


@pytest.mark.parametrize("call", BAD_OPERANDS.values(), ids=BAD_OPERANDS.keys())
def test_bad_operand_is_an_argument_error(call):
    """Bad input of any kind is an ArgumentError, not numpy's ValueError,
    LinAlgError or TypeError, nor a nan result."""
    with pytest.raises(ArgumentError):
        call()


def test_gauss_rule_takes_a_numpy_integer():
    np.testing.assert_array_equal(lagssm.gauss_rule(np.int64(3))[0], lagssm.gauss_rule(3)[0])
