"""Structured state-space models built directly from a time warp and an
orthonormal basis.

The discrete transition comes from a single inner product between today's
basis and yesterday's (the backward lag of the warp); the exponential-warp
instance reproduces the closed-form HiPPO-LegS system, and the package
ships the harness that checks this numerically.
"""

from .basis import BasisSpec, boundary_values
from .errors import ArgumentError, LagssmError, NumericError
from .experiments import ExperimentConfig, SignalConfig
from .matrices import (
    FohVectors,
    HippoReference,
    backward_shift,
    bilinear_discretize,
    build_a_delta,
    build_a_gen,
    build_b_delta,
    build_b_gen,
    correct_a_delta,
    frobenius_rel_diff,
    hippo_legs_reference,
    lag_matrix,
    matrix_exp,
)
from .quadrature import QuadratureConfig, gauss_rule, integrate
from .recurrence import (
    MemoryState,
    SignalTrace,
    project_direct,
    reconstruct,
    run,
    step,
)
from .signals import LorenzParams, lorenz63, normalize_trace, sine_mixture, zoh_function
from .warp import WarpSpec

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BasisSpec",
    "ExperimentConfig",
    "FohVectors",
    "HippoReference",
    "LagssmError",
    "LorenzParams",
    "MemoryState",
    "NumericError",
    "QuadratureConfig",
    "SignalConfig",
    "SignalTrace",
    "WarpSpec",
    "backward_shift",
    "bilinear_discretize",
    "boundary_values",
    "build_a_delta",
    "build_a_gen",
    "build_b_delta",
    "build_b_gen",
    "correct_a_delta",
    "frobenius_rel_diff",
    "gauss_rule",
    "hippo_legs_reference",
    "integrate",
    "lag_matrix",
    "lorenz63",
    "matrix_exp",
    "normalize_trace",
    "project_direct",
    "reconstruct",
    "run",
    "sine_mixture",
    "step",
    "zoh_function",
]
