"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They show that the reference agrees with lagssm where lagssm is known to be
right, that the checks fail where it is known to be wrong, that inputs
depend on the seed alone, and that the printed metrics are the ones
BENCHMARK.json names.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import reference as ref  # noqa: E402
from worker import import_lagssm  # noqa: E402

lagssm = import_lagssm()
DELTA = ops.DELTA


def _library_pair(n, tau):
    spec, warp = lagssm.BasisSpec(n_basis=n), lagssm.WarpSpec(rate=tau)
    a_d = lagssm.build_a_delta(spec, warp, DELTA)
    return lagssm.correct_a_delta(a_d, DELTA).T, lagssm.build_b_delta(spec, warp, DELTA, "zoh")


def _sine():
    return lagssm.sine_mixture((0.5, 1.3), (1.0, 0.4), (0.0, 0.7), DELTA, 500)


def test_reference_matches_lagssm_at_known_good_point():
    n, tau = 32, 1.0
    a, b = _library_pair(n, tau)
    t_ref, b_ref = ref.transition(n, tau, DELTA)
    assert ref.rel_diff(a, t_ref) < 1e-13
    assert ref.rel_diff(b, b_ref) < 1e-12
    z = np.linspace(0.0, 1.0, 97)
    phi = lagssm.basis.phi_matrix(lagssm.BasisSpec(n_basis=n), z)
    assert np.abs(phi - ref.phi(n, z)).max() < 1e-12

    trace = _sine()
    final = lagssm.run(trace, a, b)[-1]
    c = ref.recur(t_ref, b_ref, trace.values)
    assert ref.rel_diff(final.coeffs, c) < 1e-12
    s = np.linspace(0.0, final.t, 200)
    got = lagssm.reconstruct(final, lagssm.BasisSpec(n_basis=n), lagssm.WarpSpec(rate=tau), s)
    assert np.abs(got - ref.reconstruct(c, tau, final.t, s)).max() < 1e-11


def test_reference_lorenz_matches_library_prefix():
    x0 = (1.02, 0.97, 1.01)
    raw = lagssm.lorenz63(lagssm.LorenzParams(x0=x0, dt=DELTA, steps=ops.LORENZ_PREFIX, burn_in=0))
    want = ref.lorenz_x(x0, DELTA, ops.LORENZ_PREFIX)
    assert np.abs(raw.values - want).max() / np.abs(want).max() < ops.TRANSITION_TOL


def test_reference_flags_tau_two_state():
    n, tau = 32, 2.0
    a, b = _library_pair(n, tau)
    t_ref, b_ref = ref.transition(n, tau, DELTA)
    trace = _sine()
    final = lagssm.run(trace, a, b)[-1]
    assert ref.rel_diff(final.coeffs, ref.recur(t_ref, b_ref, trace.values)) > ops.TRANSITION_TOL


@pytest.mark.parametrize(
    "op, reason",
    [
        (ops.Op("matrices", 256, 1.0, ops.X0), "transition rel err"),
        (ops.Op("lagshift", 256, 1.0, ops.X0), "growth bound"),
        (ops.Op("matrices", 32, 2.0, ops.X0), "transition rel err"),
    ],
)
def test_checks_fail_on_known_bad_outputs(op, reason, tmp_path):
    out, out_dir, _ = ops.run_cli(op, lagssm, str(tmp_path), lambda: 0.0)
    assert out.exited_ok  # the program reports success ...
    ops.check_cli(op, out, out_dir, ops.References())
    assert not out.ok and reason in out.reason  # ... and the benchmark does not


@pytest.mark.parametrize(
    "command, direction, n, tau", ops.KNOWN_BAD, ids=lambda v: str(v).replace(" ", "")
)
def test_known_bad_sweep_kinds_still_fail(command, direction, n, tau, tmp_path):
    """The grid kinds left out of `sweep` fail at the seed commit; a kind
    that passes here belongs in ops.KINDS["sweep"]."""
    op = ops.Op(command, n, tau, ops.X0, direction)
    out, out_dir, _ = ops.run_cli(op, lagssm, str(tmp_path), lambda: 0.0)
    ops.check_cli(op, out, out_dir, ops.References())
    assert not out.ok


@pytest.mark.parametrize("workload", ["harness", "sweep"])
def test_checks_pass_on_every_workload_kind(workload, tmp_path):
    refs = ops.References()
    for command, direction, n, tau in ops.KINDS[workload]:
        op = ops.Op(command, n, tau, ops.X0, direction)
        work = tmp_path / f"{command}-{direction}-{n}"
        work.mkdir()
        out, out_dir, _ = ops.run_cli(op, lagssm, str(work), lambda: 0.0)
        ops.check_cli(op, out, out_dir, refs)
        assert out.ok, (op.kind, out.reason)


def _cycles(workload, seed, count=3):
    rng = np.random.default_rng(seed)
    return [ops.make_cycle(workload, rng) for _ in range(count)]


@pytest.mark.parametrize("workload", ["harness", "sweep", "stream"])
def test_inputs_depend_on_seed_alone(workload):
    assert _cycles(workload, 7) == _cycles(workload, 7)
    assert _cycles(workload, 7) != _cycles(workload, 8)


def test_sweep_cycle_covers_every_kind_once():
    kinds = [op.kind for op in ops.make_cycle("sweep", np.random.default_rng(0))]
    assert len(kinds) == len(set(kinds)) == len(ops.KINDS["sweep"])
    # Together with the known-bad kinds, the whole grid beyond harness.
    assert len(ops.KINDS["sweep"]) + len(ops.KNOWN_BAD) == 25


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    root = HERE.parent
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "harness", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((root / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench[section]] == list(result["metrics"])
    for m in bench[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        # Only reachable if the wrappers were rebound where experiments imported them.
        assert result["metrics"]["basis.calls"]["value"] > 0
    assert result["correct"] and result["failed"] == 0
