"""One workload in one process: import lagssm, build once cold, then run a
closed loop of ops with a single caller until the run length is used up.

Started by run.py with BLAS pinned to one thread. Prints one JSON line.
With --setup-only it stops after the cold build and prints the monotonic
clock, so the parent can time process start, import and first build.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
import ops
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

COMMANDS = ("tables", "reconstruct", "lagshift", "matrices")


def import_lagssm():
    sys.path.insert(0, str(SRC))
    import lagssm
    import lagssm.cli  # noqa: F401  (the entry point the ops call)

    if SRC.resolve() not in Path(lagssm.__file__).resolve().parents:
        raise SystemExit(f"lagssm imported from {lagssm.__file__}, not from {SRC}")
    return lagssm


def cold_build(lagssm, n: int, tau: float) -> None:
    """First matrix build of a fresh process; fills the Gauss-rule cache."""
    lagssm.build_a_delta(lagssm.BasisSpec(n_basis=n), lagssm.WarpSpec(rate=tau), 0.01)


@dataclass
class Record:
    op: object
    out: object
    traced: bool
    cycle: int


def run_loop(lagssm, workload: str, seed: int, seconds: float, trace: bool, work_root: Path):
    rng = np.random.default_rng(seed)
    refs = ops.References()
    tracer = Tracer() if trace else None
    records: list[Record] = []
    calibrate.sample(5)  # warm-up, not kept
    speed = calibrate.sample(1)
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 1
        for op in ops.make_cycle(workload, rng):
            op_dir = work_root / f"op{len(records)}"
            op_dir.mkdir()
            if traced:
                tracer.install()
                tracer.op_id = len(records)
                root = tracer.open(op.kind, "bench")
            try:
                if op.command == "stream":
                    out, result = ops.run_stream(op, lagssm, time.perf_counter)
                else:
                    out, out_dir, stdout = ops.run_cli(op, lagssm, str(op_dir), time.perf_counter)
            finally:
                if traced:
                    tracer.close(root)
                    tracer.uninstall()
            if op.command == "stream":
                ops.check_stream(op, out, result, refs)
                del result
            else:
                ops.check_cli(op, out, out_dir, refs)
                out.stats["checks_failed"] = sum(ln.startswith("FAIL") for ln in stdout.splitlines())
                out.stats["bytes_written"] = sum(
                    f.stat().st_size for f in Path(out_dir).rglob("*") if f.is_file()
                ) if os.path.isdir(out_dir) else 0
            shutil.rmtree(op_dir)
            records.append(Record(op, out, traced, cycle))
            speed += calibrate.samples_after(out.seconds)
        cycle += 1
        elapsed = time.perf_counter() - start
        if cycle >= (2 if trace else 1) and elapsed + elapsed / cycle > seconds:
            break
    return records, tracer, speed, time.perf_counter() - start


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def by_kind(records: list[Record]) -> dict:
    """Median wall time of each op kind in the run, with its op and the
    share of its ops that succeeded."""
    kinds = defaultdict(list)
    for r in records:
        kinds[r.op.kind].append(r)
    return {
        kind: (statistics.median(r.out.seconds for r in rs), rs[0].op, sum(r.out.ok for r in rs) / len(rs))
        for kind, rs in kinds.items()
    }


def end_to_end(records: list[Record], scale: float) -> dict:
    """Latency percentiles over every op, and the throughput of one cycle
    (one op of every kind) at each kind's median time; times are scaled to
    reference speed (see calibrate.py)."""
    kinds = by_kind(records).values()
    cycle = scale * sum(t for t, _, _ in kinds)
    times = [scale * r.out.seconds for r in records]
    return {
        "ops_per_s": sum(ok for _, _, ok in kinds) / cycle,
        "op_ms_p50": 1e3 * percentile(times, 50),
        "op_ms_p90": 1e3 * percentile(times, 90),
        "samples_per_s": sum(op.samples * ok for _, op, ok in kinds) / cycle,
        "ok_frac": sum(r.out.ok for r in records) / len(records),
    }


def per_command_ms(records: list[Record]) -> dict:
    by_cmd = defaultdict(list)
    for r in records:
        by_cmd[r.op.command].append(r.out.seconds)
    return {cmd: {"ms_p50": 1e3 * percentile(v, 50), "n": len(v)} for cmd, v in sorted(by_cmd.items())}


def gram_deviation(lagssm, workload: str) -> float:
    """max |Phi W Phi^T - I| over the (N, rule) points the workload uses,
    through the public phi_matrix and panel_nodes."""
    from lagssm.basis import phi_matrix
    from lagssm.quadrature import panel_nodes

    worst = 0.0
    for n in sorted({n for _, _, n, _ in ops.KINDS[workload]}):
        z, w = panel_nodes(0.0, 1.0, lagssm.QuadratureConfig())
        phi = phi_matrix(lagssm.BasisSpec(n_basis=n), z)
        worst = max(worst, float(np.abs((phi * w) @ phi.T - np.eye(n)).max()))
    return worst


def per_layer(lagssm, workload: str, records: list[Record], tracer) -> dict:
    """Per-layer figures per traced cycle (one pass over every op kind)."""
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    cycles = len({r.cycle for r in traced})
    own = tracer.self_times()
    out = {}
    for layer in ("basis", "quadrature", "warp", "matrices", "recurrence", "signals", "experiments"):
        out[f"{layer}.self_s"] = own.get(layer, 0.0) / cycles
    for name in ("basis.calls", "basis.values", "quadrature.nodes", "warp.calls",
                 "matrices.calls", "recurrence.steps", "signals.samples"):
        out[name] = tracer.counts.get(name, 0.0) / cycles
    for fn in ("build_a_gen", "build_a_delta", "correct_a_delta", "build_b_delta",
               "matrix_exp", "bilinear_discretize", "save_matrices_json"):
        out[f"matrices.{fn}.self_s"] = own.get(f"matrices.{fn}", 0.0) / cycles
    out["quadrature.gram_dev"] = gram_deviation(lagssm, workload)

    def worst(key):
        return max((r.out.stats[key] for r in records if key in r.out.stats), default=0.0)

    out["matrices.transition_rel_err"] = worst("transition_rel_err")
    out["matrices.spectral_radius"] = worst("spectral_radius")
    out["recurrence.state_rel_err"] = worst("state_rel_err")
    steps, samples = out["recurrence.steps"], out["signals.samples"]
    out["recurrence.us_per_step"] = 1e6 * out["recurrence.self_s"] / steps if steps else 0.0
    out["signals.us_per_sample"] = 1e6 * out["signals.self_s"] / samples if samples else 0.0
    out["experiments.bytes_written"] = sum(r.out.stats.get("bytes_written", 0) for r in traced) / cycles
    out["experiments.checks_failed"] = sum(r.out.stats.get("checks_failed", 0) for r in traced) / cycles
    # Per-command wall time from the untraced cycles; 0 where the workload
    # runs no such command.
    p50s = per_command_ms(untraced)
    for cmd in COMMANDS:
        out[f"experiments.{cmd}_ms_p50"] = p50s.get(cmd, {"ms_p50": 0.0})["ms_p50"]

    def median_cycle(rs):
        return sum(t for t, _, _ in by_kind(rs).values())

    out["trace.overhead_frac"] = median_cycle(traced) / median_cycle(untraced) - 1.0
    # JSON has no infinity: a non-finite error reads as the largest double.
    return {k: (v if math.isfinite(v) else sys.float_info.max) for k, v in out.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work", default=None, help="working directory inside the checkout")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    lagssm = import_lagssm()
    cold_build(lagssm, *ops.KINDS[args.workload][0][2:])
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    work_root = Path(args.work)
    records, tracer, speed, wall = run_loop(
        lagssm, args.workload, args.seed, args.seconds, bool(args.trace), work_root
    )
    failures = defaultdict(list)
    for r in records:
        if not r.out.ok:
            failures[r.op.kind].append(r.out.reason)
    untraced = [r for r in records if not r.traced]
    result = {
        "attempted": len(records),
        "failed": sum(not r.out.ok for r in records),
        "silent_wrong": sum(r.out.exited_ok and not r.out.ok for r in records),
        "cycles": records[-1].cycle + 1,
        "wall_s": wall,
        "per_command": per_command_ms(untraced),
        # Raw wall times; the end-to-end metrics scale them by calibration.scale.
        "kinds": {k: {"n": sum(r.op.kind == k for r in untraced), "p50_ms": 1e3 * t,
                      "best_ms": 1e3 * min(r.out.seconds for r in untraced if r.op.kind == k)}
                  for k, (t, _, _) in sorted(by_kind(untraced).items())},
        "calibration": {"samples": len(speed), "median_ms": 1e3 * statistics.median(speed),
                        "scale": calibrate.scale(speed)},
        "failures": {k: {"count": len(v), "reason": v[0]} for k, v in sorted(failures.items())},
    }
    if args.trace:
        result["metrics"] = per_layer(lagssm, args.workload, records, tracer)
        spans_path = work_root.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    else:
        result["metrics"] = end_to_end(records, calibrate.scale(speed))
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
