"""lagssm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload harness|sweep|stream --seed N \
        --seconds S --trace 0|1

Run from the root of a lagssm checkout; lagssm is imported from its `src`.
The workload runs in a fresh worker process with BLAS pinned to one thread,
as a closed loop with one caller. With --trace 0 the last line of output
carries the end-to-end metrics of BENCHMARK.json; with --trace 1 the
per-layer metrics from a traced run. The line before it is a provenance
and detail record. See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 5
WORKER_TIMEOUT_S = 150
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def probe_setup(workload: str, env: dict) -> float:
    """Seconds from starting a fresh process to the end of its first cold
    matrix build, on the system-wide monotonic clock."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--setup-only"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, detail) -> dict:
    import numpy as np

    import ops

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "wall_s": detail["wall_s"],
        "cycles": detail["cycles"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit() or "unknown (not a git checkout)",
        "tolerances": ops.TOLERANCES,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        return fail(f"{bench_file.name} not found; run from the root of a lagssm checkout")
    if not (ROOT / "src" / "lagssm" / "__init__.py").is_file():
        return fail("src/lagssm not found; run from the root of a lagssm checkout")
    bench = json.loads(bench_file.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, **PINNED_ENV)
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = [] if args.trace else [probe_setup(args.workload, env) for _ in range(SETUP_PROBES)]
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work", str(work)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        return fail(f"worker could not run: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        return fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    detail = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = detail.pop("metrics")
    if setups:
        # Not scaled by the calibration: on this work it made the spread worse.
        metrics["setup_s"] = statistics.median(setups)
        detail["setup_s_raw"] = setups
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        return fail(f"metric names differ from {bench_file.name}: {sorted(missing)}")

    print(json.dumps({"provenance": provenance(args, detail), "detail": detail}))
    print(json.dumps({
        # Every op of a workload is one lagssm gets right at the seed commit,
        # so an op that raised, exited nonzero or missed a check is wrong.
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
