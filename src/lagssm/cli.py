"""Command-line harness: lagssm tables|reconstruct|lagshift|matrices."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .errors import LagssmError
from .experiments import (
    ExperimentConfig,
    cmd_lagshift,
    cmd_matrices,
    cmd_reconstruct,
    cmd_tables,
)
from .quadrature import QuadratureConfig
from .warp import WarpSpec

_WARP_FAMILIES = {"exp": "exponential", "exponential": "exponential"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--n", type=int, help="basis size")
    parser.add_argument("--delta", type=float, help="time step")
    parser.add_argument("--total-time", type=float, help="signal duration")
    parser.add_argument("--warp", choices=sorted(_WARP_FAMILIES), help="warp family")
    parser.add_argument("--tau", type=float, help="warp rate")
    parser.add_argument(
        "--input-model", choices=["dirac", "zoh", "foh"], help="hold model"
    )
    parser.add_argument("--quad-points", type=int, help="quadrature points per panel")
    parser.add_argument("--quad-panels", type=int, help="quadrature panel count")
    parser.add_argument(
        "--signal",
        metavar="lorenz|sine|csv:PATH",
        help="input signal for the reconstruction command",
    )
    parser.add_argument("--burn-in", type=int, help="Lorenz burn-in steps")
    parser.add_argument(
        "--normalize",
        dest="normalize",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="affinely normalize the Lorenz trace (zero mean, unit max-abs)",
    )
    parser.add_argument("--out", metavar="DIR", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagssm",
        description="Build warped-basis state-space matrices and run the "
        "validation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("tables", "matrix-equivalence sweeps (table1/2/3.csv)"),
        ("reconstruct", "compare exact and reference recurrences (recon.csv)"),
        ("lagshift", "shift one basis function (lagshift.csv)"),
        ("matrices", "dump all matrices (matrices.json)"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "lagshift":
            p.add_argument("--n-show", type=int, help="basis index to shift")
            p.add_argument(
                "--direction",
                choices=["forward", "backward"],
                default="backward",
                help="shift direction",
            )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main call and reused after it."""
    return build_parser()


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = (
        ExperimentConfig.from_json(args.config)
        if args.config
        else ExperimentConfig()
    )
    updates = {}
    if args.n is not None:
        updates["n_basis"] = args.n
    if args.delta is not None:
        updates["delta"] = args.delta
    if args.total_time is not None:
        updates["total_time"] = args.total_time
    if args.warp is not None or args.tau is not None:
        family = _WARP_FAMILIES[args.warp] if args.warp else cfg.warp.family
        rate = args.tau if args.tau is not None else cfg.warp.rate
        updates["warp"] = WarpSpec(family=family, rate=rate)
    if args.input_model is not None:
        updates["input_model"] = args.input_model
    if args.quad_points is not None or args.quad_panels is not None:
        updates["quadrature"] = QuadratureConfig(
            points_per_panel=args.quad_points
            if args.quad_points is not None
            else cfg.quadrature.points_per_panel,
            panels=args.quad_panels
            if args.quad_panels is not None
            else cfg.quadrature.panels,
        )
    signal = cfg.signal
    if args.signal is not None:
        if args.signal == "lorenz":
            signal = dataclasses.replace(signal, kind="lorenz", csv_path=None)
        elif args.signal == "sine":
            signal = dataclasses.replace(signal, kind="sine", csv_path=None)
        elif args.signal.startswith("csv:"):
            signal = dataclasses.replace(
                signal, kind="csv", csv_path=args.signal[len("csv:"):]
            )
        else:
            raise LagssmError(f"unknown signal {args.signal!r}")
    if args.burn_in is not None:
        signal = dataclasses.replace(signal, burn_in=args.burn_in)
    if args.normalize is not None:
        signal = dataclasses.replace(signal, normalize=args.normalize)
    if signal is not cfg.signal:
        updates["signal"] = signal
    if args.out is not None:
        updates["output_dir"] = args.out
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "tables":
            checks = cmd_tables(cfg)
        elif args.command == "reconstruct":
            checks = cmd_reconstruct(cfg)
        elif args.command == "lagshift":
            checks = cmd_lagshift(cfg, n_show=args.n_show, direction=args.direction)
        else:
            checks = cmd_matrices(cfg)
    except LagssmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in checks:
        print(check.line())
    return 0 if all(c.ok for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
