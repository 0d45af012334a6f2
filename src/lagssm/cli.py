"""Command-line harness: lagssm tables|reconstruct|lagshift|matrices."""

from __future__ import annotations

import argparse
import functools
import sys

from ._schema import read_json
from .errors import LagssmError
from .experiments import (
    ExperimentConfig,
    cmd_lagshift,
    cmd_matrices,
    cmd_reconstruct,
    cmd_tables,
)

# Each common flag, the config key path it writes, and its argparse options.
# --signal writes a dict of signal keys (see _signal_keys).
_FLAGS = (
    ("--n", ("n_basis",), dict(type=int, help="basis size")),
    ("--delta", ("delta",), dict(type=float, help="time step")),
    ("--total-time", ("total_time",), dict(type=float, help="signal duration")),
    ("--tau", ("warp", "rate"), dict(type=float, help="warp rate")),
    ("--input-model", ("input_model",), dict(choices=["zoh", "foh"], help="hold model")),
    ("--signal", ("signal",),
     dict(metavar="lorenz|sine|csv:PATH", help="input signal for the reconstruction command")),
    ("--burn-in", ("signal", "burn_in"), dict(type=int, help="Lorenz burn-in steps")),
    ("--normalize", ("signal", "normalize"),
     dict(action=argparse.BooleanOptionalAction,
          help="affinely normalize the Lorenz trace (zero mean, unit max-abs)")),
    ("--out", ("output_dir",), dict(metavar="DIR", help="output directory")),
)


def _signal_keys(value: str) -> dict:
    """--signal lorenz|sine|csv:PATH as keys of the signal section."""
    if value in ("lorenz", "sine"):
        return {"kind": value, "csv_path": None}
    if value.startswith("csv:"):
        return {"kind": "csv", "csv_path": value[len("csv:"):]}
    raise LagssmError(f"unknown signal {value!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    for flag, _, options in _FLAGS:
        parser.add_argument(flag, **options)


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
    """The config file's JSON with every given flag written over it, built
    and checked by ExperimentConfig.from_dict like a file alone."""
    raw = {}
    if args.config:
        raw = read_json(args.config)
        ExperimentConfig.from_dict(raw)  # the file must be valid on its own
    for flag, path, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            _write(raw, path, _signal_keys(value) if flag == "--signal" else value)
    return ExperimentConfig.from_dict(raw)


def _write(raw: dict, path: tuple, value) -> None:
    """Write value at path in raw (a file that passed from_dict), a dict
    value key by key."""
    if isinstance(value, dict):
        for key, item in value.items():
            _write(raw, path + (key,), item)
        return
    *sections, key = path
    for name in sections:
        raw = raw.setdefault(name, {})
    raw[key] = value


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
