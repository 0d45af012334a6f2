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
from .matrices import INPUT_MODELS

# Each command's cmd_* function and help text.
_COMMANDS = {
    "tables": (cmd_tables, "matrix-equivalence sweeps (table1/2/3.csv)"),
    "reconstruct": (cmd_reconstruct, "compare exact and reference recurrences (recon.csv)"),
    "lagshift": (cmd_lagshift, "shift one basis function (lagshift.csv)"),
    "matrices": (cmd_matrices, "dump all matrices (matrices.json)"),
}
_ALL = tuple(_COMMANDS)


def _signal_keys(value: str) -> dict:
    """--signal csv:PATH or KIND as keys of the signal section."""
    if value.startswith("csv:"):
        return {"kind": "csv", "csv_path": value[len("csv:"):]}
    return {"kind": value}


# Each flag, the config key path it writes (None for a flag that sets no
# key), the commands that read it, and its argparse options.  A command has
# only the flags it reads, so any other is argparse's "unrecognized arguments".
_FLAGS = (
    ("--config", None, _ALL, dict(metavar="PATH", help="JSON config file")),
    ("--n", ("n_basis",), _ALL, dict(type=int, help="basis size")),
    ("--delta", ("delta",), ("reconstruct", "lagshift", "matrices"),
     dict(type=float, help="time step")),
    ("--total-time", ("total_time",), ("reconstruct", "lagshift"),
     dict(type=float, help="signal duration")),
    ("--tau", ("warp", "rate"), _ALL, dict(type=float, help="warp rate")),
    ("--input-model", ("input_model",), ("reconstruct", "matrices"),
     dict(choices=INPUT_MODELS, help="hold model")),
    ("--signal", ("signal",), ("reconstruct",),
     dict(type=_signal_keys, metavar="lorenz|sine|csv:PATH", help="input signal")),
    ("--burn-in", ("signal", "burn_in"), ("reconstruct",),
     dict(type=int, help="Lorenz burn-in steps")),
    ("--normalize", ("signal", "normalize"), ("reconstruct",),
     dict(action=argparse.BooleanOptionalAction,
          help="affinely normalize the Lorenz trace (zero mean, unit max-abs)")),
    ("--out", ("output_dir",), _ALL, dict(metavar="DIR", help="output directory")),
    ("--n-show", None, ("lagshift",), dict(type=int, help="basis index to shift")),
    ("--direction", None, ("lagshift",),
     dict(choices=["forward", "backward"], default="backward", help="shift direction")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagssm",
        description="Build warped-basis state-space matrices and run the "
        "validation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, _, commands, options in _FLAGS:
            if name in commands:
                p.add_argument(flag, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main call and reused after it."""
    return build_parser()


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's JSON with every given flag written over it, built
    and checked by ExperimentConfig.from_dict like a file alone.  A flag
    the command does not take is absent from args and reads as unset."""
    raw = {}
    if args.config:
        raw = read_json(args.config)
        ExperimentConfig.from_dict(raw)  # the file must be valid on its own
    for flag, path, _, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if path is not None and value is not None:
            _write(raw, path, value)
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
        command, _ = _COMMANDS[args.command]
        if args.command == "lagshift":
            command = functools.partial(command, n_show=args.n_show, direction=args.direction)
        checks = command(cfg)
    except LagssmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in checks:
        print(check.line())
    return 0 if all(c.ok for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
