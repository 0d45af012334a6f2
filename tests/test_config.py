"""Config values: one kind rule per field, the same for files, flags and
direct construction; README's config example and CLI synopsis stay true."""

import argparse
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagssm import (
    ArgumentError,
    QuadratureConfig,
    WarpSpec,
    frobenius_rel_diff,
    hippo_legs_reference,
    matrix_exp,
)
from lagssm.cli import build_parser, config_from_args, main
from lagssm.experiments import ExperimentConfig, SignalConfig

README = Path(__file__).parent.parent / "README.md"


def _real(v):
    return type(v) in (int, float) and math.isfinite(v)


def _reals(n=None):
    return lambda v: type(v) is tuple and n in (None, len(v)) and all(map(_real, v))


def _of(*types):
    return lambda v: type(v) in types


# What each field must hold once built, written out independently of the
# annotations the package reads.
KINDS = {
    ExperimentConfig: {
        "n_basis": _of(int),
        "delta": _real,
        "total_time": lambda v: v is None or _real(v),
        "warp": _of(WarpSpec),
        "input_model": _of(str),
        "signal": _of(SignalConfig),
        "output_dir": _of(str),
    },
    WarpSpec: {"rate": _real},
    SignalConfig: {
        "kind": _of(str),
        "sigma": _real,
        "rho": _real,
        "beta": _real,
        "x0": _reals(3),
        "burn_in": _of(int),
        "normalize": _of(bool),
        "freqs": _reals(),
        "amps": _reals(),
        "phases": _reals(),
        "csv_path": _of(str, type(None)),
    },
}

NUMBERS = st.integers(-3, 300) | st.integers() | st.floats()
VALUES = (
    st.booleans()
    | NUMBERS
    | st.sampled_from(["exponential", "zoh", "foh", "lorenz", "sine", "out", ""])
    | st.text(max_size=4)
    | st.none()
    | st.lists(NUMBERS | st.booleans() | st.text(max_size=2), max_size=4)
    | st.dictionaries(st.text("abxyz", min_size=1, max_size=3), st.integers(), max_size=2)
)


SECTIONS = {"warp": WarpSpec, "signal": SignalConfig}


def _section(cls):
    """A JSON object of some of cls's fields, each drawn from VALUES (or,
    for a nested section, from VALUES or that section's objects), and
    sometimes an unknown key."""
    optional = {
        name: VALUES | _section(SECTIONS[name]) if name in SECTIONS else VALUES
        for name in KINDS[cls]
    }
    optional["bogus"] = VALUES
    return st.fixed_dictionaries({}, optional=optional)


def _keys(raw):
    if isinstance(raw, dict):
        for key, value in raw.items():
            yield key
            yield from _keys(value)


def _assert_kinds(obj):
    for name, has_kind in KINDS[type(obj)].items():
        value = getattr(obj, name)
        assert has_kind(value), f"{type(obj).__name__}.{name} = {value!r}"
        if type(value) in KINDS:
            _assert_kinds(value)


@settings(max_examples=300, deadline=None)
@given(raw=VALUES | _section(ExperimentConfig))
def test_from_dict_gives_kinds_or_names_the_field(raw):
    """Every input either builds a config whose every field holds its kind,
    or raises ArgumentError naming a key it was given; nothing else."""
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ArgumentError as exc:
        named = [key for key in _keys(raw) if re.search(rf"\b{re.escape(key)}\b", str(exc))]
        assert named or "config must be a JSON object" in str(exc), str(exc)
    else:
        _assert_kinds(cfg)


NEWLY_CHECKED = [
    ({"warp": {"rate": True}}, "warp rate"),
    ({"quadrature": {"panels": True}}, "quadrature panels"),
    ({"quadrature": {"panels": 8.5}}, "quadrature panels"),
    ({"output_dir": 5}, "output_dir"),
    ({"output_dir": None}, "output_dir"),
    ({"delta": 10**400}, "delta"),
    ({"output_dir": ""}, "output_dir"),
]


@pytest.mark.parametrize(
    "raw, named",
    NEWLY_CHECKED,
    ids=[
        "rate-a-bool",
        "panels-a-bool",
        "panels-fractional",
        "output_dir-a-number",
        "output_dir-null",
        "delta-beyond-float-range",
        "output_dir-empty",
    ],
)
def test_newly_checked_value_is_an_error(tmp_path, monkeypatch, capsys, raw, named):
    """These values passed unchecked, or escaped as TypeError,
    OverflowError or FileNotFoundError, before.  QuadratureConfig is a
    library value with no config key, so it is checked directly."""
    section = next(iter(raw))
    if section in ("warp", "quadrature"):
        cls = {"warp": WarpSpec, "quadrature": QuadratureConfig}[section]
        with pytest.raises(ArgumentError, match=named):
            cls(**raw[section])
    if section == "quadrature":
        return
    monkeypatch.chdir(tmp_path)  # where output_dir's default "out" would land
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    code = main(["matrices", "--config", str(cfg_path), "--n", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize(
    "build, flags, named",
    [
        (lambda: SignalConfig(burn_in=-1), ["--burn-in=-1"],
         "signal burn_in must be a nonnegative integer, got -1"),
        (lambda: ExperimentConfig(delta=-0.1), ["--delta=-0.1"],
         "delta must be nonnegative and total_time positive"),
        (lambda: ExperimentConfig(total_time=0.0), ["--total-time", "0"],
         "delta must be nonnegative and total_time positive"),
        (lambda: ExperimentConfig(total_time=99.0, signal=SignalConfig(kind="csv", csv_path="s.csv")),
         ["--signal", "csv:s.csv", "--total-time", "99"],
         "total_time cannot be set with signal kind 'csv'"),
    ],
    ids=["negative-burn-in", "negative-delta", "zero-total-time", "total-time-beside-csv"],
)
def test_out_of_range_value_is_an_error(tmp_path, capsys, build, flags, named):
    """A value of the right kind but out of range is an ArgumentError when
    built directly, and exit 2 with nothing written through the CLI."""
    with pytest.raises(ArgumentError, match=re.escape(named)):
        build()
    out = tmp_path / "out"
    assert main(["reconstruct", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, flags, named",
    [
        ({"warp": 3}, ["--tau", "2"], "warp"),
        ({"n_basis": "8"}, ["--n", "3"], "n_basis"),
        ({"signal": {"x0": [1, 2]}}, ["--signal", "sine"], "x0"),
    ],
    ids=["warp-not-an-object", "n_basis-a-string", "x0-two-entries"],
)
def test_flags_do_not_mend_a_bad_file(tmp_path, capsys, content, flags, named):
    """A flag overrides a file value, but the file must be valid on its own."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(content))
    out = tmp_path / "out"
    code = main(["reconstruct", "--config", str(cfg_path), "--out", str(out), *flags])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_flags_write_over_file_values(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"warp": {"rate": 3.0}, "signal": {"kind": "csv", "csv_path": "x.csv"}})
    )
    args = build_parser().parse_args(
        ["reconstruct", "--config", str(cfg_path), "--signal", "sine",
         "--input-model", "foh", "--no-normalize"]
    )
    cfg = config_from_args(args)
    assert cfg.warp == WarpSpec(rate=3.0)
    assert (cfg.signal.kind, cfg.signal.csv_path, cfg.signal.normalize) == ("sine", None, False)
    assert cfg.input_model == "foh"


def _readme_block(heading, lang=""):
    text = README.read_text(encoding="utf-8")
    after = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def test_readme_config_example_loads():
    raw = json.loads(_readme_block("### Config file", "json"))
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.signal.x0 == (1, 1, 1)
    assert cfg == ExperimentConfig(signal=SignalConfig(sigma=10, rho=28, x0=(1, 1, 1)))


def test_readme_library_example_runs():
    """README's library example runs, gives its stated shape, and its
    transition is exp(delta a_hippo / tau) in coefficient orientation."""
    block = _readme_block("## Library example", "python")
    env = {}
    exec(block, env)
    stated = tuple(map(int, re.search(r"# \((\d+), (\d+)\)", block).groups()))
    assert env["states"].coeffs.shape == stated == (501, 32)
    a_hippo = hippo_legs_reference(32).a_hippo
    want = matrix_exp(env["delta"] * a_hippo / env["warp"].rate)
    assert frobenius_rel_diff(want, env["a"]) <= 1e-12


def test_short_total_time_names_total_time(tmp_path, capsys):
    """A total_time under half a step gives no samples; the error names the
    two values that cause it, not the derived step count."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"total_time": 0.001}))
    out = tmp_path / "out"
    code = main(["reconstruct", "--config", str(cfg_path), "--n", "8", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: total_time=0.001") and "delta=0.01" in err
    assert not (out / "recon.csv").exists()


def test_removed_warp_flag_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """The removed --warp, --quad-points and --quad-panels flags and the
    removed --input-model value are argparse usage errors that write
    nothing."""
    monkeypatch.chdir(tmp_path)  # where output_dir's default "out" would land
    for flags, message in [
        (["--warp", "exp"], "unrecognized arguments: --warp"),
        (["--quad-points", "64"], "unrecognized arguments: --quad-points"),
        (["--quad-panels", "8"], "unrecognized arguments: --quad-panels"),
        (["--input-model", "dirac"], "invalid choice: 'dirac'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["matrices", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_synopsis_lists_every_flag():
    """Each command's synopsis lines in README name exactly the flags of
    that command's own subparser."""
    documented = {}
    for line in _readme_block("## CLI").splitlines():
        if line.startswith("lagssm "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {
            opt
            for action in p._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        for name, p in sub.choices.items()
    }
    assert documented == parsed


# Each command flag with a value it parses, and the flags each command
# reads, written out apart from cli._FLAGS.
FLAG_VALUES = {
    "--config": ["cfg.json"],
    "--n": ["8"],
    "--delta": ["0.3"],
    "--total-time": ["3"],
    "--tau": ["2"],
    "--input-model": ["foh"],
    "--signal": ["sine"],
    "--burn-in": ["7"],
    "--normalize": [],
    "--out": ["out"],
    "--n-show": ["3"],
    "--direction": ["forward"],
}
READS = {
    "tables": {"--config", "--n", "--tau", "--out"},
    "lagshift": {"--config", "--n", "--delta", "--total-time", "--tau", "--out",
                 "--n-show", "--direction"},
    "matrices": {"--config", "--n", "--delta", "--tau", "--input-model", "--out"},
    "reconstruct": set(FLAG_VALUES) - {"--n-show", "--direction"},
}


@pytest.mark.parametrize("flag", list(FLAG_VALUES))
@pytest.mark.parametrize("command", list(READS))
def test_each_command_takes_only_the_flags_it_reads(tmp_path, monkeypatch, capsys, command, flag):
    """A flag the command reads parses; any other is argparse's usage
    error, exit 2, that names the flag and writes nothing."""
    argv = [command, flag, *FLAG_VALUES[flag]]
    if flag in READS[command]:
        assert build_parser().parse_args(argv).command == command
        return
    monkeypatch.chdir(tmp_path)  # where output_dir's default "out" would land
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
