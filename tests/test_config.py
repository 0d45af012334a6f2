"""Config values: one kind rule per field, the same for files, flags and
direct construction; README's config example and CLI synopsis stay true."""

import argparse
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagssm import (
    ArgumentError,
    QuadratureConfig,
    SignalTrace,
    WarpSpec,
    frobenius_rel_diff,
    hippo_legs_reference,
    matrix_exp,
)
from lagssm.cli import build_parser, config_from_args, main
from lagssm.experiments import CsvSignal, ExperimentConfig, LorenzSignal, SineSignal

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
        "signal": _of(LorenzSignal, SineSignal, CsvSignal),
        "output_dir": _of(str),
    },
    WarpSpec: {"rate": _real},
    LorenzSignal: {
        "sigma": _real,
        "rho": _real,
        "beta": _real,
        "x0": _reals(3),
        "burn_in": _of(int),
        "normalize": _of(bool),
    },
    SineSignal: {"freqs": _reals(), "amps": _reals(), "phases": _reals()},
    CsvSignal: {"csv_path": _of(str)},
}

# The value of signal.kind that picks each signal class; a section with no
# kind is Lorenz.
SIGNAL_KINDS = {"lorenz": LorenzSignal, "sine": SineSignal, "csv": CsvSignal}

NUMBERS = st.integers(-3, 300) | st.integers() | st.floats()
VALUES = (
    st.booleans()
    | NUMBERS
    | st.sampled_from(["exponential", "zoh", "foh", "lorenz", "sine", "csv", "out", ""])
    | st.text(max_size=4)
    | st.none()
    | st.lists(NUMBERS | st.booleans() | st.text(max_size=2), max_size=4)
    | st.dictionaries(st.text("abxyz", min_size=1, max_size=3), st.integers(), max_size=2)
)


SECTIONS = {"warp": (WarpSpec,), "signal": tuple(SIGNAL_KINDS.values())}


def _object(names, kind=None):
    """A JSON object of some of the names, each drawn from VALUES (or, for
    a nested section, from VALUES or that section's objects), sometimes an
    unknown key, and kind's draw under "kind" when given."""
    optional = {name: VALUES | _section(name) if name in SECTIONS else VALUES for name in names}
    optional["bogus"] = VALUES
    return st.fixed_dictionaries({} if kind is None else {"kind": kind}, optional=optional)


def _section(name):
    """An object for the section: for signal, the fields of one kind under
    that kind or, for Lorenz, none; or the fields of every kind under any
    kind."""
    classes = SECTIONS[name]
    if len(classes) == 1:
        return _object(KINDS[classes[0]])
    every = [field for cls in classes for field in KINDS[cls]]
    return st.one_of(
        *(_object(KINDS[cls], st.just(kind)) for kind, cls in SIGNAL_KINDS.items()),
        _object(KINDS[LorenzSignal]),
        _object(every, st.sampled_from(list(SIGNAL_KINDS)) | VALUES),
    )


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
@given(raw=VALUES | _object(KINDS[ExperimentConfig]))
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
        assert type(cfg.signal) is SIGNAL_KINDS[raw.get("signal", {}).get("kind", "lorenz")]


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
        (lambda: LorenzSignal(burn_in=-1), ["--burn-in=-1"],
         "signal burn_in must be a nonnegative integer, got -1"),
        (lambda: ExperimentConfig(delta=-0.1), ["--delta=-0.1"],
         "delta must be nonnegative and total_time positive"),
        (lambda: ExperimentConfig(total_time=0.0), ["--total-time", "0"],
         "delta must be nonnegative and total_time positive"),
        (lambda: ExperimentConfig(total_time=99.0, signal=CsvSignal(csv_path="s.csv")),
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
    """A flag writes over its own key; --signal writes only the kind, so the
    file's keys of that kind stay."""
    cfg_path = tmp_path / "cfg.json"
    for signal, flags, want in [
        ({"x0": [2, 1, 1]}, ["--signal", "lorenz", "--no-normalize", "--burn-in", "7"],
         LorenzSignal(x0=(2, 1, 1), burn_in=7, normalize=False)),
        ({"kind": "sine", "freqs": [2.0], "amps": [0.5], "phases": [0.0]}, ["--signal", "sine"],
         SineSignal(freqs=(2.0,), amps=(0.5,), phases=(0.0,))),
    ]:
        cfg_path.write_text(json.dumps({"warp": {"rate": 3.0}, "signal": signal}))
        args = build_parser().parse_args(
            ["reconstruct", "--config", str(cfg_path), "--input-model", "foh", *flags]
        )
        cfg = config_from_args(args)
        assert cfg.warp == WarpSpec(rate=3.0)
        assert cfg.signal == want
        assert cfg.input_model == "foh"


# A valid value of each signal field, to be set under a kind that lacks it.
SIGNAL_VALUES = {
    "sigma": 3.0, "rho": 28.0, "beta": 2.5, "x0": [1.0, 2.0, 3.0], "burn_in": 500,
    "normalize": False, "freqs": [3.0], "amps": [1.0], "phases": [0.0], "csv_path": "nowhere.csv",
}
OTHER_KIND_KEYS = [
    (kind, key)
    for kind, cls in SIGNAL_KINDS.items()
    for other in SIGNAL_KINDS.values() if other is not cls
    for key in KINDS[other]
]


def test_each_signal_kind_has_only_its_own_fields():
    """Lorenz 6, sine 3 and csv 1: ten (kind, field) pairs, and twenty keys
    of another kind that a section must refuse."""
    for kind, cls in SIGNAL_KINDS.items():
        assert cls.kind == kind
        assert [f.name for f in dataclasses.fields(cls)] == list(KINDS[cls])
    assert sum(len(KINDS[cls]) for cls in SIGNAL_KINDS.values()) == 10
    assert len(OTHER_KIND_KEYS) == 20


@pytest.mark.parametrize("kind, key", OTHER_KIND_KEYS, ids=[f"{k}-{f}" for k, f in OTHER_KIND_KEYS])
def test_key_of_another_signal_kind_is_an_error(tmp_path, capsys, kind, key):
    """A signal key that the section's kind does not read is the unknown-key
    error, built directly or through the CLI (exit 2, nothing written)."""
    signal = {"kind": kind, key: SIGNAL_VALUES[key]}
    if kind == "csv":
        signal["csv_path"] = "s.csv"
    with pytest.raises(ArgumentError, match=f"^unknown signal key {key!r}"):
        ExperimentConfig.from_dict({"signal": signal})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"signal": signal}))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown signal key {key!r}")
    assert not out.exists()


@pytest.mark.parametrize(
    "signal, flags, key",
    [
        ({"kind": "sine", "csv_path": "nowhere.csv", "burn_in": 500, "sigma": 3.0}, [],
         "csv_path"),
        ({"kind": "lorenz", "freqs": [3.0]}, [], "freqs"),
        (None, ["--signal", "sine", "--burn-in", "5"], "burn_in"),
        (None, ["--signal", "sine", "--normalize"], "normalize"),
        (None, ["--signal", "csv:F", "--no-normalize"], "normalize"),
        (None, ["--signal", "csv:F", "--burn-in", "0"], "burn_in"),
        ({"kind": "csv", "csv_path": "F"}, ["--signal", "sine"], "csv_path"),
    ],
    ids=["sine-with-csv-and-lorenz-keys", "lorenz-with-freqs", "sine-burn-in-flag",
         "sine-normalize-flag", "csv-no-normalize-flag", "csv-burn-in-flag",
         "sine-flag-over-csv-file"],
)
def test_signal_keys_the_kind_does_not_read_are_refused(tmp_path, monkeypatch, capsys,
                                                        signal, flags, key):
    """A signal key that the chosen kind does not read, from the file or
    from a flag beside --signal, is exit 2 naming the key, and nothing is
    written."""
    monkeypatch.chdir(tmp_path)
    SignalTrace(np.sin(0.01 * np.arange(300)), 0.01).to_csv(tmp_path / "F")
    argv = ["reconstruct", *flags, "--out", "out"]
    if signal is not None:
        (tmp_path / "cfg.json").write_text(json.dumps({"signal": signal}))
        argv += ["--config", "cfg.json"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown signal key {key!r}")
    assert not (tmp_path / "out").exists()


def _readme_block(heading, lang=""):
    text = README.read_text(encoding="utf-8")
    after = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def test_readme_config_example_loads():
    raw = json.loads(_readme_block("### Config file", "json"))
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.signal.x0 == (1, 1, 1)
    assert cfg == ExperimentConfig(signal=LorenzSignal(sigma=10, rho=28, x0=(1, 1, 1)))


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
