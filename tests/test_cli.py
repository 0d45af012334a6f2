"""Command-line harness: outputs, self-checks, determinism, golden files."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lagssm import (
    BasisSpec,
    SignalTrace,
    WarpSpec,
    bilinear_discretize,
    build_a_gen,
    frobenius_rel_diff,
    hippo_legs_reference,
    lag_matrix,
    matrix_exp,
)
from lagssm.cli import main
from lagssm.errors import ArgumentError
from lagssm.experiments import (
    TABLE2_SIZES,
    TABLE_DELTAS,
    ExperimentConfig,
    SignalConfig,
    cmd_lagshift,
    cmd_reconstruct,
    cmd_tables,
)

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).parent.parent / "src"


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[float(x) for x in row] for row in body]


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def tables_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    code = main(["tables", "--out", str(out)])
    assert code == 0
    return out


class TestTables:
    def test_table2_identity_level(self, tables_dir):
        _, rows = read_table(tables_dir / "table2.csv")
        assert [int(r[0]) for r in rows] == [10, 30, 50]
        assert all(r[1] <= 1e-10 for r in rows)

    def test_table1_small_step(self, tables_dir):
        _, rows = read_table(tables_dir / "table1.csv")
        by_delta = {r[0]: r[1] for r in rows}
        assert by_delta[1e-2] <= 1e-7

    def test_table3_trend(self, tables_dir):
        header, rows = read_table(tables_dir / "table3.csv")
        assert header == ["delta", "diff", "diff_exact_exp", "cond_a_delta"]
        diffs = [r[1] for r in rows]
        assert all(a < b for a, b in zip(diffs, diffs[1:]))
        assert 2e-5 <= diffs[0] <= 2e-4

    def test_reruns_are_byte_identical(self, tables_dir, tmp_path):
        assert main(["tables", "--out", str(tmp_path)]) == 0
        for name in ("table1.csv", "table2.csv", "table3.csv"):
            assert sha256_of(tmp_path / name) == sha256_of(tables_dir / name)

    def test_large_entries_give_finite_table1(self, tmp_path, capsys):
        """At N=256, tau=0.1 the delta=0.1 matrices hold entries whose squares
        overflow; the figure is still finite and passes, with no warning
        (pytest turns a RuntimeWarning into an error)."""
        main(["tables", "--n", "256", "--tau", "0.1", "--out", str(tmp_path)])
        assert "PASS table1 delta=0.1:" in capsys.readouterr().out
        _, rows = read_table(tmp_path / "table1.csv")
        assert rows[-1][0] == 0.1 and rows[-1][1] <= 1e-10


class TestTablesStackedPass:
    """tables builds its matrices in stacked calls from one a_gen; every
    figure it writes equals the one from separate scalar builds, exactly."""

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    @pytest.mark.parametrize("n", [32, 64])  # at N=32 table2 needs a_gen at 50 > N
    def test_figures_equal_scalar_builds(self, tmp_path, n, tau):
        main(["tables", "--n", str(n), "--tau", str(tau), "--out", str(tmp_path)])
        spec, warp = BasisSpec(n_basis=n), WarpSpec(rate=tau)
        a_gen = build_a_gen(spec, warp)
        ref = hippo_legs_reference(n)
        expect1, expect3 = [], []
        for d in TABLE_DELTAS:
            a_d = lag_matrix(spec, warp.f(d))
            expect1.append([d, frobenius_rel_diff(a_d, matrix_exp(d * a_gen))])
            c = warp.f(-d)
            corrected_t = (c * lag_matrix(spec, c)).T
            a_bar, _ = bilinear_discretize(ref.a_hippo / tau, ref.b_hippo / tau, d)
            expect3.append(
                [
                    d,
                    frobenius_rel_diff(corrected_t, a_bar),
                    frobenius_rel_diff(corrected_t, matrix_exp(d * ref.a_hippo / tau)),
                    float(np.linalg.cond(a_d)),
                ]
            )
        expect2 = []
        for m in TABLE2_SIZES:
            a_gen_m = build_a_gen(BasisSpec(n_basis=m), warp)
            a_m = hippo_legs_reference(m).a_hippo / tau
            expect2.append([m, frobenius_rel_diff(a_m, -(a_gen_m + np.eye(m) / tau).T)])
        assert read_table(tmp_path / "table1.csv")[1] == expect1
        assert read_table(tmp_path / "table2.csv")[1] == expect2
        assert read_table(tmp_path / "table3.csv")[1] == expect3

    def test_rate_two_identities_pass(self, tmp_path):
        checks = cmd_tables(ExperimentConfig(warp=WarpSpec(rate=2.0), output_dir=str(tmp_path)))
        assert all(c.ok for c in checks), [c.line() for c in checks if not c.ok]
        _, rows = read_table(tmp_path / "table3.csv")
        assert all(r[2] <= 1e-12 for r in rows)

    @pytest.mark.parametrize(
        "flags",
        [["--n", "1"], ["--n", "128"], ["--n", "256"], ["--tau", "2"],
         ["--n", "256", "--tau", "0.1"]],
    )
    def test_right_tables_pass_away_from_the_default(self, tmp_path, capsys, flags):
        """table3 checks the transition against its closed form, not the
        Tustin gap, which grows with N: right matrices pass at every N, tau."""
        assert main(["tables", "--out", str(tmp_path), *flags]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS table3 delta=") == len(TABLE_DELTAS)

    def test_rate_one_form_at_rate_two_fails_table3(self, tmp_path, monkeypatch):
        """A transition built with the tau=1 form c = exp(-delta) against the
        rate-2 closed form reads at least 5e-5, so each table3 delta check
        fails."""
        monkeypatch.setattr(WarpSpec, "f", lambda self, x: np.exp(x))
        checks = cmd_tables(ExperimentConfig(warp=WarpSpec(rate=2.0), output_dir=str(tmp_path)))
        table3 = [c for c in checks if c.name.startswith("table3 delta=")]
        assert len(table3) == len(TABLE_DELTAS)
        assert not any(c.ok for c in table3), [c.line() for c in table3]

    def test_reconstruct_at_rate_two(self, tmp_path):
        assert main(["reconstruct", "--tau", "2", "--out", str(tmp_path)]) == 0


class TestReconstruct:
    def test_default_lorenz_run(self, tmp_path):
        code = main(["reconstruct", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mse"] <= 1e-5
        header, rows = read_table(tmp_path / "recon.csv")
        assert header == ["s", "u_model", "u_baseline", "omega"]
        assert len(rows) == 1000

    def test_zero_signal(self, tmp_path):
        cfg = ExperimentConfig(
            signal=SignalConfig(kind="sine", freqs=(1.0,), amps=(0.0,), phases=(0.0,)),
            output_dir=str(tmp_path),
        )
        checks = cmd_reconstruct(cfg)
        assert checks[0].ok
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mse"] == 0.0
        _, rows = read_table(tmp_path / "recon.csv")
        assert all(r[1] == 0.0 and r[2] == 0.0 for r in rows)

    def test_sine_near_boundary_agreement(self, tmp_path):
        """Exact and reference recurrences agree over the last second to
        within 5% of the signal amplitude."""
        cfg = ExperimentConfig(
            signal=SignalConfig(kind="sine", freqs=(0.5,), amps=(1.0,), phases=(0.0,)),
            output_dir=str(tmp_path),
        )
        checks = cmd_reconstruct(cfg)
        assert checks[0].ok
        _, rows = read_table(tmp_path / "recon.csv")
        recent = [r for r in rows if r[0] >= 9.0]
        worst = max(abs(r[1] - r[2]) for r in recent)
        assert worst <= 0.05 * 1.0

    def test_csv_signal_round_trip(self, tmp_path):
        trace_path = tmp_path / "sig.csv"
        values = np.sin(2 * np.pi * 0.5 * 0.01 * np.arange(300))
        SignalTrace(values, delta=0.01).to_csv(trace_path)
        code = main(
            [
                "reconstruct",
                "--out",
                str(tmp_path),
                "--signal",
                f"csv:{trace_path}",
                "--total-time",
                "3.0",
            ]
        )
        assert code == 0

    def test_csv_signal_total_time_is_its_span(self, tmp_path):
        """summary.json's total_time is the trace's span L * delta: 3.0 for
        a 300-sample file at delta = 0.01, not the config's 10.0; the
        default Lorenz point still reads 10.0, and a generated signal of
        round(1 / 0.003) = 333 samples reads 333 * 0.003 = 0.999."""
        path = tmp_path / "sig.csv"
        SignalTrace(np.sin(0.01 * np.arange(300)), delta=0.01).to_csv(path)
        assert main(["reconstruct", "--out", str(tmp_path / "csv"), "--signal", f"csv:{path}"]) == 0
        assert main(["reconstruct", "--out", str(tmp_path / "lorenz")]) == 0
        sine = ["--signal", "sine", "--n", "8", "--total-time", "1", "--delta", "0.003"]
        assert main(["reconstruct", "--out", str(tmp_path / "sine"), *sine]) == 0
        for out, total in (("csv", 3.0), ("lorenz", 10.0), ("sine", 0.999)):
            summary = json.loads((tmp_path / out / "summary.json").read_text())
            assert summary["total_time"] == total

    def test_csv_signal_from_t0(self, tmp_path):
        """A file whose times start at t0 = 5 gives the t0 = 0 file's
        recon.csv, with s running over the file's own span [5, 8]."""
        values = np.sin(2 * np.pi * 0.5 * 0.01 * np.arange(300))
        tables = {}
        for t0 in (0.0, 5.0):
            path = tmp_path / f"sig{t0}.csv"
            SignalTrace(values, 0.01, t0=t0).to_csv(path)
            out = tmp_path / f"out{t0}"
            assert main(["reconstruct", "--out", str(out), "--signal", f"csv:{path}"]) == 0
            tables[t0] = np.array(read_table(out / "recon.csv")[1])
        assert tables[5.0][[0, -1], 0].tolist() == [5.0, 8.0]
        assert tables[5.0][:, 1:].tobytes() == tables[0.0][:, 1:].tobytes()

    def test_csv_spacing_must_match_delta(self, tmp_path, capsys):
        """A late file (t0 = 1e4) matches its own delta; a delta off by more
        than its times resolve is refused."""
        path = tmp_path / "late.csv"
        SignalTrace(np.sin(0.01 * np.arange(300)), 0.01, t0=1e4).to_csv(path)
        argv = ["reconstruct", "--signal", f"csv:{path}"]
        assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
        assert main([*argv, "--delta", "0.0100001", "--out", str(tmp_path / "off")]) == 2
        assert "does not match configured delta 0.0100001" in capsys.readouterr().err

    def test_long_sine_runs(self, tmp_path):
        """10^6 samples: the times pass t = 8192, where their float spacing
        exceeds 1e-12."""
        assert main(["reconstruct", "--signal", "sine", "--total-time", "10000", "--out", str(tmp_path)]) == 0
        assert read_table(tmp_path / "recon.csv")[1][-1][0] == 10000.0

    def test_foh_input_model_is_used(self, tmp_path):
        """--input-model foh drives the model recurrence with the FOH pair:
        the check still passes and the model column differs from zoh's."""
        zoh_dir, foh_dir = tmp_path / "zoh", tmp_path / "foh"
        assert main(["reconstruct", "--out", str(zoh_dir)]) == 0
        assert main(["reconstruct", "--out", str(foh_dir), "--input-model", "foh"]) == 0
        assert json.loads((foh_dir / "summary.json").read_text())["mse"] <= 1e-5
        assert sha256_of(foh_dir / "recon.csv") != sha256_of(zoh_dir / "recon.csv")
        _, zoh_rows = read_table(zoh_dir / "recon.csv")
        _, foh_rows = read_table(foh_dir / "recon.csv")
        assert [r[2] for r in foh_rows] == [r[2] for r in zoh_rows]  # same baseline


class TestLagshift:
    def test_identity_at_zero_delta(self, tmp_path):
        cfg = ExperimentConfig(delta=0.0, output_dir=str(tmp_path))
        checks = cmd_lagshift(cfg, n_show=17, direction="forward")
        assert checks[0].ok
        _, rows = read_table(tmp_path / "lagshift.csv")
        worst = max(abs(r[1] - r[2]) for r in rows)
        assert worst <= 1e-9

    def test_forward_amplitude_below_backward(self, tmp_path):
        """The forward-shifted top mode shrinks, the backward-shifted one
        grows."""
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        cmd_lagshift(cfg, n_show=63, direction="forward")
        _, fwd_rows = read_table(tmp_path / "lagshift.csv")
        cmd_lagshift(cfg, n_show=63, direction="backward")
        _, back_rows = read_table(tmp_path / "lagshift.csv")
        fwd_max = max(abs(r[2]) for r in fwd_rows)
        back_max = max(abs(r[2]) for r in back_rows)
        assert fwd_max < back_max

    def test_golden_file(self, tmp_path):
        """Default backward shift of the top mode matches the committed run."""
        code = main(["lagshift", "--out", str(tmp_path)])
        assert code == 0
        assert sha256_of(tmp_path / "lagshift.csv") == sha256_of(
            DATA_DIR / "lagshift_golden.csv"
        )

    def test_bad_index(self, tmp_path):
        code = main(["lagshift", "--out", str(tmp_path), "--n-show", "64"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, code, verdict",
        [
            ([], 0, "PASS"),
            (["--tau", "2"], 0, "PASS"),
            (["--n", "128", "--tau", "2"], 0, "PASS"),
            (["--delta", "0"], 0, "PASS"),
            (["--n", "128"], 1, "FAIL"),
            (["--n", "256"], 1, "FAIL"),
            (["--delta", "0.1"], 1, "FAIL"),
        ],
        ids=["default", "tau2", "n128-tau2", "delta0", "n128", "n256", "delta0.1"],
    )
    def test_backward_row_checked_against_exact_shift(self, tmp_path, capsys, flags, code, verdict):
        """The rule-built backward row passes only where it meets the exact
        e^{delta/tau} M(e^{delta/tau}) row to 1e-7; elsewhere its curve is
        finite, which the first check alone let through."""
        assert main(["lagshift", "--out", str(tmp_path), *flags]) == code
        first, second = capsys.readouterr().out.splitlines()
        assert first.startswith("PASS lagshift n=") and first.split(":")[0].endswith("backward")
        assert second.startswith(f"{verdict} lagshift n=") and "backward vs exact shift" in second
        err = float(re.search(r"row err=(\S+)", second).group(1))
        assert (err <= 1e-7) == (verdict == "PASS")
        assert (tmp_path / "lagshift.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--tau", "0.05", "--delta", "0.5"], ["--n", "256", "--tau", "0.01", "--delta", "0.5"]],
        ids=["n64-tau0.05", "n256-tau0.01"],
    )
    def test_step_over_cap_in_delta_over_tau_is_refused(self, tmp_path, capsys, flags):
        """The cap bounds delta / tau: a step within 0.5 but far past it in
        delta / tau exits 2 with the cap error before the basis is evaluated
        at exp(delta / tau) z (which overflowed with a bare RuntimeWarning),
        and writes nothing."""
        out = tmp_path / "out"
        assert main(["lagshift", "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: delta/tau=") and "exceeds the cap 0.5" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_forward_has_no_exact_shift_check(self, tmp_path, capsys):
        """The forward shift is the exact lag matrix itself."""
        assert main(["lagshift", "--out", str(tmp_path), "--direction", "forward"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS lagshift n=63 forward: max|shifted|=5.942e+00"
        ]


class TestMatricesCommand:
    def test_small_dump_contents(self, tmp_path):
        from lagssm.matrices import load_matrices_json

        code = main(["matrices", "--out", str(tmp_path), "--n", "2"])
        assert code == 0
        arrays, meta = load_matrices_json(tmp_path / "matrices.json")
        np.testing.assert_allclose(
            arrays["a_hippo"], [[-1.0, 0.0], [-np.sqrt(3.0), -2.0]], atol=1e-15
        )
        assert "b_delta_foh_v_next" in arrays
        assert "b_delta_foh_v_prev" in arrays
        assert meta["n_basis"] == 2
        assert sorted(meta) == [
            "delta", "input_model", "n_basis", "quad_panels", "quad_points", "tau"
        ]

    def test_round_trip_bit_identical(self, tmp_path):
        from lagssm.matrices import load_matrices_json
        from lagssm import BasisSpec, lag_matrix

        assert main(["matrices", "--out", str(tmp_path), "--n", "12"]) == 0
        arrays, _ = load_matrices_json(tmp_path / "matrices.json")
        rebuilt = lag_matrix(BasisSpec(n_basis=12), np.exp(0.01))
        np.testing.assert_array_equal(arrays["a_delta"], rebuilt)

    def test_key_list(self, tmp_path):
        """Each array once: the impulse-input vector is b_gen."""
        from lagssm.matrices import load_matrices_json

        assert main(["matrices", "--out", str(tmp_path), "--n", "3"]) == 0
        arrays, _ = load_matrices_json(tmp_path / "matrices.json")
        assert sorted(arrays) == [
            "a_corrected", "a_delta", "a_gen", "a_hippo", "b_delta_foh_v_next",
            "b_delta_foh_v_prev", "b_delta_zoh", "b_gen", "b_hippo",
        ]

    def test_file_has_json_dump_layout(self, tmp_path):
        """The streamed file is laid out as json.dump(..., indent=1) would."""
        assert main(["matrices", "--out", str(tmp_path), "--n", "5"]) == 0
        text = (tmp_path / "matrices.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1) + "\n"


class TestRefusedCommands:
    """A command that exits 2 writes nothing, not even its --out directory."""

    @pytest.mark.parametrize(
        "argv, named",
        [(["reconstruct", "--n", "8", "--total-time", "0.001"], "total_time=0.001"),
         (["matrices", "--n", "8", "--delta", "0"], "delta must be positive"),
         (["tables", "--n", "256", "--tau", "0.01"], "lag matrix overflows"),
         # M(c) overflows long before c leaves float range; the error names
         # the step's delta/tau, which the user set, not only the internal c.
         (["tables", "--n", "256", "--tau", "0.01"], "(delta/tau=10)"),
         (["matrices", "--n", "256", "--delta", "0.5", "--tau", "0.01"], "(delta/tau=50)"),
         # --delta is the Lorenz signal's sample spacing; the error says so.
         (["reconstruct", "--delta", "0.05"],
          "sample spacing delta must be in (0, MAX_LORENZ_DT=0.02], got 0.05")],
    )
    def test_refused_input_makes_no_directory(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["reconstruct", "--signal", "sine", "--delta", "800"], "exp(-800) is 0.0"),
            (["lagshift", "--direction", "forward", "--delta", "800"], "exp(-800) is 0.0"),
            (["matrices", "--delta", "720"], "exp(720) is inf"),
            (["tables", "--tau", "0.0001"], "exp(1000) is inf"),
        ],
        ids=["reconstruct", "lagshift", "matrices", "tables"],
    )
    def test_step_out_of_float_range_is_named(self, tmp_path, capsys, argv, shown):
        """A step whose exponential leaves float range names delta/tau, with
        no RuntimeWarning (pytest makes one an error), and writes nothing."""
        out = tmp_path / "out"
        assert main([*argv, "--total-time", "2000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: delta/tau=") and shown in err
        assert "RuntimeWarning" not in err
        assert not out.exists()


class TestParserReuse:
    def test_no_option_leaks_between_calls(self, tmp_path, capsys):
        """main reuses one parser: a run of calls in one process writes
        what each command writes when run alone in a fresh process."""
        commands = [
            ["lagshift", "--direction", "forward"],
            ["lagshift"],
            ["reconstruct", "--no-normalize"],
            ["reconstruct"],
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        for i, argv in enumerate(commands):
            inproc, fresh = tmp_path / f"in{i}", tmp_path / f"fresh{i}"
            code = main(argv + ["--out", str(inproc)])
            stdout = capsys.readouterr().out
            alone = subprocess.run(
                [sys.executable, "-m", "lagssm.cli", *argv, "--out", str(fresh)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert (code, stdout) == (alone.returncode, alone.stdout), argv
            names = sorted(p.name for p in fresh.iterdir())
            assert names == sorted(p.name for p in inproc.iterdir())
            for name in names:
                assert sha256_of(inproc / name) == sha256_of(fresh / name), (argv, name)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "n_basis": 16,
                    "delta": 0.02,
                    "signal": {"kind": "sine", "freqs": [0.5], "amps": [1.0], "phases": [0.0]},
                }
            )
        )
        loaded = ExperimentConfig.from_json(cfg_path)
        assert loaded.n_basis == 16
        assert loaded.signal.kind == "sine"
        code = main(
            ["matrices", "--config", str(cfg_path), "--n", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        from lagssm.matrices import load_matrices_json

        _, meta = load_matrices_json(tmp_path / "matrices.json")
        assert meta["n_basis"] == 3  # flag wins over file
        assert meta["delta"] == 0.02  # file survives where no flag given

    def test_unknown_signal_is_an_error(self, tmp_path):
        assert main(["reconstruct", "--out", str(tmp_path), "--signal", "sawtooth"]) == 2

    @pytest.mark.parametrize("command", ["tables", "reconstruct", "lagshift", "matrices"])
    @pytest.mark.parametrize(
        "signal, named",
        [({"kind": "bogus"}, "unknown signal kind 'bogus'"), ({"kind": "csv"}, "csv_path")],
        ids=["unknown-kind", "csv-without-path"],
    )
    def test_bad_signal_kind_is_an_error_before_output(
        self, tmp_path, capsys, command, signal, named
    ):
        """Every command rejects the signal section when the config is built,
        before it makes the output directory."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"signal": signal}))
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg_path), "--out", str(out), "--n", "4"])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tables", "reconstruct", "lagshift", "matrices"])
    def test_dirac_input_model_is_an_error(self, tmp_path, capsys, command):
        """input_model takes the sampled-input hold models only; the
        impulse-input vector, with no factor of delta, is build_b_gen."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input_model": "dirac"}))
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg_path), "--out", str(out), "--n", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown input_model 'dirac'") and "'foh'" in err
        assert not out.exists()

    def test_tau_flag(self, tmp_path):
        from lagssm.matrices import load_matrices_json

        assert (
            main(["matrices", "--out", str(tmp_path), "--n", "4", "--tau", "2.0"]) == 0
        )
        arrays, meta = load_matrices_json(tmp_path / "matrices.json")
        assert meta["tau"] == 2.0
        np.testing.assert_allclose(arrays["b_gen"], np.sqrt(2 * np.arange(4) + 1) / 2.0)

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"nbasis": 8}, "nbasis"),
            ({"warp": {"tau": 3}}, "tau"),
            ({"quadrature": {"points_per_panel": 64, "panels": 8}}, "quadrature"),
            ({"signal": {"kindd": 1}}, "kindd"),
            ({"warp": {"family": "exponential"}}, "family"),
        ],
    )
    def test_unknown_key_is_an_error(self, tmp_path, capsys, raw, key):
        with pytest.raises(ArgumentError, match=repr(key)):
            ExperimentConfig.from_dict(raw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = main(["matrices", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unknown")
        assert not (tmp_path / "matrices.json").exists()

    @pytest.mark.parametrize(
        "content, named",
        [
            ('{"n_basis": 8,', "cfg.json"),
            (None, "cfg.json"),
            ('{"signal": {"x0": 5}}', "signal"),
            ('{"n_basis": "8"}', "n_basis"),
            ('{"signal": {"x0": "abc"}}', "x0"),
            ('{"signal": {"x0": [1, 2]}}', "x0"),
            ('{"signal": {"kind": "sine", "freqs": ["a"]}}', "freqs"),
            ('{"signal": {"sigma": "10"}}', "sigma"),
            ('{"signal": {"beta": NaN}}', "beta"),
            ('{"signal": {"rho": true}}', "rho"),
            ('{"signal": {"burn_in": 1.5}}', "burn_in"),
            ('{"signal": {"normalize": "no"}}', "normalize"),
            ('{"signal": {"kind": "csv", "csv_path": 3}}', "csv_path"),
            ('{"delta": true}', "delta"),
            ('{"total_time": Infinity}', "total_time"),
        ],
        ids=[
            "truncated",
            "missing",
            "x0-not-a-list",
            "n_basis-a-string",
            "x0-a-string",
            "x0-two-entries",
            "freqs-not-numbers",
            "sigma-a-string",
            "beta-nan",
            "rho-a-bool",
            "burn_in-not-an-integer",
            "normalize-a-string",
            "csv_path-a-number",
            "delta-a-bool",
            "total_time-infinite",
        ],
    )
    def test_unreadable_or_ill_typed_file_is_an_error(self, tmp_path, capsys, content, named):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_text(content)
        out = tmp_path / "out"
        code = main(["matrices", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (out / "matrices.json").exists()

    @pytest.mark.parametrize(
        "content, named",
        [(None, "No such file"), ("t,u\n0.0,1.0\n0.01,abc\n", "row 3"),
         ("t,u\n0.0,1.0\n0.0,2.0\n", "row 3: times must be strictly increasing"),
         ("t,u\n0.0,1.0\nnan,2.0\n0.02,3.0\n", "row 3: times must be finite")],
        ids=["missing", "bad-cell", "repeated-time", "nan-time"],
    )
    def test_unreadable_csv_signal_is_an_error(self, tmp_path, capsys, content, named):
        trace_path = tmp_path / "sig.csv"
        if content is not None:
            trace_path.write_text(content)
        out = tmp_path / "out"
        code = main(["reconstruct", "--signal", f"csv:{trace_path}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(trace_path) in err and named in err
        assert not (out / "recon.csv").exists()

    def test_every_documented_key_is_accepted(self):
        cfg = ExperimentConfig.from_dict(
            {
                "n_basis": 8,
                "warp": {"rate": 2.0},
                "input_model": "foh",
                "signal": {"kind": "lorenz", "x0": [1.5, 1.0, 1.0], "burn_in": 3},
            }
        )
        assert cfg.warp.rate == 2.0
        assert cfg.input_model == "foh"
        assert cfg.signal.x0 == (1.5, 1.0, 1.0)
