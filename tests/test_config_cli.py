"""Configuration files and the command-line interface."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from granupore.cli import main
from granupore.config import (
    ConfigError,
    load_parameters,
    parse_angle,
    read_kv_file,
    read_symbol_config,
)
from granupore.materials import GasParams, MaterialParams
from granupore.simulate import column_cfl_dt, run_column, uniform_column

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
CFG = str(DEMO_CONFIGS / "glass_beads.cfg")


class TestKVFile:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(
            "# glass beads\nrho_s = 2600\nd = 1.5e-4\n\ndelta = 30 deg  # friction\n"
        )
        mat, gas = load_parameters(cfg)
        assert mat.rho_s == 2600.0 and mat.d == 1.5e-4
        assert mat.delta == pytest.approx(math.radians(30))
        assert gas.p_atm == 1.013e5  # default fills the gap

    def test_gas_keys(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("eta_f = 2e-5\np_atm = 9e4\n")
        _, gas = load_parameters(cfg)
        assert gas.eta_f == 2e-5 and gas.p_atm == 9e4

    def test_unknown_key_line_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rho_s = 2500\nviscosity = 1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            load_parameters(cfg)

    def test_bad_number_line_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rho_s = heavy\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
            load_parameters(cfg)

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("d = 1e-4\nd = 2e-4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_kv_file(cfg)

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "noeq.cfg"
        cfg.write_text("rho_s 2500\n")
        with pytest.raises(ConfigError, match=r"noeq\.cfg:1"):
            read_kv_file(cfg)

    def test_invalid_combination_reported(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("mu1 = 0.9\n")  # violates mu1 < mu2
        with pytest.raises(ConfigError, match="mu1"):
            load_parameters(cfg)

    def test_parse_angle(self):
        assert parse_angle("0.5") == 0.5
        assert parse_angle("0.5 rad") == 0.5
        assert parse_angle("30 deg") == pytest.approx(math.radians(30))
        with pytest.raises(ConfigError):
            parse_angle("30 degrees")


class TestSymbolConfig:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "sym.cfg"
        cfg.write_text("n_matrix = 2 0; 0 3\nxi = 3 0\nmomentum_rows = 0\nc = 1.0\n")
        data = read_symbol_config(cfg)
        np.testing.assert_allclose(data["N"], [[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(data["xi"], [3.0, 0.0])
        assert data["momentum_rows"] == (0,) and data["c"] == 1.0

    def test_missing_key(self, tmp_path):
        cfg = tmp_path / "sym.cfg"
        cfg.write_text("n_matrix = 1\nxi = 1\nc = 1\n")
        with pytest.raises(ConfigError, match="missing"):
            read_symbol_config(cfg)


class TestCliTable1:
    def test_values(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["table1", "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header, body = rows[0], rows[1:]
        f_closed = {float(r[0]): float(r[header.index("f_closed")]) for r in body}
        assert f_closed[0.0] == pytest.approx(0.5, abs=1e-12)
        assert f_closed[1.0] == pytest.approx(0.1875, abs=1e-12)
        assert f_closed[2.0] == 0.0
        diffs = [float(r[header.index("abs_diff")]) for r in body]
        assert max(diffs) < 1e-8


class TestCliCheckClassify:
    GRID = "phi=0.42:0.58:4,I=0.05:5:5:log,p=100:1000:2"

    def test_check_dp_passes(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["check", "--model", "dp", "--grid", self.GRID, "--out", str(out)])
        assert code == 0
        assert "pass" in capsys.readouterr().out
        text = out.read_text()
        assert text.splitlines()[0].startswith("#")  # provenance block
        assert "phi,I,p," in text

    def test_check_negative_control_fails(self, capsys):
        code = main(
            [
                "check", "--model", "roux-radjai", "--z-override", "dp",
                "--rr-gain", "1.0", "--grid", self.GRID,
            ]
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_classify_dp(self, capsys):
        assert main(["classify", "--model", "dp", "--grid", self.GRID]) == 0
        assert "certified-stable" in capsys.readouterr().out

    def test_classify_small_angle_fails_full_range(self, capsys):
        code = main(
            ["classify", "--model", "mui-psi", "--grid", "I=1e-2:10:8:log"]
        )
        assert code == 2
        assert "conditions-violated" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert (
                main(["check", "--model", "mui", "--grid", self.GRID, "--out", str(path)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_classify_out_matches_check_out(self, tmp_path, capsys):
        runs = {}
        for command in ("check", "classify"):
            out = tmp_path / f"{command}.csv"
            argv = [command, "--model", "dp-psi", "--grid", self.GRID, "--out", str(out)]
            assert main(argv) == 2  # C2 fails at the grid's low-I corner
            runs[command] = out.read_text().splitlines(keepends=True)
        assert runs["classify"][0] == runs["check"][0].replace(":: check", ":: classify")
        assert runs["classify"][1:] == runs["check"][1:]

    def test_derive(self, capsys):
        code = main(
            ["derive", "--model", "mui", "--grid", "phi=0.45:0.55:3,I=0.1:2:4:log,p=100:200:2"]
        )
        assert code == 0
        assert "max |closed - derived|" in capsys.readouterr().out


class TestCliSimulate:
    def test_box_reaches_equilibrium(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "simulate-box", "--model", "mui", "--I", "2.0", "--phi0", "0.55",
                "--t-end", "0.005", "--dt", "1e-6", "--out", str(out),
            ]
        )
        assert code == 0
        final = float(
            capsys.readouterr().out.splitlines()[0].split("=")[1]
        )
        assert final == pytest.approx(0.2, abs=1e-3)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,phi,pf,div_u,I,i_eq"
        assert len(lines) > 10

    def test_box_random_forcing(self, capsys):
        code = main(
            [
                "simulate-box", "--model", "dp", "--forcing", "random", "--seed", "5",
                "--phi0", "0.5", "--t-end", "0.008", "--dt", "2e-6",
            ]
        )
        assert code == 0
        assert "bound violations: 0" in capsys.readouterr().out

    def test_column(self, tmp_path, capsys):
        out = tmp_path / "col.csv"
        code = main(
            [
                "simulate-column", "--cells", "50", "--t-end", "1e-3",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "energy non-increasing: yes" in text
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,z,pf"

    def test_column_implicit(self, capsys):
        code = main(
            [
                "simulate-column", "--cells", "40", "--t-end", "1e-3",
                "--dt", "5e-5", "--mode", "implicit",
            ]
        )
        assert code == 0

    def test_box_scenario_file(self, tmp_path, capsys):
        scenario = tmp_path / "run.cfg"
        scenario.write_text(
            "phi0 = 0.55\nI = 2.0\nt_end = 0.005\ndt = 1e-6\n"
        )
        code = main(["simulate-box", "--model", "mui", "--scenario", str(scenario)])
        assert code == 0
        final = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert final == pytest.approx(0.2, abs=1e-3)

    def test_scenario_flag_precedence_and_unknown_key(self, tmp_path, capsys):
        scenario = tmp_path / "run.cfg"
        scenario.write_text("cells = 30\nt_end = 1e-3\nramp = 2\n")
        code = main(["simulate-column", "--scenario", str(scenario)])
        assert code == 1  # unknown key 'ramp' reported
        assert "run.cfg:3" in capsys.readouterr().err
        scenario.write_text("cells = 30\nt_end = 1e-3\n")
        code = main(
            ["simulate-column", "--scenario", str(scenario), "--cells", "25"]
        )
        assert code == 0
        assert "steps:" in capsys.readouterr().out
        # An explicit flag wins even when it equals the option's default.
        scenario.write_text("cells = 20\nt_end = 1e-4\nmode = implicit\n")
        code = main(
            ["simulate-column", "--scenario", str(scenario), "--mode", "explicit"]
        )
        assert code == 0
        assert "(explicit)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "line,message",
        [
            ("forcing = randon", "argument --forcing: invalid choice: 'randon'"),
            ("seed = 1.5", "argument --seed: invalid int value: '1.5'"),
        ],
    )
    def test_scenario_values_checked_like_flags(self, tmp_path, capsys, line, message):
        scenario = tmp_path / "run.cfg"
        scenario.write_text(f"t_end = 1e-5\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate-box", "--model", "dp", "--scenario", str(scenario)])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["0", "-1e-6"])
    def test_column_rejects_bad_dt(self, capsys, dt):
        code = main(["simulate-column", "--cells", "20", f"--dt={dt}"])
        assert code == 1
        assert "error: dt must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,code,line",
        [
            (["--rr-gain", "-5", "--phi0", "0.599", "--t-end", "0.001"], 2,
             "bound violations: 366"),
            (["--rr-gain", "-5", "--t-end", "0.005"], 2, "divergence sign agreement: NO"),
        ],
        ids=["violations", "sign"],
    )
    def test_box_flags_bad_run(self, capsys, argv, code, line):
        assert main(["simulate-box", "--model", "roux-radjai", *argv]) == code
        assert line in capsys.readouterr().out.splitlines()

    def test_box_random_rejects_scenario_shear(self, tmp_path, capsys):
        scenario = tmp_path / "run.cfg"
        scenario.write_text("forcing = random\nshear = 50\nt_end = 1e-4\n")
        code = main(["simulate-box", "--model", "dp", "--scenario", str(scenario)])
        assert code == 1
        assert "error: --shear sets constant forcing" in capsys.readouterr().err

    def test_box_I_and_shear_exclusive(self, tmp_path, capsys):
        run = ["simulate-box", "--model", "dp", "--t-end", "1e-4"]
        clash = "argument --shear: not allowed with argument --I"
        with pytest.raises(SystemExit) as exc:
            main(run + ["--I", "2.0", "--shear", "5"])
        assert exc.value.code == 1
        assert clash in capsys.readouterr().err
        scenario = tmp_path / "run.cfg"
        scenario.write_text("I = 50.0\n")
        with pytest.raises(SystemExit) as exc:
            main(run + ["--scenario", str(scenario), "--shear", "5"])
        assert exc.value.code == 1
        assert clash in capsys.readouterr().err
        # A command-line --I still wins over the file's.
        assert main(run + ["--scenario", str(scenario), "--I", "2.0"]) == 0
        from_file = capsys.readouterr().out
        assert main(run + ["--I", "2.0"]) == 0
        assert capsys.readouterr().out == from_file

    def test_column_array_error_names_first_cell(self):
        # The CLI's own profile check (below) now stops this column before
        # the run; the simulator's array error still names the first cell.
        state = uniform_column(200, 0.1, 0.6, lambda z: -2e5 + 100.0 * np.cos(np.pi * z / 0.1))
        gas, mat = GasParams(), MaterialParams()
        with pytest.raises(ValueError) as exc:
            run_column(state, gas, mat, column_cfl_dt(state, gas, mat), 1)
        err = str(exc.value)
        assert err.startswith("p_f must exceed -p_atm = -101300.0, got -199900.")
        assert err.endswith(" at index 0")

    @pytest.mark.parametrize(
        "argv,flags,lowest",
        [
            (["--pf-mean=-2e5"], "--pf-mean -200000.0 and --pf-amplitude 100.0", "-200099.99691576447"),
            (
                ["--pf-mean=-101100", "--pf-amplitude=300"],
                "--pf-mean -101100.0 and --pf-amplitude 300.0",
                "-101399.99074729344",
            ),
        ],
        ids=["mean", "amplitude"],
    )
    def test_column_initial_pf_names_flags(self, capsys, argv, flags, lowest):
        assert main(["simulate-column", "--t-end=1e-4", *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {flags} give an initial p_f as low as {lowest};"
            " it must exceed -p_atm = -101300.0\n"
        )

    def test_box_constant_defaults(self, capsys):
        run = ["simulate-box", "--model", "dp", "--t-end", "1e-4"]
        assert main(run) == 0
        implicit = capsys.readouterr().out
        assert main(run + ["--shear", "100", "--p", "1000"]) == 0
        assert capsys.readouterr().out == implicit

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--forcing", "random", "--I", "2.0"], "--I sets constant forcing"),
            (["--forcing", "random", "--shear", "50"], "--shear sets constant forcing"),
            (["--forcing", "random", "--p", "500"], "--p sets constant forcing"),
            (["--forcing", "random", "--t-end=-1e-3"], "t_end must be non-negative, got -0.001"),
            (["--forcing", "random", "--t-end=nan"], "t_end must be non-negative, got nan"),
            (["--forcing", "random", "--t-end=inf"], "t_end must be finite, got inf"),
            (["--t-end=inf"], "t_end must be finite, got inf"),
            (["--phi0=nan"], "phi0 must lie in (0, 1), got nan"),
            (["--pf0=nan"], "pf0 must exceed -p_atm = -101300.0, got nan"),
            (["--pf0=-2e5"], "pf0 must exceed -p_atm = -101300.0, got -200000.0"),
            (["--pf0=inf"], "pf0 must be finite, got inf"),
            (["--phi0=0.65"], "box step 1 (t=0) failed: no equilibrium inertial number"
             " for phi=0.65 > phi_max=0.6"),
        ],
        ids=["I", "shear", "p", "t_end-neg", "t_end-nan", "random-t_end-inf", "t_end-inf",
             "phi0-nan", "pf0-nan", "pf0-low", "pf0-inf", "step-fails"],
    )
    def test_box_bad_input_named(self, capsys, argv, message):
        assert main(["simulate-box", "--model", "dp", "--t-end=1e-4", *argv]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--shear", "forcing shear must be finite, got inf"),
            ("--I", "forcing shear must be finite, got inf"),
            ("--p", "forcing pressure must be finite, got inf"),
        ],
    )
    def test_box_infinite_forcing_named(self, capsys, flag, message):
        assert main(["simulate-box", "--model", "dp", "--t-end=1e-4", flag, "inf"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--t-end=-1e-3"], "t_end must be non-negative, got -0.001"),
            (["--t-end=nan"], "t_end must be non-negative, got nan"),
            (["--length=-1"], "column length must be positive, got -1.0"),
            (["--length=0"], "column length must be positive, got 0.0"),
            (["--t-end=inf"], "t_end must be finite, got inf"),
            (["--length=inf"], "column length must be finite, got inf"),
        ],
        ids=["t_end-neg", "t_end-nan", "length-neg", "length-zero", "t_end-inf", "length-inf"],
    )
    def test_column_bad_input_named(self, capsys, argv, message):
        assert main(["simulate-column", "--t-end=1e-4", *argv]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate-column", "--mode", "implicit", "--t-end", "1e-4", "--dt", "1"],
            ["simulate-box", "--model", "dp", "--t-end", "1e-7", "--dt", "1e-6"],
        ],
        ids=["column", "box"],
    )
    def test_t_end_below_half_a_step_fails(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        t_end, dt = float(argv[-3]), float(argv[-1])
        assert captured.err == f"error: t_end = {t_end} rounds to zero steps of dt = {dt}\n"

    def test_column_zero_steps_still_checks_dt(self, capsys):
        assert main(["simulate-column", "--t-end", "0", "--dt", "1"]) == 1
        assert "above the stability bound" in capsys.readouterr().err

    GOLDEN = [
        (
            ["simulate-column", "--config", CFG],
            "2f8c515f3c3ec00e787c5072f284bc513d2d982e21794a1176e20c31469a0fb6",
        ),
        (
            ["simulate-column", "--config", CFG, "--mode", "implicit"],
            "da8ec7af62ba4fe19e9b1589af4aca69c89cbef800bf5421bfdb409c453b9a10",
        ),
        (
            [
                "simulate-box", "--model", "mui", "--config", CFG, "--forcing", "random",
                "--seed", "5", "--t-end", "0.016", "--dt", "2e-6", "--record-every", "100",
            ],
            "27a0ad0904e889eb20a19aa90a9890eb63477308c738eb27c2e8c75bfd7eede9",
        ),
        (
            [
                "simulate-box", "--model", "dp", "--config", CFG,
                "--scenario", str(DEMO_CONFIGS / "box_scenario.cfg"),
            ],
            "4a54e83bd804d26bc76d9aac8fe165ea60e361f96de53bb1a3bc527ec643bbda",
        ),
    ]

    def test_golden_csvs(self, tmp_path, capsys):
        """The simulators' CSV bytes are unchanged.

        The hashes are tied to the libm and numpy they were recorded with
        (x86-64 Linux, Python 3.11.7, numpy 2.4.6): another build may round a
        last printed digit differently.
        """
        out = tmp_path / "run.csv"
        for argv, digest in self.GOLDEN:
            assert main(argv + ["--out", str(out)]) == 0, argv
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


class TestCliSymbol:
    def test_minimal_example(self, tmp_path, capsys):
        cfg = tmp_path / "sym.cfg"
        cfg.write_text("n_matrix = 2\nxi = 3 0\nmomentum_rows = 0\nc = 1\n")
        out = tmp_path / "eigs.csv"
        assert main(["symbol", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "spectral union holds: yes" in stdout
        assert "9.0" in stdout  # added eigenvalue c |xi|^2
        assert "M,9.0000000000e+00,0.0000000000e+00" in out.read_text()


class TestCliErrors:
    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        code = main(["check", "--model", "dp", "--config", str(cfg)])
        assert code == 1
        assert "bad.cfg:1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["check", "--model", "mui"], "delta_phi"),
            (["simulate-box", "--model", "mui", "--t-end", "1e-3"], "d"),
        ],
    )
    def test_nan_config_value_named(self, tmp_path, capsys, argv, key):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"{key} = nan\n")
        assert main(argv + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {key} must be positive, got nan\n"

    def test_infinite_config_value_named(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("d = inf\n")
        assert main(["check", "--model", "dp", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: d must be finite, got inf\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--model", "power:nan"], "power-law n must be finite, got nan"),
            (["--model", "dp", "--grid", "I=0.01:inf:3"], "I_range: ends must be finite"),
        ],
        ids=["power-nan", "grid-inf"],
    )
    def test_non_finite_check_input_named(self, capsys, argv, message):
        assert main(["check", *argv]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_nan_roux_radjai_gain_named(self, tmp_path, capsys):
        assert main(["check", "--model", "roux-radjai", "--rr-gain", "nan"]) == 1
        assert capsys.readouterr().err == "error: Roux-Radjai gain must be finite, got nan\n"
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("d = 1e-4\na_rr = nan\n")
        assert main(["check", "--model", "roux-radjai", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown key 'a_rr'\n"

    def test_roux_radjai_without_gain_named(self, capsys):
        assert main(["check", "--model", "roux-radjai"]) == 1
        assert capsys.readouterr().err == (
            "error: roux-radjai needs a gain: pass rr_gain (--rr-gain)\n"
        )

    def test_unknown_model_exit_1(self, capsys):
        assert main(["check", "--model", "bingham"]) == 1

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])  # --model is required
        assert exc.value.code == 1

    def test_bad_grid_exit_1(self, capsys):
        assert main(["check", "--model", "dp", "--grid", "phi=1:2"]) == 1

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("phi0.4:0.6:5", "grid chunk 'phi0.4:0.6:5' is not name=lo:hi:n"),
            ("q=1:2:2", "unknown grid axis 'q'"),
            ("I=0.01:1:4:cubic", "bad I-axis spacing 'cubic'"),
            ("phi=0.4:0.6", "grid axis 'phi' needs lo:hi:n"),
            ("phi=a:0.6:5", "cannot parse grid axis 'phi=a:0.6:5'"),
        ],
        ids=["no-equals", "axis", "spacing", "arity", "number"],
    )
    def test_bad_grid_named(self, capsys, spec, message):
        assert main(["check", "--model", "dp", "--grid", spec]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
