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

    @pytest.mark.parametrize("line", ["rho_s =", "= 2500"], ids=["no-value", "no-key"])
    def test_empty_key_or_value(self, tmp_path, line):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"d = 1e-4\n{line}\n")
        with pytest.raises(ConfigError) as exc:
            read_kv_file(cfg)
        assert str(exc.value) == f"{cfg}:2: empty key or value"

    def test_parse_angle(self):
        assert parse_angle("0.5") == 0.5
        assert parse_angle("0.5 rad") == 0.5
        assert parse_angle("30 deg") == pytest.approx(math.radians(30))
        with pytest.raises(ConfigError):
            parse_angle("30 degrees")

    def test_parse_angle_bad_number(self):
        with pytest.raises(ConfigError) as exc:
            parse_angle("abc deg", "m.cfg:3")
        assert str(exc.value) == "m.cfg:3: cannot parse angle from 'abc deg' (use e.g. '30 deg')"


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

    def test_unknown_keys_named(self, tmp_path):
        cfg = tmp_path / "sym.cfg"
        cfg.write_text("n_matrix = 1\nxi = 1\nmomentum_rows = 0\nc = 1\nzeta = 2\nd = 1\n")
        with pytest.raises(ConfigError) as exc:
            read_symbol_config(cfg)
        assert str(exc.value) == f"{cfg}: unknown keys ['d', 'zeta']"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("n_matrix = 1\nxi = 1 one\nmomentum_rows = 0\nc = 1\n", "2: cannot parse xi from '1 one'"),
            ("n_matrix = 1 2; 3\nxi = 1\nmomentum_rows = 0\nc = 1\n",
             "1: cannot parse n_matrix from '1 2; 3'"),
            ("n_matrix = 1\nxi = 1\nmomentum_rows = 0.5\nc = 1\n",
             "3: cannot parse momentum_rows from '0.5'"),
        ],
        ids=["xi", "ragged-n_matrix", "momentum_rows"],
    )
    def test_unparsable_value_named(self, tmp_path, text, message):
        cfg = tmp_path / "sym.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError) as exc:
            read_symbol_config(cfg)
        assert str(exc.value) == f"{cfg}:{message}"

    @pytest.mark.parametrize(
        "text,where",
        [
            ("n_matrix = 2\nxi = 3 0\nmomentum_rows = 0\nc = nan\n", "4: c"),
            ("n_matrix = 2\nxi = nan 1\nmomentum_rows = 0\nc = 1\n", "2: xi"),
            ("c = 1\nxi = 3 0\nmomentum_rows = 0\nn_matrix = 2 0; 0 inf\n", "4: n_matrix"),
            ("n_matrix = nanj\nxi = 3\nmomentum_rows = 0\nc = 1\n", "1: n_matrix"),
        ],
        ids=["c-nan", "xi-nan", "n_matrix-inf", "n_matrix-complex-nan"],
    )
    def test_non_finite_value_named(self, tmp_path, text, where):
        cfg = tmp_path / "sym.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError) as exc:
            read_symbol_config(cfg)
        assert str(exc.value) == f"{cfg}:{where} must be finite"

    @pytest.mark.parametrize(
        "rows,problem",
        [
            ("5", "(5,) out of range for the 2 rows of n_matrix"),
            ("-1", "(-1,) out of range for the 2 rows of n_matrix"),
            ("1 2", "(1, 2) out of range for the 2 rows of n_matrix"),
            ("0 0", "(0, 0) repeat a row"),
        ],
        ids=["above", "negative", "one-above", "repeated"],
    )
    def test_bad_momentum_rows_named(self, tmp_path, capsys, rows, problem):
        cfg = tmp_path / "sym.cfg"
        cfg.write_text(f"n_matrix = 2 0; 0 3\nxi = 3 0\nmomentum_rows = {rows}\nc = 1.0\n")
        message = f"{cfg}:3: momentum_rows {problem}"
        with pytest.raises(ConfigError) as exc:
            read_symbol_config(cfg)
        assert str(exc.value) == message
        assert main(["symbol", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text,problem",
        [
            ("n_matrix = 1 2 3; 4 5 6\nxi = 3 0\nmomentum_rows = 0\nc = 1.0\n",
             "1: n_matrix must be square, got 2 rows of 3"),
            ("c = 1.0\nxi = 1\nmomentum_rows = 0 1\nn_matrix = 2 0; 0 3\n",
             "3: momentum_rows (0, 1) exceed the 1 components of xi"),
        ],
        ids=["not-square", "rows-exceed-xi"],
    )
    def test_symbol_shape_named(self, tmp_path, capsys, text, problem):
        # assemble_extended_symbol also rejects both, for API callers, but
        # without the file and line
        cfg = tmp_path / "sym.cfg"
        cfg.write_text(text)
        message = f"{cfg}:{problem}"
        with pytest.raises(ConfigError) as exc:
            read_symbol_config(cfg)
        assert str(exc.value) == message
        assert main(["symbol", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


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

    def test_mismatch_exits_2(self, monkeypatch, capsys):
        from granupore import cli

        derive = cli.derive_f_numeric
        monkeypatch.setattr(cli, "derive_f_numeric", lambda *args: derive(*args) + 1e-3)
        assert main(["table1"]) == 2
        assert capsys.readouterr().err == "closed-form vs derived mismatch 1.000e-03\n"


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

    @pytest.mark.parametrize("command", ["check", "classify"])
    @pytest.mark.parametrize(
        "model,grid,reason",
        [
            ("dp", "I=1e-170:1e-160:2", "ZeroDivisionError: float division by zero"),
            ("mui", "I=1e-170:1e-160:2", "ZeroDivisionError: float division by zero"),
            ("power:0.5", "I=1e-170:1e-160:2", "ZeroDivisionError: float division by zero"),
            ("power:-0.5", "I=1e-170:1e-160:2", "ZeroDivisionError: float division by zero"),
            ("power:-0.5", "I=5e-324:1e-323:2", "OverflowError: "),
        ],
        ids=["dp", "mui", "power0.5", "power-0.5", "power-0.5-overflow"],
    )
    def test_tiny_I_arithmetic_errors_skip(self, tmp_path, capsys, command, model, grid, reason):
        # I**2 underflows to 0 below about 1.5e-162, and I**-1.5 overflows at
        # the smallest subnormals: each such point is a skip row naming the error.
        out = tmp_path / "report.csv"
        assert main([command, "--model", model, "--grid", grid, "--out", str(out)]) == 2
        skipped = [line for line in out.read_text().splitlines() if line.startswith("# skipped")]
        assert skipped and all(f": {reason}" in line for line in skipped)
        assert capsys.readouterr().err == ""

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

    def test_derive_one_anchor_per_phi(self, monkeypatch, capsys):
        # The default grid has 12 phi and 12 I; the equilibrium term depends
        # on phi alone, so it is integrated once per phi, not once per point.
        from granupore import rheology

        anchors = []
        term = rheology._equilibrium_term
        monkeypatch.setattr(rheology, "_equilibrium_term",
                            lambda *args: anchors.append(args[1]) or term(*args))
        assert main(["derive", "--model", "dp"]) == 0
        assert len(anchors) == len(set(anchors)) == 12

    def test_derive_names_the_failing_point(self, tmp_path, capsys):
        out = tmp_path / "derive.csv"
        grid = "phi=0.5:0.6:2,I=0.1:1:2,p=10:20:2"
        assert main(["derive", "--model", "mui-psi", "--grid", grid, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            "error: phi=0.6, I=0.1: mu(I) dilatancy angle requires I_eq > 0 (phi < phi_max),"
            " got 0.0\n"
        ))
        assert not out.exists()


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

    def test_box_I_forcing_is_a_python_float(self, monkeypatch, capsys):
        # a numpy scalar shear would make every RK4 stage numpy-scalar work
        import granupore.cli as cli

        seen = []
        run_box = cli.run_box
        monkeypatch.setattr(
            cli, "run_box", lambda model, mat, forcing, **kw: seen.append(forcing) or run_box(
                model, mat, forcing, **kw
            )
        )
        assert main(["simulate-box", "--model", "mui", "--I", "2", "--t-end", "1e-5"]) == 0
        capsys.readouterr()
        assert type(seen[0].shear(0.0)) is float

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
            ("--p", "forcing pressure must be finite, got inf"),
        ],
    )
    def test_box_infinite_forcing_named(self, capsys, flag, message):
        assert main(["simulate-box", "--model", "dp", "--t-end=1e-4", flag, "inf"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--I=-1"], "--I must be non-negative, got -1.0"),
            (["--I=nan"], "--I must be non-negative, got nan"),
            (["--I=inf"], "--I must be finite, got inf"),
            (["--I=-1", "--p=-1"], "--I must be non-negative, got -1.0"),
        ],
        ids=["neg", "nan", "inf", "before-p"],
    )
    def test_box_bad_I_named(self, capsys, argv, message):
        """A bad --I is named as given, before it becomes a shear."""
        assert main(["simulate-box", "--model", "dp", "--t-end=1e-4", *argv]) == 1
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
            "2bac7aff3493cd5d2f2eab392b59344629c60553d36efe323720d8b1d1956cae",
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


class TestCliGoldenReports:
    #: argv (with exit code), sha256 of its --out CSV and of its stdout without
    #: --out, recorded like ``TestCliSimulate.GOLDEN``.
    GOLDEN = [
        (
            ["table1", "--config", CFG], 0,
            "5c5397bae3b0e0609a0d686ae91c7b076e6d81e98142f7c50cab7581e5e6f370",
            "5c5397bae3b0e0609a0d686ae91c7b076e6d81e98142f7c50cab7581e5e6f370",
        ),
        (
            ["check", "--model", "mui", "--config", CFG], 0,
            "dcf590bfd30b9ae2cbdc4f597022a966d64000f425556bff0a7b16050575ccdf",
            "3190fe067f1afdc637e89964992147964327a1f0a74b83eea7c08c3312a44781",
        ),
        (
            ["classify", "--model", "dp-psi", "--config", CFG], 2,
            "9988e598833bad865bb781ef093e04886c3f0547cbc8fb3e121949e78f84cbf0",
            "adf03fb2c49d163d4ec548d06722d54c4a397a3f704c24815428b6f622c57714",
        ),
        (
            ["derive", "--model", "dp", "--config", CFG], 0,
            "a8d220d20db548a49a824e076223f11ebb26ccc0f535f627aa099bfbc56ece73",
            "4544633f94d8ae14542a8f016419519d4dafc98f076451c6ed47d2d5ecc5f21e",
        ),
        (
            ["symbol", "--config", str(DEMO_CONFIGS / "symbol.cfg")], 0,
            "7c4c53139f6a4910bf61230b32f8c4965a6c876c5ece67ac9378a948f562f292",
            "0664745448d39d5792cf4914d5c1783512daf9d037f74af1269db010a08a3df7",
        ),
    ]

    @pytest.mark.parametrize("argv,code,csv_digest,stdout_digest", GOLDEN,
                             ids=[argv[0] for argv, *_ in GOLDEN])
    def test_golden_csv_and_stdout(self, tmp_path, capsys, argv, code, csv_digest, stdout_digest):
        """The CSV and stdout bytes are unchanged; with --out, the CSV that
        table1 and derive print moves from stdout to the file."""
        assert main(argv) == code
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
        assert capsys.readouterr().out == stdout.replace(out.read_text(), "", 1)


class TestCliSymbol:
    def test_two_decompositions_per_run(self, monkeypatch, capsys):
        # The printed spectra, the CSV and both checks read the symbol's two
        # sorted spectra, so N and M are each decomposed once.
        eigvals, shapes = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
        assert main(["symbol", "--config", str(DEMO_CONFIGS / "symbol.cfg")]) == 0
        assert len(shapes) == 2 and len(set(shapes)) == 2

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--model", "dp", "--rr-gain", "5"],
            ["simulate-box", "--model", "mui", "--rr-gain", "2", "--t-end", "1e-4"],
        ],
        ids=["check", "simulate-box"],
    )
    def test_rr_gain_on_other_model_named(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 1
        model = argv[argv.index("--model") + 1]
        assert capsys.readouterr() == (
            "", f"error: --rr-gain only applies to --model roux-radjai, not {model!r}\n"
        )
        assert not out.exists()

    def test_roux_radjai_without_gain_named(self, capsys):
        assert main(["check", "--model", "roux-radjai"]) == 1
        assert capsys.readouterr().err == (
            "error: roux-radjai needs a gain: pass rr_gain (--rr-gain)\n"
        )

    @pytest.mark.parametrize("model", ["power:abc", "power:"])
    def test_power_without_a_number_named(self, capsys, model):
        assert main(["check", "--model", model]) == 1
        assert capsys.readouterr().err == (
            f"error: model id {model!r} needs a number after 'power:'\n"
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
            ("I=0.01:10:5:lin,I=0.1:1:3", "grid axis 'I' given twice"),
            ("phi=0.4:0.6:5,phi=0.45:0.55:3", "grid axis 'phi' given twice"),
        ],
        ids=["no-equals", "axis", "spacing", "arity", "number", "I-twice", "phi-twice"],
    )
    def test_bad_grid_named(self, capsys, spec, message):
        assert main(["check", "--model", "dp", "--grid", spec]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
