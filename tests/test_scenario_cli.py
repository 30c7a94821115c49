"""Scenario parsing, CSV emission, exit codes, and the validate command."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import clfbl.derivatives
from clfbl.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    GRID_HEADER,
    SUMMARY_HEADER,
    grid_columns,
    main,
)
from clfbl import SystemConfig
from clfbl.derivatives import scan_columns
from clfbl.scenario import (
    ScenarioError,
    TABLE1_VALUES,
    load_scenario,
    parse_scenario,
)
from clfbl.validation import run_validation

GOLDEN_DIR = Path(__file__).with_name("data")

FLOAT_KEYS = ("d", "f_s", "M", "E", "p_dl", "N", "n_max", "T", "g_ul", "g_dl",
              "B", "eps_max")


class TestScenarioParsing:
    def test_unknown_key_named(self):
        with pytest.raises(ScenarioError, match="bandwidthz"):
            parse_scenario("bandwidthz = 1.0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate.*'E'"):
            parse_scenario("E = 1e-6\nE = 2e-6")

    def test_missing_keys_listed_at_once(self):
        scenario = parse_scenario("d = 8\nf_s = 250e3\nM = 1")
        with pytest.raises(ScenarioError) as excinfo:
            scenario.to_config(require_noise=True)
        message = str(excinfo.value)
        for key in ("E", "p_dl", "N", "n_max (or T)"):
            assert key in message

    def test_frame_length_substitutes_n_max(self):
        text = "d=8\nf_s=250e3\nM=1\nE=0.65e-6\np_dl=10e-3\nN=3e-3\nT=0.01"
        cfg = parse_scenario(text).to_config()
        assert cfg.n_max == 2500.0

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nd = 8  # payload\nf_s = 250e3\n"
        scenario = parse_scenario(text)
        assert scenario.values == {"d": 8.0, "f_s": 250e3}

    def test_bad_number_reported(self):
        with pytest.raises(ScenarioError, match="needs a number"):
            parse_scenario("d = eight")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_value_named(self, key, bad):
        with pytest.raises(ScenarioError, match=f"key '{key}' needs a finite number"):
            parse_scenario(f"{key} = {bad}")

    def test_bad_line_reported(self):
        with pytest.raises(ScenarioError, match="key = value"):
            parse_scenario("just some words")

    @pytest.mark.parametrize("key", ["case_grid_points", "sweep_points",
                                     "sweep_grid_points", "trials", "seed", "out_dir"])
    def test_run_parameter_is_not_a_scenario_key(self, key, tmp_path, capsys):
        # run parameters are command-line options only
        path = tmp_path / "run.scn"
        path.write_text(f"d = 8\n{key} = 5\n")
        assert main(["solve", str(path)]) == EXIT_USAGE
        assert f"{path}:2: unknown scenario key '{key}'" in capsys.readouterr().err

    def test_noise_optional_for_sweeps(self):
        text = "d=8\nf_s=250e3\nM=1\nE=0.65e-6\np_dl=10e-3\nn_max=2500"
        cfg = parse_scenario(text).to_config(require_noise=False)
        assert cfg.p_dl == 10e-3


class TestTable1Preset:
    def test_deserializes_to_reference_values(self):
        scenario = load_scenario("table1")
        assert scenario.values == TABLE1_VALUES
        cfg = scenario.to_config()
        assert (cfg.f_s, cfg.M, cfg.n_max) == (250e3, 1.0, 2500.0)
        assert (cfg.g_ul, cfg.g_dl) == (1.0, 1.0)
        assert (cfg.p_dl, cfg.d, cfg.E, cfg.N) == (10e-3, 8.0, 0.65e-6, 3e-3)

    def test_unknown_scenario_mentions_presets(self, tmp_path):
        with pytest.raises(ScenarioError, match="table1"):
            load_scenario(str(tmp_path / "missing.scn"))


class TestSolveCommand:
    def test_json_fields_and_exit(self, capsys):
        code = main(["solve", "table1"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        for key in (
            "n_ul", "n_dl", "p_ul", "eps_ul", "eps_dl", "eps_cl",
            "r_loop", "case", "feasible",
        ):
            assert key in payload
        assert payload["feasible"] is True
        assert code == EXIT_OK

    def test_missing_key_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.scn"
        path.write_text("d=8\nf_s=250e3\nM=1\np_dl=10e-3\nN=3e-3\nn_max=2500\n")
        code = main(["solve", str(path)])
        assert code == EXIT_USAGE
        assert "E" in capsys.readouterr().err

    def test_nan_energy_names_key(self, tmp_path, capsys):
        path = tmp_path / "nan.scn"
        values = dict(TABLE1_VALUES, E=float("nan"))
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        code = main(["solve", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "key 'E' needs a finite number" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_noise_option_named(self, bad, capsys):
        code = main(["solve", "table1", f"--noise={bad}"])
        assert code == EXIT_USAGE
        assert "N must be finite" in capsys.readouterr().err

    def test_high_noise_needs_flag(self, capsys):
        code = main(["solve", "table1", "--noise", "0.02"])
        assert code == EXIT_USAGE
        assert "--allow-high-noise" in capsys.readouterr().err

    def test_high_noise_with_flag_runs(self, tmp_path, capsys):
        # the (0, p_dl) range is a sweep convention, not a model constraint:
        # with enough uplink energy, N > p_dl still solves cleanly
        path = tmp_path / "noisy.scn"
        values = dict(TABLE1_VALUES, E=1e-3, N=0.02)
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        assert main(["solve", str(path)]) == EXIT_USAGE
        capsys.readouterr()
        code = main(["solve", str(path), "--allow-high-noise"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["feasible"] is True

    def test_infeasible_cap_exit(self, tmp_path, capsys):
        path = tmp_path / "strict.scn"
        values = dict(TABLE1_VALUES, eps_max=1e-12, N=9e-3)
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        code = main(["solve", str(path)])
        assert code == EXIT_INFEASIBLE
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False


class TestCsvOutputs:
    def test_case_study_shape(self, tmp_path):
        code = main([
            "case-study", "table1", "--out-dir", str(tmp_path),
            "--grid-points", "40",
        ])
        assert code == EXIT_OK
        grid_lines = (tmp_path / "case_study_grid.csv").read_text().splitlines()
        assert grid_lines[0] == GRID_HEADER
        assert len(grid_lines) == 1 + 40
        noises = {line.split(",")[0] for line in grid_lines[1:]}
        assert len(noises) == 1
        summary_lines = (tmp_path / "case_study_summary.csv").read_text().splitlines()
        assert summary_lines[0] == SUMMARY_HEADER
        assert len(summary_lines) == 2

    def test_sweep_shape_and_order(self, tmp_path):
        code = main([
            "sweep", "table1", "--out-dir", str(tmp_path),
            "--sweep-points", "6", "--grid-points", "10",
        ])
        assert code == EXIT_OK
        summary_lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert len(summary_lines) == 1 + 6
        noises = [float(line.split(",")[0]) for line in summary_lines[1:]]
        assert noises == sorted(noises)
        grid_lines = (tmp_path / "sweep_grid.csv").read_text().splitlines()
        assert len(grid_lines) == 1 + 6 * 10
        keys = [
            (float(line.split(",")[0]), float(line.split(",")[1]))
            for line in grid_lines[1:]
        ]
        assert keys == sorted(keys)

    def test_rerun_byte_identical(self, tmp_path):
        # the full table1 sweep, 50 noise levels x 200 grid points
        for sub in ("a", "b"):
            assert main(["sweep", "table1", "--out-dir", str(tmp_path / sub)]) == EXIT_OK
        for name in ("sweep_grid.csv", "sweep_summary.csv", "sweep_meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_round_trip_recompute(self, tmp_path, table1):
        # every column of every row, parsed back, equals the same row
        # recomputed by a one-point scan, bit for bit
        main([
            "sweep", "table1", "--out-dir", str(tmp_path),
            "--sweep-points", "6", "--grid-points", "25",
        ])
        lines = (tmp_path / "sweep_grid.csv").read_text().splitlines()[1:]
        assert len(lines) == 6 * 25
        bits = lambda row: [v if isinstance(v, int) else float.hex(v) for v in row]
        for line in lines:
            fields = line.split(",")
            parsed = [*map(float, fields[1:6]), int(fields[6]), float(fields[7])]
            cfg = dataclasses.replace(table1, N=float(fields[0]))
            alone = scan_columns(cfg, np.array(parsed[:1]))
            assert bits(parsed) == bits(column[0] for column in grid_columns(alone)), line

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["case-study", "table1", "--out-dir", str(blocker)])
        assert code == EXIT_USAGE
        assert "blocked" in capsys.readouterr().err


class TestValidateCommand:
    def test_reference_passes(self, capsys):
        code = main(["validate", "table1", "--trials", "100000"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_corrupted_derivative_fails(self, capsys, monkeypatch):
        # the corruption must clear the suite's absolute floor of
        # 1e-6*max(1, |FD|), so shift rather than scale; it is applied to
        # the per-link array kernel the suite reads
        true_fn = clfbl.derivatives._ul_d_eps

        def shifted(cfg, ul):
            value, sign, log_mag = true_fn(cfg, ul)
            return value + 1e-3, sign, log_mag

        monkeypatch.setattr(clfbl.derivatives, "_ul_d_eps", shifted)
        code = main(["validate", "table1", "--trials", "1000"])
        out = capsys.readouterr().out
        assert code == EXIT_VALIDATION
        assert "FAIL derivative_fidelity" in out

    def test_defaults(self, capsys):
        assert main(["validate", "table1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(1000000 trials, seed 0)" in out
        assert "on 200 points" in out

    def test_infeasible_scenario_skips(self, tmp_path, capsys):
        code = main(["validate", _hopeless_scenario(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("SKIP") == 5
        assert "infeasible" in out


def _table1_scenario(directory, name: str, **changes) -> str:
    """A scenario file of the table1 values with some of them changed."""
    values = {**TABLE1_VALUES, **changes}
    path = directory / f"{name}.scn"
    path.write_text("".join(f"{key}={value!r}\n" for key, value in values.items()))
    return str(path)


def _hopeless_scenario(directory) -> str:
    """table1 values with N = 0.1, which leaves the domain empty."""
    return _table1_scenario(directory, "hopeless", N=0.1)


class TestValidateGolden:
    def test_every_report_exact(self):
        # the (name, status, detail) of every suite on 151 configs, written
        # by tests/data/make_validate_golden.py
        cases = json.loads((GOLDEN_DIR / "validate_golden.json").read_text())
        assert len(cases) == 151
        for case in cases:
            values = {k: v for k, v in case["config"].items() if k != "type"}
            cfg = SystemConfig(**{
                k: float.fromhex(v) if isinstance(v, str) else v
                for k, v in values.items()
            })
            report = run_validation(cfg, trials=10_000, seed=0, grid_points=200)
            assert [[s.name, s.status, s.detail] for s in report] == case["report"], cfg


class TestSweepGolden:
    def test_output_bytes_pinned(self, tmp_path):
        # exit code and sha256 of every sweep and case-study output file on
        # table1 and on table1 with E = 6.5e-8 (10 of 50 levels empty),
        # written by tests/data/make_sweep_golden.py
        spec = importlib.util.spec_from_file_location(
            "make_sweep_golden", GOLDEN_DIR / "make_sweep_golden.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        expected = json.loads((GOLDEN_DIR / "sweep_golden.json").read_text())
        assert module.all_cases(tmp_path) == expected


class TestExitCodeContract:
    def test_documented_values(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_VALIDATION) == (0, 2, 3, 4)

    @pytest.mark.parametrize("argv, message", [
        (["case-study", "table1", "--grid-points", "0"], "grid_points must be >= 1"),
        (["sweep", "table1", "--sweep-points", "0"], "sweep_points must be >= 2"),
        (["sweep", "table1", "--grid-points", "0"], "grid_points must be >= 1"),
        (["validate", "table1", "--trials", "0"], "trials must be >= 1"),
        (["validate", "table1", "--grid-points", "0"], "grid_points must be >= 1"),
        (["validate", "table1", "--seed", "-1", "--trials", "10"], "seed must be >= 0"),
    ])
    def test_zero_count_is_usage_error(self, argv, message, tmp_path, monkeypatch,
                                       capsys):
        # a given 0 or -1 reaches the range checks, which reject it before
        # anything is written
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("options, message", [
        (["--trials", "-5"], "trials must be >= 1"),
        (["--trials", "0"], "trials must be >= 1"),
        (["--grid-points", "0"], "grid_points must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
    ])
    def test_bad_count_on_empty_domain_is_usage_error(self, options, message,
                                                      tmp_path, capsys):
        # every suite skips an empty domain, but the counts are still checked
        argv = ["validate", _hopeless_scenario(tmp_path), *options]
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("d", [12.7, 10.1, 20.2])
    @pytest.mark.parametrize(
        "argv", [["solve"], ["validate", "--trials", "10000"]], ids=["solve", "validate"]
    )
    def test_fractional_payload_at_blocklength_bound(self, d, argv, tmp_path, capsys):
        # n_hi = n_max - d is feasible although n_max - n_hi rounds below d
        path = _table1_scenario(tmp_path, "fractional", d=d, N=1e-5)
        assert main([argv[0], path, *argv[1:]]) == EXIT_OK
        if argv[0] == "validate":
            assert "PASS optimizer_vs_oracle" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "case-study", "sweep", "validate"])
    def test_zero_dispersion_downlink_is_usage_error(self, command, tmp_path,
                                                     monkeypatch, capsys):
        # 1 + p_dl*g_dl/N == 1 in double precision: no downlink error model
        monkeypatch.chdir(tmp_path)
        assert main([command, _table1_scenario(tmp_path, "deaf", g_dl=1e-17)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "p_dl=0.01" in err and "g_dl=1e-17" in err and "N=0.003" in err
        assert [p.name for p in tmp_path.iterdir()] == ["deaf.scn"]

    def test_placeholder_noise_is_not_reported_as_input(self, tmp_path,
                                                        monkeypatch, capsys):
        # with no N the sweep checks the model at N = p_dl; the message must
        # say that it filled N in, not present N=0.01 as the user's value
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "no_noise.scn"
        values = {k: v for k, v in TABLE1_VALUES.items() if k != "N"}
        values["g_dl"] = 1e-20
        path.write_text("".join(f"{k}={v!r}\n" for k, v in values.items()))
        assert main(["sweep", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "N=0.01 is below double precision" in err
        assert "no N given: the sweep checks the model at N = p_dl" in err
        assert [p.name for p in tmp_path.iterdir()] == ["no_noise.scn"]

    @pytest.mark.parametrize("argv", [
        ["solve", "table1", "--noise", "3e-105"],
        ["case-study", "table1", "--noise", "1e-120"],
        ["sweep", "table1", "--sweep-points", "3"],
    ], ids=["solve", "case-study", "sweep"])
    def test_huge_uplink_snr_is_usage_error(self, argv, tmp_path, monkeypatch,
                                            capsys):
        # (1 + eta/n_ul)^3 would overflow; the sweep's scenario has E = 1e92,
        # so only its lowest noise level, p_dl*1e-4, is out of range
        monkeypatch.chdir(tmp_path)
        if argv[0] == "sweep":
            argv = ["sweep", _table1_scenario(tmp_path, "loud", E=1e92), *argv[2:]]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "uplink SNR eta/d" in err and "above the largest SNR" in err
        assert "E=" in err and "f_s=250000.0" in err and "d=8.0" in err
        if argv[0] == "sweep":
            assert "(N=1.0000000000000002e-06 is a noise level of the sweep" in err
        assert [p.name for p in tmp_path.iterdir()] == (
            ["loud.scn"] if argv[0] == "sweep" else [])

    @pytest.mark.parametrize("command", ["solve", "case-study", "sweep", "validate"])
    @pytest.mark.parametrize("changes, named", [
        (dict(N=1e-300), "N=1e-300, d=8.0"),
        (dict(g_dl=1e103), "downlink SNR p_dl*g_dl/N with p_dl=0.01, g_dl=1e+103"),
    ], ids=["noise", "gain"])
    def test_huge_snr_scenario_is_usage_error(self, command, changes, named,
                                              tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, _table1_scenario(tmp_path, "loud", **changes)]) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["loud.scn"]

    def test_huge_snr_at_placeholder_noise_is_usage_error(self, tmp_path,
                                                          monkeypatch, capsys):
        # no N: the sweep checks the model at N = p_dl = 1e-200, and says so
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "loud.scn"
        values = {k: v for k, v in TABLE1_VALUES.items() if k != "N"}
        values.update(p_dl=1e-200, g_dl=1e100)
        path.write_text("".join(f"{k}={v!r}\n" for k, v in values.items()))
        assert main(["sweep", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "uplink SNR eta/d" in err and "N=1e-200, d=8.0" in err
        assert "no N given: the sweep checks the model at N = p_dl" in err
        assert [p.name for p in tmp_path.iterdir()] == ["loud.scn"]
