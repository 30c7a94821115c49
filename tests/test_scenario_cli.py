"""Scenario parsing, CSV emission, exit codes, and the validate command."""

import dataclasses
import json

import pytest

import clfbl.derivatives
from clfbl.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    GRID_HEADER,
    SUMMARY_HEADER,
    main,
)
from clfbl.experiments import GridSample, grid_sample
from clfbl.scenario import (
    ScenarioError,
    TABLE1_VALUES,
    load_scenario,
    parse_scenario,
)

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

    def test_run_params(self):
        scenario = parse_scenario("d=8\ntrials = 5000\nseed = 7\nout_dir = /tmp/x")
        assert scenario.run.trials == 5000
        assert scenario.run.seed == 7
        assert scenario.run.out_dir == "/tmp/x"

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
        # every column of every row, parsed back, equals the recomputed
        # grid sample bit for bit
        main([
            "sweep", "table1", "--out-dir", str(tmp_path),
            "--sweep-points", "6", "--grid-points", "25",
        ])
        lines = (tmp_path / "sweep_grid.csv").read_text().splitlines()[1:]
        assert len(lines) == 6 * 25
        bits = lambda sample: tuple(
            v if isinstance(v, int) else float.hex(v)
            for v in dataclasses.astuple(sample)
        )
        for line in lines:
            fields = line.split(",")
            noise = float(fields[0])
            parsed = GridSample(
                *map(float, fields[1:6]), int(fields[6]), float(fields[7])
            )
            cfg = dataclasses.replace(table1, N=noise)
            assert bits(parsed) == bits(grid_sample(cfg, parsed.n_ul)), line

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
        # 1e-6*max(1, |FD|), so shift rather than scale
        true_fn = clfbl.derivatives.d_eps_ul_dn
        monkeypatch.setattr(
            clfbl.derivatives, "d_eps_ul_dn",
            lambda cfg, n: true_fn(cfg, n) + 1e-3,
        )
        code = main(["validate", "table1", "--trials", "1000"])
        out = capsys.readouterr().out
        assert code == EXIT_VALIDATION
        assert "FAIL derivative_fidelity" in out

    def test_infeasible_scenario_skips(self, tmp_path, capsys):
        path = tmp_path / "hopeless.scn"
        path.write_text(
            "d=8\nf_s=250e3\nM=1\nE=0.65e-6\np_dl=10e-3\nN=0.1\nn_max=2500\n"
        )
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("SKIP") == 5
        assert "infeasible" in out


class TestExitCodeContract:
    def test_documented_values(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_VALIDATION) == (0, 2, 3, 4)
