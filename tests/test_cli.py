import numpy as np
import pytest
from click.testing import CliRunner

from flexarray.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestGeometry:
    def test_rotate_at_zero_is_planar(self, runner):
        result = runner.invoke(main, ["geometry", "--model", "rotate", "--nh", "2",
                                      "--nv", "1", "--psi", "0"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["n", "x", "y", "z", "orient"]
        assert len(rows) == 2
        assert float(rows[0][2]) == pytest.approx(-0.0075)
        assert float(rows[1][2]) == pytest.approx(0.0075)
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_missing_required_flag_exits_two(self, runner):
        result = runner.invoke(main, ["geometry", "--model", "rotate", "--nv", "1"])
        assert result.exit_code == 2
        assert "--nh" in result.output

    def test_invalid_psi_is_config_error(self, runner):
        result = runner.invoke(main, ["geometry", "--model", "bend", "--nh", "4",
                                      "--nv", "1", "--psi", "9.0"])
        assert result.exit_code == 2

    def test_unknown_flag_rejected(self, runner):
        result = runner.invoke(main, ["geometry", "--model", "rotate", "--nh", "2",
                                      "--nv", "1", "--frobnicate", "1"])
        assert result.exit_code == 2


class TestPattern:
    def test_grid_row_count_and_gain_range(self, runner):
        result = runner.invoke(main, ["pattern", "--kind", "cosine", "--kappa", "1",
                                      "--grid", "10"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["theta", "phi", "gain"]
        assert len(rows) == 100
        gains = np.array([float(r[2]) for r in rows])
        assert gains.min() >= 0.0
        assert gains.max() <= 4.0 + 1e-12


class TestPowerSweep:
    def test_default_scenario_sweep(self, runner):
        result = runner.invoke(main, ["power-sweep", "--model", "rotate",
                                      "--steps", "21"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["psi", "power_db_vs_fixed"]
        assert len(rows) == 21
        mid = rows[10]
        assert float(mid[1]) == pytest.approx(0.0, abs=1e-9)

    def test_scenario_file(self, runner, tmp_path):
        scenario = tmp_path / "paths.json"
        scenario.write_text('{"theta": [1.0], "phi": [0.2], "beta_real": [1.0]}')
        result = runner.invoke(main, ["power-sweep", "--model", "rotate",
                                      "--steps", "5", "--scenario-file", str(scenario)])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        # single omni path: power is flat in psi
        assert all(abs(float(r[1])) < 1e-9 for r in rows)


class TestSumrateAndTraces:
    def test_sumrate_small_run(self, runner):
        result = runner.invoke(main, ["sumrate", "--strategy", "jfp", "--model",
                                      "rotate", "--trials", "1", "--k-users", "2",
                                      "--paths", "3", "--budget-3d", "2",
                                      "--n-init", "2"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["trial", "snr_db", "rate_fixed", "rate_flex",
                          "psi1", "psi2", "psi3"]
        assert float(rows[0][3]) >= float(rows[0][2])

    def test_bo_trace_columns(self, runner):
        result = runner.invoke(main, ["bo-trace", "--objective", "single-sector",
                                      "--model", "rotate", "--budget", "3",
                                      "--k-users", "2", "--paths", "3",
                                      "--n-init", "2"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["iter", "psi1", "value", "incumbent"]
        assert len(rows) == 6  # 2 random + zero + 3 rounds

    def test_numerical_failure_exits_three(self, runner):
        # a single-element array never identifies path angles: every draw
        # fails and the sweep reports a numerical failure
        result = runner.invoke(main, ["crb-sweep", "--model", "rotate", "--l-min", "1",
                                      "--l-max", "1", "--draws", "1", "--nh", "1",
                                      "--nv", "1", "--grid-size", "3"])
        assert result.exit_code == 3

    def test_crb_sweep_tiny(self, runner):
        result = runner.invoke(main, ["crb-sweep", "--model", "rotate", "--l-min", "1",
                                      "--l-max", "2", "--draws", "2", "--nh", "4",
                                      "--nv", "2", "--grid-size", "7"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["L", "model", "mean_crb_optimized", "mean_crb_fixed"]
        assert len(rows) == 2
        for row in rows:
            assert float(row[2]) <= float(row[3]) * (1 + 1e-9)


class TestBadSettingsExitTwo:
    """Settings no run can satisfy are usage errors: exit code 2, a message
    naming the setting, and no traceback."""

    def assert_usage_error(self, result, setting):
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert setting in result.output

    def test_bo_trace_sector_outside_the_three(self, runner):
        result = runner.invoke(main, ["bo-trace", "--objective", "sfp", "--model", "rotate",
                                      "--sector", "5"])
        self.assert_usage_error(result, "sector")

    def test_crb_sweep_zero_draws(self, runner):
        result = runner.invoke(main, ["crb-sweep", "--draws", "0"])
        self.assert_usage_error(result, "draws")

    def test_sumrate_more_users_than_elements(self, runner):
        result = runner.invoke(main, ["sumrate", "--strategy", "jfp", "--model", "rotate",
                                      "--k-users", "20"])
        self.assert_usage_error(result, "k_users")

    def test_bo_trace_more_users_than_elements(self, runner):
        result = runner.invoke(main, ["bo-trace", "--objective", "jfp", "--model", "rotate",
                                      "--k-users", "20"])
        self.assert_usage_error(result, "k_users")


class TestConfigHandling:
    def test_dumped_config_reruns_identically(self, runner, tmp_path):
        conf = tmp_path / "geometry.ini"
        first = runner.invoke(main, ["geometry", "--model", "fold", "--nh", "4",
                                     "--nv", "2", "--psi", "0.3",
                                     "--dump-config", str(conf)])
        assert first.exit_code == 0
        second = runner.invoke(main, ["geometry", "--config", str(conf)])
        assert second.exit_code == 0
        assert second.output == first.output

    def test_cli_flag_overrides_config(self, runner, tmp_path):
        conf = tmp_path / "geometry.ini"
        conf.write_text("[geometry]\nmodel = rotate\nnh = 2\nnv = 1\npsi = 0.0\n")
        result = runner.invoke(main, ["geometry", "--config", str(conf),
                                      "--psi", "1.5707963267948966"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert float(rows[0][4]) == pytest.approx(np.pi / 2)

    def test_missing_config_file(self, runner):
        result = runner.invoke(main, ["geometry", "--config", "/nope/missing.ini"])
        assert result.exit_code == 2

    def test_run_subcommand(self, runner, tmp_path):
        conf = tmp_path / "exp.ini"
        conf.write_text("[run]\nexperiment = power-sweep\n"
                        "[power-sweep]\nmodel = rotate\nsteps = 7\nnh = 4\nnv = 1\n")
        out = tmp_path / "result.csv"
        result = runner.invoke(main, ["run", "--config", str(conf), "--out", str(out)])
        assert result.exit_code == 0
        text = out.read_text()
        assert "psi,power_db_vs_fixed" in text
        assert text.startswith("# config-hash: ")

    def test_run_requires_experiment(self, runner, tmp_path):
        conf = tmp_path / "exp.ini"
        conf.write_text("[run]\n")
        result = runner.invoke(main, ["run", "--config", str(conf)])
        assert result.exit_code == 2


class TestHelpAndVersion:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "flexarray" in result.output

    @pytest.mark.parametrize("command", ["geometry", "pattern", "power-sweep",
                                         "crb-sweep", "sumrate", "bo-trace", "run"])
    def test_help_lists_flags(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert "--help" in result.output
        if command != "run":
            assert "--out" in result.output
        assert "--config" in result.output
