import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from flexarray import harness
from flexarray.cli import main
from flexarray.errors import ConfigError
from flexarray.harness import EXPERIMENTS, REQUIRED, run_experiment


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

    @pytest.mark.parametrize("paths, pattern, code", [
        ('{"theta": [NaN], "phi": [0.2], "beta_real": [1.0]}', [], 2),
        ('{"theta": [1.0], "phi": [Infinity], "beta_real": [1.0]}', [], 2),
        ('{"theta": [1.0, 1.2], "phi": [0.2, 0.3], "beta_real": [1e308, 1e308]}', [], 3),
        # the cosine array turned to psi = -pi/2 or -pi/4 radiates nothing toward the path
        ('{"theta": [1.5], "phi": [1.2], "beta_real": [1.0]}',
         ["--pattern", "cosine", "--kappa", "1"], 3),
    ], ids=["nan-theta", "inf-phi", "overflowing-gains", "zero-power-in-a-swept-shape"])
    def test_non_finite_scenario_file(self, runner, tmp_path, paths, pattern, code):
        scenario = tmp_path / "paths.json"
        scenario.write_text(paths)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["power-sweep", "--model", "rotate", "--steps", "5",
                                          "--scenario-file", str(scenario), *pattern])
        assert result.exit_code == code, result.output
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "nan" not in result.stdout

    @pytest.mark.parametrize("model, limit", [("bend", np.pi), ("fold", np.pi / 2)])
    def test_sweep_reaching_the_shape_limits(self, runner, model, limit):
        result = runner.invoke(main, ["power-sweep", "--model", model, f"--psi-min={-limit!r}",
                                      f"--psi-max={limit!r}", "--steps", "3"])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.output)
        assert [float(row[0]) for row in rows] == [-limit, 0.0, limit]


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


def _flag(setting):
    return "--" + setting.name.replace("_", "-")


def _out_of_range_cases():
    """One out-of-range value per bound of every experiment setting in the
    spec: below ``low``, and non-finite (or, for positive ones, zero) floats.
    Required settings get a valid value: their first choice, or 2."""
    finite = (harness._real, harness._positive, harness._real_list)
    for command, settings in EXPERIMENTS.items():
        required = [arg for setting in settings if setting.default is REQUIRED
                    for arg in (_flag(setting),
                                setting.choices[0] if setting.choices else "2")]
        for setting in settings:
            values = [str(setting.low - 1)] if setting.low is not None else []
            values += ["nan", "inf"] if setting.cast in finite else []
            values += ["0"] if setting.cast is harness._positive else []
            for value in values:
                yield pytest.param(command, [*required, _flag(setting), value], setting.name,
                                   id=f"{command}-{setting.name}={value}")


def test_power_sweep_without_fixed_array_power_is_a_numerical_failure(runner):
    # kappa = 1e300 underflows the cosine gain to 0 off exact boresight
    result = runner.invoke(main, ["power-sweep", "--model", "rotate", "--steps", "2",
                                  "--pattern", "cosine", "--kappa", "1e300"])
    assert result.exit_code == 3, result.output
    assert "zero power" in result.output
    assert "nan" not in result.stdout


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

    @pytest.mark.parametrize("args", [
        ["sumrate", "--strategy", "sfp", "--snr-db", "5, 301"],
        ["bo-trace", "--objective", "sfp", "--snr-db", "1e300"]])
    def test_snr_above_the_limit(self, runner, args):
        result = runner.invoke(main, [*args, "--model", "rotate"])
        self.assert_usage_error(result, "snr_db")

    @pytest.mark.parametrize("sigma2", ["1e-320", "1e-31"])
    def test_crb_sweep_noise_below_the_limit(self, runner, sigma2):
        # at 1e-320 the Fisher scale 2 / sigma2 overflowed, and all 100 redraws failed
        result = runner.invoke(main, ["crb-sweep", "--draws", "1", "--sigma2", sigma2])
        self.assert_usage_error(result, "sigma2")

    def test_crb_sweep_noise_above_the_limit(self, runner):
        # at sigma2 near 1e308 the inverse of the Fisher matrix overflows
        result = runner.invoke(main, ["crb-sweep", "--draws", "1", "--sigma2", "1e31"])
        self.assert_usage_error(result, "sigma2")

    def test_a_psi_range_wider_than_a_float_holds(self, runner):
        # psi_max - psi_min overflowed, and np.linspace filled the grid with nan and inf
        result = runner.invoke(main, ["power-sweep", "--model", "rotate", "--psi-min=-1e308",
                                      "--psi-max=1e308", "--steps", "3"])
        self.assert_usage_error(result, "psi_min/psi_max")

    @pytest.mark.parametrize("args, setting", [
        (["--model", "rotate", "--nh", "8", "--nv", "1", "--spacing", "1e308"], "spacing"),
        (["--model", "bend", "--nh", "3", "--nv", "1", "--spacing", "1e303", "--psi", "1e-6"],
         "spacing"),
        (["--model", "bend", "--nh", "3", "--nv", "1", "--wavelength", "1e303",
          "--psi", "1e-6"], "wavelength"),
        (["--model", "planar", "--nh", "1", "--nv", "3", "--spacing", "1e308"], "spacing"),
    ], ids=["rotate", "bend", "bend-default-spacing", "planar-column"])
    def test_coordinates_that_overflow(self, runner, args, setting):
        # these printed inf and nan coordinates with exit 0
        self.assert_usage_error(runner.invoke(main, ["geometry", *args]), f"{setting}: spacing")

    @pytest.mark.parametrize("command", sorted(set(EXPERIMENTS) - {"pattern"}))
    def test_wavelength_too_small_for_a_spacing(self, runner, command):
        required = {"sumrate": ["--strategy", "sfp"], "bo-trace": ["--objective", "sfp"],
                    "geometry": ["--nh", "2", "--nv", "1"]}
        model = [] if command == "crb-sweep" else ["--model", "rotate"]
        result = runner.invoke(main, [command, *model, *required.get(command, []),
                                      "--wavelength", "5e-324"])
        self.assert_usage_error(result, "wavelength")

    @pytest.mark.parametrize("command, args", [
        ("crb-sweep", ["--draws", "1"]),
        ("sumrate", ["--strategy", "jfp", "--model", "bend", "--trials", "1"]),
        ("power-sweep", ["--model", "bend"]),
    ], ids=["crb-sweep", "sumrate", "power-sweep"])
    def test_wavelength_whose_wavenumber_overflows(self, runner, command, args):
        # 2 pi / 1e-310 overflows: crb-sweep spent 100 redraws and power-sweep exited 3
        result = runner.invoke(main, [command, *args, "--wavelength", "1e-310"])
        self.assert_usage_error(result, "wavelength")

    @pytest.mark.parametrize("command, args, setting", list(_out_of_range_cases()))
    def test_out_of_range_setting(self, runner, command, args, setting):
        self.assert_usage_error(runner.invoke(main, [command, *args]), setting)

    @pytest.mark.parametrize("model, flag, value", [("bend", "--psi-max", "9"),
                                                    ("bend", "--psi-min", "-3.2"),
                                                    ("fold", "--psi-min", "-2"),
                                                    ("fold", "--psi-max", "1.6")])
    def test_power_sweep_outside_the_shape_range(self, runner, model, flag, value):
        result = runner.invoke(main, ["power-sweep", "--model", model, f"{flag}={value}"])
        self.assert_usage_error(result, flag[2:].replace("-", "_"))
        assert "pi for bend, pi/2 for fold" in result.output

    @pytest.mark.parametrize("model, value", [("planar", "0.1"), ("bend", "-3.2"),
                                              ("fold", "1.6")])
    def test_geometry_outside_the_shape_range(self, runner, model, value):
        result = runner.invoke(main, ["geometry", "--model", model, "--nh", "4", "--nv", "1",
                                      f"--psi={value}"])
        self.assert_usage_error(result, "psi")
        assert "pi for bend, pi/2 for fold" in result.output

    @pytest.mark.parametrize("command", ["power-sweep", "sumrate", "crb-sweep", "geometry"])
    def test_bend_needs_two_columns(self, runner, command):
        required = {"sumrate": ["--strategy", "sfp", "--k-users", "1"],
                    "geometry": ["--nv", "1"]}.get(command, [])
        result = runner.invoke(main, [command, "--model", "bend", "--nh", "1", *required])
        self.assert_usage_error(result, "nh")

    def test_power_sweep_scenario_file_of_2d_arrays(self, runner, tmp_path):
        scenario = tmp_path / "paths.json"
        scenario.write_text('{"theta": [[1.0, 1.2]], "phi": [[0.2, 0.1]], '
                            '"beta_real": [[1.0, 1.0]]}')
        result = runner.invoke(main, ["power-sweep", "--model", "rotate", "--steps", "3",
                                      "--scenario-file", str(scenario)])
        self.assert_usage_error(result, "scenario_file")
        assert "1-D" in result.output

    def test_unwritable_out(self, runner, tmp_path):
        result = runner.invoke(main, ["pattern", "--kind", "omni", "--grid", "2",
                                      "--out", str(tmp_path / "missing" / "x.csv")])
        self.assert_usage_error(result, "Error: out: ")

    @pytest.mark.parametrize("args", [["pattern", "--kind", "omni", "--grid", "2"],
                                      ["geometry", "--model", "rotate", "--nh", "2",
                                       "--nv", "1"]], ids=["pattern", "geometry"])
    def test_unwritable_dump_config(self, runner, tmp_path, args):
        result = runner.invoke(main, [*args, "--dump-config",
                                      str(tmp_path / "missing" / "x.ini")])
        self.assert_usage_error(result, "Error: dump_config: ")

    def test_unwritable_out_under_run(self, runner, tmp_path):
        conf = tmp_path / "exp.ini"
        conf.write_text(f"[run]\nexperiment = pattern\nout = {tmp_path / 'missing' / 'y.csv'}\n"
                        "[pattern]\nkind = omni\ngrid = 2\n")
        result = runner.invoke(main, ["run", "--config", str(conf)])
        self.assert_usage_error(result, "Error: out: ")


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

    @pytest.mark.parametrize("experiment, section", [("crb-sweep", "crb_sweep"),
                                                     ("crb-sweep", "CRB-Sweep"),
                                                     ("power-sweep", "Power_Sweep"),
                                                     ("bo-trace", "BO-trace")])
    @pytest.mark.parametrize("route", ["run", "subcommand"])
    def test_a_misspelled_experiment_section_is_rejected(self, runner, tmp_path, route,
                                                         experiment, section):
        # read as written, crb-sweep would run its 200-draw 8x8 default
        conf = tmp_path / "exp.ini"
        conf.write_text(f"[run]\nexperiment = {experiment}\n[{section}]\nmodel = rotate\nnh = 2\n")
        command = "run" if route == "run" else experiment
        result = runner.invoke(main, [command, "--config", str(conf)])
        assert result.exit_code == 2, result.output
        assert f"[{section}]" in result.output and f"[{experiment}]" in result.output

    @pytest.mark.parametrize("experiment", ["run", "crb_sweep", "frobnicate"])
    def test_run_refuses_an_experiment_with_no_subcommand(self, runner, tmp_path, experiment):
        conf = tmp_path / "exp.ini"
        conf.write_text(f"[run]\nexperiment = {experiment}\n")
        result = runner.invoke(main, ["run", "--config", str(conf)])
        assert result.exit_code == 2, result.output
        assert "Error: experiment: " in result.output and repr(experiment) in result.output

    def test_flags_win_over_the_experiment_section_which_wins_over_run(self, runner, tmp_path):
        conf, ran = tmp_path / "exp.ini", tmp_path / "r.csv"
        run_keys = f"[run]\nexperiment = pattern\nkind = omni\ngrid = 2\nout = {ran}\n"
        conf.write_text(run_keys)
        assert runner.invoke(main, ["run", "--config", str(conf)]).exit_code == 0
        assert len(parse_csv(ran.read_text())[1]) == 2 * 2
        ran.unlink()
        conf.write_text(f"{run_keys}[pattern]\ngrid = 3\nout = {tmp_path / 'p.csv'}\n")
        assert runner.invoke(main, ["run", "--config", str(conf)]).exit_code == 0
        assert len(parse_csv((tmp_path / "p.csv").read_text())[1]) == 3 * 3
        assert not ran.exists()
        result = runner.invoke(main, ["run", "--config", str(conf), "--out", "-"])
        assert len(parse_csv(result.stdout)[1]) == 3 * 3
        result = runner.invoke(main, ["pattern", "--config", str(conf), "--kind", "omni",
                                      "--grid", "4", "--out", "-"])
        assert len(parse_csv(result.stdout)[1]) == 4 * 4

    def test_run_ignores_unrelated_sections(self, runner, tmp_path):
        conf = tmp_path / "exp.ini"
        conf.write_text("[run]\nexperiment = power-sweep\n[power-sweep]\nmodel = rotate\n"
                        "steps = 3\n[geometry]\nnh = 2\n[crb_sweep]\ndraws = 1\n")
        result = runner.invoke(main, ["run", "--config", str(conf)])
        assert result.exit_code == 0, result.output
        assert len(parse_csv(result.output)[1]) == 3


def _hash(text):
    first = text.splitlines()[0]
    assert first.startswith("# config-hash: ")
    return first


def _ini(experiment, settings):
    body = "".join(f"{key} = {value}\n" for key, value in settings.items())
    return f"[run]\nexperiment = {experiment}\n[{experiment}]\n{body}"


class TestOneExperimentOneHash:
    """Every route to one experiment (flags, INI, library dict, any output
    path) gets one config hash; the hash covers the resolved settings only."""

    SUMRATE = {"strategy": "jfp", "model": "rotate", "trials": "1", "k_users": "2",
               "paths": "2", "budget_3d": "1", "n_init": "1"}

    def routes(self, runner, tmp_path, experiment, settings):
        """CSV texts of the same experiment run every way the package offers."""
        flags = [experiment] + [arg for key, value in settings.items()
                                for arg in ("--" + key.replace("_", "-"), value)]
        texts = [runner.invoke(main, flags).stdout_bytes.decode()]
        for name in ("a.csv", "b.csv"):
            assert runner.invoke(main, [*flags, "--out", str(tmp_path / name)]).exit_code == 0
            texts.append((tmp_path / name).read_bytes().decode())
        conf = tmp_path / "exp.ini"
        conf.write_text(_ini(experiment, settings))
        texts.append(runner.invoke(main, ["run", "--config", str(conf)]).stdout_bytes.decode())
        texts.append(run_experiment({"experiment": experiment, **settings}).csv_text)
        defaults = {setting.name: setting.default for setting in EXPERIMENTS[experiment]
                    if setting.default is not REQUIRED}
        texts.append(run_experiment({"experiment": experiment, **defaults, **settings}).csv_text)
        return texts

    def test_sumrate(self, runner, tmp_path):
        texts = self.routes(runner, tmp_path, "sumrate", self.SUMRATE)
        assert len({_hash(text) for text in texts}) == 1
        assert len(set(texts)) == 1
        other_seed = run_experiment({"experiment": "sumrate", **self.SUMRATE, "seed": 1})
        assert _hash(other_seed.csv_text) != _hash(texts[0])

    def test_power_sweep_with_scenario_file(self, runner, tmp_path):
        scenario = tmp_path / "paths.json"
        scenario.write_text('{"theta": [1.0, 1.4], "phi": [0.2, -0.5], "beta_real": [1.0, 0.5]}')
        settings = {"model": "bend", "steps": "5", "scenario_file": str(scenario)}
        texts = self.routes(runner, tmp_path, "power-sweep", settings)
        assert len({_hash(text) for text in texts}) == 1
        assert len(set(texts)) == 1
        assert "# seed" not in texts[0]  # the sweep draws nothing at random
        other = run_experiment({"experiment": "power-sweep", **settings, "steps": 6})
        assert _hash(other.csv_text) != _hash(texts[0])

    @pytest.mark.parametrize("experiment, settings", [
        ("geometry", {"model": "fold", "nh": "3", "nv": "2", "psi": "0.5", "mount": "1.0"}),
        ("pattern", {"kind": "cosine", "kappa": "2", "grid": "4"})], ids=["geometry", "pattern"])
    def test_geometry_and_pattern(self, runner, tmp_path, experiment, settings):
        texts = self.routes(runner, tmp_path, experiment, settings)
        assert len({_hash(text) for text in texts}) == 1
        assert len(set(texts)) == 1


class TestDumpedConfigRuns:
    def test_sumrate_dump_replays_under_run(self, runner, tmp_path):
        conf = tmp_path / "d.ini"
        first = runner.invoke(main, ["sumrate", "--strategy", "sjfp", "--model", "bend",
                                     "--pattern", "cosine", "--kappa", "2", "--trials", "1",
                                     "--k-users", "2", "--paths", "2", "--budget-3d", "1",
                                     "--n-init", "1", "--dump-config", str(conf)])
        assert first.exit_code == 0
        text = conf.read_text()
        assert "[run]\nexperiment = sumrate\n" in text
        assert "pattern = cosine\n" in text and "kappa = 2.0\n" in text
        for key in ("pattern_kind", "out =", "config =", "dump_config"):
            assert key not in text
        for args in (["run", "--config", str(conf)], ["sumrate", "--config", str(conf)]):
            again = runner.invoke(main, args)
            assert again.exit_code == 0, again.output
            assert again.stdout_bytes == first.stdout_bytes


    def test_a_percent_sign_in_a_value_replays_as_written(self, runner, tmp_path):
        # configparser reads '%' as the start of an interpolation by default
        scenario = tmp_path / "paths%1.json"
        scenario.write_text('{"theta": [1.0, 1.4], "phi": [0.2, -0.5], "beta_real": [1.0, 0.5]}')
        conf = tmp_path / "d.ini"
        first = runner.invoke(main, ["power-sweep", "--model", "rotate", "--steps", "3",
                                     "--scenario-file", str(scenario), "--dump-config", str(conf)])
        assert first.exit_code == 0, first.output
        for replay in (["run", "--config", str(conf)], ["power-sweep", "--config", str(conf)]):
            again = runner.invoke(main, replay)
            assert again.exit_code == 0, again.output
            assert again.stdout_bytes == first.stdout_bytes

    @pytest.mark.parametrize("args", [
        ["geometry", "--model", "bend", "--nh", "4", "--nv", "2", "--psi", "0.4",
         "--mount", "2.0943951023931953", "--spacing", "0.01"],
        ["pattern", "--kind", "cosine", "--kappa", "2", "--grid", "5"]],
        ids=["geometry", "pattern"])
    def test_geometry_and_pattern_dumps_replay(self, runner, tmp_path, args):
        conf = tmp_path / "d.ini"
        first = runner.invoke(main, [*args, "--dump-config", str(conf)])
        assert first.exit_code == 0, first.output
        assert conf.read_text().startswith(f"[run]\nexperiment = {args[0]}\n")
        assert first.stdout.startswith("# config-hash: ")
        for replay in (["run", "--config", str(conf)], [args[0], "--config", str(conf)]):
            again = runner.invoke(main, replay)
            assert again.exit_code == 0, again.output
            assert again.stdout_bytes == first.stdout_bytes


def test_every_subcommand_but_run_comes_from_the_settings_table():
    assert set(main.commands) == set(EXPERIMENTS) | {"run"}


class TestUnknownKeysRejected:
    @pytest.mark.parametrize("command, settings, key", [
        ("sumrate", {"strategy": "jfp", "model": "rotate"}, "trails"),
        ("bo-trace", {"objective": "jfp", "model": "rotate"}, "sigma2"),
        ("power-sweep", {"model": "bend"}, "frobnicate"),
        ("geometry", {"model": "bend", "nh": 2, "nv": 1}, "frobnicate"),
        ("pattern", {"kind": "omni"}, "frobnicate"),
    ], ids=["sumrate", "bo-trace", "power-sweep", "geometry", "pattern"])
    def test_in_ini_files(self, runner, tmp_path, command, settings, key):
        conf = tmp_path / "exp.ini"
        conf.write_text(_ini(command, {**settings, key: 1}))
        for args in ([command, "--config", str(conf)], ["run", "--config", str(conf)]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
            assert key in result.output
            assert "Traceback" not in result.output

    @pytest.mark.parametrize("key", ["trails", "sigma2", "pattern_kind"])
    def test_in_library_dicts(self, key):
        with pytest.raises(ConfigError, match=key):
            run_experiment({"experiment": "sumrate", "strategy": "jfp", "model": "rotate",
                            key: 1})


# Option strings, defaults and types of the experiment commands as they were
# written by hand before the commands were generated from the spec.
REQUIRED_FLAG = "required"
FLAG_SURFACE = {
    "geometry": {
        "--model": (REQUIRED_FLAG, "choice"), "--nh": (REQUIRED_FLAG, "integer"),
        "--nv": (REQUIRED_FLAG, "integer"), "--psi": (0.0, "float"), "--mount": (0.0, "float"),
        "--wavelength": (0.03, "float"), "--spacing": (None, "float"),
    },
    "pattern": {
        "--kind": (REQUIRED_FLAG, "choice"), "--kappa": (1.0, "float"),
        "--grid": (73, "integer"),
    },
    "power-sweep": {
        "--model": (REQUIRED_FLAG, "choice"), "--pattern": ("omni", "choice"),
        "--kappa": (1.0, "float"), "--psi-min": (-1.5707963267948966, "float"),
        "--psi-max": (1.5707963267948966, "float"), "--steps": (181, "integer"),
        "--scenario-file": (None, "text"), "--nh": (8, "integer"), "--nv": (2, "integer"),
        "--wavelength": (0.03, "float"), "--mount": (0.0, "float"),
    },
    "crb-sweep": {
        "--model": ("all", "choice"), "--pattern": ("omni", "choice"),
        "--kappa": (1.0, "float"), "--l-min/--L-min": (1, "integer"),
        "--l-max/--L-max": (6, "integer"), "--draws": (200, "integer"),
        "--seed": (0, "integer"), "--nh": (8, "integer"), "--nv": (8, "integer"),
        "--wavelength": (0.03, "float"), "--sigma2": (1.0, "float"),
        "--grid-size": (181, "integer"),
    },
    "sumrate": {
        "--strategy": (REQUIRED_FLAG, "choice"), "--model": (REQUIRED_FLAG, "choice"),
        "--pattern": ("omni", "choice"), "--kappa": (1.0, "float"),
        "--snr-db": ("15", "text"), "--trials": (10, "integer"), "--seed": (0, "integer"),
        "--k-users": (4, "integer"), "--full-load": (False, "boolean"),
        "--paths": (5, "integer"), "--nh": (8, "integer"), "--nv": (2, "integer"),
        "--wavelength": (0.03, "float"), "--budget-1d": (30, "integer"),
        "--budget-3d": (60, "integer"), "--n-init": (4, "integer"),
    },
    "bo-trace": {
        "--objective": (REQUIRED_FLAG, "choice"), "--model": (REQUIRED_FLAG, "choice"),
        "--pattern": ("omni", "choice"), "--kappa": (1.0, "float"),
        "--snr-db": (15.0, "float"), "--seed": (0, "integer"), "--budget": (0, "integer"),
        "--n-init": (4, "integer"), "--sector": (0, "integer"), "--k-users": (4, "integer"),
        "--paths": (5, "integer"), "--nh": (8, "integer"), "--nv": (2, "integer"),
        "--wavelength": (0.03, "float"),
    },
}
COMMON_FLAGS = {"--dump-config": (None, "text"), "--config": (None, "text"),
                "--out": ("-", "text")}
CHOICES = {("power-sweep", "--model"): ["rotate", "bend", "fold"],
           ("crb-sweep", "--model"): ["rotate", "bend", "fold", "all"],
           ("sumrate", "--strategy"): ["sfp", "jfp", "sjfp"],
           ("bo-trace", "--objective"): ["single-sector", "sfp", "jfp", "sjfp"],
           ("geometry", "--model"): ["planar", "rotate", "bend", "fold"],
           ("pattern", "--kind"): ["omni", "cosine"]}


@pytest.mark.parametrize("command", sorted(FLAG_SURFACE))
def test_generated_flags_match_the_hand_written_ones(command):
    params = main.commands[command].params
    surface = {"/".join(param.opts): (REQUIRED_FLAG if param.required else param.default,
                                      param.type.name) for param in params}
    assert surface == {**FLAG_SURFACE[command], **COMMON_FLAGS}
    flags = {"/".join(param.opts) for param in params if param.is_flag}
    assert flags == ({"--full-load"} if command == "sumrate" else set())
    for param in params:
        expected = CHOICES.get((command, "/".join(param.opts)))
        if expected:
            assert list(param.type.choices) == expected


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


_ODD_REALS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-0.5", "-9", "9", "1e300",
                                        "1e308"]),
                       st.floats(-4.0, 4.0).map(repr))
_SMALL_COUNTS = st.integers(-1, 4).map(str)


def _flags(required, **optional):
    """Flag lists with the ``required`` flags and any of the ``optional`` ones
    (left out, a flag keeps its valid default)."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda drawn: [f"--{key.replace('_', '-')}={value}" for key, value in drawn.items()])


_FUZZED_COMMANDS = {
    "power-sweep": _flags({"model": st.sampled_from(["rotate", "bend", "fold"]),
                           "steps": st.integers(-1, 5).map(str)},
                          psi_min=_ODD_REALS, psi_max=_ODD_REALS, nh=_SMALL_COUNTS,
                          nv=_SMALL_COUNTS, mount=_ODD_REALS, wavelength=_ODD_REALS,
                          pattern=st.sampled_from(["omni", "cosine"]), kappa=_ODD_REALS),
    "geometry": _flags({"model": st.sampled_from(["planar", "rotate", "bend", "fold"]),
                        "nh": _SMALL_COUNTS, "nv": _SMALL_COUNTS},
                       psi=_ODD_REALS, mount=_ODD_REALS, wavelength=_ODD_REALS,
                       spacing=_ODD_REALS),
    "pattern": _flags({"kind": st.sampled_from(["omni", "cosine"]),
                       "grid": st.integers(-1, 5).map(str)}, kappa=_ODD_REALS),
    # sizes stay tiny (one draw or trial, grids of at most 5, L <= 3, 4x2
    # arrays) and valid, so that most runs get past the settings checks
    "crb-sweep": _flags({"draws": st.just("1"), "grid_size": st.integers(2, 5).map(str),
                         "l_max": st.integers(1, 3).map(str), "nh": st.integers(1, 4).map(str),
                         "nv": st.integers(1, 2).map(str)},
                        model=st.sampled_from(["rotate", "bend", "fold", "all"]),
                        l_min=st.integers(0, 3).map(str), wavelength=_ODD_REALS,
                        sigma2=_ODD_REALS, pattern=st.sampled_from(["omni", "cosine"]),
                        kappa=_ODD_REALS, seed=_SMALL_COUNTS),
    "sumrate": _flags({"strategy": st.sampled_from(["sfp", "jfp", "sjfp"]),
                       "model": st.sampled_from(["rotate", "bend", "fold"]),
                       "trials": st.just("1"), "budget_1d": st.integers(0, 2).map(str),
                       "budget_3d": st.integers(0, 2).map(str),
                       "n_init": st.integers(1, 2).map(str), "paths": st.integers(1, 3).map(str),
                       "k_users": st.integers(1, 2).map(str), "nh": st.integers(1, 4).map(str),
                       "nv": st.integers(1, 2).map(str)},
                      snr_db=_ODD_REALS, wavelength=_ODD_REALS,
                      pattern=st.sampled_from(["omni", "cosine"]), kappa=_ODD_REALS,
                      seed=_SMALL_COUNTS),
    "bo-trace": _flags({"objective": st.sampled_from(list(harness.STRATEGIES)),
                        "model": st.sampled_from(["rotate", "bend", "fold"]),
                        "budget": st.integers(1, 2).map(str), "n_init": st.integers(1, 2).map(str),
                        "paths": st.integers(1, 3).map(str), "k_users": st.integers(1, 2).map(str),
                        "nh": st.integers(1, 4).map(str), "nv": st.integers(1, 2).map(str)},
                       sector=st.integers(-1, 3).map(str), snr_db=_ODD_REALS,
                       wavelength=_ODD_REALS, pattern=st.sampled_from(["omni", "cosine"]),
                       kappa=_ODD_REALS, seed=_SMALL_COUNTS),
}


def _non_finite_cells(csv_text: str) -> list:
    """Numeric cells of a CSV body that read nan or +-inf (comment lines and
    the column header skipped)."""
    rows = [line for line in csv_text.splitlines() if line and not line.startswith("#")]
    cells = []
    for row in rows[1:]:
        for cell in row.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not np.isfinite(value):
                cells.append(row)
    return cells


def _assert_exit_code_contract(result, args):
    assert result.exit_code in (0, 2, 3), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        assert _non_finite_cells(result.stdout) == [], args


@pytest.mark.parametrize("command", sorted(_FUZZED_COMMANDS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_flags_keep_the_exit_code_contract(command, data):
    """Drawn flag values, nan, inf, 0, negative and out-of-range ones
    included, end in exit 0, 2 or 3 and never in an uncaught exception; a
    run that exits 0 writes only finite numbers."""
    args = data.draw(_FUZZED_COMMANDS[command])
    _assert_exit_code_contract(CliRunner().invoke(main, [command, *args]), args)


@pytest.mark.parametrize("command", sorted(_FUZZED_COMMANDS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_ini_settings_keep_the_exit_code_contract(command, data):
    """The same drawn values, written to an INI file and run by ``run --config``,
    keep the same contract."""
    args = data.draw(_FUZZED_COMMANDS[command])
    pairs = (arg[2:].split("=", 1) for arg in args)
    keys = "".join(f"{key.replace('-', '_')} = {value}\n" for key, value in pairs)
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("exp.ini", "w") as handle:
            handle.write(f"[run]\nexperiment = {command}\n[{command}]\n{keys}")
        _assert_exit_code_contract(runner.invoke(main, ["run", "--config", "exp.ini"]), keys)
