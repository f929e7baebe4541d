from dataclasses import replace

import numpy as np
import pytest

from flexarray import bayesopt, harness
from flexarray.channel import MOUNTS, PathSet, array_blocks, channel_power, flexible_channel
from flexarray.errors import ConfigError
from flexarray.geometry import PSI_RANGES, ArrayConfig, FlexModel, flex_geometry
from flexarray.harness import (DEFAULT_SWEEP_CFG, SECTOR_RANGES, config_hash, default_sweep_paths,
                               experiment_bo_trace, experiment_power_sweep,
                               experiment_sumrate, generate_scenario, optimize_strategy,
                               run_experiment, write_csv)
from flexarray.precoding import jfp_sumrate, sjfp_sumrate
from flexarray.radiation import PatternKind, PatternSpec, wrap_angle

OMNI = PatternSpec(PatternKind.OMNI)
CFG = ArrayConfig(8, 2, 0.03)


def small_scenario(**kwargs):
    defaults = dict(k_users=2, n_paths=3, snr_db=10.0, seed=0)
    defaults.update(kwargs)
    return generate_scenario(CFG, OMNI, FlexModel.ROTATABLE, **defaults)


class TestGenerateScenario:
    def test_deterministic_given_seed(self):
        a = small_scenario(seed=123)
        b = small_scenario(seed=123)
        for name in ("theta", "phi", "beta"):
            np.testing.assert_array_equal(getattr(a.paths, name), getattr(b.paths, name))

    def test_shapes_set_the_sizes(self):
        scenario = small_scenario(k_users=5, n_paths=7)
        for paths in (scenario.paths.theta, scenario.paths.phi, scenario.paths.beta):
            assert paths.shape == (3, 5, 7)
        assert (scenario.k_users, scenario.paths.n_paths) == (5, 7)
        assert scenario.psi_bounds == PSI_RANGES[FlexModel.ROTATABLE].search

    def test_different_seeds_differ(self):
        a = small_scenario(seed=1)
        b = small_scenario(seed=2)
        assert not np.allclose(a.paths.phi[0, 0], b.paths.phi[0, 0])

    def test_sector_one_azimuths_inside_wedge(self):
        scenario = small_scenario(k_users=8, n_paths=6, seed=5)
        for sector, (lo, hi) in enumerate(SECTOR_RANGES):
            phi = scenario.paths.phi[sector]
            assert np.all(phi >= lo) and np.all(phi <= hi)

    def test_local_angles_subtract_mount(self):
        scenario = small_scenario(seed=9)
        psi = 0.2
        geometry = flex_geometry(scenario.flex_model, scenario.cfg, np.full(3, psi))
        blocks = array_blocks(scenario, geometry).reshape(3, -1, 3, scenario.k_users)
        for m in range(3):
            for sector in range(3):
                block = blocks[m, :, sector]
                for k in range(scenario.k_users):
                    link = scenario.paths[sector, k]
                    local = replace(link, phi=wrap_angle(link.phi - MOUNTS[m]))
                    expected = flexible_channel(scenario.flex_model, scenario.cfg,
                                                scenario.pattern, local, psi)
                    np.testing.assert_allclose(block[:, k], expected, rtol=1e-12)

    def test_elevations_inside_band(self):
        scenario = small_scenario(k_users=5, n_paths=8, seed=6)
        assert (np.all(scenario.paths.theta >= np.pi / 3)
                and np.all(scenario.paths.theta <= 2 * np.pi / 3))

    def test_gain_second_moment_near_unit(self):
        scenario = generate_scenario(CFG, OMNI, FlexModel.ROTATABLE, k_users=30,
                                     n_paths=40, snr_db=0.0, seed=7)
        assert abs(np.mean(np.abs(scenario.paths.beta) ** 2) - 1.0) < 0.05

    def test_snr_to_power(self):
        scenario = small_scenario(snr_db=15.0)
        assert scenario.p_total == pytest.approx(10 ** 1.5)


class TestScenarioPaths:
    """A scenario holds one validated (3, K, L) path set."""

    def test_nan_path_value_rejected(self):
        # a NaN azimuth once made every JFP evaluation rank deficient and
        # scored 0, so optimize_strategy returned 0.0 / 0.0 without an error
        scenario = small_scenario()
        phi = scenario.paths.phi.copy()
        phi[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            replace(scenario, paths=PathSet(theta=scenario.paths.theta, phi=phi,
                                            beta=scenario.paths.beta))

    def test_mismatched_shapes_rejected(self):
        paths = small_scenario().paths
        with pytest.raises(ValueError, match="equal shapes"):
            PathSet(theta=paths.theta, phi=paths.phi[:, :1], beta=paths.beta)

    @pytest.mark.parametrize("index", [np.s_[:2], np.s_[0], np.s_[0, 0], np.s_[None]],
                             ids=["two-sectors", "one-sector", "one-link", "4-d"])
    def test_paths_not_three_sectors_rejected(self, index):
        scenario = small_scenario()
        with pytest.raises(ValueError, match=r"\(3, K, L\)"):
            replace(scenario, paths=scenario.paths[index])

    def test_bare_arrays_rejected(self):
        scenario = small_scenario()
        with pytest.raises(ValueError, match=r"\(3, K, L\)"):
            replace(scenario, paths=scenario.paths.theta)

    def test_users_and_paths_read_from_the_path_set(self):
        scenario = small_scenario(k_users=3, n_paths=5)
        assert (scenario.k_users, scenario.paths.n_paths) == (3, 5)
        assert not hasattr(scenario, "n_paths") and not hasattr(scenario, "theta")


class TestOptimizeStrategy:
    @pytest.mark.parametrize("strategy", ["single-sector", "sfp", "jfp", "sjfp"])
    def test_flex_never_below_fixed(self, strategy):
        for seed in range(3):
            scenario = small_scenario(seed=seed)
            result = optimize_strategy(scenario, strategy, seed=seed,
                                       budget_1d=4, budget_3d=4, n_init=2)
            assert result.rate_flex >= result.rate_fixed

    def test_psi_star_respects_model_bounds(self):
        for model in (FlexModel.ROTATABLE, FlexModel.BENDABLE, FlexModel.FOLDABLE):
            scenario = generate_scenario(CFG, OMNI, model, k_users=2, n_paths=3,
                                         snr_db=10.0, seed=3)
            lo, hi = PSI_RANGES[model].search
            result = optimize_strategy(scenario, "sjfp", seed=1,
                                       budget_3d=5, n_init=2)
            assert np.all(result.psi_star >= lo) and np.all(result.psi_star <= hi)

    def test_sfp_fixed_matches_joint_evaluation_at_zero(self):
        scenario = small_scenario(seed=4)
        result = optimize_strategy(scenario, "sfp", seed=0, budget_1d=2, n_init=2)
        assert result.rate_fixed == pytest.approx(sjfp_sumrate(scenario, np.zeros(3)),
                                                  rel=1e-12)

    def test_jfp_fixed_is_planar_baseline(self):
        scenario = small_scenario(seed=8)
        result = optimize_strategy(scenario, "jfp", seed=0, budget_3d=2, n_init=2)
        assert result.rate_fixed == pytest.approx(jfp_sumrate(scenario, np.zeros(3)))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            optimize_strategy(small_scenario(), "mrt")

    def test_results_compare_by_value(self):
        scenario = small_scenario(seed=9)
        a, b = (optimize_strategy(scenario, "sjfp", seed=2, budget_3d=3, n_init=2)
                for _ in range(2))
        assert a == b and not a != b
        assert a == harness.StrategyResult(a.rate_fixed, a.rate_flex, a.psi_star.copy())
        assert a != replace(a, psi_star=a.psi_star + 1e-12)
        assert a != replace(a, rate_flex=a.rate_flex + 1.0)
        assert a != (a.rate_fixed, a.rate_flex, a.psi_star)

    # (sector, salt) of each optimizer run per strategy, for seed s
    RUNS = {"single-sector": lambda s: [(0, [2, s])],
            "sfp": lambda s: [(m, [3, m, s]) for m in range(3)],
            "jfp": lambda s: [(0, [4, s])],
            "sjfp": lambda s: [(0, [4, s])]}

    @pytest.mark.parametrize("strategy, calls", [("single-sector", 36), ("sfp", 108),
                                                 ("jfp", 66), ("sjfp", 66)])
    def test_runs_and_objective_calls_at_default_budgets(self, monkeypatch, strategy, calls):
        """Each run is one ``bayesopt.optimize`` call on ``_objective`` plus one
        re-evaluation of the planar point: n_init + 1 + budget + 1 objective
        calls, summed over the three sectors for SFP."""
        scenario, seed = small_scenario(seed=6), 11
        lo, hi = scenario.psi_bounds
        fixed = flex = 0.0
        psi_star = np.zeros(3)
        for sector, salt in self.RUNS[strategy](seed):
            objective, dim = harness._objective(scenario, strategy, sector)
            run = bayesopt.optimize(objective, [(lo, hi)] * dim, 30 if dim == 1 else 60,
                                    n_init=4, seed=np.random.default_rng(salt))
            fixed += objective(np.zeros(dim))
            flex += run.best_value
            psi_star[sector:sector + dim] = run.best_point

        counted = []
        make = harness._objective

        def counting(*args, **kwargs):
            objective, dim = make(*args, **kwargs)
            return (lambda psi: counted.append(1) or objective(psi)), dim

        monkeypatch.setattr(harness, "_objective", counting)
        result = optimize_strategy(scenario, strategy, seed=seed)
        assert ((result.rate_fixed, result.rate_flex, result.psi_star.tolist())
                == (fixed, flex, psi_star.tolist()))
        assert len(counted) == calls


class TestExperiments:
    def test_power_sweep_zero_is_zero_db(self):
        header, rows = experiment_power_sweep(FlexModel.ROTATABLE, OMNI, steps=21)
        assert header == ["psi", "power_db_vs_fixed"]
        mid = rows[10]
        assert mid[0] == pytest.approx(0.0)
        assert mid[1] == pytest.approx(0.0, abs=1e-12)

    def test_default_sweep_paths_shape(self):
        paths = default_sweep_paths()
        assert paths.n_paths == 5
        np.testing.assert_array_equal(paths.beta, np.ones(5))

    def test_sumrate_rows_and_dominance(self):
        header, rows = experiment_sumrate("jfp", FlexModel.ROTATABLE, OMNI, CFG,
                                          k_users=2, n_paths=3, snr_values=[10.0],
                                          trials=2, seed=0, budget_3d=3, n_init=2)
        assert header[:4] == ["trial", "snr_db", "rate_fixed", "rate_flex"]
        assert len(rows) == 2
        for row in rows:
            assert row[3] >= row[2]

    def test_sumrate_empty_snr_list_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(harness, "generate_scenario",
                            lambda *args, **kwargs: pytest.fail("drew a scenario"))
        with pytest.raises(ValueError, match="snr_values"):
            experiment_sumrate("jfp", FlexModel.ROTATABLE, OMNI, CFG, k_users=2, n_paths=3,
                               snr_values=[], trials=2, seed=0)

    @pytest.mark.parametrize("name, draws, l_values", [
        ("draws", -1, [1, 2]), ("draws", 0, [1, 2]), ("l_values", 1, []),
        ("l_values", 1, [-1]), ("l_values", 1, [2, 0])],
        ids=["negative-draws", "zero-draws", "empty-l", "negative-l", "zero-l"])
    def test_crb_sweep_bad_counts_rejected_before_any_draw(self, monkeypatch, name, draws,
                                                            l_values):
        monkeypatch.setattr(harness, "_crb_regime_paths",
                            lambda *args, **kwargs: pytest.fail("drew a path set"))
        with pytest.raises(ValueError, match=name):
            harness.experiment_crb_sweep([FlexModel.ROTATABLE], OMNI, ArrayConfig(2, 2),
                                         l_values, draws, seed=0, grid_size=3)

    @pytest.mark.parametrize("models, l_values, name", [
        ([], [1, 2], "models"), ([FlexModel.PLANAR], [1], "models"),
        ([FlexModel.ROTATABLE, FlexModel.PLANAR], [1], "models"),
        ([FlexModel.FOLDABLE, FlexModel.FOLDABLE], [1], "models"),
        ([FlexModel.ROTATABLE], [2, 2], "l_values"),
        ([FlexModel.ROTATABLE], [1, 3, 1], "l_values")],
        ids=["no-models", "planar", "planar-among", "duplicate-model", "duplicate-l", "repeated-l"])
    def test_crb_sweep_bad_models_or_repeated_l_rejected_before_any_draw(self, monkeypatch, models,
                                                                         l_values, name):
        monkeypatch.setattr(harness, "_crb_regime_paths",
                            lambda *args, **kwargs: pytest.fail("drew a path set"))
        with pytest.raises(ValueError, match=name):
            harness.experiment_crb_sweep(models, OMNI, ArrayConfig(2, 2), l_values, 1, seed=0,
                                         grid_size=3)

    @pytest.mark.parametrize("steps", [0, -1, -181])
    def test_power_sweep_without_steps_is_rejected_by_name(self, steps):
        with pytest.raises(ValueError, match="steps"):
            experiment_power_sweep(FlexModel.ROTATABLE, OMNI, steps=steps)

    @pytest.mark.parametrize("model, mount", [(FlexModel.ROTATABLE, 0.0), (FlexModel.BENDABLE, 0.7),
                                              (FlexModel.FOLDABLE, -1.1), (FlexModel.PLANAR, 0.0)])
    @pytest.mark.parametrize("spec", [OMNI, PatternSpec(PatternKind.COSINE, kappa=2.0)],
                             ids=["omni", "cos2"])
    def test_power_sweep_rows_equal_one_channel_build_per_angle(self, model, mount, spec):
        psi_max = 0.0 if model is FlexModel.PLANAR else 1.5
        paths = default_sweep_paths()
        _, rows = experiment_power_sweep(model, spec, paths=paths, psi_min=-psi_max,
                                         psi_max=psi_max, steps=37, mount=mount)
        power = [channel_power(flexible_channel(model, DEFAULT_SWEEP_CFG, spec, paths, psi, mount))
                 for psi in [0.0, *np.linspace(-psi_max, psi_max, 37)]]
        expected = [10.0 * np.log10(np.float64(p) / np.float64(power[0])) for p in power[1:]]
        assert [db for _, db in rows] == expected

    def test_bo_trace_incumbent_monotone(self):
        scenario = small_scenario(seed=2)
        header, rows = experiment_bo_trace("jfp", scenario, seed=0, budget=4, n_init=2)
        assert header == ["iter", "psi1", "psi2", "psi3", "value", "incumbent"]
        incumbents = [row[-1] for row in rows]
        assert all(a <= b for a, b in zip(incumbents, incumbents[1:]))
        assert rows[-1][0] == len(rows) - 1

    @pytest.mark.parametrize("sector", [-1, 3])
    def test_sector_outside_the_three_rejected(self, sector):
        with pytest.raises(ConfigError, match="sector"):
            experiment_bo_trace("sfp", small_scenario(), seed=0, budget=1, sector=sector)


class TestRunExperiment:
    def test_identical_config_identical_csv(self):
        config = {"experiment": "power-sweep", "model": "rotate", "steps": 11,
                  "nh": 4, "nv": 1}
        a = run_experiment(dict(config))
        b = run_experiment(dict(config))
        assert a.csv_text == b.csv_text
        assert a.config_hash == b.config_hash

    def test_trials_one_matches_direct_call(self):
        config = {"experiment": "sumrate", "strategy": "jfp", "model": "rotate",
                  "trials": 1, "seed": 3, "k_users": 2, "paths": 3, "nh": 8, "nv": 2,
                  "budget_3d": 3, "n_init": 2, "snr_db": 10.0}
        result = run_experiment(config)
        header, rows = experiment_sumrate("jfp", FlexModel.ROTATABLE, OMNI, CFG,
                                          k_users=2, n_paths=3, snr_values=[10.0],
                                          trials=1, seed=3, budget_3d=3, n_init=2)
        assert result.rows == rows

    def test_csv_has_hash_comment(self):
        result = run_experiment({"experiment": "power-sweep", "model": "bend",
                                 "steps": 5})
        first = result.csv_text.splitlines()[0]
        assert first.startswith("# config-hash: ")

    def test_out_writes_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_experiment({"experiment": "power-sweep", "model": "fold", "steps": 5,
                        "out": str(out)})
        assert out.read_text().splitlines()[1] == "psi,power_db_vs_fixed"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment({"experiment": "beam-party"})

    def test_bad_field_reports_name(self):
        with pytest.raises(ConfigError) as err:
            run_experiment({"experiment": "sumrate", "strategy": "jfp",
                            "model": "rotate", "trials": "many"})
        assert "trials" in str(err.value)

    def test_snr_grid_parsing(self):
        config = {"experiment": "sumrate", "strategy": "jfp", "model": "rotate",
                  "trials": 1, "seed": 0, "k_users": 2, "paths": 3,
                  "budget_3d": 2, "n_init": 2, "snr_db": "0, 10"}
        result = run_experiment(config)
        assert [row[1] for row in result.rows] == [0.0, 10.0]

    def test_full_load_serves_n_users(self):
        config = {"experiment": "sumrate", "strategy": "jfp", "model": "rotate",
                  "trials": 1, "seed": 1, "paths": 2, "nh": 2, "nv": 2,
                  "full_load": True, "budget_3d": 2, "n_init": 2}
        result = run_experiment(config)  # runs with K = N = 4 without error
        assert len(result.rows) == 1
        assert result.rows[0][3] >= 0.0

    def test_full_load_words_parse_as_flags(self):
        config = {"experiment": "sumrate", "strategy": "jfp", "model": "rotate",
                  "trials": 1, "seed": 1, "k_users": 2, "paths": 2, "nh": 2, "nv": 2,
                  "budget_3d": 1, "n_init": 1}
        rows = {flag: run_experiment({**config, "full_load": flag}).rows
                for flag in (False, True)}
        assert rows[False] != rows[True]
        for word, flag in [("false", False), ("No", False), ("0", False),
                           ("true", True), ("on", True), ("1", True)]:
            assert run_experiment({**config, "full_load": word}).rows == rows[flag], word

    def test_full_load_rejects_other_words(self):
        with pytest.raises(ConfigError, match="full_load"):
            run_experiment({"experiment": "sumrate", "strategy": "jfp", "model": "rotate",
                            "full_load": "maybe"})

    def test_more_users_than_elements_rejected(self):
        with pytest.raises(ConfigError, match="k_users"):
            run_experiment({"experiment": "sumrate", "strategy": "jfp", "model": "rotate",
                            "nh": 2, "nv": 2, "k_users": 5})

    def test_zero_draws_rejected(self):
        with pytest.raises(ConfigError, match="draws"):
            run_experiment({"experiment": "crb-sweep", "draws": 0})


class TestCsvWriter:
    def test_round_trip_text(self, tmp_path):
        text = write_csv(None, ["a", "b"], [(1, 2), (3, 4)], {"seed": 7})
        assert text.splitlines() == ["# seed: 7", "a,b", "1,2", "3,4"]
        path = tmp_path / "rows.csv"
        assert write_csv(path, ["a", "b"], [(1, 2), (3, 4)], {"seed": 7}) == text
        assert path.read_bytes().decode() == text

    def test_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
