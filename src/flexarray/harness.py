"""Scenario generation, strategy optimization, and experiment orchestration.

A scenario describes a three-sector base station: three co-located arrays
mounted at the sector centers {0, 2pi/3, 4pi/3}, K single-antenna users per
sector, and L plane-wave paths per user drawn inside the sector's azimuth
wedge. All randomness flows from one master seed; per-trial streams are
derived from (seed, trial, salt) entropy lists so parallel or reordered
execution cannot change results.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import bayesopt, precoding
from .channel import PathSet, channel_power, flexible_channel, sector_block
from .errors import ConfigError, OptimizationError, PatternBoundaryError, RankDeficiencyError, SingularFisherError
from .estimation import fisher_matrix, mean_angle_crb, optimal_psi_for_crb
from .geometry import ArrayConfig, FlexModel, flex_geometry
from .radiation import PatternKind, PatternSpec

SECTOR_RANGES = ((-np.pi / 3, np.pi / 3), (np.pi / 3, np.pi), (np.pi, 5 * np.pi / 3))
ELEVATION_RANGE = (np.pi / 3, 2 * np.pi / 3)

PSI_BOUNDS = {
    FlexModel.PLANAR: (0.0, 0.0),
    FlexModel.ROTATABLE: (-np.pi / 4, np.pi / 4),
    FlexModel.BENDABLE: (-np.pi / 2, np.pi / 2),
    FlexModel.FOLDABLE: (-np.pi / 4, np.pi / 4),
}

STRATEGIES = ("single-sector", "sfp", "jfp", "sjfp")


@dataclass
class Scenario:
    """One realization of the three-sector system.

    ``theta``, ``phi`` and ``beta`` hold the paths of every user, shape
    (3 sectors, K, L); ``phi`` is the global azimuth. Every array sees the
    same paths: :func:`~flexarray.channel.sector_block` subtracts its mount.
    """

    cfg: ArrayConfig
    pattern: PatternSpec
    flex_model: FlexModel
    snr_db: float
    sigma2: float
    theta: np.ndarray
    phi: np.ndarray
    beta: np.ndarray

    @property
    def k_users(self) -> int:
        return self.theta.shape[1]

    @property
    def n_paths(self) -> int:
        return self.theta.shape[2]

    @property
    def psi_bounds(self) -> tuple:
        return PSI_BOUNDS[self.flex_model]

    @property
    def p_total(self) -> float:
        """Total transmit power for the configured SNR (SNR = P / sigma2)."""
        return self.sigma2 * 10.0 ** (self.snr_db / 10.0)


def generate_scenario(cfg: ArrayConfig, pattern: PatternSpec, flex_model: FlexModel,
                      k_users: int = 4, n_paths: int = 5, snr_db: float = 15.0,
                      sigma2: float = 1.0, seed=0) -> Scenario:
    """Draw a scenario: per user and path, a global azimuth uniform in the
    sector wedge, an elevation uniform in [pi/3, 2pi/3], and a CN(0,1) gain.

    Deterministic for a fixed seed.
    """
    if k_users < 1 or n_paths < 1:
        raise ValueError("need k_users >= 1 and n_paths >= 1")
    rng = np.random.default_rng(seed)
    theta = np.empty((3, k_users, n_paths))
    phi = np.empty((3, k_users, n_paths))
    beta = np.empty((3, k_users, n_paths), dtype=complex)
    for sector in range(3):
        for k in range(k_users):
            rng.uniform()  # a user distance the far-field channel ignores; kept for the seed streams
            phi[sector, k] = rng.uniform(*SECTOR_RANGES[sector], size=n_paths)
            theta[sector, k] = rng.uniform(*ELEVATION_RANGE, size=n_paths)
            beta[sector, k] = (rng.standard_normal(n_paths)
                               + 1j * rng.standard_normal(n_paths)) / np.sqrt(2.0)
    return Scenario(cfg=cfg, pattern=pattern, flex_model=flex_model, snr_db=snr_db,
                    sigma2=sigma2, theta=theta, phi=phi, beta=beta)


def _rank_safe(func, scenario: Scenario):
    """Wrap a sum-rate so that a rank-deficient flex angle scores 0 instead of
    aborting an optimization run."""

    def wrapped(psi):
        try:
            return func(scenario, psi)
        except RankDeficiencyError:
            return 0.0

    return wrapped


def _objective(scenario: Scenario, strategy: str, sector: int = 0, leakage=None):
    """The sum-rate an optimizer maximizes for ``strategy`` and the number of
    flex angles it takes.

    The 1-D objectives reshape array ``sector`` alone: single-sector serves
    its users with the whole power and no neighbours; SFP holds the leakage
    the other arrays send its users fixed at ``leakage`` (default: the
    leakage with all arrays planar). The joint objectives take all three
    angles.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy: expected one of {STRATEGIES}, got {strategy!r}")
    if sector not in (0, 1, 2):
        raise ConfigError(f"sector: expected 0, 1 or 2, got {sector!r}")
    if strategy == "single-sector":
        def rate(scenario, psi):
            geometry = flex_geometry(scenario.flex_model, scenario.cfg, float(psi[0]))
            own = sector_block(scenario, geometry, sector, sector)
            return precoding.single_sector_sumrate(own, scenario.p_total, scenario.sigma2)
    elif strategy == "sfp":
        if leakage is None:
            leakage = precoding.sfp_leakage(scenario, np.zeros(3))

        def rate(scenario, psi):
            return precoding.sector_rate_given_leakage(scenario, sector, float(psi[0]),
                                                       leakage[sector])
    else:
        rate = precoding.jfp_sumrate if strategy == "jfp" else precoding.sjfp_sumrate
    return _rank_safe(rate, scenario), 3 if strategy in ("jfp", "sjfp") else 1


@dataclass
class StrategyResult:
    """Fixed-array baseline versus flex-optimized sum-rate of one scenario."""

    rate_fixed: float
    rate_flex: float
    psi_star: np.ndarray


def optimize_strategy(scenario: Scenario, strategy: str, seed=0,
                      budget_1d: int = 30, budget_3d: int = 60, n_init: int = 4) -> StrategyResult:
    """Optimize the flex angles for one strategy on one scenario.

    The zero point is always part of the design, so ``rate_flex`` can never
    fall below ``rate_fixed`` (the planar baseline of the same strategy). SFP
    optimizes each sector's angle against the others' planar shapes and sums
    the three per-sector incumbents; the joint strategies optimize all three
    angles on the full objective.
    """
    lo, hi = scenario.psi_bounds
    if strategy == "sfp":
        leakage = precoding.sfp_leakage(scenario, np.zeros(3))
        fixed = flex = 0.0
        psi_star = np.zeros(3)
        for m in range(3):
            objective, _ = _objective(scenario, "sfp", m, leakage)
            result = bayesopt.optimize(objective, [(lo, hi)], budget_1d, n_init=n_init,
                                       seed=np.random.default_rng([3, m, _entropy(seed)]))
            fixed += objective(np.zeros(1))
            flex += result.best_value
            psi_star[m] = result.best_point[0]
        return StrategyResult(rate_fixed=fixed, rate_flex=flex, psi_star=psi_star)
    objective, dim = _objective(scenario, strategy)
    budget, salt = (budget_1d, 2) if dim == 1 else (budget_3d, 4)  # single-sector is 1-D
    result = bayesopt.optimize(objective, [(lo, hi)] * dim, budget, n_init=n_init,
                               seed=np.random.default_rng([salt, _entropy(seed)]))
    psi_star = np.zeros(3)
    psi_star[:dim] = result.best_point
    return StrategyResult(rate_fixed=objective(np.zeros(dim)),
                          rate_flex=result.best_value, psi_star=psi_star)


def _entropy(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ValueError("seed must be an integer")


# ---------------------------------------------------------------------------
# experiments


DEFAULT_SWEEP_CFG = ArrayConfig(n_h=8, n_v=2, wavelength=0.03)


def default_sweep_paths() -> PathSet:
    """Bundled five-path demo link used by the power sweep."""
    return PathSet(
        theta=np.array([np.pi / 2, 2 * np.pi / 3, np.pi / 6, np.pi / 3, np.pi / 2]),
        phi=np.array([-np.pi / 2, -np.pi / 3, np.pi / 4, np.pi / 6, np.pi / 2]),
        beta=np.ones(5, dtype=complex),
    )


def experiment_power_sweep(model: FlexModel, spec: PatternSpec, cfg: ArrayConfig | None = None,
                           paths: PathSet | None = None, psi_min: float = -np.pi / 2,
                           psi_max: float = np.pi / 2, steps: int = 181, mount: float = 0.0):
    """Channel power of the flexed array relative to the planar one, in dB."""
    cfg = cfg or DEFAULT_SWEEP_CFG
    paths = paths or default_sweep_paths()
    baseline = channel_power(flexible_channel(model, cfg, spec, paths, 0.0, mount))
    rows = []
    for psi in np.linspace(psi_min, psi_max, steps):
        power = channel_power(flexible_channel(model, cfg, spec, paths, float(psi), mount))
        rows.append((float(psi), 10.0 * np.log10(power / baseline)))
    return ["psi", "power_db_vs_fixed"], rows


def _crb_regime_paths(rng: np.random.Generator, n_paths: int) -> PathSet:
    theta = rng.uniform(np.pi / 3, 2 * np.pi / 3, size=n_paths)
    phi = rng.uniform(-np.pi / 3, np.pi / 3, size=n_paths)
    beta = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)) / np.sqrt(2.0)
    return PathSet(theta=theta, phi=phi, beta=beta)


def experiment_crb_sweep(models: Sequence[FlexModel], spec: PatternSpec, cfg: ArrayConfig,
                         l_values: Sequence[int], draws: int, seed: int, sigma2: float = 1.0,
                         psi_range=(-np.pi / 2, np.pi / 2), grid_size: int = 181,
                         mount: float = 0.0, max_resamples: int = 100):
    """Mean angle CRB of the flex-optimized models against the planar array.

    Draws are paired across path counts and models: each draw samples
    max(l_values) paths once and every L uses the first L of them, so the
    L-to-L and model-to-fixed comparisons see the same randomness (the
    per-path CRB mean is heavy tailed, and unpaired means would be dominated
    by draw noise). Draws whose angles land in a pattern support band or that
    produce a singular Fisher matrix anywhere are redrawn whole.
    """
    l_values = [int(v) for v in l_values]
    l_max = max(l_values)
    fixed_sums = {n: 0.0 for n in l_values}
    optimized_sums = {(model, n): 0.0 for model in models for n in l_values}
    for draw in range(draws):
        rng = np.random.default_rng([1, seed, draw])
        for _ in range(max_resamples):
            full = _crb_regime_paths(rng, l_max)
            try:
                fixed = {}
                optimized = {}
                for n_paths in l_values:
                    paths = PathSet(theta=full.theta[:n_paths], phi=full.phi[:n_paths],
                                    beta=full.beta[:n_paths])
                    fixed[n_paths] = mean_angle_crb(fisher_matrix(
                        FlexModel.PLANAR, cfg, spec, paths, 0.0, mount, sigma2))
                    for model in models:
                        optimized[(model, n_paths)] = optimal_psi_for_crb(
                            model, cfg, spec, paths, mount, sigma2, psi_range, grid_size)[1]
            except (PatternBoundaryError, SingularFisherError, OptimizationError):
                continue
            break
        else:
            raise OptimizationError(f"no valid draw after {max_resamples} resamples")
        for key, value in fixed.items():
            fixed_sums[key] += value
        for key, value in optimized.items():
            optimized_sums[key] += value
    rows = []
    for n_paths in l_values:
        for model in models:
            rows.append((n_paths, model.value,
                         optimized_sums[(model, n_paths)] / draws,
                         fixed_sums[n_paths] / draws))
    return ["L", "model", "mean_crb_optimized", "mean_crb_fixed"], rows


def experiment_sumrate(strategy: str, model: FlexModel, spec: PatternSpec, cfg: ArrayConfig,
                       k_users: int, n_paths: int, snr_values: Sequence[float], trials: int,
                       seed: int, budget_1d: int = 30, budget_3d: int = 60, n_init: int = 4,
                       sigma2: float = 1.0):
    """Monte Carlo sum-rate of one strategy: fixed baseline vs optimized flex."""
    rows = []
    for trial in range(trials):
        scenario = generate_scenario(cfg, spec, model, k_users=k_users, n_paths=n_paths,
                                     snr_db=snr_values[0], sigma2=sigma2, seed=[5, seed, trial])
        for snr_index, snr_db in enumerate(snr_values):
            at_snr = replace(scenario, snr_db=float(snr_db))
            result = optimize_strategy(at_snr, strategy, seed=_mix(seed, trial, snr_index),
                                       budget_1d=budget_1d, budget_3d=budget_3d, n_init=n_init)
            rows.append((trial, float(snr_db), result.rate_fixed, result.rate_flex,
                         *[float(p) for p in result.psi_star]))
    return ["trial", "snr_db", "rate_fixed", "rate_flex", "psi1", "psi2", "psi3"], rows


def _mix(*parts: int) -> int:
    """Fold several small integers into one deterministic seed."""
    mixed = 0
    for part in parts:
        mixed = (mixed * 1_000_003 + int(part) + 1) % (2**63)
    return mixed


def experiment_bo_trace(objective_name: str, scenario: Scenario, seed: int,
                        budget: int | None = None, n_init: int = 4, sector: int = 0):
    """Measurement-by-measurement record of one optimization run."""
    lo, hi = scenario.psi_bounds
    objective, dim = _objective(scenario, objective_name, sector)
    if budget is None:
        budget = 30 if dim == 1 else 60
    result = bayesopt.optimize(objective, [(lo, hi)] * dim, budget, n_init=n_init,
                               seed=np.random.default_rng([6, _entropy(seed)]))
    header = ["iter"] + [f"psi{i + 1}" for i in range(dim)] + ["value", "incumbent"]
    rows = []
    incumbent = -np.inf
    for index, (point, value) in enumerate(result.trace):
        incumbent = max(incumbent, value)
        rows.append((index, *[float(p) for p in point], value, incumbent))
    return header, rows


# ---------------------------------------------------------------------------
# config-driven runner


def config_hash(config: dict) -> str:
    """Stable hash of an experiment configuration."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_csv(target, header: Sequence[str], rows: Sequence, comments: dict | None = None) -> str:
    """Write rows as CSV with `# key: value` comment lines; returns the text."""
    buffer = io.StringIO()
    for key, value in (comments or {}).items():
        buffer.write(f"# {key}: {value}\n")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if target is not None:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", newline="") as handle:
                handle.write(text)
    return text


MODEL_NAMES = {model.value: model for model in FlexModel}


def parse_model(name: str) -> FlexModel:
    try:
        return MODEL_NAMES[name]
    except KeyError:
        raise ConfigError(f"model: expected one of {sorted(MODEL_NAMES)}, got {name!r}") from None


def parse_pattern(kind: str, kappa: float = 1.0) -> PatternSpec:
    try:
        pattern_kind = PatternKind(kind)
    except ValueError:
        raise ConfigError(f"pattern: expected 'omni' or 'cosine', got {kind!r}") from None
    try:
        return PatternSpec(pattern_kind, kappa=float(kappa))
    except ValueError as exc:
        raise ConfigError(f"kappa: {exc}") from None


def _require(config: dict, key: str, cast, default=None, choices=None):
    if key not in config or config[key] is None:
        if default is None and key not in config:
            raise ConfigError(f"{key}: required setting is missing")
        value = default
    else:
        try:
            value = cast(config[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
    if choices is not None and value not in choices:
        raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _flag(value) -> bool:
    """A bool, or one of the strings true/false, 1/0, yes/no, on/off."""
    word = str(value).strip().lower()
    if word not in ("true", "false", "1", "0", "yes", "no", "on", "off"):
        raise ValueError(f"expected true/false, 1/0, yes/no or on/off, got {value!r}")
    return word in ("true", "1", "yes", "on")


def _served_users(k_users: int, cfg: ArrayConfig) -> int:
    """``k_users``, if each array can zero-force that many users."""
    if not 1 <= k_users <= cfg.n_elements:
        raise ConfigError(f"k_users: need 1 <= k_users <= nh*nv = {cfg.n_elements}, "
                          f"got {k_users}")
    return k_users


def _snr_list(raw) -> list:
    if isinstance(raw, (int, float)):
        return [float(raw)]
    values = [part for part in str(raw).replace(",", " ").split() if part]
    if not values:
        raise ConfigError("snr_db: no values given")
    return [float(part) for part in values]


@dataclass
class ExperimentResult:
    header: list
    rows: list
    config_hash: str
    csv_text: str


def run_experiment(config: dict) -> ExperimentResult:
    """Run one named experiment from a flat configuration mapping.

    Writes CSV to ``config['out']`` when present; always returns the result.
    """
    experiment = _require(config, "experiment", str,
                          choices={"power-sweep", "crb-sweep", "sumrate", "bo-trace"})
    seed = _require(config, "seed", int, default=0)
    n_h = _require(config, "nh", int, default=8)
    n_v = _require(config, "nv", int, default=8 if experiment == "crb-sweep" else 2)
    wavelength = _require(config, "wavelength", float, default=0.03)
    cfg = ArrayConfig(n_h=n_h, n_v=n_v, wavelength=wavelength)
    spec = parse_pattern(_require(config, "pattern", str, default="omni"),
                         _require(config, "kappa", float, default=1.0))

    if experiment == "power-sweep":
        model = parse_model(_require(config, "model", str))
        header, rows = experiment_power_sweep(
            model, spec, cfg=cfg,
            psi_min=_require(config, "psi_min", float, default=-np.pi / 2),
            psi_max=_require(config, "psi_max", float, default=np.pi / 2),
            steps=_require(config, "steps", int, default=181),
            mount=_require(config, "mount", float, default=0.0))
    elif experiment == "crb-sweep":
        model_name = _require(config, "model", str, default="all")
        if model_name == "all":
            models = [FlexModel.ROTATABLE, FlexModel.BENDABLE, FlexModel.FOLDABLE]
        else:
            models = [parse_model(model_name)]
        l_min = _require(config, "l_min", int, default=1)
        l_max = _require(config, "l_max", int, default=6)
        if l_min < 1 or l_max < l_min:
            raise ConfigError(f"l_min/l_max: need 1 <= l_min <= l_max, got {l_min}..{l_max}")
        draws = _require(config, "draws", int, default=200)
        if draws < 1:
            raise ConfigError(f"draws: need at least 1, got {draws}")
        header, rows = experiment_crb_sweep(
            models, spec, cfg, list(range(l_min, l_max + 1)), draws=draws, seed=seed,
            sigma2=_require(config, "sigma2", float, default=1.0),
            grid_size=_require(config, "grid_size", int, default=181))
    elif experiment == "sumrate":
        model = parse_model(_require(config, "model", str))
        k_users = _require(config, "k_users", int, default=4)
        if _require(config, "full_load", _flag, default=False):
            k_users = cfg.n_elements
        header, rows = experiment_sumrate(
            _require(config, "strategy", str, choices={"sfp", "jfp", "sjfp"}),
            model, spec, cfg, k_users=_served_users(k_users, cfg),
            n_paths=_require(config, "paths", int, default=5),
            snr_values=_snr_list(config.get("snr_db", 15.0)),
            trials=_require(config, "trials", int, default=10), seed=seed,
            budget_1d=_require(config, "budget_1d", int, default=30),
            budget_3d=_require(config, "budget_3d", int, default=60),
            n_init=_require(config, "n_init", int, default=4),
            sigma2=_require(config, "sigma2", float, default=1.0))
    else:  # bo-trace
        model = parse_model(_require(config, "model", str))
        scenario = generate_scenario(
            cfg, spec, model,
            k_users=_served_users(_require(config, "k_users", int, default=4), cfg),
            n_paths=_require(config, "paths", int, default=5),
            snr_db=_snr_list(config.get("snr_db", 15.0))[0],
            sigma2=_require(config, "sigma2", float, default=1.0),
            seed=[5, seed, 0])
        header, rows = experiment_bo_trace(
            _require(config, "objective", str, choices=set(STRATEGIES)), scenario, seed=seed,
            budget=_require(config, "budget", int, default=0) or None,
            n_init=_require(config, "n_init", int, default=4),
            sector=_require(config, "sector", int, default=0))

    digest = config_hash(config)
    text = write_csv(config.get("out"), header, rows,
                     comments={"config-hash": digest, "seed": seed})
    return ExperimentResult(header=list(header), rows=list(rows),
                            config_hash=digest, csv_text=text)
