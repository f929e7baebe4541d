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
from typing import Any, Callable, Sequence

import numpy as np

from . import bayesopt, precoding
from .channel import PathSet, channel_power, flexible_channel, sector_block
from .errors import (ConfigError, FlexArrayError, OptimizationError, PatternBoundaryError,
                     RankDeficiencyError, SingularFisherError)
from .estimation import fisher_matrix, mean_angle_crb, optimal_psi_for_crb
from .geometry import PSI_RANGES, ArrayConfig, FlexModel, flex_geometry, mounted_geometry
from .radiation import PatternKind, PatternSpec, pattern_gain

SECTOR_RANGES = ((-np.pi / 3, np.pi / 3), (np.pi / 3, np.pi), (np.pi, 5 * np.pi / 3))
ELEVATION_RANGE = (np.pi / 3, 2 * np.pi / 3)

STRATEGIES = ("single-sector", "sfp", "jfp", "sjfp")
SNR_DB_MAX = 300.0  # a linear 1e30 keeps SINR products far from float overflow (at 3082 dB)
SIGMA2_MAX = 1e30  # a path SNR of at least -300 dB; near 1e307 the CRB's inverse overflows
SIGMA2_MIN = 1e-30  # a path SNR of at most 300 dB; near 1e-308 the Fisher scale overflows
CRB_PSI_RANGE = (-np.pi / 2, np.pi / 2)  # flex angles searched by experiment_crb_sweep
CRB_MAX_RESAMPLES = 100  # redraws of one experiment_crb_sweep draw before it fails


@dataclass(frozen=True)
class Scenario:
    """One realization of the three-sector system.

    ``paths`` holds the paths of every user, shape (3 sectors, K, L), with
    global azimuths. Every array sees the same paths:
    :func:`~flexarray.channel.sector_block` subtracts its mount. The path set
    keeps the channel's flex-independent factors, and its arrays are
    read-only from the first channel build on.
    """

    cfg: ArrayConfig
    pattern: PatternSpec
    flex_model: FlexModel
    snr_db: float
    paths: PathSet

    def __post_init__(self):
        shape = self.paths.theta.shape if isinstance(self.paths, PathSet) else None
        if shape is None or len(shape) != 3 or shape[0] != 3:
            raise ValueError(f"paths must be a PathSet of shape (3, K, L), got {shape}")

    @property
    def k_users(self) -> int:
        return self.paths.theta.shape[1]

    @property
    def psi_bounds(self) -> tuple:
        return PSI_RANGES[self.flex_model].search

    @property
    def p_total(self) -> float:
        """Total transmit power for the configured SNR = P / NOISE_POWER."""
        return precoding.NOISE_POWER * 10.0 ** (self.snr_db / 10.0)


def generate_scenario(cfg: ArrayConfig, pattern: PatternSpec, flex_model: FlexModel,
                      k_users: int = 4, n_paths: int = 5, snr_db: float = 15.0,
                      seed=0) -> Scenario:
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
                    paths=PathSet(theta=theta, phi=phi, beta=beta))


def _objective(scenario: Scenario, strategy: str, sector: int = 0, leakage=None):
    """The sum-rate an optimizer maximizes for ``strategy`` and the number of
    flex angles it takes; a rank-deficient flex angle scores 0 instead of
    aborting the run.

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
        def rate(psi):
            geometry = flex_geometry(scenario.flex_model, scenario.cfg, float(psi[0]))
            own = sector_block(scenario, geometry, sector, sector)
            return precoding.single_sector_sumrate(own, scenario.p_total, precoding.NOISE_POWER)
    elif strategy == "sfp":
        if leakage is None:
            leakage = precoding.sfp_leakage(scenario, np.zeros(3))

        def rate(psi):
            return precoding.sector_rate_given_leakage(scenario, sector, float(psi[0]),
                                                       leakage[sector])
    else:
        sumrate = precoding.jfp_sumrate if strategy == "jfp" else precoding.sjfp_sumrate

        def rate(psi):
            return sumrate(scenario, psi)

    def objective(psi):
        try:
            return rate(psi)
        except RankDeficiencyError:
            return 0.0

    return objective, 3 if strategy in ("jfp", "sjfp") else 1


@dataclass(eq=False)
class StrategyResult:
    """Fixed-array baseline versus flex-optimized sum-rate of one scenario;
    ``==`` compares values, ``psi_star`` elementwise."""

    rate_fixed: float
    rate_flex: float
    psi_star: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, StrategyResult):
            return NotImplemented
        return ((self.rate_fixed, self.rate_flex) == (other.rate_fixed, other.rate_flex)
                and np.array_equal(self.psi_star, other.psi_star))


def optimize_strategy(scenario: Scenario, strategy: str, seed=0,
                      budget_1d: int = 30, budget_3d: int = 60, n_init: int = 4) -> StrategyResult:
    """Optimize the flex angles for one strategy on one scenario.

    SFP runs one 1-D optimization per sector, each against the leakage of the
    planar arrays, and sums the three results; every other strategy is one
    run on its full objective. The zero point is always part of a run's
    design, so ``rate_flex`` can never fall below ``rate_fixed`` (the planar
    baseline of the same strategy).
    """
    lo, hi = scenario.psi_bounds
    leakage = precoding.sfp_leakage(scenario, np.zeros(3)) if strategy == "sfp" else None
    fixed = flex = 0.0
    psi_star = np.zeros(3)
    for m in range(3) if strategy == "sfp" else [0]:
        objective, dim = _objective(scenario, strategy, m, leakage)
        salt = [3, m] if strategy == "sfp" else [2 if dim == 1 else 4]
        result = bayesopt.optimize(objective, [(lo, hi)] * dim,
                                   budget_1d if dim == 1 else budget_3d, n_init=n_init,
                                   seed=np.random.default_rng([*salt, _entropy(seed)]))
        fixed += objective(np.zeros(dim))
        flex += result.best_value
        psi_star[m:m + dim] = result.best_point
    return StrategyResult(rate_fixed=fixed, rate_flex=flex, psi_star=psi_star)


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
    """Channel power of the flexed array relative to the planar one, in dB; the reference
    and every step are one channel build over the flex angles."""
    if steps < 1:
        raise ValueError(f"steps: need at least one flex angle, got {steps!r}")
    cfg = cfg or DEFAULT_SWEEP_CFG
    paths = paths or default_sweep_paths()
    grid = [float(psi) for psi in np.linspace(psi_min, psi_max, steps)]
    with np.errstate(all="ignore"):  # zero or overflowing power is caught below
        baseline, *powers = [np.float64(channel_power(h)) for h in flexible_channel(
            model, cfg, spec, paths, np.array([0.0, *grid]), mount)]
        rows = [(psi, 10.0 * np.log10(power / baseline)) for psi, power in zip(grid, powers)]
    if not np.isfinite([db for _, db in rows]).all():
        raise FlexArrayError("zero power or an overflow at some shape; the dB ratio is undefined")
    return ["psi", "power_db_vs_fixed"], rows


def _crb_regime_paths(rng: np.random.Generator, n_paths: int) -> PathSet:
    theta = rng.uniform(*ELEVATION_RANGE, size=n_paths)
    phi = rng.uniform(*SECTOR_RANGES[0], size=n_paths)
    beta = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)) / np.sqrt(2.0)
    return PathSet(theta=theta, phi=phi, beta=beta)


def experiment_crb_sweep(models: Sequence[FlexModel], spec: PatternSpec, cfg: ArrayConfig,
                         l_values: Sequence[int], draws: int, seed: int, sigma2: float = 1.0,
                         grid_size: int = 181):
    """Mean angle CRB of the flex-optimized models against the planar array.

    Draws are paired across path counts and models: each draw samples
    max(l_values) paths once and every L uses the first L of them, so the
    L-to-L and model-to-fixed comparisons see the same randomness (the
    per-path CRB mean is heavy tailed, and unpaired means would be dominated
    by draw noise). A grid point on a pattern support edge or with a singular
    Fisher matrix is skipped; a draw is redrawn whole only when its planar build
    fails either way or every point of some grid fails. Arrays are unmounted.
    """
    if draws < 1:
        raise ValueError(f"draws: need at least one draw, got {draws!r}")
    models, l_values = list(models), [int(v) for v in l_values]
    if not models or FlexModel.PLANAR in models or len(set(models)) < len(models):
        raise ValueError(f"models: need distinct flex models, none planar, got {models!r}")
    if not l_values or min(l_values) < 1 or len(set(l_values)) < len(l_values):
        raise ValueError(f"l_values: need distinct path counts, each >= 1, got {l_values!r}")
    l_max = max(l_values)
    fixed_sums = {n: 0.0 for n in l_values}
    optimized_sums = {(model, n): 0.0 for model in models for n in l_values}
    for draw in range(draws):
        rng = np.random.default_rng([1, seed, draw])
        for _ in range(CRB_MAX_RESAMPLES):
            full = _crb_regime_paths(rng, l_max)
            try:
                fixed = {n: mean_angle_crb(fisher_matrix(
                    FlexModel.PLANAR, cfg, spec, full[:n], 0.0, 0.0, sigma2)) for n in l_values}
                optimized = {}
                for model in models:  # a fresh root per model keeps one model's grams alive
                    root = PathSet(full.theta, full.phi, full.beta)
                    optimized.update({(model, n): optimal_psi_for_crb(
                        model, cfg, spec, root[:n], 0.0, sigma2, CRB_PSI_RANGE, grid_size)[1]
                        for n in l_values})
            except (PatternBoundaryError, SingularFisherError, OptimizationError):
                continue
            break
        else:
            raise OptimizationError(f"no valid draw after {CRB_MAX_RESAMPLES} resamples")
        for key, value in fixed.items():
            fixed_sums[key] += value
        for key, value in optimized.items():
            optimized_sums[key] += value
    rows = [(n_paths, model.value, optimized_sums[(model, n_paths)] / draws,
             fixed_sums[n_paths] / draws) for n_paths in l_values for model in models]
    return ["L", "model", "mean_crb_optimized", "mean_crb_fixed"], rows


def experiment_sumrate(strategy: str, model: FlexModel, spec: PatternSpec, cfg: ArrayConfig,
                       k_users: int, n_paths: int, snr_values: Sequence[float], trials: int,
                       seed: int, budget_1d: int = 30, budget_3d: int = 60, n_init: int = 4):
    """Monte Carlo sum-rate of one strategy: fixed baseline vs optimized flex."""
    if len(snr_values) == 0:
        raise ValueError("snr_values: need at least one SNR")
    rows = []
    for trial in range(trials):
        scenario = generate_scenario(cfg, spec, model, k_users=k_users, n_paths=n_paths,
                                     snr_db=snr_values[0], seed=[5, seed, trial])
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


def write_csv(path, header: Sequence[str], rows: Sequence, comments: dict | None = None) -> str:
    """Write rows as CSV with `# key: value` comment lines to ``path`` (None
    writes no file); returns the text."""
    buffer = io.StringIO()
    for key, value in (comments or {}).items():
        buffer.write(f"# {key}: {value}\n")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    return text


def parse_pattern(kind: str, kappa: float = 1.0) -> PatternSpec:
    """The pattern ``kind`` ('omni' or 'cosine', checked by the caller) with
    sharpness ``kappa``; a kappa the pattern cannot take is a ConfigError."""
    try:
        return PatternSpec(PatternKind(kind), kappa=_real(kappa))
    except ValueError as exc:
        raise ConfigError(f"kappa: {exc}") from None


def _real(raw) -> float:
    """A finite float."""
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _positive(raw) -> float:
    """A finite float above 0."""
    value = _real(raw)
    if value <= 0:
        raise ValueError(f"must be > 0, got {value}")
    return value


def _flag(value) -> bool:
    """A bool, or one of the strings true/false, 1/0, yes/no, on/off."""
    word = str(value).strip().lower()
    if word not in ("true", "false", "1", "0", "yes", "no", "on", "off"):
        raise ValueError(f"expected true/false, 1/0, yes/no or on/off, got {value!r}")
    return word in ("true", "1", "yes", "on")


def _real_list(raw) -> list:
    """Finite floats from a number, a sequence, or a comma or space separated string."""
    if isinstance(raw, (int, float)):
        raw = [raw]
    elif isinstance(raw, str):
        raw = raw.replace(",", " ").split()
    if len(raw) == 0:
        raise ValueError("no values given")
    return [_real(part) for part in raw]


def _scenario_paths(path: str) -> PathSet:
    """The paths in a JSON file with theta/phi/beta_real[/beta_imag] arrays."""
    try:
        with open(path) as handle:
            data = json.load(handle)
        beta = np.asarray(data["beta_real"], dtype=float) + 1j * np.asarray(
            data.get("beta_imag", np.zeros(len(data["beta_real"]))), dtype=float)
        return PathSet(theta=data["theta"], phi=data["phi"], beta=beta).link()
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"scenario_file: {exc}") from None


REQUIRED = object()


@dataclass(frozen=True)
class Setting:
    """One experiment setting: the CLI flag ``--name`` (underscores as
    hyphens), the INI key and the :func:`run_experiment` key ``name``.

    ``cast`` reads a flag, INI or library value and raises ValueError on one
    it cannot take; values below ``low`` are rejected too. A setting without
    a default is required. The CLI parses a flag as an integer or a float
    when ``cast`` reads one, else as the type of its default.
    """

    name: str
    cast: Callable = str
    default: Any = REQUIRED
    choices: tuple = ()
    low: int | None = None
    help: str | None = None


_FLEX_MODELS = ("rotate", "bend", "fold")
_MODEL = Setting("model", choices=_FLEX_MODELS, help="Array deformation model.")
_KAPPA = Setting("kappa", _real, 1.0, help="Cosine sharpness (>= 1).")
_PATTERN = (Setting("pattern", str, "omni", ("omni", "cosine"), help="Element pattern kind."),
            _KAPPA)
_MOUNT = Setting("mount", _real, 0.0, help="Mount azimuth in radians.")
_WAVELENGTH = Setting("wavelength", _positive, 0.03, help="Carrier wavelength in metres.")
_SEED = Setting("seed", int, 0, low=0)
_N_INIT = Setting("n_init", int, 4, low=1, help="Random points before the GP rounds.")
_USERS = (Setting("k_users", int, 4, low=1, help="Users per sector."),
          Setting("paths", int, 5, low=1, help="Paths per user."))


def _array(n_v: int) -> tuple:
    return (Setting("nh", int, 8, low=1, help="Horizontal element count."),
            Setting("nv", int, n_v, low=1, help="Vertical element count."), _WAVELENGTH)


EXPERIMENTS = {
    "geometry": (
        Setting("model", choices=("planar",) + _FLEX_MODELS, help="Array deformation model."),
        Setting("nh", int, low=1, help="Horizontal element count."),
        Setting("nv", int, low=1, help="Vertical element count."),
        Setting("psi", _real, 0.0, help="Flex angle in radians."), _MOUNT, _WAVELENGTH,
        Setting("spacing", _positive, None, help="Element spacing, default wavelength/2.")),
    "pattern": (
        Setting("kind", choices=("omni", "cosine"), help="Element pattern kind."), _KAPPA,
        Setting("grid", int, 73, low=1, help="Grid points per angle axis.")),
    "power-sweep": (
        _MODEL, *_PATTERN,
        Setting("psi_min", _real, -np.pi / 2), Setting("psi_max", _real, np.pi / 2),
        Setting("steps", int, 181, low=1, help="Flex angles in the sweep."),
        Setting("scenario_file", str, None,
                help="JSON file with theta/phi/beta_real[/beta_imag] path arrays."),
        *_array(2), _MOUNT),
    "crb-sweep": (
        Setting("model", str, "all", _FLEX_MODELS + ("all",), help="Array deformation model."),
        *_PATTERN,
        Setting("l_min", int, 1, low=1, help="Fewest paths."),
        Setting("l_max", int, 6, help="Most paths."),
        Setting("draws", int, 200, low=1, help="Path draws averaged per L."),
        _SEED, *_array(8),
        Setting("sigma2", _positive, 1.0, help="Noise power."),
        Setting("grid_size", int, 181, low=2, help="Flex angles searched per model.")),
    "sumrate": (
        Setting("strategy", choices=("sfp", "jfp", "sjfp")),
        _MODEL, *_PATTERN,
        Setting("snr_db", _real_list, "15", help="SNR grid in dB, comma or space separated."),
        Setting("trials", int, 10, low=1), _SEED, *_USERS,
        Setting("full_load", _flag, False,
                help="Serve as many users per sector as there are elements."),
        *_array(2),
        Setting("budget_1d", int, 30, low=0, help="BO rounds per sector angle."),
        Setting("budget_3d", int, 60, low=0, help="BO rounds for the three joint angles."),
        _N_INIT),
    "bo-trace": (
        Setting("objective", choices=STRATEGIES),
        _MODEL, *_PATTERN,
        Setting("snr_db", _real, 15.0), _SEED,
        Setting("budget", int, 0, low=0,
                help="Rounds after the initial design; 0 picks 30 (1-D) or 60 (3-D)."),
        _N_INIT, Setting("sector", int, 0, help="Sector index for the 1-D objectives."),
        *_USERS, *_array(2)),
}


def _resolve(config: dict) -> dict:
    """The experiment named by ``config['experiment']`` and its settings: cast,
    range-checked and defaulted (also for a None value). Every other key but
    ``out`` must name one of its settings."""
    experiment = config.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: expected one of {sorted(EXPERIMENTS)}, got {experiment!r}")
    settings = EXPERIMENTS[experiment]
    unknown = set(config) - {setting.name for setting in settings} - {"experiment", "out"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: not a {experiment} setting")
    resolved = {"experiment": experiment}
    for setting in settings:
        raw = config.get(setting.name)
        if raw is None:
            if setting.default is REQUIRED:
                raise ConfigError(f"{setting.name}: required setting is missing")
            raw = setting.default
        try:
            value = None if raw is None else setting.cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{setting.name}: {exc}") from None
        if setting.choices and value not in setting.choices:
            raise ConfigError(f"{setting.name}: expected one of {list(setting.choices)}, "
                              f"got {value!r}")
        if setting.low is not None and value < setting.low:
            raise ConfigError(f"{setting.name}: need >= {setting.low}, got {value}")
        resolved[setting.name] = value
    return resolved


@dataclass
class ExperimentResult:
    header: list
    rows: list
    config_hash: str
    csv_text: str


def _array_config(s: dict) -> ArrayConfig:
    """The array of resolved settings ``s``; the bend model needs two columns."""
    try:  # a subnormal wavelength halves to a zero spacing
        cfg = ArrayConfig(n_h=s["nh"], n_v=s["nv"], wavelength=s["wavelength"],
                          spacing=s.get("spacing"))
    except ValueError as exc:
        raise ConfigError(f"wavelength: {exc}") from None
    if s["model"] in ("bend", "all") and cfg.n_h < 2:
        raise ConfigError(f"nh: the bend model needs nh >= 2, got {cfg.n_h}")
    return cfg


def _users(s: dict, cfg: ArrayConfig) -> int:
    """Users per sector: ``k_users``, or one per element at full load; zero
    forcing serves at most one user per element, at an SNR up to SNR_DB_MAX."""
    k_users = cfg.n_elements if s.get("full_load") else s["k_users"]
    if k_users > cfg.n_elements:
        raise ConfigError(f"k_users: need k_users <= nh*nv = {cfg.n_elements}, got {k_users}")
    if np.max(s["snr_db"]) > SNR_DB_MAX:
        raise ConfigError(f"snr_db: need <= {SNR_DB_MAX:g} dB, got {s['snr_db']}")
    return k_users


def _check_shape_range(s: dict, *keys: str) -> None:
    """The flex angles ``s[key]`` must lie in the shape range of ``s['model']``."""
    limit = PSI_RANGES[FlexModel(s["model"])].limit
    for key in keys:
        if abs(s[key]) > limit:
            raise ConfigError(f"{key}: the {s['model']} model takes |psi| <= {limit:.6g} "
                              f"(pi for bend, pi/2 for fold), got {s[key]!r}")


def run_experiment(config: dict) -> ExperimentResult:
    """Run one named experiment from a flat mapping of its settings (see
    ``EXPERIMENTS`` and :func:`_resolve`).

    Writes CSV to ``config['out']`` when present; always returns the result.
    The config hash covers the experiment and its resolved settings only.
    """
    s = _resolve(config)
    experiment = s["experiment"]
    if "pattern" in s:  # power-sweep, crb-sweep, sumrate and bo-trace
        cfg, spec = _array_config(s), parse_pattern(s["pattern"], s["kappa"])
    if experiment == "geometry":
        cfg = _array_config(s)
        _check_shape_range(s, "psi")
        geom = flex_geometry(FlexModel(s["model"]), cfg, s["psi"])
        if s["mount"] != 0.0:  # a rotation by 0 would print -0.0 as 0.0
            geom = mounted_geometry(geom, s["mount"])
        header = ["n", "x", "y", "z", "orient"]
        rows = [(n, *position, offset) for n, (position, offset)
                in enumerate(zip(geom.positions, geom.orientation_offsets))]
    elif experiment == "pattern":
        spec, grid = parse_pattern(s["kind"], s["kappa"]), s["grid"]
        phis = -np.pi + 2.0 * np.pi * (np.arange(grid) + 1) / grid
        header = ["theta", "phi", "gain"]
        rows = [(float(theta), float(phi), pattern_gain(spec, theta, phi))
                for theta in np.linspace(0.0, np.pi, grid) for phi in phis]
    elif experiment == "power-sweep":
        _check_shape_range(s, "psi_min", "psi_max")
        paths = _scenario_paths(s["scenario_file"]) if s["scenario_file"] else None
        header, rows = experiment_power_sweep(
            FlexModel(s["model"]), spec, cfg=cfg, paths=paths, psi_min=s["psi_min"],
            psi_max=s["psi_max"], steps=s["steps"], mount=s["mount"])
    elif experiment == "crb-sweep":
        names = _FLEX_MODELS if s["model"] == "all" else [s["model"]]
        if s["l_max"] < s["l_min"]:
            raise ConfigError(f"l_max: need l_min <= l_max, got {s['l_min']}..{s['l_max']}")
        if not SIGMA2_MIN <= s["sigma2"] <= SIGMA2_MAX:
            raise ConfigError(f"sigma2: need {SIGMA2_MIN:g} to {SIGMA2_MAX:g}, got {s['sigma2']}")
        header, rows = experiment_crb_sweep(
            [FlexModel(name) for name in names], spec, cfg,
            list(range(s["l_min"], s["l_max"] + 1)), draws=s["draws"], seed=s["seed"],
            sigma2=s["sigma2"], grid_size=s["grid_size"])
    elif experiment == "sumrate":
        header, rows = experiment_sumrate(
            s["strategy"], FlexModel(s["model"]), spec, cfg,
            k_users=_users(s, cfg), n_paths=s["paths"], snr_values=s["snr_db"],
            trials=s["trials"], seed=s["seed"], budget_1d=s["budget_1d"],
            budget_3d=s["budget_3d"], n_init=s["n_init"])
    else:  # bo-trace
        scenario = generate_scenario(
            cfg, spec, FlexModel(s["model"]), k_users=_users(s, cfg),
            n_paths=s["paths"], snr_db=s["snr_db"], seed=[5, s["seed"], 0])
        header, rows = experiment_bo_trace(
            s["objective"], scenario, seed=s["seed"], budget=s["budget"] or None,
            n_init=s["n_init"], sector=s["sector"])

    digest = config_hash(s)
    comments = {"config-hash": digest}
    if "seed" in s:
        comments["seed"] = s["seed"]
    text = write_csv(config.get("out"), header, rows, comments)
    return ExperimentResult(header=list(header), rows=list(rows),
                            config_hash=digest, csv_text=text)
