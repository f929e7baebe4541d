"""Command line interface.

One executable with a subcommand per task; every flag can also be supplied
from an INI config file (section named after the subcommand, keys matching
the flag names) via ``--config``, with explicit flags taking precedence.
``--dump-config`` writes the effective settings back out so a run can be
reproduced from the file alone. Exit codes: 0 success, 2 configuration or
usage error, 3 numerical failure.
"""

from __future__ import annotations

import configparser
import json
import platform
import sys

import click
import numpy as np

from . import __version__, harness
from .channel import PathSet
from .errors import ConfigError, FlexArrayError
from .geometry import ArrayConfig, FlexModel, flex_geometry
from .radiation import pattern_gain

MODEL_CHOICE = click.Choice(["planar", "rotate", "bend", "fold"])
FLEX_CHOICE = click.Choice(["rotate", "bend", "fold"])
PATTERN_CHOICE = click.Choice(["omni", "cosine"])


def _load_config_defaults(ctx: click.Context, param: click.Parameter, value):
    """Eager --config callback: INI section values become flag defaults."""
    if not value:
        return value
    parser = configparser.ConfigParser()
    read = parser.read(value)
    if not read:
        raise click.UsageError(f"config file not found: {value}")
    section = ctx.command.name or ""
    if parser.has_section(section):
        defaults = {key.replace("-", "_"): raw for key, raw in parser.items(section)}
        ctx.default_map = {**(ctx.default_map or {}), **defaults}
    return value


def _dump_config(ctx: click.Context, path: str | None) -> None:
    if not path:
        return
    parser = configparser.ConfigParser()
    section = ctx.command.name or "run"
    parser.add_section(section)
    for key, value in ctx.params.items():
        if key in ("config", "dump_config") or value is None:
            continue
        parser.set(section, key, str(value))
    with open(path, "w") as handle:
        parser.write(handle)


def common_options(func):
    func = click.option("--out", default="-", show_default=True,
                        help="Output CSV path, '-' for stdout.")(func)
    func = click.option("--config", is_eager=True, callback=_load_config_defaults,
                        expose_value=True, default=None,
                        help="INI file whose [subcommand] section supplies flag defaults.")(func)
    func = click.option("--dump-config", default=None,
                        help="Write the effective settings to this INI file.")(func)
    return func


def _emit(ctx, out, header, rows, comments) -> None:
    target = sys.stdout if out == "-" else out
    harness.write_csv(target, header, rows, comments)
    _dump_config(ctx, ctx.params.get("dump_config"))


def _run_guarded(ctx, out, builder) -> None:
    try:
        header, rows, comments = builder()
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from exc
    except FlexArrayError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        ctx.exit(3)
    _emit(ctx, out, header, rows, comments)


@click.group()
@click.version_option(version=__version__, prog_name="flexarray",
                      message=f"%(prog)s %(version)s (python {platform.python_version()}, "
                              f"numpy {np.__version__})")
def main():
    """Flexible antenna array simulator."""


@main.command()
@click.option("--model", type=MODEL_CHOICE, required=True, help="Array deformation model.")
@click.option("--nh", type=int, required=True, help="Horizontal element count.")
@click.option("--nv", type=int, required=True, help="Vertical element count.")
@click.option("--psi", type=float, default=0.0, show_default=True, help="Flex angle in radians.")
@click.option("--mount", type=float, default=0.0, show_default=True, help="Mount azimuth in radians.")
@click.option("--wavelength", type=float, default=0.03, show_default=True)
@click.option("--spacing", type=float, default=None, help="Element spacing, default wavelength/2.")
@common_options
@click.pass_context
def geometry(ctx, model, nh, nv, psi, mount, wavelength, spacing, out, config, dump_config):
    """Dump element positions and boresight offsets as CSV."""

    def build():
        cfg = ArrayConfig(n_h=nh, n_v=nv, wavelength=wavelength, spacing=spacing)
        try:
            geom = flex_geometry(FlexModel(model), cfg, psi, mount)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        rows = [(n, *geom.positions[n], geom.orientation_offsets[n])
                for n in range(geom.n_elements)]
        return ["n", "x", "y", "z", "orient"], rows, {"psi": psi, "mount": mount}

    _run_guarded(ctx, out, build)


@main.command()
@click.option("--kind", type=PATTERN_CHOICE, required=True, help="Element pattern kind.")
@click.option("--kappa", type=float, default=1.0, show_default=True, help="Cosine sharpness.")
@click.option("--grid", type=int, default=73, show_default=True,
              help="Grid points per angle axis.")
@common_options
@click.pass_context
def pattern(ctx, kind, kappa, grid, out, config, dump_config):
    """Dump the element gain on a (theta, phi) grid as CSV."""

    def build():
        spec = harness.parse_pattern(kind, kappa)
        if grid < 1:
            raise ConfigError(f"grid: must be >= 1, got {grid}")
        thetas = np.linspace(0.0, np.pi, grid)
        phis = -np.pi + 2.0 * np.pi * (np.arange(grid) + 1) / grid
        rows = [(float(theta), float(phi), pattern_gain(spec, theta, phi))
                for theta in thetas for phi in phis]
        return ["theta", "phi", "gain"], rows, {"kind": kind, "kappa": kappa}

    _run_guarded(ctx, out, build)


def _scenario_paths(path: str) -> PathSet:
    with open(path) as handle:
        data = json.load(handle)
    try:
        beta = np.asarray(data["beta_real"], dtype=float) + 1j * np.asarray(
            data.get("beta_imag", np.zeros(len(data["beta_real"]))), dtype=float)
        return PathSet(theta=np.asarray(data["theta"], dtype=float),
                       phi=np.asarray(data["phi"], dtype=float), beta=beta)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"scenario-file: {exc}") from exc


@main.command("power-sweep")
@click.option("--model", type=FLEX_CHOICE, required=True)
@click.option("--pattern", "pattern_kind", type=PATTERN_CHOICE, default="omni", show_default=True)
@click.option("--kappa", type=float, default=1.0, show_default=True)
@click.option("--psi-min", type=float, default=-np.pi / 2, show_default=True)
@click.option("--psi-max", type=float, default=np.pi / 2, show_default=True)
@click.option("--steps", type=int, default=181, show_default=True)
@click.option("--scenario-file", default=None,
              help="JSON file with theta/phi/beta_real[/beta_imag] path arrays.")
@click.option("--nh", type=int, default=8, show_default=True)
@click.option("--nv", type=int, default=2, show_default=True)
@click.option("--wavelength", type=float, default=0.03, show_default=True)
@click.option("--mount", type=float, default=0.0, show_default=True)
@common_options
@click.pass_context
def power_sweep(ctx, model, pattern_kind, kappa, psi_min, psi_max, steps, scenario_file,
                nh, nv, wavelength, mount, out, config, dump_config):
    """Channel power versus flex angle relative to the planar array."""

    def build():
        spec = harness.parse_pattern(pattern_kind, kappa)
        cfg = ArrayConfig(n_h=nh, n_v=nv, wavelength=wavelength)
        paths = _scenario_paths(scenario_file) if scenario_file else None
        header, rows = harness.experiment_power_sweep(
            FlexModel(model), spec, cfg=cfg, paths=paths,
            psi_min=psi_min, psi_max=psi_max, steps=steps, mount=mount)
        digest = harness.config_hash(dict(ctx.params))
        return header, rows, {"config-hash": digest}

    _run_guarded(ctx, out, build)


@main.command("crb-sweep")
@click.option("--model", type=click.Choice(["rotate", "bend", "fold", "all"]),
              default="all", show_default=True)
@click.option("--pattern", "pattern_kind", type=PATTERN_CHOICE, default="omni", show_default=True)
@click.option("--kappa", type=float, default=1.0, show_default=True)
@click.option("--l-min", "--L-min", "l_min", type=int, default=1, show_default=True)
@click.option("--l-max", "--L-max", "l_max", type=int, default=6, show_default=True)
@click.option("--draws", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--nh", type=int, default=8, show_default=True)
@click.option("--nv", type=int, default=8, show_default=True)
@click.option("--wavelength", type=float, default=0.03, show_default=True)
@click.option("--sigma2", type=float, default=1.0, show_default=True)
@click.option("--grid-size", type=int, default=181, show_default=True)
@common_options
@click.pass_context
def crb_sweep(ctx, model, pattern_kind, kappa, l_min, l_max, draws, seed, nh, nv,
              wavelength, sigma2, grid_size, out, config, dump_config):
    """Mean angle CRB versus number of paths, optimized flex vs planar."""

    def build():
        result = harness.run_experiment({
            "experiment": "crb-sweep", "model": model, "pattern": pattern_kind,
            "kappa": kappa, "l_min": l_min, "l_max": l_max, "draws": draws,
            "seed": seed, "nh": nh, "nv": nv, "wavelength": wavelength,
            "sigma2": sigma2, "grid_size": grid_size})
        return result.header, result.rows, {"config-hash": result.config_hash, "seed": seed}

    _run_guarded(ctx, out, build)


@main.command()
@click.option("--strategy", type=click.Choice(["sfp", "jfp", "sjfp"]), required=True)
@click.option("--model", type=FLEX_CHOICE, required=True)
@click.option("--pattern", "pattern_kind", type=PATTERN_CHOICE, default="omni", show_default=True)
@click.option("--kappa", type=float, default=1.0, show_default=True)
@click.option("--snr-db", default="15", show_default=True,
              help="SNR grid in dB, comma or space separated.")
@click.option("--trials", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--k-users", type=int, default=4, show_default=True)
@click.option("--full-load", is_flag=True, default=False,
              help="Serve as many users per sector as there are elements.")
@click.option("--paths", type=int, default=5, show_default=True)
@click.option("--nh", type=int, default=8, show_default=True)
@click.option("--nv", type=int, default=2, show_default=True)
@click.option("--wavelength", type=float, default=0.03, show_default=True)
@click.option("--budget-1d", type=int, default=30, show_default=True)
@click.option("--budget-3d", type=int, default=60, show_default=True)
@click.option("--n-init", type=int, default=4, show_default=True)
@common_options
@click.pass_context
def sumrate(ctx, strategy, model, pattern_kind, kappa, snr_db, trials, seed, k_users,
            full_load, paths, nh, nv, wavelength, budget_1d, budget_3d, n_init,
            out, config, dump_config):
    """Monte Carlo multi-sector sum-rate, fixed baseline vs optimized flex."""

    def build():
        result = harness.run_experiment({
            "experiment": "sumrate", "strategy": strategy, "model": model,
            "pattern": pattern_kind, "kappa": kappa, "snr_db": snr_db,
            "trials": trials, "seed": seed, "k_users": k_users,
            "full_load": full_load, "paths": paths, "nh": nh, "nv": nv,
            "wavelength": wavelength, "budget_1d": budget_1d, "budget_3d": budget_3d,
            "n_init": n_init})
        return result.header, result.rows, {"config-hash": result.config_hash, "seed": seed}

    _run_guarded(ctx, out, build)


@main.command("bo-trace")
@click.option("--objective", type=click.Choice(list(harness.STRATEGIES)), required=True)
@click.option("--model", type=FLEX_CHOICE, required=True)
@click.option("--pattern", "pattern_kind", type=PATTERN_CHOICE, default="omni", show_default=True)
@click.option("--kappa", type=float, default=1.0, show_default=True)
@click.option("--snr-db", type=float, default=15.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=int, default=0, show_default=True,
              help="Rounds after the initial design; 0 picks 30 (1-D) or 60 (3-D).")
@click.option("--n-init", type=int, default=4, show_default=True)
@click.option("--sector", type=int, default=0, show_default=True,
              help="Sector index for the 1-D objectives.")
@click.option("--k-users", type=int, default=4, show_default=True)
@click.option("--paths", type=int, default=5, show_default=True)
@click.option("--nh", type=int, default=8, show_default=True)
@click.option("--nv", type=int, default=2, show_default=True)
@click.option("--wavelength", type=float, default=0.03, show_default=True)
@common_options
@click.pass_context
def bo_trace(ctx, objective, model, pattern_kind, kappa, snr_db, seed, budget, n_init,
             sector, k_users, paths, nh, nv, wavelength, out, config, dump_config):
    """Dump one optimization run measurement by measurement."""

    def build():
        result = harness.run_experiment({
            "experiment": "bo-trace", "objective": objective, "model": model,
            "pattern": pattern_kind, "kappa": kappa, "snr_db": snr_db, "seed": seed,
            "budget": budget, "n_init": n_init, "sector": sector, "k_users": k_users,
            "paths": paths, "nh": nh, "nv": nv, "wavelength": wavelength})
        return result.header, result.rows, {"config-hash": result.config_hash, "seed": seed}

    _run_guarded(ctx, out, build)


@main.command()
@click.option("--config", "config_path", required=True,
              help="INI file with a [run] section naming the experiment.")
@click.option("--out", default=None, help="Override the output CSV path.")
@click.pass_context
def run(ctx, config_path, out):
    """Run an experiment fully described by a config file."""
    parser = configparser.ConfigParser()
    if not parser.read(config_path):
        raise click.UsageError(f"config file not found: {config_path}")
    if not parser.has_section("run") or not parser.has_option("run", "experiment"):
        raise click.UsageError("config must provide [run] experiment = <name>")
    experiment = parser.get("run", "experiment")
    merged: dict = {"experiment": experiment}
    for section in ("run", experiment):
        if parser.has_section(section):
            for key, value in parser.items(section):
                if key != "experiment":
                    merged[key.replace("-", "_")] = value
    if out:
        merged["out"] = out
    try:
        result = harness.run_experiment(merged)
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from exc
    except FlexArrayError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        ctx.exit(3)
    if not merged.get("out"):
        click.echo(result.csv_text, nl=False)


if __name__ == "__main__":  # pragma: no cover
    main()
