"""Command line interface.

One executable with a subcommand per task; every flag can also be supplied
from an INI config file (section named after the subcommand, keys matching
the flag names) via ``--config``, with explicit flags taking precedence and
keys that name no flag rejected. ``--dump-config`` writes the effective
settings back out so a run can be reproduced from the file alone. The four
experiment subcommands are generated from ``harness.EXPERIMENTS`` and run,
like ``run``, through ``harness.run_experiment``. Exit codes: 0 success, 2
configuration or usage error, 3 numerical failure.
"""

from __future__ import annotations

import configparser
import platform

import click
import numpy as np

from . import __version__, harness
from .errors import ConfigError, FlexArrayError
from .geometry import ArrayConfig, FlexModel, flex_geometry, mounted_geometry
from .radiation import pattern_gain

MODEL_CHOICE = click.Choice(["planar", "rotate", "bend", "fold"])
PATTERN_CHOICE = click.Choice(["omni", "cosine"])
NOT_SETTINGS = ("out", "config", "dump_config")
SUMMARIES = {
    "power-sweep": "Channel power versus flex angle relative to the planar array.",
    "crb-sweep": "Mean angle CRB versus number of paths, optimized flex vs planar.",
    "sumrate": "Monte Carlo multi-sector sum-rate, fixed baseline vs optimized flex.",
    "bo-trace": "Dump one optimization run measurement by measurement.",
}
ALIASES = {"l_min": ("--L-min",), "l_max": ("--L-max",)}


def _load_config_defaults(ctx: click.Context, param: click.Parameter, value):
    """Eager --config callback: INI section values become flag defaults."""
    if not value:
        return value
    parser = configparser.ConfigParser()
    if not parser.read(value):
        raise click.UsageError(f"config file not found: {value}")
    section = ctx.command.name or ""
    if parser.has_section(section):
        defaults = {key.replace("-", "_"): raw for key, raw in parser.items(section)}
        known = {option.name for option in ctx.command.params}
        for key in defaults:
            if key not in known or key in ("config", "dump_config"):
                raise click.UsageError(f"{key}: not a {section} setting (in {value})")
        ctx.default_map = {**(ctx.default_map or {}), **defaults}
    return value


def _dump_config(ctx: click.Context) -> None:
    """Write the settings to ``--dump-config``; an experiment also gets the
    ``[run]`` section that lets ``flexarray run`` replay it."""
    path = ctx.params.get("dump_config")
    if not path:
        return
    parser = configparser.ConfigParser()
    if ctx.command.name in harness.EXPERIMENTS:
        parser["run"] = {"experiment": ctx.command.name}
    parser[ctx.command.name] = {key: str(value) for key, value in ctx.params.items()
                                if key not in NOT_SETTINGS and value is not None}
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


def _run_guarded(ctx: click.Context, out: str | None, build) -> None:
    """Print the CSV text ``build(path)`` returns, or let it write ``path``
    (None for stdout); configuration errors exit 2, numerical failures 3."""
    path = None if out in (None, "-") else out
    try:
        text = build(path)
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from exc
    except FlexArrayError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        ctx.exit(3)
    if path is None:
        click.echo(text, nl=False)
    _dump_config(ctx)


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

    def build(path):
        try:
            cfg = ArrayConfig(n_h=nh, n_v=nv, wavelength=wavelength, spacing=spacing)
            geom = flex_geometry(FlexModel(model), cfg, psi)
            if mount != 0.0:  # a rotation by 0 would print -0.0 as 0.0
                geom = mounted_geometry(geom, mount)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        rows = [(n, *geom.positions[n], geom.orientation_offsets[n])
                for n in range(geom.n_elements)]
        return harness.write_csv(path, ["n", "x", "y", "z", "orient"], rows,
                                 {"psi": psi, "mount": mount})

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

    def build(path):
        spec = harness.parse_pattern(kind, kappa)
        if grid < 1:
            raise ConfigError(f"grid: must be >= 1, got {grid}")
        thetas = np.linspace(0.0, np.pi, grid)
        phis = -np.pi + 2.0 * np.pi * (np.arange(grid) + 1) / grid
        rows = [(float(theta), float(phi), pattern_gain(spec, theta, phi))
                for theta in thetas for phi in phis]
        return harness.write_csv(path, ["theta", "phi", "gain"], rows,
                                 {"kind": kind, "kappa": kappa})

    _run_guarded(ctx, out, build)


def _option(setting: harness.Setting):
    """The flag of one experiment setting; click parses it as the type of
    its default."""
    flags = ("--" + setting.name.replace("_", "-"), *ALIASES.get(setting.name, ()))
    kwargs = {"type": click.Choice(setting.choices) if setting.choices else None,
              "help": setting.help}
    if setting.default is harness.REQUIRED:
        kwargs["required"] = True
    else:
        kwargs.update(default=setting.default, show_default=True,
                      is_flag=isinstance(setting.default, bool))
    return click.option(*flags, setting.name, **kwargs)


def _experiment_command(name: str) -> None:
    @click.pass_context
    def command(ctx, out, config, dump_config, **settings):
        _run_guarded(ctx, out, lambda path: harness.run_experiment(
            {"experiment": name, **settings, "out": path}).csv_text)

    command = common_options(command)
    for setting in reversed(harness.EXPERIMENTS[name]):
        command = _option(setting)(command)
    main.command(name, help=SUMMARIES[name])(command)


for _name in harness.EXPERIMENTS:
    _experiment_command(_name)


def _section_key(name: str) -> str:
    """A section name with case and '_' versus '-' folded away."""
    return name.lower().replace("_", "-")


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
    if not parser.has_option("run", "experiment"):
        raise click.UsageError("config must provide [run] experiment = <name>")
    experiment = parser.get("run", "experiment")
    for section in parser.sections():
        if section != experiment and _section_key(section) == _section_key(experiment):
            raise click.UsageError(f"section [{section}]: the {experiment} settings go "
                                   f"under [{experiment}]")
    config: dict = {}
    for section in ("run", experiment):
        if parser.has_section(section):
            config.update((key.replace("-", "_"), value) for key, value in parser.items(section))
    _run_guarded(ctx, out or config.get("out"),
                 lambda path: harness.run_experiment({**config, "out": path}).csv_text)


if __name__ == "__main__":  # pragma: no cover
    main()
