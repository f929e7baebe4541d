"""Command line interface.

One executable with a subcommand per task; every flag can also be supplied
from an INI config file (section named after the subcommand, keys matching
the flag names) via ``--config``, with explicit flags taking precedence and
keys that name no flag rejected. ``--dump-config`` writes the effective
settings back out, with the ``[run]`` section that lets ``run`` replay
them. Every subcommand but ``run`` is generated from ``harness.EXPERIMENTS``
and runs, like ``run``, through ``harness.run_experiment``. Exit codes: 0
success, 2 configuration or usage error, 3 numerical failure.
"""

from __future__ import annotations

import configparser
import platform

import click
import numpy as np

from . import __version__, harness
from .errors import ConfigError, FlexArrayError

NOT_SETTINGS = ("out", "config", "dump_config")
SUMMARIES = {
    "geometry": "Dump element positions and boresight offsets as CSV.",
    "pattern": "Dump the element gain on a (theta, phi) grid as CSV.",
    "power-sweep": "Channel power versus flex angle relative to the planar array.",
    "crb-sweep": "Mean angle CRB versus number of paths, optimized flex vs planar.",
    "sumrate": "Monte Carlo multi-sector sum-rate, fixed baseline vs optimized flex.",
    "bo-trace": "Dump one optimization run measurement by measurement.",
}
ALIASES = {"l_min": ("--L-min",), "l_max": ("--L-max",)}
NUMBER_TYPES = {int: int, harness._real: float, harness._positive: float}


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
    """Write the settings to ``--dump-config`` with the ``[run]`` section
    that lets ``flexarray run`` replay them."""
    path = ctx.params.get("dump_config")
    if not path:
        return
    parser = configparser.ConfigParser()
    parser["run"] = {"experiment": ctx.command.name}
    parser[ctx.command.name] = {key: str(value) for key, value in ctx.params.items()
                                if key not in NOT_SETTINGS and value is not None}
    with open(path, "w") as handle:
        parser.write(handle)


def _run_guarded(ctx: click.Context, out: str | None, config: dict) -> None:
    """Run the experiment ``config`` and print its CSV text, or write it to
    ``out`` ('-' or None for stdout); configuration errors exit 2, numerical
    failures 3."""
    path = None if out in (None, "-") else out
    try:
        text = harness.run_experiment({**config, "out": path}).csv_text
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


def _option(setting: harness.Setting):
    """The flag of one experiment setting; click parses it as an integer or
    a float when the setting casts to one, else as the type of its default."""
    flags = ("--" + setting.name.replace("_", "-"), *ALIASES.get(setting.name, ()))
    kwargs = {"type": click.Choice(setting.choices) if setting.choices
              else NUMBER_TYPES.get(setting.cast), "help": setting.help}
    if setting.default is harness.REQUIRED:
        kwargs["required"] = True
    else:
        kwargs.update(default=setting.default, show_default=True,
                      is_flag=isinstance(setting.default, bool))
    return click.option(*flags, setting.name, **kwargs)


def _experiment_command(name: str) -> None:
    @click.option("--dump-config", default=None,
                  help="Write the effective settings to this INI file.")
    @click.option("--config", is_eager=True, callback=_load_config_defaults, default=None,
                  help="INI file whose [subcommand] section supplies flag defaults.")
    @click.option("--out", default="-", show_default=True,
                  help="Output CSV path, '-' for stdout.")
    @click.pass_context
    def command(ctx, out, config, dump_config, **settings):
        _run_guarded(ctx, out, {"experiment": name, **settings})

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
    _run_guarded(ctx, out or config.get("out"), config)


if __name__ == "__main__":  # pragma: no cover
    main()
