"""Command line interface.

One subcommand per experiment of ``harness.EXPERIMENTS``, generated from its
settings and run through ``harness.run_experiment``. ``--config`` reads flag
defaults from the INI section named after the subcommand (explicit flags
win); a key that names no flag, or a section named like the subcommand but
for case or '_' versus '-', exits 2. ``--dump-config`` writes the settings
back with a ``[run]`` section; ``run`` replays such a file through the
subcommand it names, its other ``[run]`` keys below that one's own. Exit
codes: 0 success, 2 configuration or usage error, 3 numerical failure.
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


def _config_section(path: str, section: str) -> dict:
    """The keys of INI file ``path``'s ``[section]``, '-' read as '_'. A missing file,
    or a section named like ``section`` but for case or '_' versus '-', is a usage error."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise click.UsageError(f"config file not found: {path}")
    folded = section.lower().replace("_", "-")
    for name in parser.sections():
        if name != section and name.lower().replace("_", "-") == folded:
            raise click.UsageError(f"section [{name}]: the {section} settings go under "
                                   f"[{section}]")
    items = parser.items(section) if parser.has_section(section) else []
    return {key.replace("-", "_"): raw for key, raw in items}


def _load_config_defaults(ctx: click.Context, param: click.Parameter, value):
    """Eager --config callback: the keys of the subcommand's section become flag
    defaults, over those ``run`` passes down from its ``[run]`` section."""
    if not value:
        return value
    name = ctx.command.name
    ctx.default_map = {**(ctx.default_map or {}), **_config_section(value, name)}
    known = {option.name for option in ctx.command.params} - {"config", "dump_config"}
    for key in ctx.default_map:
        if key not in known:
            raise click.UsageError(f"{key}: not a {name} setting (in {value})")
    return value


def _dump_config(ctx: click.Context) -> None:
    """Write the settings to ``--dump-config`` with the ``[run]`` section
    that lets ``flexarray run`` replay them."""
    path = ctx.params.get("dump_config")
    if not path:
        return
    parser = configparser.ConfigParser(interpolation=None)
    parser["run"] = {"experiment": ctx.command.name}
    parser[ctx.command.name] = {key: str(value) for key, value in ctx.params.items()
                                if key not in NOT_SETTINGS and value is not None}
    try:
        with open(path, "w") as handle:
            parser.write(handle)
    except OSError as exc:
        raise click.UsageError(f"dump_config: {exc}") from exc


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
        path = None if out == "-" else out
        try:
            text = harness.run_experiment({"experiment": name, **settings, "out": path}).csv_text
        except ConfigError as exc:
            raise click.UsageError(str(exc)) from exc
        except FlexArrayError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            ctx.exit(3)
        except OSError as exc:  # from writing ``out``; an unreadable scenario file is a ConfigError
            raise click.UsageError(f"out: {exc}") from exc
        if path is None:
            click.echo(text, nl=False)
        _dump_config(ctx)

    for setting in reversed(harness.EXPERIMENTS[name]):
        command = _option(setting)(command)
    main.command(name, help=SUMMARIES[name])(command)


for _name in harness.EXPERIMENTS:
    _experiment_command(_name)


@main.command()
@click.option("--config", "config_path", required=True,
              help="INI file with a [run] section naming the experiment.")
@click.option("--out", default=None, help="Override the output CSV path.")
@click.pass_context
def run(ctx, config_path, out):
    """Run an experiment fully described by a config file."""
    settings = _config_section(config_path, "run")
    experiment = settings.pop("experiment", None)
    if experiment not in harness.EXPERIMENTS:
        raise click.UsageError(f"experiment: [run] must name one of "
                               f"{sorted(harness.EXPERIMENTS)}, got {experiment!r}")
    args = ["--config", config_path, *(["--out", out] if out else [])]
    # the other [run] keys sit below the section's; usage errors show the subcommand's usage
    with main.commands[experiment].make_context(experiment, args, parent=ctx.parent,
                                                default_map=settings) as sub:
        sub.command.invoke(sub)


if __name__ == "__main__":  # pragma: no cover
    main()
