"""What ``import flexarray`` brings: no run of the package loads any scipy module, and every
exported name is documented.

Each scipy case runs in a fresh interpreter: this test process has imported scipy
already (the bayesopt tests use it), so ``sys.modules`` here says nothing.
The child prints the names of the loaded modules that start with ``scipy`` as JSON.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import flexarray

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

TINY_RUNS = """
from flexarray.harness import run_experiment
for config in (dict(experiment="crb-sweep", model="all", draws=1, nh=2, nv=2, grid_size=5,
                    l_max=2),
               dict(experiment="power-sweep", model="bend", steps=3),
               dict(experiment="geometry", model="fold", nh=2, nv=1, psi=0.3),
               dict(experiment="pattern", kind="cosine", grid=3)):
    run_experiment(config)
"""
CLI_HELP = """
from flexarray.cli import main
for args in (["--help"], ["sumrate", "--help"]):
    try:
        main(args)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
"""
SUMRATES = """
import numpy as np
from flexarray.geometry import ArrayConfig, FlexModel
from flexarray.harness import generate_scenario
from flexarray.precoding import jfp_sumrate, sjfp_sumrate
from flexarray.radiation import PatternKind, PatternSpec
scenario = generate_scenario(ArrayConfig(4, 2), PatternSpec(PatternKind.COSINE, kappa=2.0),
                             FlexModel.BENDABLE, k_users=4, n_paths=3, seed=0)
for psi in (np.zeros(3), np.array([0.2, -0.1, 0.3])):
    jfp_sumrate(scenario, psi), sjfp_sumrate(scenario, psi)
"""
GP_RUN = """
import numpy as np
from flexarray.bayesopt import optimize
optimize(lambda p: -float(np.sum(p**2)), [(-1.0, 1.0)] * {dim}, budget=2, seed=0)
"""
JFP_CLI_RUN = """
from flexarray.cli import main
try:
    main(["sumrate", "--strategy", "jfp", "--model", "bend", "--trials", "1"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def scipy_modules_after(code: str) -> set:
    script = "import sys, json\n" + code + (
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", ["import flexarray", TINY_RUNS, CLI_HELP, SUMRATES,
                                  GP_RUN.format(dim=1), GP_RUN.format(dim=3), JFP_CLI_RUN],
                         ids=["import", "gp-free-experiments", "cli-help", "scenario-sumrates",
                              "gp-1-D", "gp-3-D", "sumrate-jfp-cli"])  # 3-D: numpy Sobol candidates
def test_no_run_loads_scipy(code):
    assert scipy_modules_after(code) == set()


def test_readme_layout_table_names_every_export():
    """Every name in ``flexarray.__all__`` but the submodules appears backticked in the
    README's "Library layout" section; the table may also name unexported items."""
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([^`]+)`", section))
    exported = {name for name in flexarray.__all__
                if not isinstance(getattr(flexarray, name), ModuleType)}
    assert sorted(exported - documented) == []
