"""The three benchmark workloads: inputs, one operation, and its output check.

Operation ``i`` of workload seed ``s`` draws everything it needs from
``op_seed(s, i)``. The library is called through module attributes
(``harness.optimize_strategy``, not a name bound at import), so the span
wrappers of a traced run see the benchmark's own calls too.
"""

from __future__ import annotations

import math

import numpy as np

from flexarray import harness
from flexarray.geometry import ArrayConfig, FlexModel
from flexarray.radiation import PatternKind, PatternSpec

STRATEGIES = ("sfp", "jfp", "sjfp")
FLEX_MODELS = (FlexModel.ROTATABLE, FlexModel.BENDABLE, FlexModel.FOLDABLE)
CRB_TOL = 1e-12  # optimized CRB may exceed the fixed one by rounding only


def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` under workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class SumRate:
    """One scenario drop through ``optimize_strategy`` for SFP, JFP and SJFP."""

    kind = "sumrate"

    def __init__(self, model: FlexModel, pattern: PatternSpec, k_users: int,
                 budget_1d: int = 30, budget_3d: int = 60, n_init: int = 4):
        self.cfg = ArrayConfig(8, 2, wavelength=0.03)
        self.model = model
        self.pattern = pattern
        self.k_users = k_users
        self.budget_1d = budget_1d
        self.budget_3d = budget_3d
        self.n_init = n_init

    def objective_evals(self) -> dict:
        """Sum-rate evaluations per operation, per strategy: the random
        design, the zero point and the budget of every optimizer run, plus
        the fixed-array rate evaluated once per run."""
        one_d = self.n_init + 1 + self.budget_1d + 1
        three_d = self.n_init + 1 + self.budget_3d + 1
        return {"sfp": 3 * one_d, "jfp": three_d, "sjfp": three_d}

    def build(self, seed: int, index: int):
        s = op_seed(seed, index)
        scenario = harness.generate_scenario(self.cfg, self.pattern, self.model,
                                             k_users=self.k_users, n_paths=5, snr_db=15.0, seed=s)
        return s, scenario

    def run(self, op) -> dict:
        s, scenario = op
        return {strategy: harness.optimize_strategy(
                    scenario, strategy, seed=s, budget_1d=self.budget_1d,
                    budget_3d=self.budget_3d, n_init=self.n_init)
                for strategy in STRATEGIES}

    def check(self, op, output: dict) -> list:
        lo, hi = op[1].psi_bounds
        problems = []
        for strategy, result in output.items():
            fixed, flex = result.rate_fixed, result.rate_flex
            if not (math.isfinite(fixed) and math.isfinite(flex)):
                problems.append(f"{strategy}: non-finite rate ({fixed}, {flex})")
            elif not flex >= fixed:
                problems.append(f"{strategy}: rate_flex {flex!r} < rate_fixed {fixed!r}")
            psi = np.asarray(result.psi_star, dtype=float)
            if psi.shape != (3,) or not np.all((psi >= lo) & (psi <= hi)):
                problems.append(f"{strategy}: psi_star {psi.tolist()} outside [{lo}, {hi}]")
        return problems

    def reference_values(self, output: dict) -> list:
        """Outputs that do not depend on the GP search: the fixed-array rates."""
        return [output[strategy].rate_fixed for strategy in STRATEGIES]

    def quality(self, outputs: list) -> dict:
        """``rate_gain.<strategy>`` = mean rate_flex / mean rate_fixed, as A6
        defines it; ``crb_gain`` does not apply and reads the neutral 1."""
        gains = {}
        for strategy in STRATEGIES:
            fixed = sum(out[strategy].rate_fixed for out in outputs)
            flex = sum(out[strategy].rate_flex for out in outputs)
            gains[f"rate_gain.{strategy}"] = flex / fixed
        gains["crb_gain"] = 1.0
        return gains


class CrbSweep:
    """One CRB draw of ``experiment_crb_sweep`` for all three flex models."""

    kind = "crb"

    def __init__(self, l_values=tuple(range(1, 7)), grid_size: int = 181):
        self.cfg = ArrayConfig(8, 8, wavelength=0.03)
        self.pattern = PatternSpec(PatternKind.COSINE, kappa=2.0)
        self.l_values = list(l_values)
        self.grid_size = grid_size

    def fisher_builds(self) -> int:
        """Fisher matrices per draw without redraws: every grid point of every
        (model, L), plus one planar build per L."""
        return len(self.l_values) * (len(FLEX_MODELS) * self.grid_size + 1)

    def build(self, seed: int, index: int):
        return op_seed(seed, index)

    def run(self, op) -> list:
        _, rows = harness.experiment_crb_sweep(list(FLEX_MODELS), self.pattern, self.cfg,
                                               self.l_values, draws=1, seed=op,
                                               grid_size=self.grid_size)
        return rows

    def check(self, op, output: list) -> list:
        problems = []
        if len(output) != len(self.l_values) * len(FLEX_MODELS):
            problems.append(f"expected {len(self.l_values) * len(FLEX_MODELS)} rows, got {len(output)}")
        for n_paths, model, optimized, fixed in output:
            if not (math.isfinite(optimized) and math.isfinite(fixed) and optimized > 0 and fixed > 0):
                problems.append(f"L={n_paths} {model}: invalid CRB ({optimized}, {fixed})")
            elif not optimized <= fixed * (1.0 + CRB_TOL):
                problems.append(f"L={n_paths} {model}: optimized CRB {optimized!r} > fixed {fixed!r}")
        return problems

    def reference_values(self, output: list) -> list:
        return [value for row in output for value in row[2:]]

    def quality(self, outputs: list) -> dict:
        """``crb_gain`` = mean over (model, L) of mean fixed CRB / mean
        optimized CRB; the ``rate_gain.*`` metrics do not apply and read 1."""
        ratios = []
        for row_index in range(len(outputs[0])):
            fixed = sum(out[row_index][3] for out in outputs)
            optimized = sum(out[row_index][2] for out in outputs)
            ratios.append(fixed / optimized)
        gains = {f"rate_gain.{strategy}": 1.0 for strategy in STRATEGIES}
        gains["crb_gain"] = float(np.mean(ratios))
        return gains


WORKLOADS = {
    "sumrate-light": SumRate(FlexModel.ROTATABLE, PatternSpec(PatternKind.OMNI), k_users=4),
    "sumrate-full": SumRate(FlexModel.BENDABLE, PatternSpec(PatternKind.COSINE, kappa=2.0),
                            k_users=16),
    "crb-sweep": CrbSweep(),
}
