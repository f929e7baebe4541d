"""Acceptance suite: one test per verification criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``). Every
A6 sum-rate line names its operating point: K users per sector and the mean
flex and fixed sum-rates behind the ratio.

The statistical sum-rate bands pin the abstract's gains of a flexible array
over the fixed planar one: +35% for SFP and +281% for SJFP (rotatable array,
omni pattern), and +156% for JFP (bendable array, directional pattern). At
the light load of K = 4 users on N = 16 elements per sector these gains are
out of reach for any optimizer: with seed 0 at 15 dB, L = 5, rotatable array
and omni pattern, a grid search over the shape angles tops out at mean
ratios of 1.041 (SFP, 200 trials, 181 points per sector), 1.327 (SJFP, 12
trials, 13^3 grid) and 1.041 (JFP, same trials and grid), against the 1.039,
1.249 and 1.030 that Bayesian optimization reaches. A lightly loaded
zero-forcing baseline leaves little headroom for shape gains.

Under full load (K = N, the ``--full-load`` rule of ``run_experiment``) the
SFP and SJFP gains do materialize, and the README names that operating
point: with the same seed and 200 trials SFP reads 1.236 (bootstrap 95%
interval 1.208-1.266) and SJFP 3.320 (3.165-3.481), near the abstract's
1.35 and 3.81. A6c-rotatable and A6d therefore run at K = N; the other
sum-rate criteria stay at K = 4. A6b's operating point is not settled by
``PAPER.md`` or the README; see the comment on it.
"""

from typing import NamedTuple

import numpy as np
import pytest

from flexarray.bayesopt import GpDataset, Kernel, optimize
from flexarray.channel import PathSet, flexible_channel
from flexarray.estimation import fisher_matrix
from flexarray.geometry import ArrayConfig, FlexModel
from flexarray.harness import (experiment_crb_sweep, experiment_power_sweep,
                               experiment_sumrate, generate_scenario, optimize_strategy)
from flexarray.precoding import effective_gain
from flexarray.radiation import PatternKind, PatternSpec
from oracles import (channel_param_derivatives, crb, expected_improvement, gp_posterior,
                     normalization_integral, zf_precoder)

OMNI = PatternSpec(PatternKind.OMNI)
COS1 = PatternSpec(PatternKind.COSINE, kappa=1.0)
COS2 = PatternSpec(PatternKind.COSINE, kappa=2.0)

DESK_CFG = ArrayConfig(8, 2, wavelength=0.03)
FLEX_MODELS = (FlexModel.ROTATABLE, FlexModel.BENDABLE, FlexModel.FOLDABLE)
ALL_MODELS = (FlexModel.PLANAR,) + FLEX_MODELS
PARAM_FAMILIES = ("theta", "phi", "beta_r", "beta_i")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- A1 ---------------------------------------------------------------------

def test_a1_pattern_normalization():
    worst = 0.0
    for spec in (OMNI, COS1, COS2, PatternSpec(PatternKind.COSINE, 3.0),
                 PatternSpec(PatternKind.COSINE, 5.0)):
        value = normalization_integral(spec)
        worst = max(worst, abs(value - 4 * np.pi) / (4 * np.pi))
    report("A1 pattern normalization", worst < 1e-3,
           f"max relative error vs 4*pi = {worst:.2e} (tolerance 1e-3)")


# -- A2 ---------------------------------------------------------------------

def test_a2_rotatable_power_sweep_reproduction():
    _, rows = experiment_power_sweep(FlexModel.ROTATABLE, OMNI, cfg=DESK_CFG, steps=181)
    gains = np.array([row[1] for row in rows])
    psis = np.array([row[0] for row in rows])
    peak = float(gains.max())
    peak_psi = float(psis[gains.argmax()])
    zero_db = float(gains[90])
    ok = (2.0 <= peak <= 3.0) and (0.55 <= peak_psi <= 0.85) and zero_db == 0.0
    report("A2 power sweep reproduction", ok,
           f"peak {peak:.2f} dB at psi={peak_psi:.3f} (bands 2.5+-0.5 dB, 0.7+-0.15), "
           f"value at psi=0 is {zero_db} dB")


# -- A3 ---------------------------------------------------------------------

def _perturbed(paths, family, index, delta):
    theta, phi, beta = paths.theta.copy(), paths.phi.copy(), paths.beta.copy()
    if family == "theta":
        theta[index] += delta
    elif family == "phi":
        phi[index] += delta
    elif family == "beta_r":
        beta[index] += delta
    else:
        beta[index] += 1j * delta
    return PathSet(theta=theta, phi=phi, beta=beta)


def _fd_columns(model, cfg, spec, paths, psi, h=1e-6):
    cols = []
    for family in PARAM_FAMILIES:
        for l in range(paths.n_paths):
            plus = flexible_channel(model, cfg, spec, _perturbed(paths, family, l, h), psi)
            minus = flexible_channel(model, cfg, spec, _perturbed(paths, family, l, -h), psi)
            cols.append((plus - minus) / (2 * h))
    return np.column_stack(cols)


def test_a3_channel_derivative_correctness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for model in ALL_MODELS:
        for spec in (OMNI, COS1):
            for _ in range(50):
                cfg = ArrayConfig(int(rng.integers(2, 5)), int(rng.integers(1, 4)))
                n_paths = int(rng.integers(1, 4))
                paths = PathSet(theta=rng.uniform(np.pi / 3, 2 * np.pi / 3, n_paths),
                                phi=rng.uniform(-0.5, 0.5, n_paths),
                                beta=(rng.standard_normal(n_paths)
                                      + 1j * rng.standard_normal(n_paths)))
                psi = 0.0 if model is FlexModel.PLANAR else float(rng.uniform(-0.5, 0.5))
                fd = _fd_columns(model, cfg, spec, paths, psi)
                for l in range(n_paths):
                    analytic = channel_param_derivatives(model, cfg, spec, paths, psi, 0.0, l)
                    for f_idx, vec in enumerate(analytic):
                        ref = fd[:, f_idx * n_paths + l]
                        err = np.linalg.norm(vec - ref) / max(np.linalg.norm(ref), 1e-9)
                        worst = max(worst, err)
    report("A3 derivative correctness", worst < 1e-5,
           f"worst relative error vs central differences = {worst:.2e} (tolerance 1e-5)")


# -- A4 ---------------------------------------------------------------------

def _random_instance(rng, max_paths=3):
    cfg = ArrayConfig(int(rng.integers(2, 5)), int(rng.integers(1, 4)))
    n_paths = int(rng.integers(1, max_paths + 1))
    paths = PathSet(theta=rng.uniform(np.pi / 3, 2 * np.pi / 3, n_paths),
                    phi=rng.uniform(-0.5, 0.5, n_paths),
                    beta=rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))
    model = ALL_MODELS[int(rng.integers(0, 4))]
    psi = 0.0 if model is FlexModel.PLANAR else float(rng.uniform(-0.5, 0.5))
    spec = (OMNI, COS1)[int(rng.integers(0, 2))]
    return model, cfg, spec, paths, psi


def test_a4_fisher_and_crb_suite():
    rng = np.random.default_rng(202)
    asym = 0.0
    min_eig_ratio = 0.0
    for _ in range(200):
        model, cfg, spec, paths, psi = _random_instance(rng)
        j = fisher_matrix(model, cfg, spec, paths, psi, 0.0, 1.0).matrix
        asym = max(asym, float(np.max(np.abs(j - j.T))))
        eigs = np.linalg.eigvalsh(j)
        min_eig_ratio = min(min_eig_ratio, eigs.min() / max(abs(eigs).max(), 1e-300))

    scaling_exact = True
    for _ in range(20):
        model, cfg, spec, paths, psi = _random_instance(rng)
        f1 = fisher_matrix(model, cfg, spec, paths, psi, 0.0, 0.7)
        f2 = fisher_matrix(model, cfg, spec, paths, psi, 0.0, 1.4)
        try:
            for index in range(4 * paths.n_paths):
                if crb(f2, index) != 2.0 * crb(f1, index):
                    scaling_exact = False
        except Exception:
            continue  # unidentifiable draw; scaling is checked on invertible ones

    fd_worst = 0.0
    for _ in range(25):
        model, cfg, spec, paths, psi = _random_instance(rng)
        fisher = fisher_matrix(model, cfg, spec, paths, psi, 0.0, 1.0).matrix
        stack = _fd_columns(model, cfg, spec, paths, psi)
        fd_fisher = 2.0 * np.real(stack.conj().T @ stack)
        fd_worst = max(fd_worst, np.linalg.norm(fisher - fd_fisher, "fro")
                       / np.linalg.norm(fisher, "fro"))

    ok = asym == 0.0 and min_eig_ratio >= -1e-8 and scaling_exact and fd_worst < 1e-4
    report("A4 Fisher/CRB suite", ok,
           f"max asymmetry {asym:.1e}, min eig ratio {min_eig_ratio:.1e}, "
           f"noise scaling exact: {scaling_exact}, FD Fisher rel err {fd_worst:.2e}")


# -- A5 ---------------------------------------------------------------------

def test_a5_optimized_never_below_fixed_baseline():
    checked = 0
    violations = 0
    for pattern in (OMNI, COS1, COS2):
        for model in FLEX_MODELS:
            for scenario_index in range(50):
                scenario = generate_scenario(DESK_CFG, pattern, model, k_users=4,
                                             n_paths=5, snr_db=15.0,
                                             seed=[9, scenario_index])
                for strategy in ("single-sector", "sfp", "jfp", "sjfp"):
                    result = optimize_strategy(scenario, strategy, seed=scenario_index,
                                               budget_1d=6, budget_3d=8, n_init=3)
                    checked += 1
                    if not result.rate_flex >= result.rate_fixed:
                        violations += 1
    report("A5 baseline dominance", violations == 0,
           f"{checked} strategy/model/pattern/scenario runs, "
           f"{violations} below the fixed baseline (exact >=)")


# -- A6 ---------------------------------------------------------------------

class MeanRatio(NamedTuple):
    """Flex-to-fixed ratio of Monte Carlo mean sum-rates at K users per sector."""

    ratio: float
    flex: float
    fixed: float
    k_users: int

    def detail(self) -> str:
        return (f"K={self.k_users}: mean ratio {self.ratio:.3f} "
                f"(flex {self.flex:.2f} vs fixed {self.fixed:.2f} bit/s/Hz)")


def _mean_ratio(strategy, model, spec, trials=200, k_users=4):
    _, rows = experiment_sumrate(strategy, model, spec, DESK_CFG, k_users=k_users, n_paths=5,
                                 snr_values=[15.0], trials=trials, seed=0)
    fixed = np.array([row[2] for row in rows])
    flex = np.array([row[3] for row in rows])
    return MeanRatio(float(flex.mean() / fixed.mean()), float(flex.mean()),
                     float(fixed.mean()), k_users)


@pytest.fixture(scope="module")
def sfp_omni_ratios():
    return {model: _mean_ratio("sfp", model, OMNI) for model in FLEX_MODELS}


def test_a6a_crb_trend():
    header, rows = experiment_crb_sweep(list(FLEX_MODELS), OMNI, ArrayConfig(8, 8, 0.03),
                                        l_values=[1, 2, 3, 4, 5, 6], draws=200, seed=0,
                                        grid_size=37)
    fixed = {}
    optimized_below = True
    for n_paths, model, opt, fix in rows:
        fixed[n_paths] = fix
        optimized_below &= opt < fix
    sequence = [fixed[n] for n in range(1, 7)]
    increasing = all(a < b for a, b in zip(sequence, sequence[1:]))
    report("A6a CRB trend", increasing and optimized_below,
           f"fixed means {['%.2e' % v for v in sequence]} strictly increasing: "
           f"{increasing}; optimized below fixed everywhere: {optimized_below}")


# The band brackets the abstract's +156% JFP gain, which the paper gives for the
# bendable array with the directional pattern, not for the rotatable/omni pair
# pinned here. Neither load reaches it (seed 0, 15 dB, L = 5): at K = 4 the
# ratio is 1.03 (grid-search ceiling 1.041), and at full load it is 13.9 over
# 40 trials (bootstrap 95% interval 11.1-17.9), because the fixed JFP baseline
# collapses to 0.06 bit/s/Hz on the square 48x48 stacked channel. Neither
# PAPER.md nor the README settles A6b's operating point; that waits for the
# paper's multi-sector simulation settings, so the test stays as written.
def test_a6b_jfp_omni_ratio_band():
    measured = _mean_ratio("jfp", FlexModel.ROTATABLE, OMNI)
    report("A6b JFP omni ratio in [1.8, 3.2]", 1.8 <= measured.ratio <= 3.2, measured.detail())


def test_a6c_sfp_omni_all_models_at_least_fixed(sfp_omni_ratios):
    ok = all(measured.ratio >= 1.0 for measured in sfp_omni_ratios.values())
    report("A6c SFP omni all-model ratios >= 1.0", ok,
           "; ".join(f"{model.value} {measured.detail()}"
                     for model, measured in sfp_omni_ratios.items()))


def test_a6c_sfp_omni_rotatable_band():
    measured = _mean_ratio("sfp", FlexModel.ROTATABLE, OMNI, k_users=DESK_CFG.n_elements)
    report("A6c SFP omni rotatable ratio >= 1.2", measured.ratio >= 1.2, measured.detail())


def test_a6d_sjfp_omni_rotatable_band():
    measured = _mean_ratio("sjfp", FlexModel.ROTATABLE, OMNI, k_users=DESK_CFG.n_elements)
    report("A6d SJFP omni rotatable ratio >= 2.0", measured.ratio >= 2.0, measured.detail())


def test_a6e_sfp_directional_ordering(sfp_omni_ratios):
    omni = sfp_omni_ratios[FlexModel.ROTATABLE]
    cos1 = _mean_ratio("sfp", FlexModel.ROTATABLE, COS1)
    cos2 = _mean_ratio("sfp", FlexModel.ROTATABLE, COS2)
    ok = cos2.flex > cos1.flex > omni.flex
    report("A6e SFP pattern ordering", ok,
           f"mean optimized rates at K={omni.k_users}: kappa=2 {cos2.flex:.2f} "
           f"> kappa=1 {cos1.flex:.2f} > omni {omni.flex:.2f} (fixed {cos2.fixed:.2f} / "
           f"{cos1.fixed:.2f} / {omni.fixed:.2f} bit/s/Hz)")


def test_a6_full_load_smoke():
    # K = N loading runs end to end; rank-deficient draws score zero by policy
    k_users = DESK_CFG.n_elements
    _, rows = experiment_sumrate("jfp", FlexModel.ROTATABLE, OMNI, DESK_CFG,
                                 k_users=k_users, n_paths=5, snr_values=[15.0], trials=2,
                                 seed=0, budget_3d=5, n_init=2)
    ok = all(np.isfinite(row[3]) and row[3] >= row[2] >= 0.0 for row in rows)
    report("A6 full-load smoke", ok,
           f"K={k_users}: {len(rows)} trials ran, flex rates {[round(row[3], 2) for row in rows]} "
           f"vs fixed {[round(row[2], 2) for row in rows]} bit/s/Hz")


# -- A7 ---------------------------------------------------------------------

def test_a7_zero_forcing_algebra():
    rng = np.random.default_rng(303)
    worst_residual = 0.0
    worst_gain_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 33))
        k = int(rng.integers(1, n // 2 + 1))
        h = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
        f = zf_precoder(h)
        worst_residual = max(worst_residual,
                             float(np.linalg.norm(h.conj().T @ f - np.eye(k), "fro")))
        gains = effective_gain(h)
        via_columns = 1.0 / np.linalg.norm(f, axis=0) ** 2
        worst_gain_gap = max(worst_gain_gap,
                             float(np.max(np.abs(via_columns - gains) / gains)))
    ok = worst_residual < 1e-9 and worst_gain_gap < 1e-10
    report("A7 ZF algebra", ok,
           f"worst residual {worst_residual:.2e} (<1e-9), "
           f"worst gain-identity gap {worst_gain_gap:.2e} (<1e-10)")


# -- A8 ---------------------------------------------------------------------

def test_a8_optimizer_sanity():
    result = optimize(lambda p: -(p[0] - 0.3) ** 2, [(-np.pi / 2, np.pi / 2)],
                      budget=20, n_init=4, seed=0)
    grid = np.linspace(-np.pi / 2, np.pi / 2, 200001)
    oracle = float(grid[np.argmax(-(grid - 0.3) ** 2)])
    gap = abs(result.best_point[0] - oracle)

    kernel = Kernel(eta0=1.0, eta1=1.0, jitter=0.0)
    data = GpDataset(points=np.array([[-0.4], [0.1], [0.8]]),
                     values=np.array([0.3, -1.2, 2.0]))
    interp_err = max(abs(gp_posterior(kernel, data, point).mean - value)
                     for point, value in zip(data.points, data.values))

    ei_err = abs(expected_improvement(1.5, 2.0, 1.5) - 2.0 / np.sqrt(2 * np.pi))
    ei_zero = expected_improvement(5.0, 0.0, 1.0)

    ok = gap <= 0.05 and interp_err < 1e-8 and ei_err < 1e-8 and ei_zero == 0.0
    report("A8 optimizer sanity", ok,
           f"best-point gap {gap:.3f} (<=0.05), GP interpolation error {interp_err:.1e}, "
           f"EI closed-form error {ei_err:.1e}, EI at sigma=0 is {ei_zero}")
