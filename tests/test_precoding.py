import warnings
from itertools import permutations

import numpy as np
import pytest

from flexarray.channel import MOUNTS, flexible_channel, sector_block
from flexarray.errors import COND_MAX, RankDeficiencyError
from flexarray.geometry import ArrayConfig, FlexModel, flex_geometry
from flexarray.harness import generate_scenario
from flexarray.precoding import (_array_responses, _sector_state, _zero_forcing, effective_gain,
                                 jfp_sumrate, sector_rate_given_leakage, sfp_leakage,
                                 single_sector_sumrate, sjfp_sumrate)
from flexarray.radiation import PatternKind, PatternSpec
from oracles import zf_precoder

OMNI = PatternSpec(PatternKind.OMNI)
COS1 = PatternSpec(PatternKind.COSINE, kappa=1.0)
COS2 = PatternSpec(PatternKind.COSINE, kappa=2.0)


def random_channel(rng, n, k):
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)


def orthonormal_channel(rng, n, k):
    q, _ = np.linalg.qr(random_channel(rng, n, k))
    return q[:, :k]


def make_scenario(pattern=OMNI, model=FlexModel.ROTATABLE, seed=0, **kwargs):
    cfg = ArrayConfig(8, 2)
    defaults = dict(k_users=3, n_paths=4, snr_db=10.0, seed=seed)
    defaults.update(kwargs)
    return generate_scenario(cfg, pattern, model, **defaults)


def uncoupled_scenario(seed):
    """Cosine kappa=1 scenario whose paths lie within 10 degrees of their own
    sector center: every array reaches the other sectors' users 110 degrees
    or more off boresight, where its elements radiate exactly nothing, as
    long as the flex angles stay within 0.3 rad."""
    scenario = make_scenario(pattern=COS1, seed=seed)
    rng = np.random.default_rng(seed)
    for sector in range(3):
        scenario.paths.phi[sector] = MOUNTS[sector] + rng.uniform(
            -np.radians(10), np.radians(10), scenario.paths.phi[sector].shape)
    return scenario


def own_block(scenario, sector, psi_m):
    geometry = flex_geometry(scenario.flex_model, scenario.cfg, psi_m)
    return sector_block(scenario, geometry, sector, sector)


class TestZfPrecoder:
    def test_identity_channel(self):
        np.testing.assert_allclose(zf_precoder(np.eye(4)), np.eye(4))

    def test_orthonormal_columns_are_fixed_point(self):
        h = orthonormal_channel(np.random.default_rng(1), 8, 3)
        np.testing.assert_allclose(zf_precoder(h), h, atol=1e-12)

    def test_zero_forcing_residual(self):
        h = random_channel(np.random.default_rng(2), 16, 4)
        f = zf_precoder(h)
        residual = np.linalg.norm(h.conj().T @ f - np.eye(4), "fro")
        assert residual < 1e-9

    def test_residual_over_many_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(4, 24))
            k = int(rng.integers(1, max(2, n // 2 + 1)))
            h = random_channel(rng, n, k)
            f = zf_precoder(h)
            assert np.linalg.norm(h.conj().T @ f - np.eye(k), "fro") < 1e-9

    def test_more_users_than_antennas_rejected(self):
        with pytest.raises(RankDeficiencyError):
            zf_precoder(random_channel(np.random.default_rng(4), 3, 5))

    @pytest.mark.parametrize("h", [np.ones((6, 2), dtype=complex),  # duplicated columns
                                   np.full((6, 2), np.nan + 0j),
                                   np.vstack([np.eye(2), [[np.inf, 0.0]], np.zeros((3, 2))])],
                             ids=["duplicated", "all-nan", "one-inf"])
    def test_rank_deficiency_reports_condition(self, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RankDeficiencyError) as err:
                zf_precoder(h)
        assert err.value.condition > 1e12 or not np.isfinite(err.value.condition)

    @pytest.mark.parametrize("largest, accepted", [(0.99e12, True), (1.01e12, False)])
    def test_condition_guard_threshold(self, largest, accepted):
        # H^H H = diag(largest, 1, 2, 1) up to rounding of the square roots, with
        # zero off-diagonal entries
        h = np.vstack([np.diag(np.sqrt([largest, 1.0, 2.0, 1.0])), np.zeros((2, 4))])
        assert COND_MAX == 1e12
        if accepted:
            np.testing.assert_allclose(effective_gain(h), [largest, 1.0, 2.0, 1.0], rtol=1e-12)
            np.testing.assert_allclose(h.conj().T @ zf_precoder(h), np.eye(4), atol=1e-12)
        else:
            with pytest.raises(RankDeficiencyError) as err:
                zf_precoder(h)
            assert err.value.condition == pytest.approx(largest, rel=1e-12)


class TestEffectiveGain:
    def test_orthonormal_columns_unit_gain(self):
        h = orthonormal_channel(np.random.default_rng(5), 10, 4)
        np.testing.assert_allclose(effective_gain(h), np.ones(4), atol=1e-12)

    def test_quadratic_scaling(self):
        h = random_channel(np.random.default_rng(6), 12, 3)
        np.testing.assert_allclose(effective_gain(2.5 * h), 6.25 * effective_gain(h),
                                   rtol=1e-12)

    def test_two_formulas_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = random_channel(rng, 16, 4)
            via_inverse = effective_gain(h)
            via_columns = 1.0 / np.linalg.norm(zf_precoder(h), axis=0) ** 2
            np.testing.assert_allclose(via_columns, via_inverse, rtol=1e-10)


class TestSingleSectorSumrate:
    def test_orthonormal_two_user_value(self):
        h = orthonormal_channel(np.random.default_rng(8), 6, 2)
        # each user gets power 1 over unit noise: 2 * log2(2)
        assert single_sector_sumrate(h, 2.0, 1.0) == pytest.approx(2.0)

    def test_zero_power(self):
        h = random_channel(np.random.default_rng(9), 8, 2)
        assert single_sector_sumrate(h, 0.0, 1.0) == 0.0

    def test_monotone_in_power(self):
        h = random_channel(np.random.default_rng(10), 8, 2)
        rates = [single_sector_sumrate(h, p, 1.0) for p in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_invalid_arguments(self):
        h = random_channel(np.random.default_rng(11), 8, 2)
        # a nan or inf power used to come back as a nan or inf rate
        for p_total, sigma2 in ((-1.0, 1.0), (1.0, 0.0), (np.nan, 1.0), (np.inf, 1.0),
                                (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf)):
            with pytest.raises(ValueError, match="^need finite p_total >= 0 and sigma2 > 0$"):
                single_sector_sumrate(h, p_total, sigma2)


    @pytest.mark.parametrize("call", [effective_gain, lambda h: single_sector_sumrate(h, 1.0, 1.0),
                                      lambda h: _zero_forcing(h, precoder=True)],
                             ids=["effective_gain", "single_sector_sumrate", "zero_forcing"])
    def test_zero_users_are_named(self, call):
        # an (N, 0) channel used to raise a bare IndexError from the condition rule
        with pytest.raises(ValueError, match="need k_users >= 1"):
            call(np.zeros((4, 0), dtype=complex))


class TestSfp:
    def test_no_cross_sector_coupling_reduces_to_single_sector(self):
        scenario = uncoupled_scenario(seed=12)
        psi = np.array([0.1, -0.2, 0.3])
        leakage = sfp_leakage(scenario, psi)
        np.testing.assert_array_equal(leakage, 0.0)
        for m in range(3):
            rate = sector_rate_given_leakage(scenario, m, psi[m], leakage[m])
            expected = single_sector_sumrate(own_block(scenario, m, psi[m]),
                                             scenario.p_total / 3.0, 1.0)
            assert rate == pytest.approx(expected, rel=1e-12)

    def test_leakage_invariant_to_user_permutation_in_interferer(self):
        scenario = make_scenario(seed=13)
        base = sfp_leakage(scenario, np.zeros(3))
        # relabel the users of sector 2; leakage received by sector 0 sums
        # over the interfering streams, so it cannot change
        permuted = make_scenario(seed=13)
        for paths in (permuted.paths.theta, permuted.paths.phi, permuted.paths.beta):
            paths[2] = np.roll(paths[2], -1, axis=0)
        swapped = sfp_leakage(permuted, np.zeros(3))
        np.testing.assert_allclose(swapped[0], base[0], rtol=1e-10)

    def test_directional_pattern_cuts_boresight_leakage(self):
        # one user per sector exactly at its sector center: the cosine pattern
        # radiates nothing toward the other sectors, the omni pattern does
        def centered_scenario(pattern):
            scenario = make_scenario(pattern=pattern, k_users=1, n_paths=1, seed=14)
            scenario.paths.theta[...] = np.pi / 2
            scenario.paths.phi[:, 0, 0] = MOUNTS
            scenario.paths.beta[...] = 1.0
            return scenario

        omni_leak = sfp_leakage(centered_scenario(OMNI), np.zeros(3)).sum()
        cos_leak = sfp_leakage(centered_scenario(COS1), np.zeros(3)).sum()
        assert cos_leak == pytest.approx(0.0, abs=1e-20)
        assert omni_leak > 1e-6

    def test_leakage_matches_per_stream_brute_force(self):
        scenario = make_scenario(seed=15)
        psi = np.array([0.2, 0.0, -0.4])
        leakage = sfp_leakage(scenario, psi)
        stream_power = scenario.p_total / (3 * scenario.k_users)
        for m in range(3):
            for k in range(scenario.k_users):
                paths = scenario.paths[m, k]
                brute = 0.0
                for mp in range(3):
                    if mp == m:
                        continue
                    f = zf_precoder(own_block(scenario, mp, psi[mp]))
                    f = np.sqrt(stream_power) * f / np.linalg.norm(f, axis=0, keepdims=True)
                    victim = flexible_channel(scenario.flex_model, scenario.cfg,
                                              scenario.pattern, paths, psi[mp],
                                              mount=MOUNTS[mp])
                    for i in range(scenario.k_users):
                        brute += abs(victim.conj() @ f[:, i]) ** 2
                assert leakage[m, k] == pytest.approx(brute, rel=1e-10)


class TestJfp:
    def test_block_diagonal_reduction(self):
        scenario = uncoupled_scenario(seed=16)
        psi = np.array([0.15, -0.05, 0.3])
        joint = jfp_sumrate(scenario, psi)
        separate = sum(
            single_sector_sumrate(own_block(scenario, m, psi[m]),
                                  scenario.p_total / 3.0, 1.0)
            for m in range(3))
        assert joint == pytest.approx(separate, rel=1e-9)

    def test_zero_psi_matches_planar_baseline(self):
        flexed = make_scenario(model=FlexModel.BENDABLE, seed=17)
        planar = make_scenario(model=FlexModel.PLANAR, seed=17)
        assert jfp_sumrate(flexed, np.zeros(3)) == pytest.approx(
            jfp_sumrate(planar, np.zeros(3)), rel=1e-12)

    def test_nonnegative(self):
        scenario = make_scenario(seed=18)
        assert jfp_sumrate(scenario, np.array([0.3, 0.3, -0.3])) >= 0.0


class TestSjfp:
    def test_equals_sfp_total_pointwise(self):
        # the SFP total at psi: every sector's rate under the leakage at psi
        scenario = make_scenario(seed=19)
        for psi in (np.zeros(3), np.array([0.3, -0.2, 0.1])):
            leakage = sfp_leakage(scenario, psi)
            total = sum(sector_rate_given_leakage(scenario, m, psi[m], leakage[m])
                        for m in range(3))
            assert sjfp_sumrate(scenario, psi) == pytest.approx(total, rel=1e-12)

    def test_zero_cross_equals_sfp(self):
        scenario = uncoupled_scenario(seed=20)
        psi = np.array([0.1, 0.2, 0.3])
        separate = sum(
            single_sector_sumrate(own_block(scenario, m, psi[m]),
                                  scenario.p_total / 3.0, 1.0)
            for m in range(3))
        assert sjfp_sumrate(scenario, psi) == pytest.approx(separate, rel=1e-12)

    def test_joint_optimum_dominates_per_sector_optima(self):
        import itertools

        scenario = make_scenario(seed=21)
        grid = np.linspace(-np.pi / 4, np.pi / 4, 5)
        # per-sector selfish optima against planar neighbours
        leak0 = sfp_leakage(scenario, np.zeros(3))
        selfish = np.array([
            max(grid, key=lambda g: sector_rate_given_leakage(scenario, m, float(g),
                                                              leak0[m]))
            for m in range(3)])
        joint_best = max(sjfp_sumrate(scenario, np.array(p))
                         for p in itertools.product(grid, repeat=3))
        assert joint_best >= sjfp_sumrate(scenario, selfish)


def per_sector_state(scenario, psi):
    """Reference: ``_sector_state`` with one ``_zero_forcing`` call per sector."""
    k = scenario.k_users
    stream_power = scenario.p_total / (3.0 * k)
    responses = _array_responses(scenario, psi)
    users = [slice(m * k, (m + 1) * k) for m in range(3)]
    precoders, gains = [], []
    for m in range(3):
        f, gain = _zero_forcing(responses[m][:, users[m]], precoder=True)
        precoders.append(np.sqrt(stream_power) * (f / np.linalg.norm(f, axis=0, keepdims=True)))
        gains.append(gain)
    leakage = np.zeros((3, k))
    for m, mp in permutations(range(3), 2):
        cross = responses[mp][:, users[m]]
        leakage[m] += np.sum(np.abs(cross.conj().T @ precoders[mp]) ** 2, axis=1)
    return np.array(gains), leakage, stream_power


class TestBatchedZf:
    """``_sector_state`` zero-forces the three own-sector blocks as one stack:
    one Gram product and one ``guarded_inverse``, with the bits
    of three separate ``_zero_forcing`` calls; the six cross links' leakage,
    one batched product, has the bits of one product per link."""

    @pytest.mark.parametrize("pattern, model, k_users", [
        (OMNI, FlexModel.ROTATABLE, 3), (COS1, FlexModel.FOLDABLE, 8),
        (COS2, FlexModel.BENDABLE, 16)], ids=["omni-k3", "cosine1-k8", "cosine2-full-load"])
    def test_equals_per_sector_zero_forcing(self, pattern, model, k_users):
        scenario = make_scenario(pattern=pattern, model=model, k_users=k_users, seed=23)
        lo, hi = scenario.psi_bounds
        rng = np.random.default_rng(29)
        for psi in [np.zeros(3), *rng.uniform(lo, hi, (20, 3))]:
            gains, leakage, power = _sector_state(scenario, psi)
            ref_gains, ref_leakage, ref_power = per_sector_state(scenario, psi)
            assert np.array_equal(gains, ref_gains) and np.array_equal(leakage, ref_leakage)
            assert power == ref_power

    def test_stack_raises_for_the_first_failing_channel(self):
        def diagonal(*gains):
            return np.vstack([np.diag(np.sqrt(gains)), np.zeros((2, len(gains)))])

        stack = np.stack([diagonal(1.0, 2.0), diagonal(1.01e12, 1.0), diagonal(1e13, 1.0)])
        with pytest.raises(RankDeficiencyError) as alone:
            _zero_forcing(stack[1])
        with pytest.raises(RankDeficiencyError) as stacked:
            _zero_forcing(stack, precoder=True)
        assert stacked.value.condition == alone.value.condition
        assert stacked.value.condition == pytest.approx(1.01e12, rel=1e-12)

    def test_rank_deficient_sector_raises_its_condition(self):
        scenario = make_scenario(seed=31)
        for sector in (1, 2):  # the second user of sectors 1 and 2 repeats the first
            for values in (scenario.paths.theta, scenario.paths.phi, scenario.paths.beta):
                values[sector, 1] = values[sector, 0]
        psi = np.array([0.1, -0.2, 0.3])
        with pytest.raises(RankDeficiencyError) as reference:
            per_sector_state(scenario, psi)
        with pytest.raises(RankDeficiencyError) as batched:
            _sector_state(scenario, psi)
        own = _array_responses(scenario, psi)[1][:, 3:6]
        with pytest.raises(RankDeficiencyError) as sector_one:
            _zero_forcing(own)
        assert batched.value.condition == reference.value.condition == sector_one.value.condition


class TestFixedSeedValues:
    """Exact sum-rates of two fixed scenarios, written with ``repr``. Fixed-seed
    outputs must stay byte-identical across refactors of the channel and ZF
    layers, so these compare with ``==``."""

    PSI = np.array([0.3, -0.2, 0.1])

    @pytest.mark.parametrize("pattern, model, k_users, expected", [
        (OMNI, FlexModel.ROTATABLE, 4, (16.13102269715212, 49.561997463041344,
                                        5.886508143936521)),
        (COS2, FlexModel.BENDABLE, 16, (7.263326859767556, 1.9248020351809365,
                                        3.2498080872675463)),
    ], ids=["omni-k4", "cosine2-full-load"])
    def test_sumrates_bit_identical(self, pattern, model, k_users, expected):
        scenario = make_scenario(pattern=pattern, model=model, seed=7, k_users=k_users)
        leakage = sfp_leakage(scenario, np.zeros(3))
        got = (sjfp_sumrate(scenario, self.PSI), jfp_sumrate(scenario, self.PSI),
               sector_rate_given_leakage(scenario, 1, float(self.PSI[1]), leakage[1]))
        assert got == expected
