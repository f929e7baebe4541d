from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from flexarray.channel import (MOUNTS, PathSet, _combine, _path_factors, array_blocks,
                               channel_power, flexible_channel, sector_block)
from flexarray.geometry import BEND_EPS, ArrayConfig, FlexModel, flex_geometry, mounted_geometry
from flexarray.harness import Scenario, generate_scenario, optimize_strategy
from flexarray.radiation import PatternKind, PatternSpec
from oracles import array_manifold, pattern_coefficient

OMNI = PatternSpec(PatternKind.OMNI)
COS1 = PatternSpec(PatternKind.COSINE, kappa=1.0)
COS15 = PatternSpec(PatternKind.COSINE, kappa=1.5)
COS2 = PatternSpec(PatternKind.COSINE, kappa=2.0)
WAVELENGTH = 0.03


def random_paths(rng, n_paths, phi_span=0.5):
    return PathSet(theta=rng.uniform(np.pi / 3, 2 * np.pi / 3, n_paths),
                   phi=rng.uniform(-phi_span, phi_span, n_paths),
                   beta=rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))


def reference_path_factors(model, cfg, spec, paths, psi, mount):
    """Pattern and manifold factors of every path, both (L, N), from the
    array's geometry rotated to its mount and the global path azimuths."""
    geometry = flex_geometry(model, cfg, psi)
    if mount != 0.0:
        geometry = mounted_geometry(geometry, mount)
    theta, phi = paths.theta[:, None], paths.phi[:, None]
    pattern = pattern_coefficient(spec, theta, phi - geometry.orientation_offsets[None, :])
    manifold = array_manifold(geometry.positions, theta, phi, cfg.wavelength)
    return pattern, manifold


def reference_channel(model, cfg, spec, paths, psi, mount):
    """``flexible_channel`` with the mount applied to the geometry instead
    of the path azimuths."""
    pattern, manifold = reference_path_factors(model, cfg, spec, paths, psi, mount)
    weighted = paths.beta[:, None] * pattern * manifold
    return np.sqrt(1.0 / paths.n_paths) * weighted.sum(axis=0)


def channel_power_expansion(model, cfg, spec, paths, psi):
    """Channel power via its per-path expansion: the per-path norms plus the
    pairwise real cross terms, an independent route to
    ``channel_power(flexible_channel(...))``."""
    pattern, manifold = reference_path_factors(model, cfg, spec, paths, psi, 0.0)
    vectors = pattern * manifold  # (L, N)
    beta = paths.beta
    n_paths = paths.n_paths
    diag = np.sum(np.abs(beta) ** 2 * np.sum(np.abs(vectors) ** 2, axis=1))
    cross = 0.0
    for l2 in range(n_paths):
        for l1 in range(l2 + 1, n_paths):
            inner = np.sum(pattern[l2] * pattern[l1] * np.conj(manifold[l2]) * manifold[l1])
            cross += 2.0 * np.real(beta[l1] * np.conj(beta[l2]) * inner)
    return float((diag + cross) / n_paths)


class TestManifold:
    def test_colocated_elements_have_zero_phase(self):
        positions = np.zeros((5, 3))
        np.testing.assert_allclose(array_manifold(positions, 1.0, 2.0, WAVELENGTH),
                                   np.ones(5))

    def test_half_wavelength_offset_gives_minus_one(self):
        positions = np.array([[WAVELENGTH / 2, 0.0, 0.0]])
        value = array_manifold(positions, np.pi / 2, 0.0, WAVELENGTH)
        np.testing.assert_allclose(value, [-1.0], atol=1e-12)

    def test_zenith_with_flat_array(self):
        positions = np.random.default_rng(0).normal(size=(6, 3))
        positions[:, 2] = 0.0
        np.testing.assert_allclose(array_manifold(positions, 0.0, 1.3, WAVELENGTH),
                                   np.ones(6), atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(3)
        positions = rng.normal(size=(16, 3)) * 0.1
        g = array_manifold(positions, 1.1, -2.0, WAVELENGTH)
        np.testing.assert_allclose(np.abs(g), 1.0, atol=1e-12)


class TestFlexibleChannel:
    def test_single_path_single_element(self):
        cfg = ArrayConfig(1, 1, wavelength=WAVELENGTH)
        paths = PathSet(theta=[np.pi / 2], phi=[0.0], beta=[1.0])
        h = flexible_channel(FlexModel.PLANAR, cfg, OMNI, paths, 0.0)
        np.testing.assert_allclose(h, [1.0])

    @pytest.mark.parametrize("model", [FlexModel.ROTATABLE, FlexModel.BENDABLE,
                                       FlexModel.FOLDABLE])
    def test_zero_psi_equals_planar_channel(self, model):
        cfg = ArrayConfig(6, 2, wavelength=WAVELENGTH)
        paths = random_paths(np.random.default_rng(9), 3)
        base = flexible_channel(FlexModel.PLANAR, cfg, OMNI, paths, 0.0)
        np.testing.assert_allclose(flexible_channel(model, cfg, OMNI, paths, 0.0), base,
                                   atol=1e-12)

    def test_two_path_superposition(self):
        cfg = ArrayConfig(4, 2, wavelength=WAVELENGTH)
        rng = np.random.default_rng(13)
        paths = random_paths(rng, 2)
        h2 = flexible_channel(FlexModel.ROTATABLE, cfg, COS1, paths, 0.4)
        parts = [flexible_channel(
            FlexModel.ROTATABLE, cfg, COS1,
            paths[l:l + 1],
            0.4) for l in range(2)]
        np.testing.assert_allclose(h2, (parts[0] + parts[1]) / np.sqrt(2), rtol=1e-12)

    def test_path_set_validation(self):
        with pytest.raises(ValueError):
            PathSet(theta=[0.1, 0.2], phi=[0.0], beta=[1.0, 1.0])
        with pytest.raises(ValueError):
            PathSet(theta=[4.0], phi=[0.0], beta=[1.0])
        for bad in (dict(theta=[np.nan]), dict(phi=[np.inf]), dict(beta=[complex(1, np.nan)])):
            with pytest.raises(ValueError, match="finite"):
                PathSet(**{"theta": [1.0], "phi": [0.0], "beta": [1.0], **bad})

    def test_path_set_of_any_leading_shape(self):
        rng = np.random.default_rng(21)
        shape = (3, 2, 4)
        full = PathSet(theta=rng.uniform(1.0, 2.0, shape), phi=rng.uniform(-1.0, 1.0, shape),
                       beta=rng.standard_normal(shape) + 0j)
        assert full.n_paths == 4
        link = full[1, 0]
        assert isinstance(link, PathSet) and link.theta.shape == (4,) and link.n_paths == 4
        for name in ("theta", "phi", "beta"):
            np.testing.assert_array_equal(getattr(link, name), getattr(full, name)[1, 0])
        assert full[:, 1].theta.shape == (3, 4)
        assert link[:2].n_paths == 2
        with pytest.raises(ValueError, match="at least one path"):
            link[4:]
        with pytest.raises(ValueError, match="equal shapes"):
            PathSet(theta=full.theta, phi=full.phi[..., :3], beta=full.beta)
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            PathSet(theta=full.theta + 2.0, phi=full.phi, beta=full.beta)

    def test_link_returns_a_one_dimensional_set_and_rejects_others(self):
        scenario = generate_scenario(ArrayConfig(4, 2, wavelength=WAVELENGTH), OMNI,
                                     FlexModel.ROTATABLE, k_users=2, n_paths=3, seed=5)
        link = scenario.paths[0, 1]
        assert link.link() is link
        for paths in (scenario.paths, scenario.paths[0]):
            with pytest.raises(ValueError, match="paths: .*1-D"):
                paths.link()

    def test_multi_link_path_set_is_rejected(self):
        cfg = ArrayConfig(4, 2, wavelength=WAVELENGTH)
        scenario = generate_scenario(cfg, OMNI, FlexModel.ROTATABLE, k_users=2, n_paths=3,
                                     seed=5)
        with pytest.raises(ValueError, match="paths"):
            flexible_channel(FlexModel.ROTATABLE, cfg, OMNI, scenario.paths[0], 0.2)


class TestSeparableKernel:
    """The column-by-row path sum against the element-by-element reference:
    ``pattern_coefficient`` times ``array_manifold`` at all N positions of the
    array rotated to its mount, to 1e-12 relative. A 5x3 grid has a centre
    column whose offset is exactly 0 in every model but rotation, so a path at
    mount +- pi/2 sits on its support edge exactly in floating point: both
    routes see cos(+-fl(pi/2)); at other offsets the edge holds only to
    rounding, and ``TestColumnAmplitudes`` in test_radiation.py bounds the
    amplitudes there. Azimuths over the whole circle put most paths behind
    some column."""

    CFG = ArrayConfig(5, 3, wavelength=WAVELENGTH)
    EDGES = np.array([mount + side * np.pi / 2 for mount in MOUNTS for side in (1, -1)])

    def paths(self, rng, shape=()):
        """Paths of ``shape`` links: four random ones, then the support
        edges seen from every mount."""
        phi = np.concatenate([rng.uniform(-np.pi, np.pi, (*shape, 4)),
                              np.broadcast_to(self.EDGES, (*shape, self.EDGES.size))], axis=-1)
        return PathSet(theta=rng.uniform(0.2, np.pi - 0.2, phi.shape), phi=phi,
                       beta=rng.standard_normal(phi.shape) + 1j * rng.standard_normal(phi.shape))

    @staticmethod
    def assert_close(got, expected):
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("model", list(FlexModel))
    @pytest.mark.parametrize("spec", [OMNI, COS1, COS15, COS2])
    def test_flexible_channel_matches_the_reference(self, model, spec):
        rng = np.random.default_rng(23)
        for mount in MOUNTS:
            for psi in ([0.0] if model is FlexModel.PLANAR else [-0.6, 0.35]):
                paths = self.paths(rng)
                self.assert_close(flexible_channel(model, self.CFG, spec, paths, psi, mount),
                                  reference_channel(model, self.CFG, spec, paths, psi, mount))

    @pytest.mark.parametrize("model", list(FlexModel))
    @pytest.mark.parametrize("spec", [OMNI, COS1, COS15, COS2])
    def test_array_blocks_match_the_reference(self, model, spec):
        scenario = Scenario(self.CFG, spec, model, 10.0,
                            self.paths(np.random.default_rng(29), shape=(3, 2)))
        psi = np.zeros(3) if model is FlexModel.PLANAR else np.array([0.45, -0.3, 0.2])
        blocks = array_blocks(scenario, flex_geometry(model, self.CFG, psi))
        for faa, mount in enumerate(MOUNTS):
            for column, (sector, k) in enumerate(np.ndindex(3, 2)):
                self.assert_close(blocks[faa][:, column], reference_channel(
                    model, self.CFG, spec, scenario.paths[sector, k], psi[faa], mount))


class TestChannelPower:
    def test_all_ones_vector(self):
        assert channel_power(np.ones(12)) == pytest.approx(12.0)

    @pytest.mark.parametrize("model", [FlexModel.ROTATABLE, FlexModel.BENDABLE,
                                       FlexModel.FOLDABLE])
    @pytest.mark.parametrize("psi", [-0.5, 0.2, 0.7])
    def test_single_path_omni_power_is_flat(self, model, psi):
        cfg = ArrayConfig(8, 2, wavelength=WAVELENGTH)
        paths = PathSet(theta=[1.2], phi=[0.3], beta=[1.0])
        h = flexible_channel(model, cfg, OMNI, paths, psi)
        assert channel_power(h) == pytest.approx(cfg.n_elements, rel=1e-12)

    def test_rotatable_demo_sweep_peak(self):
        from flexarray.harness import default_sweep_paths

        cfg = ArrayConfig(8, 2, wavelength=0.03)
        paths = default_sweep_paths()
        psis = np.linspace(-np.pi / 2, np.pi / 2, 181)
        base = channel_power(flexible_channel(FlexModel.ROTATABLE, cfg, OMNI, paths, 0.0))
        gains_db = np.array([
            10 * np.log10(channel_power(
                flexible_channel(FlexModel.ROTATABLE, cfg, OMNI, paths, p)) / base)
            for p in psis])
        peak = gains_db.max()
        peak_psi = psis[gains_db.argmax()]
        assert gains_db[90] == pytest.approx(0.0, abs=1e-12)  # psi = 0 entry
        assert 2.0 <= peak <= 3.0
        assert 0.55 <= peak_psi <= 0.85

    @pytest.mark.parametrize("model", [FlexModel.ROTATABLE, FlexModel.BENDABLE,
                                       FlexModel.FOLDABLE])
    @pytest.mark.parametrize("spec", [OMNI, COS1])
    def test_expansion_identity(self, model, spec):
        rng = np.random.default_rng(21)
        cfg = ArrayConfig(5, 2, wavelength=WAVELENGTH)
        for n_paths in (1, 2, 4, 6):
            paths = random_paths(rng, n_paths)
            psi = rng.uniform(-0.6, 0.6)
            direct = channel_power(flexible_channel(model, cfg, spec, paths, psi))
            expanded = channel_power_expansion(model, cfg, spec, paths, psi)
            assert expanded == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("spec", [OMNI, COS1])
    def test_mount_covariance(self, spec):
        rng = np.random.default_rng(31)
        cfg = ArrayConfig(4, 2, wavelength=WAVELENGTH)
        paths = random_paths(rng, 3)
        alpha = 2 * np.pi / 3
        shifted = PathSet(theta=paths.theta, phi=paths.phi + alpha, beta=paths.beta)
        base = flexible_channel(FlexModel.FOLDABLE, cfg, spec, paths, 0.3, mount=0.0)
        moved = flexible_channel(FlexModel.FOLDABLE, cfg, spec, shifted, 0.3, mount=alpha)
        np.testing.assert_allclose(moved, base, rtol=1e-10, atol=1e-12)


class TestMountConvention:
    """A mount is an azimuth shift: the unmounted array seeing phi - mount
    gives the channel of the array rotated to its mount."""

    @pytest.mark.parametrize("model", list(FlexModel))
    @pytest.mark.parametrize("spec", [OMNI, COS1, COS2])
    def test_shift_matches_rotated_geometry(self, model, spec):
        rng = np.random.default_rng(17)
        cfg = ArrayConfig(5, 3, wavelength=WAVELENGTH)
        for mount in (0.4, 2 * np.pi / 3, 4 * np.pi / 3):
            for n_paths in (1, 3, 6):
                paths = random_paths(rng, n_paths, phi_span=np.pi)
                psi = 0.0 if model is FlexModel.PLANAR else rng.uniform(-0.7, 0.7)
                expected = reference_channel(model, cfg, spec, paths, psi, mount)
                got = flexible_channel(model, cfg, spec, paths, psi, mount)
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("mount", [np.nan, np.inf])
    def test_non_finite_mount_rejected(self, mount):
        paths = PathSet(theta=[1.0], phi=[0.2], beta=[1.0])
        with pytest.raises(ValueError, match="mount"):
            flexible_channel(FlexModel.ROTATABLE, ArrayConfig(2, 1), OMNI, paths, 0.1, mount)


class TestSectorAssembly:
    def make_scenario(self, pattern=OMNI, **kwargs):
        cfg = ArrayConfig(4, 2, wavelength=WAVELENGTH)
        defaults = dict(k_users=2, n_paths=3, snr_db=10.0, seed=42)
        defaults.update(kwargs)
        return generate_scenario(cfg, pattern, FlexModel.ROTATABLE, **defaults)

    def blocks(self, scenario, psi):
        """block[m][m']: array m, flexed to psi[m], to the users of sector m'."""
        geometry = flex_geometry(scenario.flex_model, scenario.cfg, np.asarray(psi))
        return [np.split(block, 3, axis=-1) for block in array_blocks(scenario, geometry)]

    def test_full_channel_shape(self):
        scenario = self.make_scenario(k_users=1)
        geometry = flex_geometry(scenario.flex_model, scenario.cfg, np.zeros(3))
        stacked = array_blocks(scenario, geometry).reshape(-1, 3)
        assert stacked.shape == (3 * scenario.cfg.n_elements, 3)

    def test_zero_cross_gains_zero_blocks(self):
        # cosine kappa=1 elements radiate nothing beyond 90 degrees off their
        # boresight: paths within 10 degrees of their own sector center reach
        # the other arrays 110 degrees or more off it, beyond the flex offsets
        scenario = self.make_scenario(pattern=COS1)
        rng = np.random.default_rng(7)
        for sector in range(3):
            scenario.paths.phi[sector] = MOUNTS[sector] + rng.uniform(
                -np.radians(10), np.radians(10), scenario.paths.phi[sector].shape)
        blocks = self.blocks(scenario, np.array([0.1, -0.2, 0.05]))
        for m in range(3):
            for mp in range(3):
                if m != mp:
                    np.testing.assert_array_equal(blocks[m][mp], 0.0)
                else:
                    assert np.linalg.norm(blocks[m][mp]) > 0

    def test_blocks_match_per_user_channels(self):
        scenario = self.make_scenario()
        psi = np.array([0.2, -0.1, 0.3])
        blocks = self.blocks(scenario, psi)
        for m in range(3):
            for mp in range(3):
                for k in range(scenario.k_users):
                    paths = scenario.paths[mp, k]
                    expected = flexible_channel(scenario.flex_model, scenario.cfg,
                                                scenario.pattern, paths, psi[m],
                                                mount=MOUNTS[m])
                    np.testing.assert_allclose(blocks[m][mp][:, k], expected,
                                               rtol=1e-10, atol=1e-12)


class TestArrayBlocks:
    """The own-sector columns of each array's block, from one build of the three arrays
    from a batch geometry, equal that array's ``sector_block`` bit for bit."""

    @pytest.mark.parametrize("model", [FlexModel.ROTATABLE, FlexModel.BENDABLE,
                                       FlexModel.FOLDABLE])
    @pytest.mark.parametrize("spec", [OMNI, COS1, COS2])
    def test_own_columns_equal_sector_block(self, model, spec):
        scenario = generate_scenario(ArrayConfig(8, 2, wavelength=WAVELENGTH), spec, model,
                                     k_users=3, n_paths=4, snr_db=10.0, seed=19)
        rng = np.random.default_rng(19)
        lo, hi = scenario.psi_bounds
        k = scenario.k_users
        for psi in ([0.0, 0.0, 0.0], [0.3, 0.5 * BEND_EPS, -0.2], *rng.uniform(lo, hi, (4, 3))):
            blocks = array_blocks(scenario, flex_geometry(model, scenario.cfg, np.array(psi)))
            assert blocks.shape == (3, scenario.cfg.n_elements, 3 * k)
            for m, p in enumerate(psi):
                geometry = flex_geometry(model, scenario.cfg, p)
                assert np.array_equal(blocks[m][:, m * k:(m + 1) * k],
                                      sector_block(scenario, geometry, m))


class TestPathFactors:
    """``sector_block`` and ``array_blocks`` share the flex-independent factors a
    scenario derived at its first build for those heights and that wavelength; every
    block has the bits of one built from scratch."""

    @staticmethod
    def fresh_block(scenario, geometry, faa, sectors):
        paths = scenario.paths
        block = _combine(geometry, scenario.pattern, _path_factors(
            paths.theta[sectors], paths.phi[sectors] - MOUNTS[faa], paths.beta[sectors],
            geometry.heights, scenario.cfg.wavelength))
        return block.reshape(-1, block.shape[-1]).T

    @pytest.mark.parametrize("model", list(FlexModel))
    @pytest.mark.parametrize("spec", [OMNI, COS1, COS2])
    def test_blocks_equal_a_fresh_synthesis(self, model, spec):
        scenario = generate_scenario(ArrayConfig(8, 2, wavelength=WAVELENGTH), spec, model,
                                     k_users=4, n_paths=5, seed=31)
        rng = np.random.default_rng(37)
        lo, hi = scenario.psi_bounds
        for psi in [np.zeros(3), *rng.uniform(lo, hi, (3, 3))]:
            blocks = array_blocks(scenario, flex_geometry(model, scenario.cfg, psi))
            for faa in range(3):
                geometry = flex_geometry(model, scenario.cfg, psi[faa])
                assert np.array_equal(sector_block(scenario, geometry, faa),
                                      self.fresh_block(scenario, geometry, faa, faa))
                assert np.array_equal(blocks[faa],
                                      self.fresh_block(scenario, geometry, faa, slice(None)))
        assert len(scenario.paths._derived) == 1  # one kept entry serves both builders

    def test_geometry_of_other_heights_gets_its_own_factors(self):
        scenario = generate_scenario(ArrayConfig(4, 2, wavelength=WAVELENGTH), OMNI,
                                     FlexModel.BENDABLE, k_users=2, n_paths=3, seed=41)
        geometry = flex_geometry(scenario.flex_model, scenario.cfg, 0.2)
        sector_block(scenario, geometry, 1)
        raised = replace(geometry, heights=geometry.heights + 0.01)
        assert np.array_equal(sector_block(scenario, raised, 1),
                              self.fresh_block(scenario, raised, 1, 1))
        assert len(scenario.paths._derived) == 2

    def test_paths_are_read_only_after_the_first_build(self):
        scenario = generate_scenario(ArrayConfig(4, 2, wavelength=WAVELENGTH), COS1,
                                     FlexModel.ROTATABLE, k_users=2, n_paths=3, seed=43)
        scenario.paths.phi[0, 0, 0] = 0.1  # before the first build the paths may change
        geometry = flex_geometry(scenario.flex_model, scenario.cfg, 0.3)
        before = sector_block(scenario, geometry, 0)
        for values in (scenario.paths.theta, scenario.paths.phi, scenario.paths.beta):
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0, 0] = 1.0
        with pytest.raises(FrozenInstanceError):
            scenario.paths = scenario.paths[:, :1]
        assert scenario.paths.phi[0, 0, 0] == 0.1
        assert np.array_equal(sector_block(scenario, geometry, 0), before)

    def test_scenarios_that_share_the_paths_share_their_factors(self):
        scenario = generate_scenario(ArrayConfig(4, 2, wavelength=WAVELENGTH), COS2,
                                     FlexModel.BENDABLE, k_users=2, n_paths=3, seed=47)
        geometry = flex_geometry(scenario.flex_model, scenario.cfg, 0.4)
        sector_block(scenario, geometry, 2)
        louder = replace(scenario, snr_db=30.0)
        assert louder.paths._derived is scenario.paths._derived
        assert np.array_equal(sector_block(louder, geometry, 2),
                              self.fresh_block(scenario, geometry, 2, 2))
        assert len(scenario.paths._derived) == 1
        assert scenario.paths[:, :, :2]._derived == {}

    def test_another_wavelength_gets_its_own_factors(self):
        scenario = generate_scenario(ArrayConfig(4, 2, wavelength=WAVELENGTH), OMNI,
                                     FlexModel.ROTATABLE, k_users=2, n_paths=3, seed=53)
        geometry = flex_geometry(scenario.flex_model, scenario.cfg, 0.1)
        sector_block(scenario, geometry, 0)
        longer = replace(scenario, cfg=replace(scenario.cfg, wavelength=2 * WAVELENGTH))
        assert np.array_equal(sector_block(longer, geometry, 0),
                              self.fresh_block(longer, geometry, 0, 0))
        assert len(scenario.paths._derived) == 2

    def test_the_three_strategies_keep_one_entry(self):
        scenario = generate_scenario(ArrayConfig(4, 2, wavelength=WAVELENGTH), COS2,
                                     FlexModel.BENDABLE, k_users=2, n_paths=3, seed=59)
        for strategy in ("sfp", "jfp", "sjfp"):
            optimize_strategy(scenario, strategy, budget_1d=1, budget_3d=1, n_init=1)
        assert len(scenario.paths._derived) == 1


class TestLinkFactors:
    """``flexible_channel`` builds a link's channel from its paths alone: it keeps
    nothing on the path set, and a repeated call equals a fresh build."""

    CFG = ArrayConfig(4, 3, wavelength=WAVELENGTH)

    def test_sweep_equals_fresh_builds(self):
        paths = random_paths(np.random.default_rng(71), 4, phi_span=1.0)
        for psi in np.linspace(-1.0, 1.0, 7):
            fresh = PathSet(paths.theta.copy(), paths.phi.copy(), paths.beta.copy())
            assert np.array_equal(flexible_channel(FlexModel.BENDABLE, self.CFG, COS15, paths, psi),
                                  flexible_channel(FlexModel.BENDABLE, self.CFG, COS15, fresh, psi))

    @pytest.mark.parametrize("mount, cfg", [
        (0.4, CFG), (-0.0, CFG), (0.0, replace(CFG, wavelength=0.05)),
        (0.0, replace(CFG, spacing=0.02)), (0.0, replace(CFG, n_v=2))])
    def test_another_mount_wavelength_or_heights_gets_its_own_factors(self, mount, cfg):
        paths = random_paths(np.random.default_rng(73), 3, phi_span=1.0)
        flexible_channel(FlexModel.FOLDABLE, self.CFG, COS2, paths, 0.2, 0.0)
        fresh = PathSet(paths.theta.copy(), paths.phi.copy(), paths.beta.copy())
        got = flexible_channel(FlexModel.FOLDABLE, cfg, COS2, paths, 0.2, mount)
        expected = flexible_channel(FlexModel.FOLDABLE, cfg, COS2, fresh, 0.2, mount)
        assert np.array_equal(got, expected)

    def test_a_call_keeps_nothing_and_leaves_a_plain_set_writable(self):
        paths = random_paths(np.random.default_rng(79), 3)
        before = flexible_channel(FlexModel.ROTATABLE, self.CFG, OMNI, paths, 0.1)
        flexible_channel(FlexModel.BENDABLE, self.CFG, COS2, paths, np.array([0.1, 0.3]), 0.4)
        assert paths._derived == {}
        paths.theta[0] = 1.0
        changed = flexible_channel(FlexModel.ROTATABLE, self.CFG, OMNI, paths, 0.1)
        fresh = PathSet(paths.theta.copy(), paths.phi.copy(), paths.beta.copy())
        assert np.array_equal(changed, flexible_channel(FlexModel.ROTATABLE, self.CFG, OMNI,
                                                        fresh, 0.1))
        assert not np.array_equal(changed, before)

    def test_a_set_owns_its_arrays_and_cannot_be_rebound(self):
        theta = np.array([1.0, 1.2, 1.4])
        full = PathSet(theta, [0.1, 0.3, 0.5], [1.0, 1j, 1.0])
        link = full[:2]
        before = flexible_channel(FlexModel.ROTATABLE, self.CFG, OMNI, link, 0.2)
        theta[1] = 0.5  # the caller's array, not the set's
        with pytest.raises(ValueError, match="read-only"):
            full.theta[0] = 0.5  # a prefix view reads its root's kept terms
        assert np.array_equal(flexible_channel(FlexModel.ROTATABLE, self.CFG, OMNI, link, 0.2),
                              before)
        with pytest.raises(FrozenInstanceError):
            link.theta = np.array([0.5, 0.6])
