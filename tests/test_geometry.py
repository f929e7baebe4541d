import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexarray.geometry import (BEND_EPS, PSI_RANGES, ArrayConfig, ArrayGeometry, FlexModel,
                                bent_geometry, flex_geometry, folded_geometry, mounted_geometry,
                                planar_positions, rotated_geometry)


def rot_xy(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestPlanar:
    def test_two_element_row(self):
        geom = planar_positions(ArrayConfig(2, 1, spacing=0.015, wavelength=0.03))
        np.testing.assert_allclose(geom.positions[:, 1], [-0.0075, 0.0075])
        np.testing.assert_array_equal(geom.positions[:, 0], 0.0)
        np.testing.assert_array_equal(geom.positions[:, 2], 0.0)
        np.testing.assert_array_equal(geom.orientation_offsets, 0.0)

    def test_single_element_at_origin(self):
        geom = planar_positions(ArrayConfig(1, 1))
        np.testing.assert_array_equal(geom.positions, [[0.0, 0.0, 0.0]])

    def test_three_by_two_grid(self):
        # centering formula enumerated by hand for d = 1
        geom = planar_positions(ArrayConfig(3, 2, wavelength=2.0, spacing=1.0))
        expected = [
            (0, -1, -0.5), (0, 0, -0.5), (0, 1, -0.5),
            (0, -1, 0.5), (0, 0, 0.5), (0, 1, 0.5),
        ]
        np.testing.assert_allclose(geom.positions, expected)

    def test_invalid_config_rejected(self):
        for args, kwargs in [((0, 1), {}), ((2, 2), dict(wavelength=-1.0)),
                             ((2, 2), dict(spacing=0.0)), ((2.5, 2), {}), ((2, 2.0), {}),
                             ((np.nan, 2), {}), ((2, np.nan), {})]:
            with pytest.raises(ValueError):
                ArrayConfig(*args, **kwargs)

    @pytest.mark.parametrize("n_h, n_v", [(8, 1), (3, 1), (1, 3)])
    def test_spacing_whose_coordinates_overflow_rejected(self, n_h, n_v):
        largest = 0.999 * np.finfo(float).max * BEND_EPS / (2.0 * (max(n_h, n_v) - 1))
        for model in (FlexModel.ROTATABLE, FlexModel.BENDABLE)[:n_h]:
            for psi in (-np.pi / 3, 1.5 * BEND_EPS):
                geometry = flex_geometry(model, ArrayConfig(n_h, n_v, spacing=largest), psi)
                positions = mounted_geometry(geometry, 2.0).positions
                assert np.isfinite(positions).all()
        with pytest.raises(ValueError, match="spacing must be > 0 with finite coordinates"):
            ArrayConfig(n_h, n_v, spacing=4.0 * largest)

    @pytest.mark.parametrize("field", ["wavelength", "spacing"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_length_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ArrayConfig(2, 2, **{field: value})


    @pytest.mark.parametrize("wavelength", [1e-310, 3.4e-308])
    def test_wavelength_whose_wavenumber_overflows_rejected(self, wavelength):
        assert not np.isfinite(2.0 * np.pi / wavelength)
        with pytest.raises(ValueError, match="wavelength"):
            ArrayConfig(2, 2, wavelength=wavelength)

    def test_smallest_wavelength_with_a_finite_wavenumber_accepted(self):
        wavelength = 3.5e-308
        assert np.isfinite(2.0 * np.pi / wavelength)
        assert ArrayConfig(2, 2, wavelength=wavelength).spacing == wavelength / 2


class TestRotated:
    def test_zero_angle_is_planar(self):
        cfg = ArrayConfig(4, 3)
        planar = planar_positions(cfg)
        rotated = rotated_geometry(cfg, 0.0)
        np.testing.assert_allclose(rotated.positions, planar.positions)
        np.testing.assert_array_equal(rotated.orientation_offsets, 0.0)

    def test_quarter_turn_matches_rotation_matrix(self):
        d = 0.042
        cfg = ArrayConfig(2, 1, wavelength=2 * d)
        geom = rotated_geometry(cfg, np.pi / 2)
        np.testing.assert_allclose(geom.positions[0, :2], [d / 2, 0.0], atol=1e-15)
        np.testing.assert_allclose(geom.positions[1, :2], [-d / 2, 0.0], atol=1e-15)
        # independent oracle: apply the 2x2 rotation to the planar coordinates
        planar = planar_positions(cfg)
        expected = planar.positions[:, :2] @ rot_xy(np.pi / 2).T
        np.testing.assert_allclose(geom.positions[:, :2], expected, atol=1e-15)

    def test_full_turn_periodicity(self):
        cfg = ArrayConfig(5, 2)
        a = rotated_geometry(cfg, 0.8)
        b = rotated_geometry(cfg, 0.8 + 2 * np.pi)
        np.testing.assert_allclose(a.positions, b.positions, atol=1e-12)

    def test_uniform_offsets(self):
        geom = rotated_geometry(ArrayConfig(4, 2), -0.3)
        np.testing.assert_array_equal(geom.orientation_offsets, -0.3)


class TestBent:
    def test_small_angle_limit_is_planar(self):
        cfg = ArrayConfig(8, 2)
        bent = bent_geometry(cfg, 1e-12)
        planar = planar_positions(cfg)
        np.testing.assert_allclose(bent.positions, planar.positions, atol=1e-9)

    def test_half_pi_two_elements(self):
        d = 0.015
        cfg = ArrayConfig(2, 1, wavelength=2 * d)
        geom = bent_geometry(cfg, np.pi / 2)
        r = d / np.pi
        np.testing.assert_allclose(geom.positions[0, :2], [-r, -r], atol=1e-15)
        np.testing.assert_allclose(geom.positions[1, :2], [-r, r], atol=1e-15)
        # cross-check against the arc parametrization x = R(cos t - 1), y = R sin t
        for n, t in enumerate((-np.pi / 2, np.pi / 2)):
            np.testing.assert_allclose(geom.positions[n, :2],
                                       [r * (np.cos(t) - 1.0), r * np.sin(t)], atol=1e-15)

    @pytest.mark.parametrize("psi", [0.3, -0.3, 1.2, np.pi, -np.pi])
    @pytest.mark.parametrize("n_h", [2, 5, 9])
    def test_adjacent_arc_spacing_equals_d(self, psi, n_h):
        cfg = ArrayConfig(n_h, 1)
        radius = (n_h - 1) * cfg.spacing / (2 * psi)
        offsets = bent_geometry(cfg, psi).orientation_offsets
        arc = radius * np.diff(offsets)
        np.testing.assert_allclose(arc, cfg.spacing, rtol=1e-12)

    def test_offsets_linearly_spaced(self):
        psi = 0.7
        geom = bent_geometry(ArrayConfig(5, 2), psi)
        expected = np.linspace(-psi, psi, 5)
        np.testing.assert_allclose(geom.orientation_offsets[:5], expected, atol=1e-14)
        np.testing.assert_allclose(geom.orientation_offsets[5:], expected, atol=1e-14)

    def test_rejects_overlap_and_single_column(self):
        with pytest.raises(ValueError):
            bent_geometry(ArrayConfig(4, 1), np.pi + 0.01)
        with pytest.raises(ValueError):
            bent_geometry(ArrayConfig(1, 3), 0.5)
        # single column at (numerically) zero bend stays planar
        geom = bent_geometry(ArrayConfig(1, 3), 0.0)
        np.testing.assert_array_equal(geom.positions[:, 0], 0.0)


class TestFolded:
    def test_zero_angle_is_planar(self):
        cfg = ArrayConfig(6, 2)
        np.testing.assert_allclose(folded_geometry(cfg, 0.0).positions,
                                   planar_positions(cfg).positions)

    def test_quarter_pi_two_elements(self):
        d = 0.015
        cfg = ArrayConfig(2, 1, wavelength=2 * d)
        geom = folded_geometry(cfg, np.pi / 4)
        x = -d * np.sqrt(2) / 4
        np.testing.assert_allclose(geom.positions[:, 0], [x, x], atol=1e-15)
        np.testing.assert_allclose(geom.positions[:, 1],
                                   [-d * np.sqrt(2) / 4, d * np.sqrt(2) / 4], atol=1e-15)

    @pytest.mark.parametrize("psi", [0.2, 0.9, np.pi / 2])
    def test_x_mapping_odd_in_psi(self, psi):
        cfg = ArrayConfig(5, 2)
        plus = folded_geometry(cfg, psi)
        minus = folded_geometry(cfg, -psi)
        np.testing.assert_allclose(plus.positions[:, 0], -minus.positions[:, 0], atol=1e-15)
        np.testing.assert_allclose(plus.positions[:, 1], minus.positions[:, 1], atol=1e-15)

    def test_offsets_three_values_with_center_column(self):
        psi = 0.4
        geom = folded_geometry(ArrayConfig(5, 1), psi)
        np.testing.assert_allclose(geom.orientation_offsets, [-psi, -psi, 0.0, psi, psi])
        center = geom.positions[2]
        np.testing.assert_allclose(center, [0.0, 0.0, 0.0], atol=1e-15)

    def test_rejects_beyond_half_pi(self):
        with pytest.raises(ValueError):
            folded_geometry(ArrayConfig(4, 1), np.pi / 2 + 0.01)


class TestMounted:
    def test_zero_mount_identity(self):
        geom = rotated_geometry(ArrayConfig(3, 2), 0.5)
        mounted = mounted_geometry(geom, 0.0)
        np.testing.assert_allclose(mounted.positions, geom.positions)
        np.testing.assert_allclose(mounted.orientation_offsets, geom.orientation_offsets)

    def test_half_pi_mount_moves_row_to_x_axis(self):
        cfg = ArrayConfig(2, 1)
        mounted = mounted_geometry(planar_positions(cfg), np.pi / 2)
        expected = planar_positions(cfg).positions[:, :2] @ rot_xy(np.pi / 2).T
        np.testing.assert_allclose(mounted.positions[:, :2], expected, atol=1e-15)

    def test_mount_composition(self):
        geom = folded_geometry(ArrayConfig(4, 2), 0.3)
        twice = mounted_geometry(mounted_geometry(geom, 0.4), 0.9)
        once = mounted_geometry(geom, 1.3)
        np.testing.assert_allclose(twice.positions, once.positions, atol=1e-12)
        np.testing.assert_allclose(twice.orientation_offsets, once.orientation_offsets,
                                   atol=1e-12)

    @pytest.mark.parametrize("mount", [[0.1, 0.2], [0.1], [[0.1]], np.nan],
                             ids=["pair", "one", "nested", "nan"])
    def test_a_mount_that_is_no_finite_scalar_is_named(self, mount):
        geom = rotated_geometry(ArrayConfig(4, 2), 0.2)
        with pytest.raises(ValueError, match="mount must be a finite scalar"):
            mounted_geometry(geom, mount)


MODELS = [FlexModel.ROTATABLE, FlexModel.BENDABLE, FlexModel.FOLDABLE]


def tiled_geometry(model, cfg, psi):
    """(positions, offsets) built element-list first: the planar (N, 3)
    array, then each model's row coordinates and offsets tiled over the
    vertical index."""
    y_row = (np.arange(cfg.n_h) - (cfg.n_h - 1) / 2.0) * cfg.spacing
    z_col = (np.arange(cfg.n_v) - (cfg.n_v - 1) / 2.0) * cfg.spacing
    positions = np.zeros((cfg.n_elements, 3))
    positions[:, 1] = np.tile(y_row, cfg.n_v)
    positions[:, 2] = np.repeat(z_col, cfg.n_h)
    offsets = np.zeros(cfg.n_elements)
    if model is FlexModel.ROTATABLE:
        positions[:, 0] = np.tile(-y_row * np.sin(psi), cfg.n_v)
        positions[:, 1] = np.tile(y_row * np.cos(psi), cfg.n_v)
        offsets[:] = psi
    elif model is FlexModel.BENDABLE and abs(psi) >= BEND_EPS:
        radius = (cfg.n_h - 1) * cfg.spacing / (2.0 * psi)
        psi_n = -psi + 2.0 * psi * np.arange(cfg.n_h) / (cfg.n_h - 1)
        positions[:, 0] = np.tile(radius * (np.cos(psi_n) - 1.0), cfg.n_v)
        positions[:, 1] = np.tile(radius * np.sin(psi_n), cfg.n_v)
        offsets = np.tile(psi_n, cfg.n_v)
    elif model is FlexModel.FOLDABLE:
        positions[:, 0] = np.tile(-np.abs(y_row) * np.sin(psi), cfg.n_v)
        positions[:, 1] = np.tile(y_row * np.cos(psi), cfg.n_v)
        offsets = np.tile(np.sign(y_row) * psi, cfg.n_v)
    return positions, offsets


GRID_SIZES = [(1, 1), (1, 3), (2, 1), (5, 1), (8, 1), (7, 3), (8, 8)]


class TestArrayGeometry:
    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros(3), np.zeros(3), np.zeros(4), np.zeros(2))

    def test_two_dimensional_heights_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((2, 1)))


class TestDirectGrid:
    @pytest.mark.parametrize("model, n_h, n_v", [
        (model, n_h, n_v) for model in [FlexModel.PLANAR, *MODELS] for n_h, n_v in GRID_SIZES
        if not (model is FlexModel.BENDABLE and n_h == 1)])
    def test_equals_the_tiled_construction(self, model, n_h, n_v):
        cfg = ArrayConfig(n_h, n_v, wavelength=0.03)
        angles = ([0.0] if model is FlexModel.PLANAR
                  else [*np.linspace(-np.pi / 2, np.pi / 2, 19), 1e-7, -1e-7])
        for psi in angles:
            geom = flex_geometry(model, cfg, float(psi))
            positions, offsets = tiled_geometry(model, cfg, float(psi))
            # bytes, so that the sign of every zero matches too
            assert geom.positions.tobytes() == positions.tobytes()
            assert geom.orientation_offsets.tobytes() == offsets.tobytes()
            for mount in (0.7, 2 * np.pi / 3, 4 * np.pi / 3):
                mounted = mounted_geometry(geom, mount)
                c, s = np.cos(mount), np.sin(mount)
                rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
                assert mounted.positions.tobytes() == (positions @ rot.T).tobytes()
                assert mounted.orientation_offsets.tobytes() == (offsets + mount).tobytes()

    @pytest.mark.parametrize("model, n_h, n_v", [
        (model, n_h, n_v) for model in [FlexModel.PLANAR, *MODELS] for n_h, n_v in GRID_SIZES
        if not (model is FlexModel.BENDABLE and n_h == 1)])
    def test_columns_and_heights_list_the_elements(self, model, n_h, n_v):
        """Element (v, h) is column h at height v, bit for bit, mounted or not."""
        cfg = ArrayConfig(n_h, n_v, wavelength=0.03)
        for psi in ([0.0] if model is FlexModel.PLANAR else [-1.2, 0.4, np.pi / 2]):
            for mount in (None, 0.7, 4 * np.pi / 3):
                geom = flex_geometry(model, cfg, psi)
                geom = geom if mount is None else mounted_geometry(geom, mount)
                grid = np.stack(np.broadcast_arrays(geom.column_x, geom.column_y,
                                                    geom.heights[:, None]), axis=-1)
                assert grid.tobytes() == geom.positions.tobytes()
                offsets = np.broadcast_to(geom.column_offsets, (n_v, n_h))
                assert offsets.tobytes() == geom.orientation_offsets.tobytes()


class TestPsiBatch:
    """A 1-D psi builds G shapes at once: every row equals the one-angle build bit for
    bit (the sign of every zero too), the flat bends among them included."""

    @pytest.mark.parametrize("model, n_h, n_v", [
        (model, n_h, n_v) for model in [FlexModel.PLANAR, *MODELS] for n_h, n_v in GRID_SIZES
        if not (model is FlexModel.BENDABLE and n_h == 1)])
    def test_every_row_equals_the_scalar_build(self, model, n_h, n_v):
        cfg = ArrayConfig(n_h, n_v, wavelength=0.03)
        grid = (np.array([0.0, -0.0]) if model is FlexModel.PLANAR else np.concatenate([
            np.linspace(-np.pi / 2, np.pi / 2, 181),
            [1e-7, -1e-7, 0.0, -0.0, BEND_EPS, -BEND_EPS, 0.999 * BEND_EPS]]))
        batch = flex_geometry(model, cfg, grid)
        assert batch.column_x.shape == (len(grid), n_h) and batch.heights.shape == (n_v,)
        for index, psi in enumerate(grid):
            one = flex_geometry(model, cfg, float(psi))
            for name in ("column_x", "column_y", "column_offsets"):
                assert getattr(batch, name)[index].tobytes() == getattr(one, name).tobytes()
            assert batch.heights.tobytes() == one.heights.tobytes()
            assert batch.positions[index].tobytes() == one.positions.tobytes()
            assert batch.orientation_offsets[index].tobytes() == one.orientation_offsets.tobytes()
            mounted, one_mounted = mounted_geometry(batch, 0.7), mounted_geometry(one, 0.7)
            assert mounted.positions[index].tobytes() == one_mounted.positions.tobytes()

    def test_a_batch_of_flat_bends_on_one_column_is_planar(self):
        cfg = ArrayConfig(1, 3)
        batch = bent_geometry(cfg, np.array([0.0, 1e-7]))
        planar = planar_positions(cfg).positions
        assert batch.positions.tobytes() == np.stack([planar, planar]).tobytes()
        with pytest.raises(ValueError, match="single horizontal element"):
            bent_geometry(cfg, np.array([0.0, 0.5]))

    @pytest.mark.parametrize("model, psi", [
        (FlexModel.BENDABLE, [0.5, np.pi + 0.01]), (FlexModel.FOLDABLE, [0.1, -np.pi / 2 - 0.01]),
        (FlexModel.PLANAR, [0.0, 0.1]), (FlexModel.ROTATABLE, [0.1, np.nan]),
        (FlexModel.ROTATABLE, [[0.1]])])
    def test_one_bad_angle_refuses_the_batch(self, model, psi):
        with pytest.raises(ValueError, match="psi"):
            flex_geometry(model, ArrayConfig(4, 2), np.array(psi))


class TestSharedInvariants:
    @settings(max_examples=40, deadline=None)
    @given(psi=st.floats(-np.pi / 2, np.pi / 2), n_h=st.integers(2, 7), n_v=st.integers(1, 3))
    def test_rigid_models_preserve_pairwise_distances(self, psi, n_h, n_v):
        cfg = ArrayConfig(n_h, n_v)
        planar = planar_positions(cfg).positions
        ref = np.linalg.norm(planar[:, None] - planar[None, :], axis=-1)
        rotated = rotated_geometry(cfg, psi).positions
        got = np.linalg.norm(rotated[:, None] - rotated[None, :], axis=-1)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(ref.max(), 1e-30)

    @pytest.mark.parametrize("psi", [0.25, -0.6, np.pi / 2])
    def test_fold_sides_are_isometric(self, psi):
        cfg = ArrayConfig(6, 2)
        planar = planar_positions(cfg).positions
        folded = folded_geometry(cfg, psi).positions
        signs = np.sign(planar[:, 1])
        for side in (-1.0, 1.0):
            idx = np.where(signs == side)[0]
            ref = np.linalg.norm(planar[idx][:, None] - planar[idx][None, :], axis=-1)
            got = np.linalg.norm(folded[idx][:, None] - folded[idx][None, :], axis=-1)
            np.testing.assert_allclose(got, ref, atol=1e-12 * ref.max())

    @pytest.mark.parametrize("model", MODELS)
    def test_zero_psi_equals_planar(self, model):
        cfg = ArrayConfig(6, 3)
        geom = flex_geometry(model, cfg, 0.0)
        planar = planar_positions(cfg)
        np.testing.assert_allclose(geom.positions, planar.positions, atol=1e-9)
        np.testing.assert_allclose(geom.orientation_offsets, 0.0, atol=1e-9)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("psi", [-0.7, 0.123, 1.0])
    def test_z_coordinates_never_move(self, model, psi):
        cfg = ArrayConfig(5, 4)
        geom = flex_geometry(model, cfg, psi)
        np.testing.assert_array_equal(geom.positions[:, 2],
                                      planar_positions(cfg).positions[:, 2])

    def test_planar_model_rejects_nonzero_psi(self):
        with pytest.raises(ValueError):
            flex_geometry(FlexModel.PLANAR, ArrayConfig(2, 2), 0.1)

    def test_non_finite_psi_rejected(self):
        with pytest.raises(ValueError):
            rotated_geometry(ArrayConfig(2, 2), np.nan)


class TestPsiRanges:
    def test_one_record_per_model(self):
        quarter, half = np.pi / 4, np.pi / 2
        assert {model: (r.limit, r.search) for model, r in PSI_RANGES.items()} == {
            FlexModel.PLANAR: (0.0, (0.0, 0.0)),
            FlexModel.ROTATABLE: (np.inf, (-quarter, quarter)),
            FlexModel.BENDABLE: (np.pi, (-half, half)),
            FlexModel.FOLDABLE: (half, (-quarter, quarter)),
        }

    @pytest.mark.parametrize("model", [FlexModel.ROTATABLE, FlexModel.BENDABLE,
                                       FlexModel.FOLDABLE])
    def test_search_box_lies_within_the_limit(self, model):
        low, high = PSI_RANGES[model].search
        assert -PSI_RANGES[model].limit <= low < 0.0 < high <= PSI_RANGES[model].limit
