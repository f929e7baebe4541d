import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexarray.errors import PatternBoundaryError
from flexarray.geometry import ArrayConfig, folded_geometry, rotated_geometry
from flexarray.radiation import (PatternKind, PatternSpec, element_pattern_vector,
                                 normalization_integral, pattern_coefficient,
                                 pattern_derivatives, pattern_gain, wrap_angle)

OMNI = PatternSpec(PatternKind.OMNI)
COS1 = PatternSpec(PatternKind.COSINE, kappa=1.0)
COS2 = PatternSpec(PatternKind.COSINE, kappa=2.0)


class TestWrap:
    def test_principal_range(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
        assert wrap_angle(0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(phi=st.floats(-50.0, 50.0))
    def test_wrap_is_2pi_periodic_identity(self, phi):
        w = wrap_angle(phi)
        assert -np.pi < w <= np.pi + 1e-12
        assert np.cos(w) == pytest.approx(np.cos(phi), abs=1e-9)
        assert np.sin(w) == pytest.approx(np.sin(phi), abs=1e-9)


class TestGain:
    def test_omni_is_one_everywhere(self):
        for theta, phi in [(0.0, 0.0), (np.pi / 2, 2.0), (np.pi, -3.0)]:
            assert pattern_gain(OMNI, theta, phi) == 1.0

    def test_cosine_peak_value(self):
        assert pattern_gain(COS1, np.pi / 2, 0.0) == pytest.approx(4.0)

    def test_cosine_back_half_space_is_zero(self):
        assert pattern_gain(COS1, np.pi / 2, np.pi) == 0.0
        assert pattern_gain(COS1, np.pi / 2, -2.0) == 0.0

    def test_cosine_kappa_two_value(self):
        # 2(1 + 2) * sin^2(pi/2) * cos^2(pi/4) = 6 * 1/2
        assert pattern_gain(COS2, np.pi / 2, np.pi / 4) == pytest.approx(3.0)

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pattern_gain(COS1, -0.1, 0.0)
        with pytest.raises(ValueError):
            pattern_gain(OMNI, np.pi + 0.1, 0.0)

    def test_gain_nonnegative_and_zero_outside_support(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(0, np.pi, 500)
        phi = rng.uniform(-4 * np.pi, 4 * np.pi, 500)
        gain = pattern_gain(COS2, theta, phi)
        assert np.all(gain >= 0)
        outside = np.abs(wrap_angle(phi)) > np.pi / 2
        assert np.all(gain[outside] == 0.0)

    def test_symmetries(self):
        phi = np.linspace(-1.4, 1.4, 41)
        np.testing.assert_allclose(pattern_gain(COS2, 1.0, phi),
                                   pattern_gain(COS2, 1.0, -phi), rtol=1e-12)
        theta = np.linspace(0.1, np.pi - 0.1, 41)
        np.testing.assert_allclose(pattern_gain(COS2, theta, 0.3),
                                   pattern_gain(COS2, np.pi - theta, 0.3), rtol=1e-12)

    @pytest.mark.parametrize("spec", [COS1, COS2, PatternSpec(PatternKind.COSINE, kappa=3.5)])
    def test_clamp_equals_the_front_mask(self, spec):
        """max(cos w, 0) gives the bits of the explicit |w| <= pi/2 mask, on
        random azimuths and on the float neighbours of 0, +-pi/2 and +-pi."""
        rng = np.random.default_rng(11)
        edges = []
        for edge in (0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi):
            below = above = edge
            for _ in range(30):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                edges += [below, above]
        phi = np.concatenate([rng.uniform(-4 * np.pi, 4 * np.pi, 200_000), edges])
        theta = rng.uniform(0.0, np.pi, phi.size)
        w = wrap_angle(phi)
        masked = np.where(np.abs(w) <= np.pi / 2, np.clip(np.cos(w), 0.0, None), 0.0)
        expected = spec.peak_gain * np.sin(theta) ** spec.kappa * masked**spec.kappa
        np.testing.assert_array_equal(pattern_gain(spec, theta, phi), expected)

    def test_nan_azimuth_gives_nan(self):
        assert np.isnan(pattern_gain(COS2, 1.0, np.nan))

    def test_peak_gain_increases_with_kappa(self):
        peaks = [PatternSpec(PatternKind.COSINE, kappa=k).peak_gain for k in (1, 2, 3, 5)]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError):
            PatternSpec(PatternKind.COSINE, kappa=0.5)

    @pytest.mark.parametrize("kappa", [1e308, np.nan])
    def test_non_finite_peak_gain_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            PatternSpec(PatternKind.COSINE, kappa=kappa)

    def test_largest_finite_peak_gain_accepted(self):
        assert PatternSpec(PatternKind.COSINE, kappa=8e307).peak_gain == 2.0 * (1.0 + 8e307)
        assert PatternSpec(PatternKind.OMNI, kappa=1e308).peak_gain == 1.0


class TestCoefficient:
    def test_omni(self):
        assert pattern_coefficient(OMNI, 1.0, 2.0) == 1.0

    def test_cosine_peak(self):
        assert pattern_coefficient(COS1, np.pi / 2, 0.0) == pytest.approx(2.0)

    def test_support_edge_continuous_at_zero(self):
        assert pattern_coefficient(COS1, np.pi / 2, np.pi / 2) == pytest.approx(0.0, abs=1e-7)


class TestElementPatternVector:
    def test_omni_all_ones(self):
        geom = rotated_geometry(ArrayConfig(4, 2), 0.7)
        np.testing.assert_array_equal(element_pattern_vector(OMNI, geom, 1.0, 0.2),
                                      np.ones(8))

    def test_rotated_array_uniform_entries(self):
        psi = 0.5
        geom = rotated_geometry(ArrayConfig(3, 2), psi)
        vec = element_pattern_vector(COS1, geom, np.pi / 2, 0.1)
        np.testing.assert_allclose(vec, pattern_coefficient(COS1, np.pi / 2, 0.1 - psi))

    def test_folded_two_element_values(self):
        geom = folded_geometry(ArrayConfig(2, 1), np.pi / 4)
        vec = element_pattern_vector(COS1, geom, np.pi / 2, 0.0)
        expected = np.sqrt(4.0 * np.cos(np.pi / 4))
        np.testing.assert_allclose(vec, [expected, expected])
        assert vec[0] == pytest.approx(1.6818, abs=1e-4)


class TestDerivatives:
    def test_omni_zero(self):
        assert pattern_derivatives(OMNI, 0.3, 2.9) == (0.0, 0.0)

    def test_cosine_stationary_at_boresight(self):
        d_theta, d_phi = pattern_derivatives(COS1, np.pi / 2, 0.0)
        assert d_theta == pytest.approx(0.0, abs=1e-12)
        assert d_phi == pytest.approx(0.0, abs=1e-12)

    def test_kappa_two_matches_finite_difference(self):
        theta, phi, h = np.pi / 3, np.pi / 6, 1e-6
        d_theta, d_phi = pattern_derivatives(COS2, theta, phi)
        fd_theta = (pattern_coefficient(COS2, theta + h, phi)
                    - pattern_coefficient(COS2, theta - h, phi)) / (2 * h)
        fd_phi = (pattern_coefficient(COS2, theta, phi + h)
                  - pattern_coefficient(COS2, theta, phi - h)) / (2 * h)
        assert d_theta == pytest.approx(fd_theta, rel=1e-5)
        assert d_phi == pytest.approx(fd_phi, rel=1e-5)

    @pytest.mark.parametrize("spec", [COS1, COS2, PatternSpec(PatternKind.COSINE, kappa=3.5)])
    def test_random_interior_points_match_finite_difference(self, spec):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(100):
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi = rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05)
            d_theta, d_phi = pattern_derivatives(spec, theta, phi)
            fd_theta = (pattern_coefficient(spec, theta + h, phi)
                        - pattern_coefficient(spec, theta - h, phi)) / (2 * h)
            fd_phi = (pattern_coefficient(spec, theta, phi + h)
                      - pattern_coefficient(spec, theta, phi - h)) / (2 * h)
            scale = max(abs(fd_theta), abs(fd_phi), 1e-9)
            assert abs(d_theta - fd_theta) / scale < 1e-5
            assert abs(d_phi - fd_phi) / scale < 1e-5

    def test_outside_support_is_zero(self):
        assert pattern_derivatives(COS1, 1.0, 2.5) == (0.0, 0.0)

    @pytest.mark.parametrize("phi", [np.pi / 2, np.pi / 2 - 5e-7, -np.pi / 2 + 5e-7])
    def test_support_edge_band_raises(self, phi):
        with pytest.raises(PatternBoundaryError):
            pattern_derivatives(COS1, 1.0, phi)

    @pytest.mark.parametrize("theta", [1e-8, np.pi - 1e-8])
    def test_elevation_edge_band_raises(self, theta):
        with pytest.raises(PatternBoundaryError):
            pattern_derivatives(COS1, theta, 0.0)

    def test_array_arguments(self):
        theta = np.array([[1.0], [1.2]])
        phi = np.array([0.1, -0.2, 0.3])
        d_theta, d_phi = pattern_derivatives(COS2, theta, phi)
        assert d_theta.shape == (2, 3)
        assert d_phi.shape == (2, 3)


class TestNormalization:
    def test_omni_is_sphere_area(self):
        assert normalization_integral(OMNI) == pytest.approx(4 * np.pi, rel=1e-6)

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0, 5.0])
    def test_cosine_integrates_to_sphere_area(self, kappa):
        spec = PatternSpec(PatternKind.COSINE, kappa=kappa)
        assert normalization_integral(spec) == pytest.approx(4 * np.pi, rel=1e-3)
