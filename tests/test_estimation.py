import re

import numpy as np
import pytest

from flexarray import estimation
from flexarray.channel import PathSet, flexible_channel
from flexarray.errors import (COND_MAX, OptimizationError, PatternBoundaryError,
                              SingularFisherError)
from flexarray.estimation import FisherMatrix, fisher_matrix, mean_angle_crb, optimal_psi_for_crb
from flexarray.geometry import ArrayConfig, FlexModel, flex_geometry, mounted_geometry
from flexarray.harness import CRB_PSI_RANGE, _crb_regime_paths, generate_scenario
from flexarray.radiation import (BOUNDARY_EPS, PatternKind, PatternSpec, pattern_and_derivatives,
                                 wrap_angle)
from oracles import (array_manifold, channel_param_derivatives, crb, pattern_coefficient,
                     stack_parameters)

OMNI = PatternSpec(PatternKind.OMNI)
COS1 = PatternSpec(PatternKind.COSINE, kappa=1.0)
COS2 = PatternSpec(PatternKind.COSINE, kappa=2.0)
WAVELENGTH = 0.03

PARAM_NAMES = ("theta", "phi", "beta_r", "beta_i")


def perturbed(paths, family, index, delta):
    """Shift one channel parameter by delta and return the new path set."""
    theta = paths.theta.copy()
    phi = paths.phi.copy()
    beta = paths.beta.copy()
    if family == "theta":
        theta[index] += delta
    elif family == "phi":
        phi[index] += delta
    elif family == "beta_r":
        beta[index] += delta
    else:
        beta[index] += 1j * delta
    return PathSet(theta=theta, phi=phi, beta=beta)


def fd_derivative(model, cfg, spec, paths, psi, mount, family, index, h=1e-6):
    plus = flexible_channel(model, cfg, spec, perturbed(paths, family, index, h), psi, mount)
    minus = flexible_channel(model, cfg, spec, perturbed(paths, family, index, -h), psi, mount)
    return (plus - minus) / (2 * h)


def fd_derivative_stack(model, cfg, spec, paths, psi, mount, h=1e-6):
    columns = [fd_derivative(model, cfg, spec, paths, psi, mount, family, l, h)
               for family in PARAM_NAMES for l in range(paths.n_paths)]
    return np.column_stack(columns)


def interior_paths(rng, n_paths, psi_scale=0.5):
    """Angles kept away from the cosine support edge for any tested psi."""
    return PathSet(theta=rng.uniform(np.pi / 3, 2 * np.pi / 3, n_paths),
                   phi=rng.uniform(-0.5, 0.5, n_paths),
                   beta=rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))


MODELS = [FlexModel.PLANAR, FlexModel.ROTATABLE, FlexModel.BENDABLE, FlexModel.FOLDABLE]


def manifold_derivatives(positions, theta, phi, wavelength):
    """Partials of the manifold with respect to elevation and azimuth, each
    from its own trigonometric terms and a second manifold build."""
    x, y, z = positions[..., 0], positions[..., 1], positions[..., 2]
    g = array_manifold(positions, theta, phi, wavelength)
    k = 2.0 * np.pi / wavelength
    d_arg_theta = (x * np.cos(theta) * np.cos(phi)
                   + y * np.cos(theta) * np.sin(phi)
                   - z * np.sin(theta))
    d_arg_phi = -x * np.sin(theta) * np.sin(phi) + y * np.sin(theta) * np.cos(phi)
    return -1j * k * d_arg_theta * g, -1j * k * d_arg_phi * g


def reference_pattern_derivatives(spec, theta, phi):
    """Pattern partials on the broadcast (L, N) grid, masked to the open
    support; refuses the same support-edge bands as the library."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    if spec.kind is PatternKind.OMNI:
        return np.zeros(theta.shape), np.zeros(theta.shape)
    w = wrap_angle(phi)
    if np.any(np.abs(np.abs(w) - np.pi / 2) < BOUNDARY_EPS):
        raise PatternBoundaryError("azimuth edge")
    interior = np.abs(w) < np.pi / 2
    if np.any(interior & ((theta < BOUNDARY_EPS) | (theta > np.pi - BOUNDARY_EPS))):
        raise PatternBoundaryError("elevation edge")
    half_kappa = spec.kappa / 2.0
    cos_safe = np.where(interior, np.cos(w), 1.0)
    amp = np.where(interior,
                   np.sqrt(spec.peak_gain) * np.sin(theta) ** half_kappa * cos_safe**half_kappa,
                   0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_theta = np.where(interior, half_kappa * amp * np.cos(theta) / np.sin(theta), 0.0)
        d_phi = np.where(interior, -half_kappa * amp * np.tan(w), 0.0)
    return d_theta, d_phi


def reference_fisher(model, cfg, spec, paths, psi, mount, sigma2):
    """Fisher matrix from the three-call assembly on the array rotated to its
    mount: pattern and manifold from one pass, then their partials from two
    more independent passes."""
    geometry = mounted_geometry(flex_geometry(model, cfg, psi), mount)
    theta, phi = paths.theta[:, None], paths.phi[:, None]
    pattern = pattern_coefficient(spec, theta, phi - geometry.orientation_offsets[None, :])
    manifold = array_manifold(geometry.positions, theta, phi, cfg.wavelength)
    d_pat_theta, d_pat_phi = reference_pattern_derivatives(
        spec, theta, phi - geometry.orientation_offsets[None, :])
    d_man_theta, d_man_phi = manifold_derivatives(geometry.positions, theta, phi, cfg.wavelength)
    scale = np.sqrt(1.0 / paths.n_paths)
    beta = paths.beta[:, None]
    d_theta = scale * beta * (d_pat_theta * manifold + d_man_theta * pattern)
    d_phi = scale * beta * (d_pat_phi * manifold + d_man_phi * pattern)
    d_beta_r = scale * pattern * manifold
    stack = np.hstack([d_theta.T, d_phi.T, d_beta_r.T, 1j * d_beta_r.T])
    j = (2.0 / sigma2) * np.real(stack.conj().T @ stack)
    return 0.5 * (j + j.T)


def oracle_pattern_and_derivatives(spec, theta, phi):
    """The one-call pattern build the staged one must reproduce bit for bit:
    (A, dA/dtheta, dA/dphi) with theta checked, then the azimuth and the
    elevation support-edge refusals."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > np.pi):
        raise ValueError("elevation theta must lie in [0, pi]")
    if spec.kind is PatternKind.OMNI:
        shape = np.broadcast_shapes(theta.shape, phi.shape)
        return np.ones(shape), np.zeros(shape), np.zeros(shape)
    w = wrap_angle(phi)
    if np.any(np.abs(np.abs(w) - np.pi / 2) < BOUNDARY_EPS):
        raise PatternBoundaryError("azimuth within 1e-6 of the cosine support edge")
    theta_edge = (theta < BOUNDARY_EPS) | (theta > np.pi - BOUNDARY_EPS)
    if theta_edge.any() and np.any(theta_edge & (np.abs(w) < np.pi / 2)):
        raise PatternBoundaryError("elevation within 1e-6 of the cosine support edge")
    half_kappa = spec.kappa / 2.0
    sin_theta = np.sin(theta)
    amp = np.sqrt(spec.peak_gain) * sin_theta**half_kappa * np.maximum(np.cos(w), 0.0)**half_kappa
    cot_theta = np.divide(np.cos(theta), sin_theta, out=np.zeros(theta.shape), where=~theta_edge)
    return amp, half_kappa * amp * cot_theta, -half_kappa * amp * np.tan(w)


def oracle_fisher(model, cfg, spec, paths, psi, mount, sigma2):
    """The Fisher matrix from the one-pass derivative stack that builds every
    term, path-only or not, at each flex angle."""
    geometry = flex_geometry(model, cfg, psi)
    theta, phi = paths.theta[:, None, None], (paths.phi - mount)[:, None, None]
    pattern, d_pat_theta, d_pat_phi = oracle_pattern_and_derivatives(
        spec, theta, phi - geometry.column_offsets)
    sin_theta, cos_theta, sin_phi, cos_phi = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    x, y, z = geometry.column_x, geometry.column_y, geometry.heights[:, None]
    u = x * cos_phi + y * sin_phi
    jk = 2j * np.pi / cfg.wavelength
    manifold = np.exp(-jk * (sin_theta * u + z * cos_theta))
    scale = np.sqrt(1.0 / paths.n_paths)
    weighted = scale * paths.beta[:, None, None] * manifold
    d_theta = weighted * (d_pat_theta - jk * (cos_theta * u - z * sin_theta) * pattern)
    d_phi = weighted * (d_pat_phi - jk * sin_theta * (y * cos_phi - x * sin_phi) * pattern)
    d_beta_r = scale * pattern * manifold
    stack = np.concatenate([d_theta, d_phi, d_beta_r, 1j * d_beta_r]).reshape(-1, cfg.n_elements).T
    j = (2.0 / sigma2) * np.real(stack.conj().T @ stack)
    return 0.5 * (j + j.T)


def outcome(build):
    """What ``build()`` returns, or the type of the exception it raises."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


class TestManifoldDerivatives:
    def test_colocated_elements_zero(self):
        d_theta, d_phi = manifold_derivatives(np.zeros((4, 3)), 1.0, 0.5, WAVELENGTH)
        np.testing.assert_array_equal(d_theta, 0.0)
        np.testing.assert_array_equal(d_phi, 0.0)

    def test_matches_central_finite_difference(self):
        rng = np.random.default_rng(5)
        positions = rng.normal(size=(8, 3)) * 0.05
        theta, phi, h = 1.1, -0.7, 1e-6
        d_theta, d_phi = manifold_derivatives(positions, theta, phi, WAVELENGTH)
        fd_theta = (array_manifold(positions, theta + h, phi, WAVELENGTH)
                    - array_manifold(positions, theta - h, phi, WAVELENGTH)) / (2 * h)
        fd_phi = (array_manifold(positions, theta, phi + h, WAVELENGTH)
                  - array_manifold(positions, theta, phi - h, WAVELENGTH)) / (2 * h)
        np.testing.assert_allclose(d_theta, fd_theta, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(d_phi, fd_phi, rtol=1e-6, atol=1e-8)

    def test_z_only_array_at_horizon(self):
        z = np.linspace(-0.03, 0.03, 5)
        positions = np.zeros((5, 3))
        positions[:, 2] = z
        g = array_manifold(positions, np.pi / 2, 0.4, WAVELENGTH)
        d_theta, _ = manifold_derivatives(positions, np.pi / 2, 0.4, WAVELENGTH)
        expected = 1j * (2 * np.pi / WAVELENGTH) * z * g
        np.testing.assert_allclose(d_theta, expected, atol=1e-12)


class TestSinglePassMatchesThreeCallAssembly:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("spec", [OMNI, COS1, COS2])
    def test_fisher_matrices_agree(self, model, spec):
        rng = np.random.default_rng(53)
        cfg = ArrayConfig(8, 4)
        for _ in range(20):
            paths = interior_paths(rng, int(rng.integers(1, 7)))
            psi = 0.0 if model is FlexModel.PLANAR else float(rng.uniform(-1.5, 1.5))
            mount = float(rng.choice([0.0, 0.4]))
            expected = reference_fisher(model, cfg, spec, paths, psi, mount, 0.7)
            got = fisher_matrix(model, cfg, spec, paths, psi, mount, 0.7).matrix
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("spec", [OMNI, COS1, COS2, PatternSpec(PatternKind.COSINE, kappa=3.5)])
    def test_pattern_terms_agree(self, spec):
        rng = np.random.default_rng(59)
        theta = rng.uniform(0.0, np.pi, (40, 1))
        phi = rng.uniform(-2 * np.pi, 2 * np.pi, (40, 30))
        keep = np.abs(np.abs(wrap_angle(phi)) - np.pi / 2) > 1e-3  # off the azimuth edge band
        phi = np.where(keep, phi, 0.0)
        amp, d_theta, d_phi = pattern_and_derivatives(spec, theta, phi)
        ref_theta, ref_phi = reference_pattern_derivatives(spec, theta, phi)
        np.testing.assert_allclose(amp, pattern_coefficient(spec, theta, phi), rtol=1e-14, atol=0)
        np.testing.assert_allclose(d_theta, ref_theta, rtol=1e-14, atol=0)
        np.testing.assert_allclose(d_phi, ref_phi, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("theta, phi", [
        (1.0, np.pi / 2), (1.0, -np.pi / 2 + 5e-7), (1.0, 3 * np.pi / 2), (1.0, np.pi / 2 + 2e-6),
        (1e-8, 0.0), (np.pi - 1e-8, 0.3), (0.0, 0.0), (np.pi, -0.2),
        (1e-8, 2.5), (0.0, np.pi), (np.pi, -2.0), (2e-6, 0.0),
        ([[1.0], [1e-8]], [[0.1, 2.5]]), ([[1.0], [1e-8]], [[2.5, 3.0]]),
    ])
    @pytest.mark.parametrize("spec", [COS1, COS2])
    def test_same_support_edge_refusals(self, spec, theta, phi):
        try:
            reference_pattern_derivatives(spec, theta, phi)
        except PatternBoundaryError:
            with pytest.raises(PatternBoundaryError):
                pattern_and_derivatives(spec, theta, phi)
        else:
            _, d_theta, d_phi = pattern_and_derivatives(spec, theta, phi)
            ref_theta, ref_phi = reference_pattern_derivatives(spec, theta, phi)
            np.testing.assert_allclose(d_theta, ref_theta, rtol=1e-14, atol=0)
            np.testing.assert_allclose(d_phi, ref_phi, rtol=1e-14, atol=0)


class TestMatchesTheOneCallOracle:
    """Fisher matrices agree with the one-call oracle's within 1e-12 relative
    Frobenius (the separable build rounds differently), and every grid point the
    oracle refuses is refused with the same exception type. One path set per
    (L, mount) serves every pattern and flex angle."""

    SPECS = [OMNI, COS1, PatternSpec(PatternKind.COSINE, kappa=1.5), COS2]
    MOUNTS = [0.0, 0.4, 2 * np.pi / 3]

    @staticmethod
    def paths_for(rng, n_paths, mount):
        """Paths anywhere on the sphere; from three paths on, path 2 sits on the
        azimuth support edge at psi = 0, and at six paths path 5 at the zenith."""
        theta = rng.uniform(0.0, np.pi, n_paths)
        phi = rng.uniform(-np.pi, np.pi, n_paths)
        if n_paths >= 3:
            phi[2] = mount + np.pi / 2
        if n_paths == 6:
            theta[5] = 1e-8
        return PathSet(theta=theta, phi=phi,
                       beta=rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))

    @pytest.mark.parametrize("model", [FlexModel.ROTATABLE, FlexModel.BENDABLE,
                                       FlexModel.FOLDABLE])
    def test_fisher_matrices_and_refusals_equal_the_oracle(self, model):
        rng = np.random.default_rng(61)
        cfg = ArrayConfig(5, 3, wavelength=WAVELENGTH)
        kinds = set()
        for n_paths in range(1, 7):
            for mount in self.MOUNTS:
                paths = self.paths_for(rng, n_paths, mount)
                for spec in self.SPECS:
                    for psi in np.linspace(-np.pi / 2, np.pi / 2, 21):
                        expected = outcome(lambda: oracle_fisher(
                            model, cfg, spec, paths, psi, mount, 0.7))
                        got = outcome(lambda: fisher_matrix(
                            model, cfg, spec, paths, psi, mount, 0.7).matrix)
                        if isinstance(expected, type):
                            assert got is expected, (n_paths, mount, spec, psi)
                        else:
                            assert_close_frobenius(got, expected, 1e-12)
                        kinds.add(expected if isinstance(expected, type) else np.ndarray)
        assert kinds == {np.ndarray, PatternBoundaryError}

    @pytest.mark.parametrize("spec", SPECS)
    def test_pattern_terms_equal_the_oracle(self, spec):
        rng = np.random.default_rng(67)
        interior = rng.uniform(0.0, np.pi, (30, 1))
        edges = np.vstack([[[0.0], [1e-8], [np.pi]], interior[3:]])
        kinds = set()
        for index, phi in enumerate(rng.uniform(-2 * np.pi, 2 * np.pi, (40, 1, 4))):
            phi[0, 0] = np.pi / 2 if index % 5 == 1 else phi[0, 0]
            theta = edges if index % 5 == 2 else interior
            expected = outcome(lambda: oracle_pattern_and_derivatives(spec, theta, phi))
            got = outcome(lambda: pattern_and_derivatives(spec, theta, phi))
            if isinstance(expected, type):
                assert got is expected
            else:
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            kinds.add(expected if isinstance(expected, type) else tuple)
        assert kinds == ({tuple} if spec is OMNI else {tuple, PatternBoundaryError})
        for theta, phi in [(1.2, 0.3), (0.0, 2.0), (1e-8, 0.1), (1.0, np.pi / 2)]:
            expected = outcome(lambda: oracle_pattern_and_derivatives(spec, theta, phi))
            got = outcome(lambda: pattern_and_derivatives(spec, theta, phi))
            assert got is expected if isinstance(expected, type) else got == expected


class TestChannelParamDerivatives:
    def test_single_origin_element(self):
        cfg = ArrayConfig(1, 1)
        paths = PathSet(theta=[1.0], phi=[0.2], beta=[0.7 + 0.1j])
        d_theta, d_phi, d_br, d_bi = channel_param_derivatives(
            FlexModel.PLANAR, cfg, OMNI, paths, 0.0, 0.0, 0)
        np.testing.assert_allclose(d_theta, [0.0])
        np.testing.assert_allclose(d_phi, [0.0])
        np.testing.assert_allclose(d_br, [1.0])
        np.testing.assert_allclose(d_bi, [1.0j])

    def test_zero_gain_kills_angle_derivatives(self):
        cfg = ArrayConfig(4, 1)
        paths = PathSet(theta=[1.0, 1.3], phi=[0.1, -0.2], beta=[0.0, 1.0])
        d_theta, d_phi, _, _ = channel_param_derivatives(
            FlexModel.ROTATABLE, cfg, OMNI, paths, 0.3, 0.0, 0)
        np.testing.assert_array_equal(d_theta, 0.0)
        np.testing.assert_array_equal(d_phi, 0.0)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("spec", [OMNI, COS1])
    def test_matches_finite_difference(self, model, spec):
        rng = np.random.default_rng(17)
        cfg = ArrayConfig(4, 2)
        paths = interior_paths(rng, 2)
        psi = 0.0 if model is FlexModel.PLANAR else rng.uniform(-0.5, 0.5)
        for l in range(paths.n_paths):
            analytic = channel_param_derivatives(model, cfg, spec, paths, psi, 0.0, l)
            for family, vec in zip(PARAM_NAMES, analytic):
                fd = fd_derivative(model, cfg, spec, paths, psi, 0.0, family, l)
                scale = max(np.linalg.norm(fd), 1e-9)
                assert np.linalg.norm(vec - fd) / scale < 1e-5

    def test_bad_path_index(self):
        cfg = ArrayConfig(2, 1)
        paths = PathSet(theta=[1.0], phi=[0.0], beta=[1.0])
        with pytest.raises(IndexError):
            channel_param_derivatives(FlexModel.PLANAR, cfg, OMNI, paths, 0.0, 0.0, 1)


class TestFisherMatrix:
    def test_single_omni_origin_element(self):
        cfg = ArrayConfig(1, 1)
        paths = PathSet(theta=[1.0], phi=[0.2], beta=[1.0])
        fisher = fisher_matrix(FlexModel.PLANAR, cfg, OMNI, paths, 0.0, 0.0, 1.0)
        np.testing.assert_allclose(fisher.matrix, np.diag([0.0, 0.0, 2.0, 2.0]), atol=1e-14)

    def test_noise_scaling_is_exact(self):
        rng = np.random.default_rng(23)
        cfg = ArrayConfig(4, 2)
        paths = interior_paths(rng, 2)
        j1 = fisher_matrix(FlexModel.ROTATABLE, cfg, OMNI, paths, 0.2, 0.0, 1.3).matrix
        j2 = fisher_matrix(FlexModel.ROTATABLE, cfg, OMNI, paths, 0.2, 0.0, 2.6).matrix
        np.testing.assert_array_equal(j2 * 2.0, j1)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(29)
        cfg = ArrayConfig(4, 4)
        for _ in range(50):
            paths = interior_paths(rng, int(rng.integers(1, 4)))
            psi = rng.uniform(-0.5, 0.5)
            j = fisher_matrix(FlexModel.BENDABLE, cfg, COS1, paths, psi, 0.0, 1.0).matrix
            assert np.array_equal(j, j.T)
            eigs = np.linalg.eigvalsh(j)
            assert eigs.min() >= -1e-8 * max(abs(eigs).max(), 1e-30)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("spec", [OMNI, COS1])
    def test_matches_finite_difference_fisher(self, model, spec):
        rng = np.random.default_rng(37)
        cfg = ArrayConfig(4, 2)
        paths = interior_paths(rng, 3)
        psi = 0.0 if model is FlexModel.PLANAR else 0.35
        sigma2 = 0.8
        fisher = fisher_matrix(model, cfg, spec, paths, psi, 0.0, sigma2).matrix
        stack = fd_derivative_stack(model, cfg, spec, paths, psi, 0.0)
        fd_fisher = (2.0 / sigma2) * np.real(stack.conj().T @ stack)
        assert (np.linalg.norm(fisher - fd_fisher, "fro")
                / np.linalg.norm(fisher, "fro")) < 1e-4


class TestParameterStacking:
    def test_ordering_matches_crb_indices(self):
        paths = PathSet(theta=[1.0, 1.1], phi=[0.2, -0.3], beta=[1 + 2j, 3 - 4j])
        stacked = stack_parameters(paths)
        np.testing.assert_array_equal(
            stacked, [1.0, 1.1, 0.2, -0.3, 1.0, 3.0, 2.0, -4.0])


class TestCrb:
    def test_diagonal_fisher(self):
        fisher = FisherMatrix(matrix=2.0 * np.eye(4), sigma2=1.0, n_paths=1)
        for i in range(4):
            assert crb(fisher, i) == pytest.approx(0.5)
        assert mean_angle_crb(fisher) == pytest.approx(0.5)

    def test_noise_doubling_doubles_crb(self):
        rng = np.random.default_rng(41)
        cfg = ArrayConfig(4, 2)
        paths = interior_paths(rng, 2)
        f1 = fisher_matrix(FlexModel.ROTATABLE, cfg, OMNI, paths, 0.1, 0.0, 1.0)
        f2 = fisher_matrix(FlexModel.ROTATABLE, cfg, OMNI, paths, 0.1, 0.0, 2.0)
        for i in range(8):
            assert crb(f2, i) == 2.0 * crb(f1, i)

    def test_crb_at_least_inverse_diagonal(self):
        rng = np.random.default_rng(43)
        cfg = ArrayConfig(4, 4)
        paths = interior_paths(rng, 2)
        fisher = fisher_matrix(FlexModel.FOLDABLE, cfg, OMNI, paths, 0.25, 0.0, 1.0)
        for i in range(8):
            assert crb(fisher, i) >= 1.0 / fisher.matrix[i, i] - 1e-12

    def test_singular_fisher_reports_condition(self):
        fisher = FisherMatrix(matrix=np.diag([1.0, 0.0, 0.0, 0.0]), sigma2=1.0, n_paths=1)
        with pytest.raises(SingularFisherError) as err:
            crb(fisher, 0)
        assert err.value.condition > 1e12 or not np.isfinite(err.value.condition)

    @pytest.mark.parametrize("largest, accepted", [(0.99e12, True), (1.01e12, False)])
    def test_condition_guard_threshold(self, largest, accepted):
        fisher = FisherMatrix(matrix=np.diag([largest, 1.0, 2.0, 1.0]), sigma2=1.0, n_paths=1)
        assert COND_MAX == 1e12
        if accepted:
            assert crb(fisher, 0) == 1.0 / largest
        else:
            with pytest.raises(SingularFisherError) as err:
                crb(fisher, 0)
            assert err.value.condition == pytest.approx(largest, rel=1e-12)

    @pytest.mark.parametrize("matrix", [np.zeros((4, 4)), np.full((4, 4), np.nan),
                                        np.diag([1.0, np.nan, 1.0, 1.0]),
                                        np.diag([1.0, 1.0, np.inf, 1.0])],
                             ids=["zero", "all-nan", "one-nan", "inf"])
    def test_condition_guard_rejects_zero_and_non_finite(self, matrix):
        with pytest.raises(SingularFisherError):
            mean_angle_crb(FisherMatrix(matrix=matrix, sigma2=1.0, n_paths=1))

    def test_index_out_of_range(self):
        fisher = FisherMatrix(matrix=np.eye(4), sigma2=1.0, n_paths=1)
        with pytest.raises(IndexError):
            crb(fisher, 4)


def per_point_psi_search(model, cfg, spec, paths, grid_size):
    """The CRB grid search one point at a time: one Fisher build and one CRB
    per point, skipping singular and support-edge points, ties broken toward
    psi >= 0 and then smaller |psi|. Returns ((psi, crb) or None, skips)."""
    evaluated, skipped = [], {"singular": 0, "edge": 0}
    for psi in np.linspace(*CRB_PSI_RANGE, grid_size):
        try:
            value = mean_angle_crb(fisher_matrix(model, cfg, spec, paths, psi, 0.0, 1.0))
        except SingularFisherError:
            skipped["singular"] += 1
            continue
        except PatternBoundaryError:
            skipped["edge"] += 1
            continue
        evaluated.append((float(psi), value))
    if not evaluated:
        return None, skipped
    best_value = min(value for _, value in evaluated)
    ties = [item for item in evaluated if item[1] <= best_value * (1.0 + 1e-12)]
    return min(ties, key=lambda item: (item[0] < 0.0, abs(item[0]))), skipped


FLEX_MODELS = [FlexModel.ROTATABLE, FlexModel.BENDABLE, FlexModel.FOLDABLE]


class TestOptimalPsi:
    @pytest.mark.parametrize("grid_size", [37, 181])
    @pytest.mark.parametrize("n_paths", [1, 6])
    @pytest.mark.parametrize("spec", [OMNI, COS1, COS2], ids=["omni", "cos1", "cos2"])
    @pytest.mark.parametrize("model", FLEX_MODELS, ids=lambda model: model.value)
    def test_equals_the_per_point_search(self, model, spec, n_paths, grid_size):
        cfg = ArrayConfig(4, 4)
        paths = _crb_regime_paths(np.random.default_rng(53), 6)[:n_paths]
        expected, _ = per_point_psi_search(model, cfg, spec, paths, grid_size)
        got = optimal_psi_for_crb(model, cfg, spec, paths, 0.0, 1.0, CRB_PSI_RANGE, grid_size)
        assert got == expected

    def test_skips_singular_and_support_edge_points_like_the_per_point_search(self):
        # phi = pi/2 sits on the cosine support edge at psi = 0; rotations past
        # the edge leave that path unidentifiable
        cfg = ArrayConfig(4, 4)
        paths = PathSet(theta=[1.2, 1.7], phi=[np.pi / 2, 0.3], beta=[1.0, 0.5j])
        expected, skipped = per_point_psi_search(FlexModel.ROTATABLE, cfg, COS2, paths, 37)
        assert skipped["singular"] > 0 and skipped["edge"] > 0
        got = optimal_psi_for_crb(FlexModel.ROTATABLE, cfg, COS2, paths, 0.0, 1.0,
                                  CRB_PSI_RANGE, 37)
        assert got == expected

    def test_grid_where_every_point_is_singular_or_on_the_edge_raises(self):
        cfg = ArrayConfig(1, 1)
        paths = PathSet(theta=[1.2], phi=[np.pi / 2], beta=[1.0])
        expected, skipped = per_point_psi_search(FlexModel.ROTATABLE, cfg, COS2, paths, 37)
        assert expected is None and skipped["singular"] > 0 and skipped["edge"] > 0
        with pytest.raises(OptimizationError):
            optimal_psi_for_crb(FlexModel.ROTATABLE, cfg, COS2, paths, 0.0, 1.0,
                                CRB_PSI_RANGE, 37)

    def test_never_worse_than_planar_baseline(self):
        rng = np.random.default_rng(47)
        cfg = ArrayConfig(8, 2)
        paths = interior_paths(rng, 3)
        fixed = mean_angle_crb(fisher_matrix(FlexModel.ROTATABLE, cfg, OMNI, paths,
                                             0.0, 0.0, 1.0))
        _, best = optimal_psi_for_crb(FlexModel.ROTATABLE, cfg, OMNI, paths, 0.0, 1.0,
                                      (-np.pi / 2, np.pi / 2), grid_size=61)
        assert best <= fixed * (1 + 1e-9)

    def test_symmetric_scenario_tie_breaks_nonnegative(self):
        cfg = ArrayConfig(8, 2)
        paths = PathSet(theta=[np.pi / 2], phi=[0.0], beta=[1.0])
        psi_star, _ = optimal_psi_for_crb(FlexModel.ROTATABLE, cfg, OMNI, paths, 0.0, 1.0,
                                          (-np.pi / 2, np.pi / 2), grid_size=41)
        values = {}
        for psi in np.linspace(-np.pi / 2, np.pi / 2, 41):
            try:
                values[round(float(psi), 12)] = mean_angle_crb(fisher_matrix(
                    FlexModel.ROTATABLE, cfg, OMNI, paths, float(psi), 0.0, 1.0))
            except SingularFisherError:
                continue  # edge-on angles are unidentifiable; the search skips them too
        # the objective is even in psi here, so the reported minimizer must
        # come from the non-negative half
        assert psi_star >= 0.0
        best = min(values.values())
        assert values[round(psi_star, 12)] == pytest.approx(best, rel=1e-9)

    def test_all_points_failing_raises(self):
        cfg = ArrayConfig(1, 1)
        # single element: angle parameters unidentifiable, fisher singular
        paths = PathSet(theta=[1.2], phi=[0.1], beta=[1.0])
        with pytest.raises(OptimizationError):
            optimal_psi_for_crb(FlexModel.ROTATABLE, cfg, OMNI, paths, 0.0, 1.0,
                                (-0.5, 0.5), grid_size=5)

    def test_grid_size_validation(self):
        cfg = ArrayConfig(2, 1)
        paths = PathSet(theta=[1.2], phi=[0.1], beta=[1.0])
        with pytest.raises(ValueError):
            optimal_psi_for_crb(FlexModel.ROTATABLE, cfg, OMNI, paths, 0.0, 1.0,
                                (-0.5, 0.5), grid_size=1)


class TestOneLinkArguments:
    """The single-link functions name ``paths`` when handed a (K, L) set
    instead of failing inside numpy broadcasting."""

    CFG = ArrayConfig(4, 2, wavelength=WAVELENGTH)
    CALLS = {
        "fisher_matrix": lambda cfg, paths: fisher_matrix(
            FlexModel.ROTATABLE, cfg, OMNI, paths, 0.2, 0.0, 1.0),
        "channel_param_derivatives": lambda cfg, paths: channel_param_derivatives(
            FlexModel.ROTATABLE, cfg, OMNI, paths, 0.2, 0.0, 0),
        "optimal_psi_for_crb": lambda cfg, paths: optimal_psi_for_crb(
            FlexModel.ROTATABLE, cfg, OMNI, paths, 0.0, 1.0, (-0.5, 0.5), grid_size=5),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_user_block_is_rejected(self, name):
        scenario = generate_scenario(self.CFG, OMNI, FlexModel.ROTATABLE, k_users=2,
                                     n_paths=3, seed=5)
        with pytest.raises(ValueError, match="paths"):
            self.CALLS[name](self.CFG, scenario.paths[0])


class TestInputChecks:
    """A non-finite noise power or mount is a ValueError that names it, raised
    before any Fisher matrix is built."""

    CFG = ArrayConfig(4, 2, wavelength=WAVELENGTH)
    PATHS = PathSet(theta=[1.2, 1.7], phi=[0.3, -0.4], beta=[1.0, 0.5j])
    CALLS = {
        "fisher_matrix": lambda cfg, paths, mount, sigma2: fisher_matrix(
            FlexModel.BENDABLE, cfg, COS2, paths, 0.2, mount, sigma2),
        "channel_param_derivatives": lambda cfg, paths, mount, sigma2: channel_param_derivatives(
            FlexModel.BENDABLE, cfg, COS2, paths, 0.2, mount, 0),
        "optimal_psi_for_crb": lambda cfg, paths, mount, sigma2: optimal_psi_for_crb(
            FlexModel.BENDABLE, cfg, COS2, paths, mount, sigma2, (-0.5, 0.5), grid_size=5),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mount", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_non_finite_mount_is_named(self, name, mount):
        with pytest.raises(ValueError, match="mount"):
            self.CALLS[name](self.CFG, self.PATHS, mount, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mount", [[0.1], [[0.1]], np.array([0.1, 0.2]), np.nan],
                             ids=["list", "nested", "pair", "nan"])
    @pytest.mark.parametrize("name", ["flexible_channel", "fisher_matrix", "optimal_psi_for_crb"])
    def test_a_mount_that_is_no_finite_scalar_is_named(self, name, mount):
        # the rule of mounted_geometry: neither the first entry nor a broadcast
        calls = {**self.CALLS, "flexible_channel": lambda cfg, paths, mount, sigma2:
                 flexible_channel(FlexModel.BENDABLE, cfg, COS2, paths, 0.2, mount)}
        with pytest.raises(ValueError, match="mount must be a finite scalar"):
            calls[name](self.CFG, self.PATHS, mount, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("psi", [np.array([0.1]), [0.1], None, "north", np.nan, np.inf],
                             ids=["array", "list", "none", "text", "nan", "inf"])
    def test_a_psi_that_is_no_finite_scalar_is_named(self, monkeypatch, psi):
        # the mount rule: numpy's or float()'s message named no argument, and nan read [nan]
        monkeypatch.setattr(estimation, "_grams", lambda *args: pytest.fail("built a gram"))
        message = re.escape(f"psi must be a finite scalar, got {psi!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            fisher_matrix(FlexModel.BENDABLE, self.CFG, COS2, self.PATHS, psi, 0.0, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, 0.0, -1.0, 1e-320])
    @pytest.mark.parametrize("name", ["fisher_matrix", "optimal_psi_for_crb"])
    def test_non_finite_or_non_positive_sigma2_is_named(self, monkeypatch, name, sigma2):
        monkeypatch.setattr(estimation, "_grams", lambda *args: pytest.fail("built a gram"))
        with pytest.raises(ValueError, match="sigma2"):
            self.CALLS[name](self.CFG, self.PATHS, 0.0, sigma2)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("psi_range", [(-np.inf, 0.5), (-0.5, np.inf), (np.nan, 0.5),
                                           (-0.5, 0.0, 0.5), (0.5,)])
    def test_a_non_finite_psi_range_is_named(self, monkeypatch, psi_range):
        # an infinite bound used to reach np.linspace, warn twice and name a nan psi
        monkeypatch.setattr(estimation, "_grams", lambda *args: pytest.fail("built a gram"))
        with pytest.raises(ValueError, match=r"psi_range must hold two finite flex angles, got"):
            optimal_psi_for_crb(FlexModel.BENDABLE, self.CFG, COS2, self.PATHS, 0.0, 1.0,
                                psi_range, grid_size=5)

    @pytest.mark.parametrize("grid_size", [2.5, 1, 0, 5.0, "5"])
    def test_a_grid_size_that_is_no_integer_of_at_least_2_is_named(self, monkeypatch, grid_size):
        # 2.5 used to raise numpy's TypeError from np.linspace
        monkeypatch.setattr(estimation, "_grams", lambda *args: pytest.fail("built a gram"))
        with pytest.raises(ValueError, match=f"grid_size must be an integer of at least 2, "
                                             f"got {grid_size!r}"):
            optimal_psi_for_crb(FlexModel.BENDABLE, self.CFG, COS2, self.PATHS, 0.0, 1.0,
                                (-0.5, 0.5), grid_size=grid_size)

    def test_a_numpy_integer_grid_size_is_accepted(self):
        expected = optimal_psi_for_crb(FlexModel.BENDABLE, self.CFG, COS2, self.PATHS, 0.0, 1.0,
                                       (-0.5, 0.5), grid_size=5)
        assert optimal_psi_for_crb(FlexModel.BENDABLE, self.CFG, COS2, self.PATHS, 0.0, 1.0,
                                   (-0.5, 0.5), grid_size=np.int64(5)) == expected


class TestKeptGrams:
    """A root keeps one gram per flex angle in one dict per model, array, pattern and mount,
    and a grid search builds its grid's grams as one batch; a set that is no view keeps
    nothing."""

    CFG = ArrayConfig(4, 3, wavelength=WAVELENGTH)

    @staticmethod
    def fresh(paths):
        return PathSet(paths.theta.copy(), paths.phi.copy(), paths.beta.copy())

    def test_grid_searches_keep_one_gram_per_point(self):
        root = interior_paths(np.random.default_rng(83), 3)
        for n_paths in (2, 3):
            optimal_psi_for_crb(FlexModel.BENDABLE, self.CFG, COS2, root[:n_paths], 0.0, 1.0,
                                CRB_PSI_RANGE, grid_size=9)
        mean_angle_crb(fisher_matrix(FlexModel.PLANAR, self.CFG, COS2, root[:2], 0.0, 0.0, 1.0))
        assert sorted(len(grams) for grams in root._derived.values()) == [1, 9]

    @pytest.mark.parametrize("spec, mount, cfg", [
        (COS1, 0.0, CFG), (OMNI, 0.0, CFG), (COS2, 0.4, CFG), (COS2, -0.0, CFG),
        (COS2, 0.0, ArrayConfig(4, 3, wavelength=0.05)),
        (COS2, 0.0, ArrayConfig(4, 3, wavelength=WAVELENGTH, spacing=0.02)),
        (COS2, 0.0, ArrayConfig(4, 2, wavelength=WAVELENGTH))])
    def test_another_spec_mount_wavelength_or_heights_gets_its_own_gram(self, spec, mount, cfg):
        root = interior_paths(np.random.default_rng(89), 3)
        fisher_matrix(FlexModel.ROTATABLE, self.CFG, COS2, root[:], 0.3, 0.0, 1.0)
        got = fisher_matrix(FlexModel.ROTATABLE, cfg, spec, root[:], 0.3, mount, 1.0).matrix
        expected = fisher_matrix(FlexModel.ROTATABLE, cfg, spec, self.fresh(root), 0.3, mount,
                                 1.0).matrix
        assert np.array_equal(got, expected)
        assert len(root._derived) == 2

    def test_a_set_of_its_own_keeps_nothing(self):
        paths = interior_paths(np.random.default_rng(97), 3)
        optimal_psi_for_crb(FlexModel.FOLDABLE, self.CFG, COS1, paths, 0.0, 1.0, CRB_PSI_RANGE,
                            grid_size=9)
        fisher_matrix(FlexModel.FOLDABLE, self.CFG, COS1, paths, 0.1, 0.0, 1.0)
        assert paths._derived == {} and paths._root is None
        paths.phi[1] = 0.2  # nothing kept, so nothing can go stale

    def test_a_refused_mount_keeps_nothing(self):
        root = interior_paths(np.random.default_rng(101), 2)
        with pytest.raises(ValueError, match="mount"):
            fisher_matrix(FlexModel.ROTATABLE, self.CFG, COS2, root[:1], 0.1, np.nan, 1.0)
        with pytest.raises(ValueError, match="mount"):
            optimal_psi_for_crb(FlexModel.ROTATABLE, self.CFG, COS2, root[:2], np.nan, 1.0,
                                CRB_PSI_RANGE, grid_size=9)
        assert root._derived == {}


def standalone(paths):
    """The same paths as a set with no root, so its Fisher matrix is built directly."""
    return PathSet(paths.theta.copy(), paths.phi.copy(), paths.beta.copy())


def assert_close_frobenius(got, expected, rtol):
    """||got - expected||_F <= rtol ||expected||_F, so an all-zero matrix must match exactly."""
    assert np.linalg.norm(got - expected) <= rtol * np.linalg.norm(expected)


class TestPrefixViews:
    """``root[:L]`` reads its Fisher matrix from the root's kept L_max gram by the
    prefix identity; it agrees with a direct build of the same L paths."""

    CFG = ArrayConfig(4, 4, wavelength=WAVELENGTH)
    L_MAX = 6

    @staticmethod
    def psi_range(model):
        return (0.0, 0.0) if model is FlexModel.PLANAR else CRB_PSI_RANGE

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spec", [OMNI, COS1, COS2], ids=["omni", "cos1", "cos2"])
    @pytest.mark.parametrize("model", MODELS, ids=lambda model: model.value)
    def test_fisher_matrices_match_a_direct_build(self, model, spec, seed):
        root = _crb_regime_paths(np.random.default_rng([107, seed]), self.L_MAX)
        for psi in np.linspace(*self.psi_range(model), 7):
            for n_paths in range(1, self.L_MAX + 1):
                try:
                    expected = fisher_matrix(model, self.CFG, spec, standalone(root[:n_paths]),
                                             psi, 0.0, 1.0).matrix
                except PatternBoundaryError:
                    with pytest.raises(PatternBoundaryError):
                        fisher_matrix(model, self.CFG, spec, root[:n_paths], psi, 0.0, 1.0)
                    continue
                got = fisher_matrix(model, self.CFG, spec, root[:n_paths], psi, 0.0, 1.0)
                assert got.n_paths == n_paths and np.array_equal(got.matrix, got.matrix.T)
                assert_close_frobenius(got.matrix, expected, 1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spec", [OMNI, COS1, COS2], ids=["omni", "cos1", "cos2"])
    @pytest.mark.parametrize("model", MODELS, ids=lambda model: model.value)
    def test_grid_search_makes_the_same_decision(self, model, spec, seed):
        root = _crb_regime_paths(np.random.default_rng([109, seed]), self.L_MAX)
        for n_paths in range(1, self.L_MAX + 1):
            search = [optimal_psi_for_crb(model, self.CFG, spec, paths, 0.0, 1.0,
                                          self.psi_range(model), 181)
                      for paths in (root[:n_paths], standalone(root[:n_paths]))]
            (psi_view, crb_view), (psi_direct, crb_direct) = search
            assert psi_view == psi_direct
            assert crb_view == pytest.approx(crb_direct, rel=1e-9)

    def test_a_path_on_the_edge_beyond_the_prefix_skips_only_the_root(self):
        # phi = pi/2 sits on the cosine support edge at psi = 0 for the rotated array
        root = PathSet(theta=[1.7, 1.2], phi=[0.3, np.pi / 2], beta=[0.5j, 1.0])
        with pytest.raises(PatternBoundaryError):
            fisher_matrix(FlexModel.ROTATABLE, self.CFG, COS2, root, 0.0, 0.0, 1.0)
        got = fisher_matrix(FlexModel.ROTATABLE, self.CFG, COS2, root[:1], 0.0, 0.0, 1.0)
        expected = fisher_matrix(FlexModel.ROTATABLE, self.CFG, COS2, standalone(root[:1]),
                                 0.0, 0.0, 1.0)
        assert_close_frobenius(got.matrix, expected.matrix, 1e-12)
        view, direct = (optimal_psi_for_crb(FlexModel.ROTATABLE, self.CFG, COS2, paths, 0.0,
                                            1.0, (-0.5, 0.5), 5)
                        for paths in (root[:1], standalone(root[:1])))
        assert view[0] == direct[0] and view[1] == pytest.approx(direct[1], rel=1e-9)

    def test_a_refused_root_build_is_kept(self, monkeypatch):
        # the last path sits on the cosine support edge at psi = 0 for the rotated array
        root = PathSet(theta=[1.7, 1.2, 1.4, 1.1], phi=[0.3, -0.2, 0.1, np.pi / 2],
                       beta=[0.5j, 1.0, -0.7, 0.4 + 0.2j])

        def search(paths):
            return optimal_psi_for_crb(FlexModel.ROTATABLE, self.CFG, COS2, paths, 0.0, 1.0,
                                       (-0.5, 0.5), 5)

        direct = [search(standalone(root[:n_paths])) for n_paths in (1, 2, 3, 4)]
        builds = []
        build = estimation._grams
        monkeypatch.setattr(estimation, "_grams", lambda *args: builds.append(
            (args[3].n_paths, len(args[4]))) or build(*args))
        views = [search(root[:n_paths]) for n_paths in (1, 2, 3, 4)]
        # one batch of the root's 5 grid points, psi = 0 with its edge path among them: every
        # view reads the root's gram there and is refused only by a path of its own (root[:4])
        assert builds == [(4, 5)]
        for (psi_view, crb_view), (psi_direct, crb_direct) in zip(views, direct):
            assert psi_view == psi_direct and crb_view == pytest.approx(crb_direct, rel=1e-9)

    def test_views_share_one_root_and_keep_one_gram_per_point(self):
        root = interior_paths(np.random.default_rng(113), 4)
        views = [root[:2], root[:4][:3], root[:]]
        assert all(view._root is root for view in views)
        for view in views:
            fisher_matrix(FlexModel.BENDABLE, self.CFG, COS2, view, 0.2, 0.0, 1.0)
        assert [len(grams) for grams in root._derived.values()] == [1]  # one gram
        assert all(view._derived == {} for view in views)

    @pytest.mark.parametrize("index", [slice(1, 3), slice(0, 3), slice(None, None, 2), [0, 1],
                                       0], ids=["offset", "explicit-start", "step", "list", "int"])
    def test_other_indices_give_plain_sets(self, index):
        root = interior_paths(np.random.default_rng(127), 4)
        assert root[index]._root is None
        assert root.theta.flags.writeable

    def test_a_user_block_prefix_is_a_plain_set(self):
        scenario = generate_scenario(self.CFG, OMNI, FlexModel.ROTATABLE, k_users=2,
                                     n_paths=3, seed=5)
        assert scenario.paths[:1]._root is None

    def test_root_and_view_arrays_turn_read_only(self):
        root = interior_paths(np.random.default_rng(131), 3)
        view = root[:2]
        for paths in (root, view):
            for values in (paths.theta, paths.phi, paths.beta):
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = 1.0

    def test_the_kept_gram_is_never_returned(self):
        root = interior_paths(np.random.default_rng(137), 3)
        for n_paths in (3, 2):
            first = fisher_matrix(FlexModel.FOLDABLE, self.CFG, COS1, root[:n_paths], 0.1, 0.0,
                                  1.0)
            kept = first.matrix.copy()
            first.matrix[...] = np.nan
            again = fisher_matrix(FlexModel.FOLDABLE, self.CFG, COS1, root[:n_paths], 0.1, 0.0,
                                  1.0)
            assert np.array_equal(again.matrix, kept)

    def test_noise_scaling_stays_exact_on_a_view(self):
        root = interior_paths(np.random.default_rng(139), 4)
        f1 = fisher_matrix(FlexModel.ROTATABLE, self.CFG, COS2, root[:3], 0.1, 0.0, 1.0)
        f2 = fisher_matrix(FlexModel.ROTATABLE, self.CFG, COS2, root[:3], 0.1, 0.0, 2.0)
        assert np.array_equal(f2.matrix, 0.5 * f1.matrix)


class TestBatchInvariants:
    """A batch of flex angles builds each gram with the arithmetic of a one-angle build, bit
    for bit, so a grid's psi = 0 point is the planar reference exactly: an optimized CRB
    then never exceeds the fixed one by rounding alone."""

    @pytest.mark.parametrize("spec", [OMNI, COS1, COS2], ids=["omni", "cos1", "cos2"])
    @pytest.mark.parametrize("model", FLEX_MODELS, ids=lambda model: model.value)
    def test_the_zero_angle_of_a_grid_is_the_planar_build(self, model, spec):
        cfg = ArrayConfig(8, 8, wavelength=WAVELENGTH)
        assert np.linspace(*CRB_PSI_RANGE, 181)[90] == 0.0
        for seed in range(4):
            full = _crb_regime_paths(np.random.default_rng([149, seed]), 6)
            flexed, planar = standalone(full), standalone(full)
            optimal_psi_for_crb(model, cfg, spec, flexed[:1], 0.0, 1.0, CRB_PSI_RANGE, 181)
            # the whole grid is kept, psi = 0 among it
            assert [len(grams) for grams in flexed._derived.values()] == [181]
            for n_paths in range(1, 7):
                got = fisher_matrix(model, cfg, spec, flexed[:n_paths], 0.0, 0.0, 1.0)
                expected = fisher_matrix(FlexModel.PLANAR, cfg, spec, planar[:n_paths], 0.0,
                                         0.0, 1.0)
                assert np.array_equal(got.matrix, expected.matrix)

    @pytest.mark.parametrize("spec", TestMatchesTheOneCallOracle.SPECS)
    @pytest.mark.parametrize("model", MODELS, ids=lambda model: model.value)
    def test_every_row_of_a_batch_is_its_one_angle_build(self, model, spec):
        rng = np.random.default_rng(151)
        cfg = ArrayConfig(5, 3, wavelength=WAVELENGTH)
        grid = (np.zeros(4) if model is FlexModel.PLANAR
                else np.concatenate([np.linspace(-np.pi / 2, np.pi / 2, 37), [1e-7, -1e-7]]))
        kinds = set()
        for n_paths in (1, 3, 6):
            for mount in TestMatchesTheOneCallOracle.MOUNTS:
                paths = TestMatchesTheOneCallOracle.paths_for(rng, n_paths, mount)
                grams, first_edges = estimation._grams(model, cfg, spec, paths, grid, mount)
                for psi, gram, first_edge in zip(grid, grams, first_edges):
                    (one,), (one_edge,) = estimation._grams(model, cfg, spec, paths,
                                                            np.array([psi]), mount)
                    assert np.array_equal(one, gram) and one_edge == first_edge
                    kinds.add(first_edge == n_paths)
        assert kinds == ({True} if spec is OMNI else {True, False})
