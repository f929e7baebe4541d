"""Fisher information and Cramer-Rao bounds for the multipath channel.

The parameter vector stacks the per-path elevations, azimuths, and the real
and imaginary parts of the gains, xi = [theta; phi; beta_R; beta_I] of length
4L. For the single-snapshot training model u = h(psi) + n with circular white
noise of power sigma^2, block (a, b) of the Fisher matrix is
(2 / sigma^2) Re{ D_a^H D_b } where D_a stacks the channel derivatives with
respect to parameter family a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PathSet
from .errors import (COND_MAX, OptimizationError, PatternBoundaryError, SingularFisherError,
                     condition_number)
from .geometry import ArrayConfig, FlexModel, flex_geometry
from .radiation import PatternSpec, pattern_azimuth_stage, pattern_elevation_stage


@dataclass
class FisherMatrix:
    """Fisher information of the 4L channel parameters at one flex angle."""

    matrix: np.ndarray
    sigma2: float
    n_paths: int

    def inverse(self) -> np.ndarray:
        """Inverse Fisher matrix, SingularFisherError above the condition limit. LU scales
        exactly by powers of two, so doubling sigma2 doubles every CRB bit for bit."""
        if (cond := condition_number(self.matrix)) > COND_MAX:
            raise SingularFisherError(cond)
        return np.linalg.inv(self.matrix)


def _link_stage(spec: PatternSpec, paths: PathSet, mount: float, heights: np.ndarray,
                wavelength: float):
    """The terms of :func:`_derivative_stack` that read only the paths: the pattern's elevation
    stage, phi - mount, the sines and cosines, sqrt(1/L) beta, z cos, z sin and jk sin(theta)."""
    if not np.isfinite(mount):
        raise ValueError(f"mount must be finite, got {mount!r}")
    theta, phi = paths.theta[:, None, None], (paths.phi - mount)[:, None, None]
    sin_theta, cos_theta = np.sin(theta), np.cos(theta)
    z = heights[:, None]
    return (pattern_elevation_stage(spec, theta), phi, sin_theta, cos_theta, np.sin(phi),
            np.cos(phi), np.sqrt(1.0 / paths.n_paths) * paths.beta[:, None, None],
            z * cos_theta, z * sin_theta, 2j * np.pi / wavelength * sin_theta)


def _derivative_stack(model: FlexModel, cfg: ArrayConfig, spec: PatternSpec,
                      paths: PathSet, psi: float, mount: float) -> np.ndarray:
    """Channel derivatives for all parameters, columns (N, 4L) ordered
    [theta_1..L, phi_1..L, beta_R_1..L, beta_I_1..L]. One pass on (L, N_v, N_h):
    the manifold g = exp(-jk a), a = sin(theta) u + z cos(theta), u = x cos(phi) + y sin(phi)
    per column, and its partials -jk (da/dxi) g. The path set keeps its :func:`_link_stage`,
    so a flex angle builds only the geometry and the terms that read it."""
    paths = paths.link()
    geometry = flex_geometry(model, cfg, psi)
    heights = geometry.heights
    key = (_link_stage, spec, float(mount).hex(), cfg.wavelength, heights.tobytes())
    elevation, phi, sin_theta, cos_theta, sin_phi, cos_phi, gains, z_cos, z_sin, jk_sin = \
        paths.derived(key, lambda: _link_stage(spec, paths, mount, heights, cfg.wavelength))
    pattern, d_pat_theta, d_pat_phi = pattern_azimuth_stage(
        spec, elevation, phi - geometry.column_offsets)
    x, y = geometry.column_x, geometry.column_y
    u = x * cos_phi + y * sin_phi
    jk = 2j * np.pi / cfg.wavelength
    manifold = np.exp(-jk * (sin_theta * u + z_cos))

    weighted = gains * manifold
    d_theta = weighted * (d_pat_theta - jk * (cos_theta * u - z_sin) * pattern)
    d_phi = weighted * (d_pat_phi - jk_sin * (y * cos_phi - x * sin_phi) * pattern)
    d_beta_r = np.sqrt(1.0 / paths.n_paths) * pattern * manifold
    return np.concatenate([d_theta, d_phi, d_beta_r, 1j * d_beta_r]).reshape(-1, cfg.n_elements).T


def stack_parameters(paths: PathSet) -> np.ndarray:
    """Channel parameters as one real vector [theta; phi; beta_R; beta_I] of
    length 4L, in the ordering used by the Fisher matrix and CRB indices."""
    return np.concatenate([paths.theta, paths.phi, paths.beta.real, paths.beta.imag])


def channel_param_derivatives(model: FlexModel, cfg: ArrayConfig, spec: PatternSpec,
                              paths: PathSet, psi: float, mount: float, path_index: int):
    """Derivatives of the channel with respect to path ``path_index``'s four
    parameters: (d/d theta_l, d/d phi_l, d/d beta_R_l, d/d beta_I_l)."""
    n_paths = paths.n_paths
    if not 0 <= path_index < n_paths:
        raise IndexError(f"path index {path_index} outside 0..{n_paths - 1}")
    stack = _derivative_stack(model, cfg, spec, paths, psi, mount)
    return tuple(stack[:, family * n_paths + path_index] for family in range(4))


def fisher_matrix(model: FlexModel, cfg: ArrayConfig, spec: PatternSpec,
                  paths: PathSet, psi: float, mount: float, sigma2: float) -> FisherMatrix:
    """Assemble the 4L x 4L Fisher matrix; symmetric by construction."""
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"noise power sigma2 must be positive and finite, got {sigma2!r}")
    stack = _derivative_stack(model, cfg, spec, paths, psi, mount)
    j = (2.0 / sigma2) * np.real(stack.conj().T @ stack)
    j = 0.5 * (j + j.T)
    return FisherMatrix(matrix=j, sigma2=float(sigma2), n_paths=paths.n_paths)


def crb(fisher: FisherMatrix, index: int) -> float:
    """Cramer-Rao bound of one parameter, a diagonal entry of the inverse
    Fisher matrix. ``index`` is 0-based over the 4L stacked parameters."""
    size = fisher.matrix.shape[0]
    if not 0 <= index < size:
        raise IndexError(f"parameter index {index} outside 0..{size - 1}")
    return float(fisher.inverse()[index, index])


def _mean_angle_crbs(matrices, n_paths: int):
    """Condition numbers of G stacked (4L, 4L) Fisher matrices, and the mean of the
    first 2L diagonal entries of each inverse within COND_MAX (nan elsewhere), from
    one ``eigvalsh`` and one LU inverse over the stack."""
    matrices = np.reshape(matrices, (-1, 4 * n_paths, 4 * n_paths))
    conditions = condition_number(matrices)
    invertible = conditions <= COND_MAX
    diagonals = np.diagonal(np.linalg.inv(matrices[invertible]), axis1=1, axis2=2)
    crbs = np.full(len(matrices), np.nan)
    crbs[invertible] = np.ascontiguousarray(diagonals[:, : 2 * n_paths]).mean(axis=1)
    return conditions, crbs


def mean_angle_crb(fisher: FisherMatrix) -> float:
    """Average CRB over all elevation and azimuth parameters (first 2L)."""
    (condition,), (value,) = _mean_angle_crbs(fisher.matrix, fisher.n_paths)
    if condition > COND_MAX:
        raise SingularFisherError(float(condition))
    return float(value)


def optimal_psi_for_crb(model: FlexModel, cfg: ArrayConfig, spec: PatternSpec,
                        paths: PathSet, mount: float, sigma2: float,
                        psi_range: tuple, grid_size: int = 181):
    """Grid search for the flex angle minimizing the mean angle CRB.

    Grid points that hit a pattern support edge, or whose Fisher matrix fails
    the condition rule (tested and inverted as one stack), are skipped. Ties
    (the CRB is even in psi for symmetric scenarios) are broken toward the
    non-negative half, then toward smaller |psi|. Returns (psi_star, crb_star);
    raises OptimizationError when every point fails.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    paths = paths.link()
    lo, hi = float(psi_range[0]), float(psi_range[1])
    grid, matrices = [], []
    for psi in np.linspace(lo, hi, grid_size):
        try:
            matrices.append(fisher_matrix(model, cfg, spec, paths, psi, mount, sigma2).matrix)
        except PatternBoundaryError:
            continue
        grid.append(float(psi))
    conditions, crbs = _mean_angle_crbs(matrices, paths.n_paths)
    evaluated = [(psi, float(value)) for psi, condition, value in zip(grid, conditions, crbs)
                 if condition <= COND_MAX]
    if not evaluated:
        raise OptimizationError("mean angle CRB failed at every grid point")
    best_value = min(value for _, value in evaluated)
    ties = [(psi, value) for psi, value in evaluated
            if value <= best_value * (1.0 + 1e-12)]
    psi_star, crb_star = min(ties, key=lambda item: (item[0] < 0.0, abs(item[0])))
    return psi_star, crb_star
