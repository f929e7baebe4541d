"""Fisher information and Cramer-Rao bounds for the multipath channel.

The parameter vector stacks the per-path elevations, azimuths, and the real
and imaginary parts of the gains, xi = [theta; phi; beta_R; beta_I] of length
4L. For the single-snapshot training model u = h(psi) + n with circular white
noise of power sigma^2, block (a, b) of the Fisher matrix is
(2 / sigma^2) Re{ D_a^H D_b } where D_a stacks the channel derivatives with
respect to parameter family a. Only the gain normalization sqrt(1/L) depends on L,
so the first L of L_max paths have J_L = (L_max/L) J_{L_max} at the indices l + f L_max
(l < L): a prefix view ``root[:L]`` reads its Fisher matrix from its root's kept gram, refused
at a flex angle only where one of its own paths meets a pattern support edge.

Each derivative column is a sum of Kronecker products of row and column atoms
(:func:`_atoms`), so by <a (x) b, c (x) d> = <a, c><b, d>, Re(D^H D) =
Re(W^H [(A^H A) o (B^H B)] W) for 0/1/j weights W: O((4L)^2 N_h) per flex angle, and a
grid is one batch whose grams are bit for bit the one-angle builds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import PathSet
from .errors import OptimizationError, PatternBoundaryError, SingularFisherError, guarded_inverse
from .geometry import ArrayConfig, FlexModel, _finite_scalar, flex_geometry
from .radiation import PatternSpec, pattern_and_derivatives, support_edges

_FAMILIES = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1j]])  # pairs -> params


@dataclass
class FisherMatrix:
    """Fisher information of the 4L channel parameters at one flex angle."""

    matrix: np.ndarray
    sigma2: float
    n_paths: int


def _atoms(model: FlexModel, cfg: ArrayConfig, spec: PatternSpec, paths: PathSet, psi,
           mount: float):
    """Derivative atoms at each flex angle of the 1-D ``psi``: column atoms (G, 4L, N_h)
    [c(dA/dtheta - jk cos(theta) u A); cA; c(dA/dphi - jk sin(theta) (y cos - x sin) A); cA],
    c = exp(-jk sin(theta) u), and row atoms (4L, N_v) [g r; g jk sin(theta) z r; g r; s r],
    r = exp(-jk z cos(theta)), g = s beta, s = sqrt(1/L). Pair m is (row atom m) (x) (column
    atom m); the parameter columns are theta = pairs 0 + 1, phi = 2, beta_R = 3 and
    beta_I = j 3 (``_FAMILIES``). ``edges`` (G, L) marks the paths on a support edge, whose
    pattern is taken from behind the array (azimuth pi), where it is 0."""
    n, mount = paths.link().n_paths, _finite_scalar(mount, "mount")
    geometry = flex_geometry(model, cfg, psi)
    theta, phi = paths.theta[:, None], (paths.phi - mount)[:, None]
    azimuths = phi - geometry.column_offsets[:, None]  # (G, L, N_h)
    edges = support_edges(spec, theta, azimuths).any(axis=2)
    azimuths[edges] = np.pi
    pattern, d_pat_theta, d_pat_phi = pattern_and_derivatives(spec, theta, azimuths)
    x, y = geometry.column_x[:, None], geometry.column_y[:, None]
    sin_theta, cos_theta, sin_phi, cos_phi = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    jk = 2j * np.pi / cfg.wavelength
    u = x * cos_phi + y * sin_phi
    column = np.exp(-jk * sin_theta * u)
    amplitude = column * pattern
    columns = np.concatenate([column * d_pat_theta - jk * cos_theta * u * amplitude, amplitude,
                              column * d_pat_phi - jk * sin_theta * (y * cos_phi - x * sin_phi)
                              * amplitude, amplitude], axis=1)
    scale, row = np.sqrt(1.0 / n), np.exp(-jk * cos_theta * geometry.heights)
    gains = scale * paths.beta[:, None] * row
    rows = np.concatenate([gains, jk * sin_theta * geometry.heights * gains, gains, scale * row])
    return columns, rows, edges


def _grams(model, cfg, spec, paths, psi, mount) -> tuple:
    """Re(D^H D) (G, 4L, 4L) at the 1-D ``psi``, and each angle's first edge path (L if none)."""
    columns, rows, edges = _atoms(model, cfg, spec, paths, psi, mount)
    weights = np.kron(_FAMILIES, np.eye(paths.n_paths))
    pairs = (columns.conj() @ columns.swapaxes(1, 2)) * (rows.conj() @ rows.T)
    first_edges = np.where(edges.any(axis=1), edges.argmax(axis=1), paths.n_paths)
    return np.real(weights.conj().T @ pairs @ weights), first_edges.tolist()


def fisher_matrix(model: FlexModel, cfg: ArrayConfig, spec: PatternSpec,
                  paths: PathSet, psi: float, mount: float, sigma2: float) -> FisherMatrix:
    """Assemble the 4L x 4L Fisher matrix; symmetric by construction. Re(D^H D) of the n paths
    is the (m/n)-scaled block of their root's kept gram (a set of its own reads a private
    root's), refused when one of the n paths meets a support edge at ``psi``."""
    _check_sigma2(sigma2)
    psi = _finite_scalar(psi, "psi")
    if paths.link()._root is None:
        paths = PathSet(paths.theta, paths.phi, paths.beta)[:]
    root, n, m = paths._root, paths.n_paths, paths._root.n_paths
    gram, first_edge = _kept_grams(model, cfg, spec, root, (psi,), mount)[psi.hex()]
    if first_edge < n:
        raise PatternBoundaryError("a path within 1e-6 of the cosine support edge")
    j = (2.0 / sigma2) * ((m / n) * gram.reshape(4, m, 4, m)[:, :n, :, :n].reshape(4 * n, 4 * n))
    j = 0.5 * (j + j.T)
    return FisherMatrix(matrix=j, sigma2=float(sigma2), n_paths=n)


def _check_sigma2(sigma2) -> None:
    """ValueError naming ``sigma2`` unless it is positive with a finite Fisher scale 2 / sigma2."""
    if not (0.0 < sigma2 < np.inf and math.isfinite(2.0 / float(sigma2))):
        raise ValueError(f"noise power sigma2 must be positive with a finite 2 / sigma2, "
                         f"got {sigma2!r}")


def _kept_grams(model, cfg, spec, root: PathSet, psis, mount) -> dict:
    """The root's grams and first edge paths (:func:`_grams`) by flex angle (its float hex):
    one dict per (model, array, pattern, mount), the missing ``psis`` built as a batch. A
    mount that is no finite scalar is refused before anything is looked up or kept."""
    mount = _finite_scalar(mount, "mount")
    key = (_kept_grams, model, cfg, spec, mount.hex())
    grams = root._derived.get(key, {})
    missing = {angle: psi for psi in psis if (angle := float(psi).hex()) not in grams}
    if missing:
        built = zip(*_grams(model, cfg, spec, root, np.array([*missing.values()]), mount))
        (grams := root.derived(key, dict)).update(zip(missing, built))
    return grams


def _mean_angle_crbs(matrices, n_paths: int):
    """The refusals of G stacked (4L, 4L) Fisher matrices (:func:`guarded_inverse`: the
    refusing condition number, 0 where accepted), and the mean of the first 2L diagonal
    entries of each inverse (nan where refused)."""
    inverses, refusals = guarded_inverse(np.reshape(matrices, (-1, 4 * n_paths, 4 * n_paths)))
    diagonals = np.diagonal(inverses, axis1=1, axis2=2)
    return refusals, np.ascontiguousarray(diagonals[:, : 2 * n_paths]).mean(axis=1)


def mean_angle_crb(fisher: FisherMatrix) -> float:
    """Average CRB over all elevation and azimuth parameters (first 2L)."""
    (refusal,), (value,) = _mean_angle_crbs(fisher.matrix, fisher.n_paths)
    if refusal:
        raise SingularFisherError(float(refusal))
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
    if not (isinstance(grid_size, numbers.Integral) and grid_size >= 2):
        raise ValueError(f"grid_size must be an integer of at least 2, got {grid_size!r}")
    bounds = np.asarray(psi_range, dtype=float)
    if bounds.shape != (2,) or not np.isfinite(bounds).all():
        raise ValueError(f"psi_range must hold two finite flex angles, got {psi_range!r}")
    _check_sigma2(sigma2)
    if paths.link()._root is None:  # a set of its own: search a view of a private root
        paths = PathSet(paths.theta, paths.phi, paths.beta)[:]
    grid = np.linspace(*bounds, grid_size)
    _kept_grams(model, cfg, spec, paths._root, grid, mount)  # the root's grams as one batch
    built, matrices = [], []
    for psi in grid:
        try:
            matrices.append(fisher_matrix(model, cfg, spec, paths, psi, mount, sigma2).matrix)
        except PatternBoundaryError:
            continue
        built.append(float(psi))
    refusals, crbs = _mean_angle_crbs(matrices, paths.n_paths)
    evaluated = [(psi, float(value)) for psi, refusal, value in zip(built, refusals, crbs)
                 if not refusal]
    if not evaluated:
        raise OptimizationError("mean angle CRB failed at every grid point")
    best_value = min(value for _, value in evaluated)
    ties = [(psi, value) for psi, value in evaluated
            if value <= best_value * (1.0 + 1e-12)]
    psi_star, crb_star = min(ties, key=lambda item: (item[0] < 0.0, abs(item[0])))
    return psi_star, crb_star
