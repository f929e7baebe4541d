"""Multipath channel synthesis for flexible arrays.

A link is described by L plane-wave paths (elevation, azimuth, complex gain).
The channel of a deformed array is

    h(psi) = sqrt(1/L) * sum_l beta_l * e(theta_l, phi_l, psi) (.) g(theta_l, phi_l, psi)

where e stacks the per-element pattern coefficients under the deformation's
boresight offsets, g is the far-field planar-wave array manifold at the
deformed element positions, and (.) is the elementwise product. Path angles
are global; an array mounted at azimuth m sees every path at azimuth phi - m.

Every shape moves the N_h grid columns in the horizontal plane and keeps the
N_v heights, so at element (v, h) e_l (.) g_l is the column factor
A(theta_l, phi_l - o_h) exp(-jk sin(theta_l) (x_h cos(phi_l) + y_h sin(phi_l)))
times the row factor exp(-jk z_v cos(theta_l)), and the path sum is one
(N_v x L) @ (L x N_h) product per link: N_h + N_v exponentials per path, not N_h N_v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .geometry import ArrayConfig, ArrayGeometry, FlexModel, _finite_scalar, flex_geometry
from .radiation import PatternSpec, column_amplitudes

if TYPE_CHECKING:  # pragma: no cover
    from .harness import Scenario

MOUNTS = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)  # array m faces sector m's center


@dataclass(frozen=True)
class PathSet:
    """Plane-wave path parameters of shape (..., L): one link as (L,), a
    scenario's users as (3, K, L). The single-link functions take a 1-D set.

    Arrays share one shape: elevations in [0, pi], azimuths in radians, and
    unitless complex gains, all finite. Gains are stored unnormalized; the
    sqrt(1/L) factor is applied once inside the channel synthesis. Indexing
    gives a validated sub-set: ``paths[m, k]`` is one link, ``link[:n]`` its first n paths
    as a prefix view that shares its root's kept Fisher grams (both turn read-only). A
    scenario's channel factors and own-sector ZF gains and a root's Fisher grams read only
    the paths, so they are derived once per set and kept (:meth:`derived`); a set is frozen and copies its arrays, so
    nothing else can change them.
    """

    theta: np.ndarray
    phi: np.ndarray
    beta: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _root: PathSet | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, dtype in (("theta", float), ("phi", float), ("beta", complex)):
            values = np.atleast_1d(np.array(getattr(self, name), dtype=dtype))
            object.__setattr__(self, name, values)
        if not self.theta.shape == self.phi.shape == self.beta.shape:
            raise ValueError("theta, phi and beta must have equal shapes")
        if self.theta.size == 0:
            raise ValueError("a path set needs at least one path")
        if not all(np.isfinite(values).all() for values in (self.theta, self.phi, self.beta)):
            raise ValueError("path angles and gains must be finite")
        if np.any(self.theta < 0.0) or np.any(self.theta > np.pi):
            raise ValueError("path elevations must lie in [0, pi]")

    @property
    def n_paths(self) -> int:
        return self.theta.shape[-1]

    def __getitem__(self, index) -> PathSet:
        subset = PathSet(self.theta[index], self.phi[index], self.beta[index])
        if self.theta.ndim == 1 and isinstance(index, slice) and index == slice(index.stop):
            object.__setattr__(subset, "_root", self._root or self)
            subset._root._freeze()
            subset._freeze()
        return subset

    def link(self) -> PathSet:
        """This set if it is one link (1-D); ValueError otherwise."""
        if self.theta.ndim != 1:
            raise ValueError(f"paths: need a 1-D path set (one link), got shape {self.theta.shape}")
        return self

    def derived(self, key, build):
        """``build()``, called at the first request for ``key`` and kept. The path
        arrays turn read-only then, so a kept value cannot go stale."""
        if (value := self._derived.get(key)) is None:
            self._freeze()
            value = self._derived[key] = build()
        return value

    def _freeze(self):
        for values in (self.theta, self.phi, self.beta):
            values.flags.writeable = False


def _path_factors(theta, phi, beta, heights: np.ndarray, wavelength: float):
    """The parts of the channel to (..., L) paths that no flex angle changes: the
    path sines and cosines (..., L, 1), -jk sin(theta), and the gain-weighted row
    factors sqrt(1/L) beta exp(-jk cos(theta) z) at ``heights``, as (..., N_v, L)."""
    sin_theta = np.sin(theta)[..., None]
    cos_phi, sin_phi = np.cos(phi)[..., None], np.sin(phi)[..., None]
    jk = 2j * np.pi / wavelength
    gains = np.sqrt(1.0 / theta.shape[-1]) * beta[..., None]
    rows = gains * np.exp(-jk * np.cos(theta)[..., None] * heights)
    return sin_theta, cos_phi, sin_phi, -jk * sin_theta, np.swapaxes(rows, -1, -2)


def _combine(geometry: ArrayGeometry, spec: PatternSpec, factors) -> np.ndarray:
    """The channel from :func:`_path_factors` and the flexed columns, (..., N). G shapes give
    (G, ..., N): shape g meets every path, or entry g of a factor's extra leading axis (the
    mount axis of :func:`_scenario_factors`' azimuths)."""
    sin_theta, cos_phi, sin_phi, phase, rows = factors
    x, y, offsets = geometry.column_x, geometry.column_y, geometry.column_offsets
    if x.ndim == 2:  # (G, 1, ..., 1, N_h) columns against the (..., L, 1) paths
        x, y, offsets = (c.reshape(len(c), *(1,) * (sin_theta.ndim - 1), -1)
                         for c in (x, y, offsets))
    columns = np.exp(phase * (x * cos_phi + y * sin_phi))
    columns *= column_amplitudes(spec, sin_theta, cos_phi, sin_phi, offsets)
    grid = rows @ columns  # (..., N_v, N_h)
    return grid.reshape(*grid.shape[:-2], -1)


def flexible_channel(model: FlexModel, cfg: ArrayConfig, spec: PatternSpec,
                     paths: PathSet, psi: float, mount: float = 0.0) -> np.ndarray:
    """Channel vector of one link for an array flexed to ``psi`` (N,), or to each angle of a
    1-D ``psi`` (G, N), and mounted at ``mount``."""
    mount, paths = _finite_scalar(mount, "mount"), paths.link()
    geometry = flex_geometry(model, cfg, psi)
    return _combine(geometry, spec, _path_factors(paths.theta, paths.phi - mount, paths.beta,
                                                  geometry.heights, cfg.wavelength))


def channel_power(h: np.ndarray) -> float:
    """Squared Euclidean norm h^H h of a channel vector."""
    return float(np.vdot(h, h).real)


def _scenario_factors(scenario: "Scenario", heights: np.ndarray):
    """:func:`_path_factors` of the scenario's paths from the three mounts at ``heights``, the
    azimuths' (3 mounts, 3 sectors, K, L, 1), the rest (3 sectors, ...); kept on the paths."""
    paths, wavelength = scenario.paths, scenario.cfg.wavelength
    return paths.derived((_scenario_factors, heights.tobytes(), wavelength), lambda: _path_factors(
        paths.theta, paths.phi - np.reshape(MOUNTS, (3, 1, 1, 1)), paths.beta, heights, wavelength))


def sector_block(scenario: "Scenario", geometry: ArrayGeometry, sector: int) -> np.ndarray:
    """Channels from array ``sector``, built as ``geometry`` at zero mount, to its own sector's
    users, (N, K): entry [m] of the sector-indexed factors, [m, m] of the mount-indexed ones."""
    sin_theta, cos_phi, sin_phi, phase, rows = _scenario_factors(scenario, geometry.heights)
    own = [f[sector] for f in (sin_theta, cos_phi[sector], sin_phi[sector], phase, rows)]
    return _combine(geometry, scenario.pattern, own).T


def array_blocks(scenario: "Scenario", geometry: ArrayGeometry) -> np.ndarray:
    """Channels from the three arrays, built as one batch ``geometry`` of three shapes at zero
    mount (array m flexed to shape m), to all 3K users in sector order, (3, N, 3K)."""
    blocks = _combine(geometry, scenario.pattern, _scenario_factors(scenario, geometry.heights))
    return np.swapaxes(blocks.reshape(3, -1, blocks.shape[-1]), -1, -2)
