"""Multipath channel synthesis for flexible arrays.

A link is described by L plane-wave paths (elevation, azimuth, complex gain).
The channel of a deformed array is

    h(psi) = sqrt(1/L) * sum_l beta_l * e(theta_l, phi_l, psi) (.) g(theta_l, phi_l, psi)

where e stacks the per-element pattern coefficients under the deformation's
boresight offsets, g is the far-field planar-wave array manifold at the
deformed element positions, and (.) is the elementwise product. Path angles
are global; a mount rotates the array or, equivalently, the path azimuths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import ArrayConfig, ArrayGeometry, FlexModel, flex_geometry
from .radiation import PatternSpec, pattern_coefficient, wrap_angle

if TYPE_CHECKING:  # pragma: no cover
    from .harness import Scenario

MOUNTS = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)  # array m faces sector m's center


@dataclass
class PathSet:
    """Plane-wave path parameters of a single link.

    Arrays share length L: elevations in [0, pi], azimuths in radians, and
    unitless complex gains. Gains are stored unnormalized; the sqrt(1/L)
    factor is applied once inside :func:`flexible_channel`.
    """

    theta: np.ndarray
    phi: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=complex))
        if not (self.theta.shape == self.phi.shape == self.beta.shape) or self.theta.ndim != 1:
            raise ValueError("theta, phi and beta must be 1-D arrays of equal length")
        if self.theta.size == 0:
            raise ValueError("a path set needs at least one path")
        if np.any(self.theta < 0.0) or np.any(self.theta > np.pi):
            raise ValueError("path elevations must lie in [0, pi]")

    @property
    def n_paths(self) -> int:
        return self.theta.size


def array_manifold(positions: np.ndarray, theta, phi, wavelength: float) -> np.ndarray:
    """Far-field array manifold; unit-modulus phase response of each element.

    ``theta``/``phi`` may be scalars (returns shape (N,)) or broadcastable
    arrays such as (L, 1) against N positions (returns (L, N)).
    """
    positions = np.asarray(positions, dtype=float)
    x, y, z = positions[..., 0], positions[..., 1], positions[..., 2]
    arg = (x * np.sin(theta) * np.cos(phi)
           + y * np.sin(theta) * np.sin(phi)
           + z * np.cos(theta))
    return np.exp(-2j * np.pi / wavelength * arg)


def path_factors(geometry: ArrayGeometry, spec: PatternSpec, paths: PathSet, wavelength: float):
    """Pattern and manifold factors of every path, both shaped (L, N)."""
    offsets = geometry.orientation_offsets
    pattern = pattern_coefficient(spec, paths.theta[:, None], paths.phi[:, None] - offsets[None, :])
    manifold = array_manifold(geometry.positions, paths.theta[:, None], paths.phi[:, None], wavelength)
    return pattern, manifold


def flexible_channel(model: FlexModel, cfg: ArrayConfig, spec: PatternSpec,
                     paths: PathSet, psi: float, mount: float = 0.0) -> np.ndarray:
    """Channel vector of one link for an array deformed to ``psi``, shape (N,)."""
    geometry = flex_geometry(model, cfg, psi, mount)
    pattern, manifold = path_factors(geometry, spec, paths, cfg.wavelength)
    weighted = paths.beta[:, None] * pattern * manifold
    return np.sqrt(1.0 / paths.n_paths) * weighted.sum(axis=0)


def channel_power(h: np.ndarray) -> float:
    """Squared Euclidean norm h^H h of a channel vector."""
    h = np.asarray(h)
    return float(np.vdot(h, h).real)


def sector_block(scenario: "Scenario", geometry: ArrayGeometry, faa: int, sectors) -> np.ndarray:
    """Channels from array ``faa``, already built as ``geometry`` at zero
    mount, to the users of ``sectors``: one sector index gives (N, K), a
    slice of sectors (N, S*K) in sector order. Vectorized over users and
    paths; the array's local azimuths subtract its mount."""
    n_paths = scenario.n_paths
    theta = scenario.theta[sectors].reshape(-1, n_paths, 1)
    phi = wrap_angle(scenario.phi[sectors] - MOUNTS[faa]).reshape(-1, n_paths, 1)
    beta = scenario.beta[sectors].reshape(-1, n_paths, 1)
    pattern = pattern_coefficient(scenario.pattern, theta, phi - geometry.orientation_offsets)
    manifold = array_manifold(geometry.positions, theta, phi, scenario.cfg.wavelength)
    columns = np.sqrt(1.0 / n_paths) * (beta * pattern * manifold).sum(axis=1)
    return columns.T
