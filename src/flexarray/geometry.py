"""Flexible antenna array geometry: element positions and boresight offsets.

A planar N_h x N_v grid sits on the y-z plane and deforms through a single
scalar degree of freedom ``psi``: a rigid rotation about z, a circular bend in
the horizontal plane, or a single vertical fold line through the array center.
Every deformation leaves the z coordinates untouched. Elements are ordered
column-major over the grid (horizontal index fastest), and the same ordering
is used by the pattern and channel builders.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

BEND_EPS = 1e-6
"""Below this |psi| the bent array is evaluated in its planar limit."""


class FlexModel(enum.Enum):
    """Supported array deformation models."""

    PLANAR = "planar"
    ROTATABLE = "rotate"
    BENDABLE = "bend"
    FOLDABLE = "fold"


PSI_LIMITS = {FlexModel.PLANAR: 0.0, FlexModel.BENDABLE: np.pi, FlexModel.FOLDABLE: np.pi / 2}
"""Largest |psi| a shape takes: the planar array has no flex angle, a bend
beyond pi overlaps itself, a fold beyond pi/2 passes through itself.
Rotation takes any angle."""


@dataclass(frozen=True)
class ArrayConfig:
    """Grid size and spacing of one array.

    Args:
        n_h: horizontal element count.
        n_v: vertical element count.
        wavelength: carrier wavelength in meters.
        spacing: inter-element spacing in meters, half a wavelength by default.
    """

    n_h: int
    n_v: int
    wavelength: float = 0.03
    spacing: float | None = None

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError(f"element counts must be >= 1, got {self.n_h}x{self.n_v}")
        if not math.isfinite(self.wavelength) or self.wavelength <= 0:
            raise ValueError(f"wavelength must be finite and positive, got {self.wavelength!r}")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2)
        if not math.isfinite(self.spacing) or self.spacing <= 0:
            raise ValueError(f"spacing must be finite and positive, got {self.spacing!r}")

    @property
    def n_elements(self) -> int:
        return self.n_h * self.n_v


@dataclass
class ArrayGeometry:
    """Element positions, shape (N, 3), and boresight azimuth offsets, shape (N,).

    The offset of an element is the azimuth of its pattern boresight measured
    from the +x axis; a planar array has all offsets at zero.
    """

    positions: np.ndarray
    orientation_offsets: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.orientation_offsets = np.asarray(self.orientation_offsets, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        if self.orientation_offsets.shape != (self.positions.shape[0],):
            raise ValueError("one orientation offset per element required")

    @property
    def n_elements(self) -> int:
        return self.positions.shape[0]


def _centered_axis(count: int, spacing: float) -> np.ndarray:
    # (2n - count - 1)/2 * spacing for n = 1..count, centered on zero
    return (np.arange(count) - (count - 1) / 2.0) * spacing


def _check_psi(psi: float) -> float:
    psi = float(psi)
    if not math.isfinite(psi):
        raise ValueError("psi must be finite")
    return psi


def _grid(cfg: ArrayConfig, x_row, y_row, offset_row) -> ArrayGeometry:
    """Geometry whose every row (one vertical index) has horizontal
    coordinates ``x_row``, ``y_row`` and boresight offsets ``offset_row``,
    each N_h values or one shared value; z is the centred vertical axis."""
    positions = np.empty((cfg.n_v, cfg.n_h, 3))
    positions[..., 0] = x_row
    positions[..., 1] = y_row
    positions[..., 2] = _centered_axis(cfg.n_v, cfg.spacing)[:, None]
    offsets = np.empty((cfg.n_v, cfg.n_h))
    offsets[...] = offset_row
    return ArrayGeometry(positions.reshape(-1, 3), offsets.reshape(-1))


def planar_positions(cfg: ArrayConfig) -> ArrayGeometry:
    """Flat array on the y-z plane, boresight along +x."""
    return _grid(cfg, 0.0, _centered_axis(cfg.n_h, cfg.spacing), 0.0)


def rotated_geometry(cfg: ArrayConfig, psi: float) -> ArrayGeometry:
    """Rigid rotation of the planar array about the z axis by ``psi``.

    All elements share the same boresight offset ``psi``.
    """
    psi = _check_psi(psi)
    y_row = _centered_axis(cfg.n_h, cfg.spacing)
    return _grid(cfg, -y_row * np.sin(psi), y_row * np.cos(psi), psi)


def bent_geometry(cfg: ArrayConfig, psi: float) -> ArrayGeometry:
    """Circular bend of the horizontal rows into an arc of half-angle ``psi``.

    The arc has radius R = (N_h - 1) d / (2 psi) so adjacent elements keep arc
    separation d; element n_h sits at arc angle psi_n linearly spaced over
    [-psi, +psi] and its boresight follows the local surface normal (offset
    psi_n). |psi| above pi would self-overlap and is rejected; |psi| below
    BEND_EPS returns the planar limit.
    """
    psi = _check_psi(psi)
    if abs(psi) > PSI_LIMITS[FlexModel.BENDABLE]:
        raise ValueError(f"bend angle |psi| must not exceed pi, got {psi!r}")
    if abs(psi) < BEND_EPS:
        return planar_positions(cfg)
    if cfg.n_h == 1:
        raise ValueError("bending undefined for a single horizontal element")
    radius = (cfg.n_h - 1) * cfg.spacing / (2.0 * psi)
    psi_n = -psi + 2.0 * psi * np.arange(cfg.n_h) / (cfg.n_h - 1)
    return _grid(cfg, radius * (np.cos(psi_n) - 1.0), radius * np.sin(psi_n), psi_n)


def folded_geometry(cfg: ArrayConfig, psi: float) -> ArrayGeometry:
    """Fold about the vertical center line by ``psi``.

    Both half-arrays rotate toward -x for positive ``psi``; the y > 0 half
    rotates by +psi and the y < 0 half by -psi, so the boresight offsets take
    the values {+psi, 0, -psi} with zero reserved for a center column.
    """
    psi = _check_psi(psi)
    if abs(psi) > PSI_LIMITS[FlexModel.FOLDABLE]:
        raise ValueError(f"fold angle |psi| must not exceed pi/2, got {psi!r}")
    half = _centered_axis(cfg.n_h, cfg.spacing)  # signed y of each column
    return _grid(cfg, -np.abs(half) * np.sin(psi), half * np.cos(psi), np.sign(half) * psi)


def mounted_geometry(geometry: ArrayGeometry, mount_azimuth: float) -> ArrayGeometry:
    """Rotate a whole array about z to its mounting azimuth.

    Positions rotate by ``mount_azimuth`` and every boresight offset is
    incremented by it, so mounting commutes with any flex deformation.
    """
    mount = _check_psi(mount_azimuth)
    c, s = np.cos(mount), np.sin(mount)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return ArrayGeometry(geometry.positions @ rot.T, geometry.orientation_offsets + mount)


def flex_geometry(model: FlexModel, cfg: ArrayConfig, psi: float) -> ArrayGeometry:
    """Build the geometry of ``model`` at flex angle ``psi``, unmounted."""
    if model is FlexModel.PLANAR:
        if psi != 0.0:
            raise ValueError("planar arrays have no flexible degree of freedom; psi must be 0")
        return planar_positions(cfg)
    if model is FlexModel.ROTATABLE:
        return rotated_geometry(cfg, psi)
    if model is FlexModel.BENDABLE:
        return bent_geometry(cfg, psi)
    if model is FlexModel.FOLDABLE:
        return folded_geometry(cfg, psi)
    raise ValueError(f"unknown flex model {model!r}")  # pragma: no cover - enum is closed
