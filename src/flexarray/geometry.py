"""Flexible antenna array geometry: element positions and boresight offsets.

A planar N_h x N_v grid sits on the y-z plane and deforms through a single
scalar degree of freedom ``psi``: a rigid rotation about z, a circular bend in
the horizontal plane, or a single vertical fold line through the array center.
Every deformation moves the N_h columns in the horizontal plane and keeps the
N_v heights, so an array is stored as its columns and its heights; the
element list (horizontal index fastest) is derived from them. A 1-D ``psi``
gives (G, N_h) columns, each row bit for bit the geometry at that one angle.
"""

from __future__ import annotations

import enum
import math
import numbers
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


@dataclass(frozen=True)
class PsiRange:
    """Flex angles of one model: ``limit`` is the largest |psi| a shape takes,
    ``search`` the (low, high) box the sum-rate optimizers search."""

    limit: float
    search: tuple


PSI_RANGES = {
    FlexModel.PLANAR: PsiRange(0.0, (0.0, 0.0)),
    FlexModel.ROTATABLE: PsiRange(np.inf, (-np.pi / 4, np.pi / 4)),
    FlexModel.BENDABLE: PsiRange(np.pi, (-np.pi / 2, np.pi / 2)),
    FlexModel.FOLDABLE: PsiRange(np.pi / 2, (-np.pi / 4, np.pi / 4)),
}
"""The planar array has no flex angle, rotation takes any angle, a bend
beyond pi overlaps itself and a fold beyond pi/2 passes through itself."""


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
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (self.n_h, self.n_v)):
            raise ValueError(f"element counts must be integers >= 1, got {self.n_h}x{self.n_v}")
        if not math.isfinite(self.wavelength) or self.wavelength <= 0:
            raise ValueError(f"wavelength must be finite and positive, got {self.wavelength!r}")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2)
        # twice the largest bend radius bounds every coordinate, and twice that any sum of two
        reach = 2.0 * (max(self.n_h, self.n_v) - 1) * float(self.spacing) / BEND_EPS
        if not (self.spacing > 0 and math.isfinite(reach)):  # a 0 * inf reach is nan
            raise ValueError(f"spacing must be > 0 with finite coordinates, got {self.spacing!r}")

    @property
    def n_elements(self) -> int:
        return self.n_h * self.n_v


@dataclass
class ArrayGeometry:
    """An N_h x N_v grid: column h stands at (``column_x[h]``, ``column_y[h]``)
    with boresight azimuth offset ``column_offsets[h]`` from the +x axis and
    holds one element at each height ``heights[v]``. The element list,
    ``positions`` (N, 3) and ``orientation_offsets`` (N,), is derived from
    the grid on each access, horizontal index fastest. A batch of G shapes
    holds (G, N_h) columns and lists (G, N, 3) and (G, N) elements."""

    column_x: np.ndarray
    column_y: np.ndarray
    column_offsets: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        if not (self.heights.ndim == 1 and self.column_x.ndim in (1, 2)
                and self.column_x.shape == self.column_y.shape == self.column_offsets.shape):
            raise ValueError("need N_h (or G x N_h) column x, y and offsets and N_v heights (1-D)")

    @property
    def positions(self) -> np.ndarray:
        columns = self.column_x[..., None, :], self.column_y[..., None, :]
        grid = np.broadcast_arrays(*columns, self.heights[:, None])
        return np.stack(grid, axis=-1).reshape(*self.column_x.shape[:-1], -1, 3)

    @property
    def orientation_offsets(self) -> np.ndarray:
        return np.tile(self.column_offsets, self.heights.shape[0])


def _centered_axis(count: int, spacing: float) -> np.ndarray:
    # (2n - count - 1)/2 * spacing for n = 1..count, centered on zero
    return (np.arange(count) - (count - 1) / 2.0) * spacing


def _check_psi(psi, limit: float = np.inf, what: str = "psi") -> tuple:
    """A finite flex angle as a float, or a 1-D batch as (G, 1), each |psi| <= ``limit``,
    and the largest |psi|; each closed form then broadcasts over the columns."""
    psi = np.asarray(psi, dtype=float)
    largest = abs(float(psi)) if psi.ndim == 0 else np.abs(psi).max(initial=0.0)
    if psi.ndim > 1 or not math.isfinite(largest):
        raise ValueError(f"psi must be finite, and a scalar or 1-D, got {psi.tolist()!r}")
    if largest > limit:
        raise ValueError(f"{what} must not exceed {limit:.6g}, got {psi.tolist()!r}")
    return (float(psi) if psi.ndim == 0 else psi[:, None]), largest


def _grid(cfg: ArrayConfig, x_row, y_row, offset_row, psi=0.0) -> ArrayGeometry:
    """Geometry whose columns have horizontal coordinates ``x_row``, ``y_row`` and
    boresight offsets ``offset_row``, each N_h values (per angle of a checked batch
    ``psi``) or one shared value; the heights are the centred vertical axis."""
    columns = np.empty((3, *getattr(psi, "shape", (1,))[:-1], cfg.n_h))
    columns[0], columns[1], columns[2] = x_row, y_row, offset_row
    return ArrayGeometry(*columns, _centered_axis(cfg.n_v, cfg.spacing))


def planar_positions(cfg: ArrayConfig) -> ArrayGeometry:
    """Flat array on the y-z plane, boresight along +x."""
    return _grid(cfg, 0.0, _centered_axis(cfg.n_h, cfg.spacing), 0.0)


def rotated_geometry(cfg: ArrayConfig, psi) -> ArrayGeometry:
    """Rigid rotation of the planar array about the z axis by ``psi``.

    All elements share the same boresight offset ``psi``.
    """
    psi, _ = _check_psi(psi)
    y_row = _centered_axis(cfg.n_h, cfg.spacing)
    return _grid(cfg, -y_row * np.sin(psi), y_row * np.cos(psi), psi, psi)


def bent_geometry(cfg: ArrayConfig, psi) -> ArrayGeometry:
    """Circular bend of the horizontal rows into an arc of half-angle ``psi``.

    The arc has radius R = (N_h - 1) d / (2 psi) so adjacent elements keep arc
    separation d; element n_h sits at arc angle psi_n linearly spaced over
    [-psi, +psi] and its boresight follows the local surface normal (offset
    psi_n). |psi| above pi would self-overlap and is rejected; |psi| below
    BEND_EPS returns the planar limit.
    """
    psi, largest = _check_psi(psi, PSI_RANGES[FlexModel.BENDABLE].limit, "bend angle |psi|")
    if largest < BEND_EPS:
        return _grid(cfg, 0.0, _centered_axis(cfg.n_h, cfg.spacing), 0.0, psi)
    if cfg.n_h == 1:
        raise ValueError("bending undefined for a single horizontal element")
    if isinstance(psi, np.ndarray) and (flat := np.abs(psi[:, 0]) < BEND_EPS).any():
        geometry = bent_geometry(cfg, np.where(flat, 1.0, psi[:, 0]))  # then laid flat
        geometry.column_x[flat], geometry.column_offsets[flat] = 0.0, 0.0
        geometry.column_y[flat] = _centered_axis(cfg.n_h, cfg.spacing)
        return geometry
    radius = (cfg.n_h - 1) * cfg.spacing / (2.0 * psi)
    psi_n = -psi + 2.0 * psi * np.arange(cfg.n_h) / (cfg.n_h - 1)
    return _grid(cfg, radius * (np.cos(psi_n) - 1.0), radius * np.sin(psi_n), psi_n, psi)


def folded_geometry(cfg: ArrayConfig, psi) -> ArrayGeometry:
    """Fold about the vertical center line by ``psi``.

    Both half-arrays rotate toward -x for positive ``psi``; the y > 0 half
    rotates by +psi and the y < 0 half by -psi, so the boresight offsets take
    the values {+psi, 0, -psi} with zero reserved for a center column.
    """
    psi, _ = _check_psi(psi, PSI_RANGES[FlexModel.FOLDABLE].limit, "fold angle |psi|")
    half = _centered_axis(cfg.n_h, cfg.spacing)  # signed y of each column
    return _grid(cfg, -np.abs(half) * np.sin(psi), half * np.cos(psi), np.sign(half) * psi, psi)


def _finite_scalar(value, name: str) -> float:
    """``value`` as a float; ValueError naming it ``name`` unless it is one finite number. A
    finite float passes without an array: the rule runs at every Fisher matrix of a grid search."""
    if isinstance(value, float) and math.isfinite(value):
        return value
    try:
        number = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # neither a number nor an array of numbers
        number = None
    if number is None or number.ndim or not math.isfinite(number):
        raise ValueError(f"{name} must be a finite scalar, got {value!r}")
    return float(number)


def mounted_geometry(geometry: ArrayGeometry, mount_azimuth: float) -> ArrayGeometry:
    """Rotate a whole array about z to its mounting azimuth.

    Positions rotate by ``mount_azimuth`` and every boresight offset is
    incremented by it, so mounting commutes with any flex deformation.
    """
    mount = _finite_scalar(mount_azimuth, "mount")
    c, s = np.cos(mount), np.sin(mount)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    # first row of the element list: its 0 * z term sets the sign of a zero x or y
    first_row = np.broadcast_arrays(geometry.column_x, geometry.column_y, geometry.heights[0])
    columns = np.stack(first_row, axis=-1) @ rot.T
    return ArrayGeometry(columns[..., 0], columns[..., 1], geometry.column_offsets + mount,
                         geometry.heights)


def flex_geometry(model: FlexModel, cfg: ArrayConfig, psi) -> ArrayGeometry:
    """Build the geometry of ``model`` at flex angle ``psi`` (or a 1-D batch), unmounted."""
    if model is FlexModel.PLANAR:
        psi, _ = _check_psi(psi, 0.0, "planar arrays have no flexible degree of freedom; |psi|")
        return _grid(cfg, 0.0, _centered_axis(cfg.n_h, cfg.spacing), 0.0, psi)
    if model is FlexModel.ROTATABLE:
        return rotated_geometry(cfg, psi)
    if model is FlexModel.BENDABLE:
        return bent_geometry(cfg, psi)
    if model is FlexModel.FOLDABLE:
        return folded_geometry(cfg, psi)
    raise ValueError(f"unknown flex model {model!r}")  # pragma: no cover - enum is closed
