"""Element radiation patterns and their analytic derivatives.

Two element patterns are supported: an omnidirectional pattern with unit gain
everywhere, and a directional cosine pattern

    G(theta, phi) = 2 (1 + kappa) sin^kappa(theta) cos^kappa(phi)

on the front half-space phi in [-pi/2, pi/2] (zero behind), whose
normalization constant makes the gain integrate to 4 pi over the sphere for
any sharpness kappa >= 1. Amplitude coefficients are the square roots of the
gains. Azimuth arguments are wrapped to (-pi, pi] first, since per-element
boresight offsets can push them outside the principal range;
``column_amplitudes`` takes the azimuth's cosine and sine, which need no wrap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import PatternBoundaryError

BOUNDARY_EPS = 1e-6
"""Half-width of the band around the cosine support edge where derivatives
are refused; the amplitude slope is unbounded there for kappa = 1."""
N_THETA, N_PHI = 720, 1440  # midpoint grid of normalization_integral


class PatternKind(enum.Enum):
    OMNI = "omni"
    COSINE = "cosine"


@dataclass(frozen=True)
class PatternSpec:
    """Element pattern selector; ``kappa`` is only used by the cosine kind."""

    kind: PatternKind
    kappa: float = 1.0

    def __post_init__(self):
        if (self.kind is PatternKind.COSINE and self.kappa < 1.0) or not np.isfinite(self.peak_gain):
            raise ValueError(f"cosine kappa must be >= 1 with 2(1+kappa) finite, got {self.kappa}")

    @property
    def peak_gain(self) -> float:
        """Gain at boresight: 1 for omni, 2(1 + kappa) for cosine."""
        if self.kind is PatternKind.OMNI:
            return 1.0
        return 2.0 * (1.0 + self.kappa)


OMNI = PatternSpec(PatternKind.OMNI)


def wrap_angle(phi):
    """Wrap azimuth angle(s) to the principal range (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    wrapped = phi - 2.0 * np.pi * np.ceil((phi - np.pi) / (2.0 * np.pi))
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def _check_theta(theta: np.ndarray) -> None:
    if np.any(theta < 0.0) or np.any(theta > np.pi):
        raise ValueError("elevation theta must lie in [0, pi]")


def pattern_gain(spec: PatternSpec, theta, phi):
    """Radiated power of one element toward (theta, phi).

    Scalar or broadcastable array arguments are accepted; scalars in, scalar
    out. Raises ValueError when theta leaves [0, pi].
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    _check_theta(theta)
    if spec.kind is PatternKind.OMNI:
        gain = np.ones(np.broadcast(theta, phi).shape)
    else:
        # cos(w) <= 0 exactly off the front half-space |w| <= pi/2
        cos_part = np.maximum(np.cos(wrap_angle(phi)), 0.0)
        gain = spec.peak_gain * np.sin(theta) ** spec.kappa * cos_part**spec.kappa
    return float(gain) if gain.ndim == 0 else gain


def pattern_coefficient(spec: PatternSpec, theta, phi):
    """Amplitude coefficient, the square root of :func:`pattern_gain`."""
    return np.sqrt(pattern_gain(spec, theta, phi))


def column_amplitudes(spec: PatternSpec, sin_theta, cos_phi, sin_phi, offsets):
    """:func:`pattern_coefficient` toward paths given by the sine of their
    elevation and the cosine and sine of their azimuth, (..., L, 1) each, for
    elements with boresight azimuth offsets ``offsets`` (N_h,); (..., L, N_h),
    or 1.0 for omni. cos(phi - o) = cos(phi) cos(o) + sin(phi) sin(o) needs
    no wrapping, and its sign marks the front half-space."""
    if spec.kind is PatternKind.OMNI:
        return 1.0
    half_kappa = spec.kappa / 2.0
    cos_off = cos_phi * np.cos(offsets) + sin_phi * np.sin(offsets)
    return np.sqrt(spec.peak_gain) * sin_theta**half_kappa * np.maximum(cos_off, 0.0)**half_kappa


def pattern_and_derivatives(spec: PatternSpec, theta, phi):
    """Amplitude coefficient and its partials (A, dA/dtheta, dA/dphi).

    A equals :func:`pattern_coefficient`; on the open cosine support the
    partials are (kappa/2) A cot(theta) and -(kappa/2) A tan(phi), outside it
    all three vanish. Theta is checked before broadcasting. Any point within
    BOUNDARY_EPS of a support edge raises PatternBoundaryError rather than
    returning a clamped value, since a silently large derivative would
    corrupt downstream Fisher matrices."""
    return pattern_azimuth_stage(spec, pattern_elevation_stage(spec, theta), phi)


def pattern_elevation_stage(spec: PatternSpec, theta):
    """The elevation-only part of :func:`pattern_and_derivatives`: theta, checked,
    with its support-edge mask, sqrt(G) sin^(kappa/2)(theta) and cot(theta)
    (the mask and factors are None for omni)."""
    theta = np.asarray(theta, dtype=float)
    _check_theta(theta)
    if spec.kind is PatternKind.OMNI:
        return theta, None, None, None
    theta_edge = (theta < BOUNDARY_EPS) | (theta > np.pi - BOUNDARY_EPS)
    sin_theta = np.sin(theta)
    # an edge elevation only reaches the partials off the support, where A = 0
    cot_theta = np.divide(np.cos(theta), sin_theta, out=np.zeros(theta.shape), where=~theta_edge)
    return theta, theta_edge, np.sqrt(spec.peak_gain) * sin_theta**(spec.kappa / 2.0), cot_theta


def pattern_azimuth_stage(spec: PatternSpec, elevation, phi):
    """:func:`pattern_and_derivatives` from its :func:`pattern_elevation_stage` and the azimuths."""
    theta, theta_edge, lead, cot_theta = elevation
    phi = np.asarray(phi, dtype=float)
    if spec.kind is PatternKind.OMNI:
        shape = np.broadcast_shapes(theta.shape, phi.shape)
        return np.ones(shape), np.zeros(shape), np.zeros(shape)

    w = wrap_angle(phi)
    if np.any(np.abs(np.abs(w) - np.pi / 2) < BOUNDARY_EPS):
        raise PatternBoundaryError("azimuth within 1e-6 of the cosine support edge")
    if theta_edge.any() and np.any(theta_edge & (np.abs(w) < np.pi / 2)):
        raise PatternBoundaryError("elevation within 1e-6 of the cosine support edge")

    half_kappa = spec.kappa / 2.0
    # cos(w) <= 0 exactly off the front half-space, where A and both partials are 0
    amp = lead * np.maximum(np.cos(w), 0.0)**half_kappa
    return amp, half_kappa * amp * cot_theta, -half_kappa * amp * np.tan(w)


def pattern_derivatives(spec: PatternSpec, theta, phi):
    """Partial derivatives (dA/dtheta, dA/dphi) of the amplitude coefficient;
    see :func:`pattern_and_derivatives`. Scalars in, floats out."""
    _, d_theta, d_phi = pattern_and_derivatives(spec, theta, phi)
    if np.ndim(d_theta) == 0:
        return float(d_theta), float(d_phi)
    return d_theta, d_phi


def normalization_integral(spec: PatternSpec) -> float:
    """Quadrature of the gain over the sphere; 4 pi for a normalized pattern.

    Midpoint rule on a tensor grid; the integrand is smooth except for the
    corner at the cosine support edge, and the N_THETA x N_PHI grid keeps
    the error far below 1e-3 relative.
    """
    d_theta = np.pi / N_THETA
    d_phi = 2.0 * np.pi / N_PHI
    theta = (np.arange(N_THETA) + 0.5) * d_theta
    phi = -np.pi + (np.arange(N_PHI) + 0.5) * d_phi
    gain = pattern_gain(spec, theta[:, None], phi[None, :])
    return float(np.sum(gain * np.sin(theta)[:, None]) * d_theta * d_phi)
