"""Test oracles: reference formulas, and single-point views of the library's batch routines.

The library computes each quantity one way. The tests check it against the
independent formulas here (the per-element array manifold, the pattern
coefficient and the sphere quadrature of the gain), and call the batch
routines one point at a time through the thin views below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flexarray.bayesopt import (GpDataset, Kernel, _expected_improvement_batch, _features, _lift,
                                _posterior_batch, _unit_kernel)
from flexarray.channel import PathSet
from flexarray.errors import COND_MAX, PatternBoundaryError, SingularFisherError, condition_number
from flexarray.estimation import FisherMatrix, _atoms
from flexarray.geometry import ArrayConfig, FlexModel
from flexarray.precoding import _zero_forcing
from flexarray.radiation import PatternSpec, pattern_gain

N_THETA, N_PHI = 720, 1440  # midpoint grid of normalization_integral


# -- bayesopt ---------------------------------------------------------------

@dataclass
class GpPosterior:
    """Predictive mean and variance at a single query point."""

    mean: float
    variance: float


def kernel_eval(kernel: Kernel, a, b) -> float:
    """Kernel value between two points of equal dimension (no jitter)."""
    a, b = np.atleast_2d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"point dimensions differ: {a.shape} vs {b.shape}")
    return float(kernel.eta0 * _unit_kernel(_lift(kernel, a), _features(b))[0, 0])


def gp_posterior(kernel: Kernel, data: GpDataset, query) -> GpPosterior:
    """Zero-prior-mean GP posterior at one query point."""
    mean, variance = _posterior_batch(kernel, data, np.atleast_2d(np.asarray(query, dtype=float)))
    return GpPosterior(mean=float(mean[0]), variance=float(variance[0]))


def expected_improvement(mean: float, sigma: float, f_best: float) -> float:
    """Closed-form expected improvement over the incumbent ``f_best``."""
    return float(_expected_improvement_batch(*np.array([[mean], [sigma]], dtype=float), f_best)[0])


def expected_improvement_copies(mean: np.ndarray, sigma: np.ndarray, f_best: float) -> np.ndarray:
    """Reference for ``_expected_improvement_batch``: the same EI formula, 0 where sigma is not
    positive by ``np.where`` and clamped at 0 by ``np.clip``, each on a copy."""
    from scipy.special import ndtr

    gap = mean - f_best
    with np.errstate(all="ignore"):
        z = gap / sigma
        ei = gap * ndtr(z) + sigma * (np.exp(-z**2 / 2.0) / np.sqrt(2.0 * np.pi))
    return np.clip(np.where(sigma > 0.0, ei, 0.0), 0.0, None)


# -- estimation -------------------------------------------------------------

def stack_parameters(paths: PathSet) -> np.ndarray:
    """Channel parameters as one real vector [theta; phi; beta_R; beta_I] of
    length 4L, in the ordering used by the Fisher matrix and CRB indices."""
    return np.concatenate([paths.theta, paths.phi, paths.beta.real, paths.beta.imag])


def channel_param_derivatives(model: FlexModel, cfg: ArrayConfig, spec: PatternSpec,
                              paths: PathSet, psi: float, mount: float, path_index: int):
    """Derivatives of the channel with respect to path ``path_index``'s four
    parameters: (d/d theta_l, d/d phi_l, d/d beta_R_l, d/d beta_I_l). The full
    (N, 4L) pairs are assembled from the library's separable atoms, one Kronecker
    product (row atom outer, column atom inner) per pair, and summed into the
    four parameter families."""
    n_paths = paths.n_paths
    if not 0 <= path_index < n_paths:
        raise IndexError(f"path index {path_index} outside 0..{n_paths - 1}")
    columns, rows, edges = _atoms(model, cfg, spec, paths, np.array([psi], dtype=float), mount)
    if edges[0].any():
        raise PatternBoundaryError("a path within 1e-6 of the cosine support edge")
    pairs = np.stack([np.kron(row, column) for row, column in zip(rows, columns[0])], axis=1)
    pairs = pairs.reshape(cfg.n_elements, 4, n_paths)
    return pairs[:, 0, path_index] + pairs[:, 1, path_index], pairs[:, 2, path_index], \
        pairs[:, 3, path_index], 1j * pairs[:, 3, path_index]


def crb(fisher: FisherMatrix, index: int) -> float:
    """Cramer-Rao bound of one parameter, a diagonal entry of the inverse Fisher
    matrix; ``index`` is 0-based over the 4L stacked parameters. SingularFisherError
    above the condition limit. LU scales exactly by powers of two, so doubling
    sigma2 doubles every CRB bit for bit."""
    size = fisher.matrix.shape[0]
    if not 0 <= index < size:
        raise IndexError(f"parameter index {index} outside 0..{size - 1}")
    if (cond := condition_number(fisher.matrix)) > COND_MAX:
        raise SingularFisherError(cond)
    return float(np.linalg.inv(fisher.matrix)[index, index])


# -- errors -----------------------------------------------------------------

def eigvalsh_first_inverse(hermitian):
    """Reference for :func:`flexarray.errors.guarded_inverse`, independent of its
    zero-information test: the condition lambda_max / lambda_min of every finite matrix of a
    (..., n, n) stack from raw ``np.linalg.eigvalsh`` (inf where lambda_min <= 0 or an entry
    is not finite), then one ``inv`` of those within COND_MAX (nan elsewhere); returns
    (inverses, conditions)."""
    hermitian = np.asarray(hermitian)
    stack = hermitian.reshape(-1, *hermitian.shape[-2:])
    conditions = np.full(len(stack), np.inf)
    finite = np.flatnonzero(np.isfinite(stack).all(axis=(1, 2)))
    eigs = np.linalg.eigvalsh(stack[finite])
    positive = eigs[:, 0] > 0
    conditions[finite[positive]] = eigs[positive, -1] / eigs[positive, 0]
    accepted = conditions <= COND_MAX
    inverses = np.full(stack.shape, np.nan, dtype=np.result_type(stack.dtype, float))
    inverses[accepted] = np.linalg.inv(stack[accepted])
    return inverses.reshape(hermitian.shape), conditions.reshape(hermitian.shape[:-2])


# -- radiation --------------------------------------------------------------

def pattern_coefficient(spec: PatternSpec, theta, phi):
    """Amplitude coefficient, the square root of :func:`pattern_gain`."""
    return np.sqrt(pattern_gain(spec, theta, phi))


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


# -- channel ----------------------------------------------------------------

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


# -- precoding --------------------------------------------------------------

def zf_precoder(channel: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder F = H (H^H H)^{-1}, satisfying H^H F = I."""
    return _zero_forcing(channel, precoder=True)[0]
