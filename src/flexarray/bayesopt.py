"""Gaussian-process surrogate optimization with expected improvement.

The surrogate is a zero-mean GP with a squared-exponential kernel
k(a, b) = eta0 * exp(-eta1/2 * ||a - b||^2); hyperparameters stay fixed at
their defaults. Candidates for the acquisition argmax come from a dense grid
in one dimension and from a scrambled Sobol stream (refreshed every round) in
three dimensions, so a run is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import ndtr
from scipy.stats import qmc

from .errors import COND_MAX, GramConditionError, condition_number

DUPLICATE_TOL = 1e-12
JITTER_MAX = 1e-6
GRID_CANDIDATES_1D = 361
SOBOL_CANDIDATES = 2048


@dataclass(frozen=True)
class Kernel:
    """Squared-exponential kernel with output scale eta0 and inverse squared
    length-scale eta1; jitter is added on the gram diagonal only."""

    eta0: float = 1.0
    eta1: float = 1.0
    jitter: float = 1e-10

    def __post_init__(self):
        if self.eta0 <= 0 or self.eta1 <= 0 or self.jitter < 0:
            raise ValueError("need eta0 > 0, eta1 > 0 and jitter >= 0")


def _is_duplicate(point: np.ndarray, existing) -> bool:
    """Whether ``point`` lies within DUPLICATE_TOL of any row of ``existing``."""
    stacked = np.reshape(existing, (-1, point.size))
    return bool(np.any(np.sum((stacked - point) ** 2, axis=1) < DUPLICATE_TOL**2))


@dataclass
class GpDataset:
    """Measured sample points, shape (T, D), and their values, shape (T,)."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        vals = np.asarray(self.values, dtype=float).ravel()
        if pts.shape[0] != vals.shape[0] or pts.shape[0] < 1:
            raise ValueError("points and values must share a positive length")
        dist2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        if np.any(np.tril(dist2 < DUPLICATE_TOL**2, k=-1)):
            raise ValueError("dataset contains duplicate points")
        self.points = pts
        self.values = vals

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


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
    return float(_cross_kernel(kernel, a, b)[0, 0])


def _gram_cholesky(kernel: Kernel, points: np.ndarray):
    """Cholesky factor of the gram matrix, escalating jitter tenfold up to
    JITTER_MAX while the matrix stays ill conditioned."""
    diff = points[:, None, :] - points[None, :, :]
    base = kernel.eta0 * np.exp(-0.5 * kernel.eta1 * np.sum(diff**2, axis=-1))
    jitter = kernel.jitter
    while True:
        gram = base + jitter * np.eye(points.shape[0])
        if condition_number(gram) < COND_MAX:
            return cho_factor(gram, lower=True)
        jitter = max(jitter, 1e-10) * 10.0
        if jitter > JITTER_MAX:
            raise GramConditionError("gram matrix ill conditioned even at jitter 1e-6; "
                                     "measurements may be (nearly) duplicated")


def _cross_kernel(kernel: Kernel, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Kernel between (T, D) points and (C, D) queries, shape (T, C); squared
    distances in expansion form, clipped at 0 against cancellation."""
    dist2 = (np.sum(points**2, axis=1)[:, None] + np.sum(queries**2, axis=1)[None, :]
             - 2.0 * points @ queries.T)
    return kernel.eta0 * np.exp(-0.5 * kernel.eta1 * np.clip(dist2, 0.0, None))


def _posterior_batch(kernel: Kernel, data: GpDataset, queries: np.ndarray):
    """Predictive means and variances at (C, D) query points at once."""
    if queries.shape[1] != data.dim:
        raise ValueError(f"query dimension {queries.shape[1]} != data dimension {data.dim}")
    factor = _gram_cholesky(kernel, data.points)
    k_star = _cross_kernel(kernel, data.points, queries)  # (T, C)
    mean = k_star.T @ cho_solve(factor, data.values)
    v = solve_triangular(factor[0], k_star, lower=True)  # k*' K^-1 k* = |L^-1 k*|^2
    variance = kernel.eta0 - np.sum(v * v, axis=0)
    return mean, np.clip(variance, 0.0, None)


def gp_posterior(kernel: Kernel, data: GpDataset, query) -> GpPosterior:
    """Zero-prior-mean GP posterior at one query point."""
    mean, variance = _posterior_batch(kernel, data, np.atleast_2d(np.asarray(query, dtype=float)))
    return GpPosterior(mean=float(mean[0]), variance=float(variance[0]))


def expected_improvement(mean: float, sigma: float, f_best: float) -> float:
    """Closed-form expected improvement over the incumbent ``f_best``."""
    return float(_expected_improvement_batch(*np.array([[mean], [sigma]], dtype=float), f_best)[0])


def _expected_improvement_batch(mean: np.ndarray, sigma: np.ndarray, f_best: float) -> np.ndarray:
    """EI (Jones, Schonlau & Welch 1998); 0 where sigma is not positive."""
    out = np.zeros_like(mean)
    positive = sigma > 0.0
    gap = mean[positive] - f_best
    with np.errstate(all="ignore"):  # extreme z only saturates cdf/pdf
        z = gap / sigma[positive]
        out[positive] = gap * ndtr(z) + sigma[positive] * (np.exp(-z**2 / 2.0) / np.sqrt(2.0 * np.pi))
    return np.clip(out, 0.0, None)


def propose_next(kernel: Kernel, data: GpDataset, candidates) -> np.ndarray:
    """Candidate with the largest expected improvement; first index wins ties."""
    candidates = np.asarray(candidates, dtype=float)
    if len(candidates) == 0:
        raise ValueError("need at least one candidate")
    candidates = candidates.reshape(len(candidates), -1)  # 1-D: one coordinate per candidate
    mean, variance = _posterior_batch(kernel, data, candidates)
    ei = _expected_improvement_batch(mean, np.sqrt(variance), float(np.max(data.values)))
    return candidates[int(np.argmax(ei))].copy()


@dataclass
class OptimizeResult:
    """Outcome of a surrogate optimization run."""

    best_point: np.ndarray
    best_value: float
    trace: list = field(default_factory=list)  # (point, value) per measurement


def optimize(objective: Callable[[np.ndarray], float], bounds: Sequence, budget: int,
             n_init: int = 4, seed=0) -> OptimizeResult:
    """Maximize a black-box objective over a box via GP regression plus EI.

    Seeds the design with ``n_init`` uniform random points plus the all-zero
    point, which guarantees the result dominates the zero baseline, then runs
    ``budget`` rounds of posterior fitting and EI maximization over the
    round's candidate set. Observed values are standardized before each fit
    and reported unscaled. Deterministic for a fixed seed. A 1-D round after a
    duplicate proposal sees the same data and grid as the round before, so it
    repeats that proposal without refitting.
    """
    if budget < 0 or n_init < 1:
        raise ValueError("need budget >= 0 and n_init >= 1")
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim == 1:
        bounds = bounds[None, :]
    if bounds.shape[1] != 2 or np.any(bounds[:, 0] > bounds[:, 1]):
        raise ValueError("bounds must be (D, 2) intervals")
    dim = bounds.shape[0]
    kernel = Kernel()
    rng = np.random.default_rng(seed)

    points: list[np.ndarray] = []
    values: list[float] = []
    trace: list = []

    def measure(point: np.ndarray) -> bool:
        value = float(objective(point))
        trace.append((point.copy(), value))
        if _is_duplicate(point, points):
            return False
        points.append(point.copy())
        values.append(value)
        return True

    for row in rng.uniform(bounds[:, 0], bounds[:, 1], size=(n_init, dim)):
        measure(row)
    measure(np.zeros(dim))

    sobol = qmc.Sobol(d=dim, scramble=True, seed=rng) if dim > 1 else None
    grid = np.linspace(bounds[0, 0], bounds[0, 1], GRID_CANDIDATES_1D)[:, None]
    added = True
    for _ in range(budget):
        if dim > 1 or added:
            raw = np.array(values)
            spread = raw.std()
            scaled = (raw - raw.mean()) / (spread if spread > 0 else 1.0)
            data = GpDataset(np.array(points), scaled)
            candidates = grid if dim == 1 else qmc.scale(
                sobol.random(SOBOL_CANDIDATES), bounds[:, 0], bounds[:, 1])
            proposal = propose_next(kernel, data, candidates)
        added = measure(proposal)

    best = int(np.argmax(values))
    return OptimizeResult(best_point=points[best].copy(), best_value=values[best], trace=trace)
