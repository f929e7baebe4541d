"""Gaussian-process surrogate optimization with expected improvement.

The surrogate is a zero-mean GP with a squared-exponential kernel k(a, b) =
eta0 * exp(-eta1/2 * ||a - b||^2); hyperparameters stay fixed at their defaults. Candidates
for the acquisition argmax come from a dense grid in one dimension and from a scrambled
Sobol stream (refreshed every round) in three, so a run is deterministic given its seed.
The gram and the posterior blocks share one kernel formula, a product of lifted matrices;
numpy's Cholesky factor, inverted once per fit, bounds the gram's condition number and
gives the variances by GEMMs.

Expected improvement needs no scipy: Birnbaum's (1942) and Sampford's (1953) Mills-ratio
bounds bracket every candidate's EI with numpy ops, and only the few candidates whose upper
bound reaches the largest lower bound get the exact EI, its normal cdf from ``math.erfc``. The
argmax is the one the normal cdf of scipy's ``ndtr`` gives. The linear algebra is numpy's, and
the Sobol stream is numpy code (:class:`SobolStream`) with the bits of
``scipy.stats.qmc.Sobol``, so no run of the package loads any scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (COND_MAX, SCREEN_MARGIN, GramConditionError, OptimizationError, _integer,
                     condition_number)

BUDGET_1D, BUDGET_3D, N_INIT = 30, 60, 4  # default GP rounds (1-D, 3-D), random first points
DUPLICATE_TOL = 1e-12
JITTER_MAX = 1e-6
GRID_CANDIDATES_1D = 361
SOBOL_CANDIDATES = 2048
# candidates per posterior block, so a T x 512 kernel block stays in cache
POSTERIOR_BLOCK = 512
SOBOL_BITS = 30
# Joe & Kuo (2008) direction numbers for Sobol dimensions 2 to 8, as scipy ships them: the
# primitive polynomial with its leading and trailing 1 bits, and m_1..m_s. Dimension 1 has m_j = 1.
_SOBOL_TABLE = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)),
                (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)))
SOBOL_MAX_DIM = 1 + len(_SOBOL_TABLE)
_SQRT_2PI, _SQRT_HALF = math.sqrt(2.0 * math.pi), math.sqrt(0.5)
# Cephes' erfc, and so scipy's ndtr, underflows to 0 once (z / sqrt 2)^2 > MAXLOG: Phi(z) reads
# 0 below z = -37.677. The EI bounds take z^2 > 1419, just below 2 MAXLOG, as that band.
_ERFC_MAXLOG = 709.782712893384
_PHI_ZERO_Z2 = 1419.0
_EI_SLACK, _EI_FLOOR = 1e-9, 1e-320  # relative and absolute slack of the EI bounds


@dataclass(frozen=True)
class Kernel:
    """Squared-exponential kernel with output scale eta0 and inverse squared
    length-scale eta1; jitter is added on the gram diagonal only."""

    eta0: float = 1.0
    eta1: float = 1.0
    jitter: float = 1e-10

    def __post_init__(self):
        if not (0 < self.eta0 < np.inf and 0 < self.eta1 < np.inf and 0 <= self.jitter < np.inf):
            raise ValueError("need finite eta0 > 0, eta1 > 0 and jitter >= 0")


def _row_norms(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared norm of each row of a (T, D) array, into ``out`` if given, bit for bit
    ``np.sum(x**2, axis=1)``: numpy adds fewer than eight terms left to right, and the column
    sum skips its reduction set-up."""
    if out is None:
        out = np.empty(len(x))
    if x.shape[1] >= 8:  # numpy sums eight or more terms pairwise
        out[...] = np.sum(x**2, axis=1)
        return out
    np.square(x[:, 0], out=out)
    for j in range(1, x.shape[1]):
        out += x[:, j] ** 2
    return out


def _is_duplicate(point: np.ndarray, existing: np.ndarray) -> bool:
    """Whether ``point`` lies within DUPLICATE_TOL of any row of ``existing``, (T, D)."""
    return bool(np.any(_row_norms(existing - point) < DUPLICATE_TOL**2))


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
        for name, array in (("points", pts), ("values", vals)):
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{name} must be finite")
        dist2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        if np.any(np.tril(dist2 < DUPLICATE_TOL**2, k=-1)):
            raise ValueError("dataset contains duplicate points")
        self.points = pts
        self.values = vals

    @classmethod
    def _distinct(cls, points: np.ndarray, values: np.ndarray) -> GpDataset:
        """A dataset of (T, D) points already known to be distinct, without the O(T^2) scan."""
        data = cls.__new__(cls)
        data.points, data.values = points, values
        return data

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _lift(kernel: Kernel, points: np.ndarray) -> np.ndarray:
    """Rows h [-2x, |x|^2, 1] of (T, D) points, shape (T, D+2), with h = -eta1/2: a row times
    a :func:`_features` column [q, 1, |q|^2] is h |x - q|^2, the exponent of the kernel."""
    size, dim = points.shape
    lifted = np.empty((size, dim + 2))
    np.multiply(points, -2.0, out=lifted[:, :dim])
    _row_norms(points, out=lifted[:, dim])
    lifted[:, dim + 1] = 1.0
    lifted *= -0.5 * kernel.eta1
    return lifted


def _features(queries: np.ndarray) -> np.ndarray:
    """Columns [q, 1, |q|^2] of (C, D) queries, shape (D+2, C)."""
    size, dim = queries.shape
    features = np.empty((dim + 2, size))
    features[:dim] = queries.T
    features[dim] = 1.0
    _row_norms(queries, out=features[dim + 1])
    return features


def _unit_kernel(lifted: np.ndarray, features: np.ndarray) -> np.ndarray:
    """k / eta0 between :func:`_lift`-ed points and :func:`_features` of C queries, shape (T, C):
    one product, the exponent clipped at 0 against cancellation, and exp, in place on one
    (T, C) array."""
    k = lifted @ features
    return np.exp(np.minimum(k, 0.0, out=k), out=k)


def _gram_cholesky(kernel: Kernel, lifted: np.ndarray, points: np.ndarray):
    """Lower Cholesky factor L of the gram matrix of the (T, D) ``points``, lifted as ``lifted``,
    and its inverse, escalating jitter tenfold up to JITTER_MAX while the gram stays ill
    conditioned. cond_2(K) <= ||K||_F ||K^-1||_F <= ||K||_F ||L^-1||_F^2, so the factor
    certifies a gram where that bound is at most COND_MAX / SCREEN_MARGIN; ``eigvalsh``
    (:func:`condition_number`) decides a gram it does not certify or that the Cholesky refuses."""
    gram = kernel.eta0 * _unit_kernel(lifted, _features(points))
    base, diagonal = gram.diagonal().copy(), gram.reshape(-1)[::len(gram) + 1]
    jitter = kernel.jitter
    while True:
        np.add(base, jitter, out=diagonal)  # base + jitter I: the off-diagonal entries are kept
        try:
            factor = np.linalg.cholesky(gram)
            inverse = np.linalg.inv(factor)
        except np.linalg.LinAlgError:  # not positive definite in floating point
            pass
        else:
            if np.linalg.norm(gram) * np.linalg.norm(inverse) ** 2 <= COND_MAX / SCREEN_MARGIN:
                return factor, inverse
        if condition_number(gram) <= COND_MAX:
            factor = np.linalg.cholesky(gram)  # again: the one above may have failed
            return factor, np.linalg.inv(factor)
        jitter = max(jitter, 1e-10) * 10.0
        if jitter > JITTER_MAX:
            raise GramConditionError("gram matrix ill conditioned even at jitter 1e-6; "
                                     "measurements may be (nearly) duplicated")


def _posterior_batch(kernel: Kernel, data: GpDataset, queries: np.ndarray):
    """Predictive means and variances at (C, D) queries (Rasmussen & Williams 2006, Alg. 2.1) by
    GEMMs over blocks of POSTERIOR_BLOCK queries: with the unit kernel k~ = k*/eta0, the mean
    is k~'(eta0 K^-1 y) and the variance eta0 - |eta0 L^-1 k~|^2, L^-1 formed once per fit.
    The points are lifted, and the queries' features built, once per fit."""
    if queries.shape[1] != data.dim:
        raise ValueError(f"query dimension {queries.shape[1]} != data dimension {data.dim}")
    lifted = _lift(kernel, data.points)
    _, inverse = _gram_cholesky(kernel, lifted, data.points)
    # rows eta0 K^-1 y = eta0 L^-T L^-1 y (for the means) and eta0 L^-1
    project = np.empty((data.size + 1, data.size))
    project[0], project[1:] = inverse.T @ (inverse @ data.values), inverse
    project *= kernel.eta0
    features = _features(queries)
    mean, variance = np.empty(len(queries)), np.empty(len(queries))
    for start in range(0, len(queries), POSTERIOR_BLOCK):
        block = slice(start, start + POSTERIOR_BLOCK)
        rows = project @ _unit_kernel(lifted, features[:, block])
        mean[block] = rows[0]
        variance[block] = kernel.eta0 - np.einsum("ij,ij->j", rows[1:], rows[1:])
    return mean, np.maximum(variance, 0.0, out=variance)  # eta0 - s is never -0.0


def _ei_bounds(gap: np.ndarray, sigma: np.ndarray):
    """Lower and upper bounds on the EI (Jones, Schonlau & Welch 1998) of candidates with
    mean - f_best = ``gap`` and posterior deviation ``sigma``, as :func:`_ei_exact` computes it;
    also z = gap / sigma and phi(z), with the bits that :func:`_ei_exact` reads.

    EI = sigma tau(z) with tau(z) = phi(z) + z Phi(z) = z+ + tau(-t), t = |z|, and tau(-t) =
    phi(t) (1 - t R(t)) with R the Mills ratio (1 - Phi) / phi. Birnbaum's (1942) R(t) >
    (sqrt(t^2 + 4) - t) / 2 and Sampford's (1953) R(t) < 4 / (3t + sqrt(t^2 + 8)) put 1 - t R(t)
    between 2 / (t^2 + 2 + t sqrt(t^2 + 8)) and 2 / (t^2 + 2 + t sqrt(t^2 + 4)), forms without
    cancellation. Where Cephes' rule zeroes Phi(-t), the computed EI is sigma phi(t), so the
    upper factor is 1 there. The bounds hold up to _EI_SLACK relative and _EI_FLOOR absolute;
    where sigma <= 0, where EI is 0, they are 0 or nan."""
    with np.errstate(all="ignore"):  # sigma 0 gives z = +-inf or nan; extreme z saturates phi
        z = np.divide(gap, sigma)
        t = np.abs(z)
        q = np.multiply(z, z)
        phi = np.multiply(q, -0.5)
        np.exp(phi, out=phi)
        phi /= _SQRT_2PI  # the bits of exp(-z**2 / 2) / sqrt(2 pi)
        q += 2.0
        upper, lower = np.add(q, 2.0), np.add(q, 6.0)
        for factor in (upper, lower):
            np.sqrt(factor, out=factor)
            factor *= t
            factor += q
            np.divide(2.0, factor, out=factor)
        np.copyto(upper, 1.0, where=q > _PHI_ZERO_Z2 + 2.0)
        positive = np.maximum(gap, 0.0)
        np.copyto(positive, 0.0, where=sigma <= 0.0)
        scaled = np.multiply(sigma, phi)
        for factor in (upper, lower):
            factor *= scaled
            factor += positive
    return lower, upper, z, phi


def _ei_argmax(mean: np.ndarray, sigma: np.ndarray, f_best: float) -> int:
    """Index of the largest EI, as ``argmax`` of every candidate's :func:`_ei_exact` picks it:
    first index wins ties, and index 0 when every EI is 0. Only the candidates whose upper
    bound (:func:`_ei_bounds`) reaches the largest lower bound get their EI computed."""
    gap = mean - f_best
    lower, upper, z, phi = _ei_bounds(gap, sigma)
    threshold = ((float(np.fmax.reduce(lower)) * (1.0 - _EI_SLACK) - 2.0 * _EI_FLOOR)
                 / (1.0 + _EI_SLACK))
    if threshold > 0.0:
        survivors = (upper >= threshold).nonzero()[0]
    else:  # every EI is tiny; it is 0 where phi and the upper bound are 0
        survivors = ((upper > 0.0) | (phi > 0.0)).nonzero()[0]
    best, winner = 0.0, 0
    for i in survivors.tolist():
        value = _ei_exact(gap.item(i), sigma.item(i), z.item(i), phi.item(i))
        if value > best:
            best, winner = value, i
    return winner


def _ei_exact(gap: float, sigma: float, z: float, phi: float) -> float:
    """EI = gap Phi(z) + sigma phi(z) of one candidate, clipped at 0 and 0 where sigma <= 0, with
    Phi from ``math.erfc`` and Cephes' underflow rule: Phi(z) = 0 once (z / sqrt 2)^2 >
    _ERFC_MAXLOG, as in scipy's ``ndtr``."""
    if not sigma > 0.0:
        return 0.0
    x = z * _SQRT_HALF
    cdf = 0.0 if x < 0.0 and x * x > _ERFC_MAXLOG else 0.5 * math.erfc(-x)
    return max(gap * cdf + sigma * phi, 0.0)


def propose_next(kernel: Kernel, data: GpDataset, candidates) -> np.ndarray:
    """Candidate with the largest expected improvement; first index wins ties."""
    candidates = np.asarray(candidates, dtype=float)
    if len(candidates) == 0 or not np.all(np.isfinite(candidates)):
        raise ValueError("candidates must be non-empty and finite")
    candidates = candidates.reshape(len(candidates), -1)  # 1-D: one coordinate per candidate
    mean, variance = _posterior_batch(kernel, data, candidates)
    return candidates[_ei_argmax(mean, np.sqrt(variance), float(np.max(data.values)))].copy()


def _sobol_directions(dim: int) -> np.ndarray:
    """Direction numbers m_j 2^(SOBOL_BITS - j), shape (dim, SOBOL_BITS), from the recurrence
    m_j = 2 a_1 m_{j-1} ^ ... ^ 2^(s-1) a_{s-1} m_{j-s+1} ^ 2^s m_{j-s} ^ m_{j-s}."""
    rows = [[1] * SOBOL_BITS]
    for poly, m in _SOBOL_TABLE[:dim - 1]:
        s, m = poly.bit_length() - 1, list(m)
        for j in range(s, SOBOL_BITS):
            m.append(m[j - s] ^ m[j - s] << s)
            for k in range(1, s):
                if poly >> (s - k) & 1:
                    m[j] ^= m[j - k] << k
        rows.append(m)
    return np.array(rows, dtype=np.uint32) << np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


class SobolStream:
    """Sobol points in [0, 1)^dim with linear matrix scrambling and a digital shift
    (Matousek 1998), bit for bit those of ``scipy.stats.qmc.Sobol(dim, scramble=True,
    seed=rng)``. The scramble comes from ``rng.spawn(1)[0]``; ``rng``'s own draws are left alone."""

    def __init__(self, dim: int, rng: np.random.Generator):
        if not 1 <= dim <= SOBOL_MAX_DIM:
            raise ValueError(f"Sobol stream takes 1 to {SOBOL_MAX_DIM} dimensions, got {dim}")
        rng = rng.spawn(1)[0]
        msb = np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # shift of bit i, MSB first
        self._point = rng.integers(2, size=(dim, SOBOL_BITS), dtype=np.uint32) @ (1 << msb[::-1])
        ltm = np.tril(rng.integers(2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
        ltm[:, range(SOBOL_BITS), range(SOBOL_BITS)] = 1
        bits = (_sobol_directions(dim)[:, :, None] >> msb) & 1  # (dim, j, bit i)
        scrambled = ((bits @ ltm.transpose(0, 2, 1)) & 1) @ (1 << msb)  # parity of ltm @ bits
        self._directions = np.ascontiguousarray(scrambled.T)  # (SOBOL_BITS, dim), rows for np.take
        self._count = 0

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` > 0 points, shape (n, dim), in Gray-code order: point 0 is the shift,
        point k the point before it XOR the direction number at the lowest zero bit of k - 1."""
        n = _integer(n, "n", 1)
        prev = np.arange(self._count - 1, self._count + n - 1)
        steps = np.take(self._directions, np.frexp((prev + 1) & ~prev)[1] - 1, axis=0)
        steps[0] = self._point if self._count == 0 else self._point ^ steps[0]
        points = np.bitwise_xor.accumulate(steps, axis=0, out=steps)
        self._point, self._count = points[-1].copy(), self._count + n
        return points * 2.0**-SOBOL_BITS


@dataclass(eq=False)
class OptimizeResult:
    """Outcome of a surrogate optimization run; ``==`` compares values, points elementwise."""

    best_point: np.ndarray
    best_value: float
    trace: list = field(default_factory=list)  # (point, value) per measurement

    def __eq__(self, other):
        if not isinstance(other, OptimizeResult):
            return NotImplemented
        mine, theirs = ((r.best_value, tuple(r.best_point), [(v, tuple(p)) for p, v in r.trace])
                        for r in (self, other))
        return mine == theirs


def optimize(objective: Callable[[np.ndarray], float], bounds: Sequence, budget: int,
             n_init: int = N_INIT, seed=0) -> OptimizeResult:
    """Maximize a black-box objective over a box via GP regression plus EI.

    Seeds the design with ``n_init`` uniform random points plus the box point
    nearest the origin (the all-zero point when the box holds it), which
    guarantees the result dominates that baseline, then runs
    ``budget`` rounds of posterior fitting and EI maximization over the
    round's candidate set. Observed values are standardized before each fit
    and reported unscaled. Deterministic for a fixed seed. A 1-D round after a
    duplicate proposal sees the same data and grid as the round before, so it
    repeats that proposal without refitting. A nan or inf objective value raises
    OptimizationError naming the point.
    """
    budget, n_init = _integer(budget, "budget", 0), _integer(n_init, "n_init", 1)
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim == 1:
        bounds = bounds[None, :]
    if (bounds.shape[1] != 2 or len(bounds) == 0 or not np.isfinite(bounds).all()
            or np.any(bounds[:, 0] > bounds[:, 1])):
        raise ValueError("bounds must be finite (D, 2) intervals")
    dim = bounds.shape[0]
    kernel = Kernel()
    rng = np.random.default_rng(seed)
    if dim > 1:  # the stream checks dim before any objective call; spawning leaves rng alone
        sobol = SobolStream(dim, rng)
        # tiled to full size: scaling through a 3-wide broadcast takes several times longer
        span = np.tile(bounds[:, 1] - bounds[:, 0], (SOBOL_CANDIDATES, 1))
        low = np.tile(bounds[:, 0], (SOBOL_CANDIDATES, 1))

    # distinct measured points and their values, rows [0, count)
    points, values = np.empty((n_init + 1 + budget, dim)), np.empty(n_init + 1 + budget)
    count = 0
    trace: list = []

    def measure(point: np.ndarray) -> bool:
        nonlocal count
        value = float(objective(point))
        if not math.isfinite(value):
            raise OptimizationError(f"objective returned {value} at {point.tolist()}")
        trace.append((point.copy(), value))
        if _is_duplicate(point, points[:count]):
            return False
        points[count], values[count] = point, value
        count += 1
        return True

    for row in rng.uniform(bounds[:, 0], bounds[:, 1], size=(n_init, dim)):
        measure(row)
    measure(np.clip(np.zeros(dim), bounds[:, 0], bounds[:, 1]))

    grid = np.linspace(bounds[0, 0], bounds[0, 1], GRID_CANDIDATES_1D)[:, None]
    added = True
    for _ in range(budget):
        if dim > 1 or added:
            raw = values[:count]
            spread = raw.std()
            scaled = (raw - raw.mean()) / (spread if spread > 0 else 1.0)
            data = GpDataset._distinct(points[:count], scaled)
            candidates = grid if dim == 1 else sobol.random(SOBOL_CANDIDATES) * span + low
            proposal = propose_next(kernel, data, candidates)
        added = measure(proposal)

    best = int(np.argmax(values[:count]))
    return OptimizeResult(best_point=points[best].copy(), best_value=float(values[best]), trace=trace)
