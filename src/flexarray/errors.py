"""Exception types shared across the package, and the condition rule they enforce."""

import numpy as np

COND_MAX = 1e12  # largest condition number of a ZF, Fisher or GP gram the package inverts


def condition_number(hermitian):
    """lambda_max / lambda_min of each Hermitian matrix of a (..., n, n) stack from one
    ``eigvalsh``; inf where a matrix is not finite or not positive definite. One
    matrix gives a float, a stack an array of its leading shape."""
    if not np.isfinite(hermitian).all():  # zeroed, a non-finite matrix is not positive definite
        finite = np.isfinite(hermitian).all(axis=(-2, -1))
        hermitian = np.where(finite[..., None, None], hermitian, 0.0)
    eigs = np.linalg.eigvalsh(hermitian)
    if eigs.ndim == 1:
        return float(eigs[-1] / eigs[0]) if eigs[0] > 0 else np.inf  # lambda_min <= a_ii: never nan
    low, high = eigs[..., 0], eigs[..., -1]
    return np.where(low > 0, high / np.where(low > 0, low, 1.0), np.inf)


class FlexArrayError(Exception):
    """Base class for all domain errors raised by this package."""


class PatternBoundaryError(FlexArrayError, ValueError):
    """Derivative requested within the exclusion band of a pattern support edge."""


class RankDeficiencyError(FlexArrayError, ValueError):
    """Channel matrix too ill conditioned for zero-forcing."""

    def __init__(self, condition: float, message: str | None = None):
        self.condition = condition
        super().__init__(message or f"channel gram condition {condition:.3e} exceeds limit")


class SingularFisherError(FlexArrayError, ValueError):
    """Fisher matrix not invertible at the requested tolerance."""

    def __init__(self, condition: float, message: str | None = None):
        self.condition = condition
        super().__init__(message or f"fisher condition {condition:.3e} exceeds limit")


class GramConditionError(FlexArrayError, ValueError):
    """GP gram matrix remains ill conditioned after jitter escalation."""


class OptimizationError(FlexArrayError, RuntimeError):
    """Every candidate of a search failed to evaluate, or an objective value was not finite."""


class ConfigError(FlexArrayError, ValueError):
    """Invalid experiment configuration value."""
