"""Exception types shared across the package, the condition rule they enforce, and the
guarded inverse that applies the rule to the ZF and Fisher stacks."""

import numpy as np

COND_MAX = 1e12  # largest condition number of a ZF, Fisher or GP gram the package inverts
# cond_2(J) <= ||J||_F ||J^-1||_F for the exact inverse, and a GP gram K = L L^T has
# ||K^-1||_F <= ||L^-1||_F^2. The computed inverses are off by about n cond eps relative at
# cond <= COND_MAX: 5e-3 for ZF and Fisher (n <= 48) and 7e-3 for a GP gram at the default
# budgets (n = n_init + 1 + budget = 65), far inside this factor while n stays below 4,000
SCREEN_MARGIN = 2.0


def _uninformed(hermitian):
    """True for each matrix of a (..., n, n) stack with a non-finite entry or a non-positive
    diagonal entry a_ii: lambda_min <= a_ii, so it is not positive definite."""
    return ~(np.isfinite(hermitian).all(axis=(-2, -1))
             & (np.diagonal(hermitian, axis1=-2, axis2=-1).real > 0).all(axis=-1))


def _stand_in(hermitian, refused):
    """The stack with an identity in place of each refused matrix (itself if none is)."""
    if not refused.any():
        return hermitian
    return np.where(refused[..., None, None], np.eye(hermitian.shape[-1]), hermitian)


def condition_number(hermitian):
    """lambda_max / lambda_min of each Hermitian matrix of a (..., n, n) stack from one
    ``eigvalsh``; inf where a matrix is not finite or not positive definite. One
    matrix gives a float, a stack an array of its leading shape."""
    hermitian = np.asarray(hermitian)
    refused = _uninformed(hermitian)
    eigs = np.linalg.eigvalsh(_stand_in(hermitian, refused))
    low, high = eigs[..., 0], eigs[..., -1]
    conditions = np.where(refused | (low <= 0), np.inf, high / np.where(low > 0, low, 1.0))
    return float(conditions) if conditions.ndim == 0 else conditions


def guarded_inverse(hermitian):
    """LU inverses of a (..., n, n) Hermitian stack under the condition rule, nan where
    refused, and the refusals: the condition number that refused each matrix (> COND_MAX),
    0 where accepted; the decisions and bits of :func:`condition_number`, then ``inv``:

    1. a non-finite entry or non-positive diagonal entry refuses a matrix with inf, and an
       identity stands in for it, so one ``inv`` covers the stack;
    2. ||J||_F ||J^-1||_F <= COND_MAX / SCREEN_MARGIN bounds |lambda|max / |lambda|min, and
       one Cholesky of the matrices it bounds shows them positive definite: accepted;
    3. ``eigvalsh`` decides the rest, or every matrix if ``inv`` finds one exactly singular
       or the Cholesky fails, and ``inv`` then runs again with the new stand-ins."""
    hermitian = np.asarray(hermitian)
    stack = hermitian.reshape(-1, *hermitian.shape[-2:])
    refused = _uninformed(stack)
    stack, refusals = _stand_in(stack, refused), np.where(refused, np.inf, 0.0)
    try:
        inverses = np.linalg.inv(stack)
        bound = np.linalg.norm(stack, axis=(1, 2)) * np.linalg.norm(inverses, axis=(1, 2))
        uncertain = ~(bound <= COND_MAX / SCREEN_MARGIN)
        bounded = ~(uncertain | refused)
        # the bound sees |lambda|, the Cholesky the sign: of the whole stack when it is all bounded
        np.linalg.cholesky(stack if bounded.all() else stack[bounded])
    except np.linalg.LinAlgError:
        inverses, uncertain = None, ~refused
    if uncertain.any():
        conditions = condition_number(stack[uncertain])
        refusals[uncertain] = np.where(conditions <= COND_MAX, 0.0, conditions)
    rejected = refusals > 0
    if inverses is None:
        inverses = np.linalg.inv(_stand_in(stack, rejected))
    if rejected.any():
        inverses[rejected] = np.nan
    return inverses.reshape(hermitian.shape), refusals.reshape(hermitian.shape[:-2])


class FlexArrayError(Exception):
    """Base class for all domain errors raised by this package."""


class PatternBoundaryError(FlexArrayError, ValueError):
    """Derivative requested within the exclusion band of a pattern support edge."""


class _ConditionError(FlexArrayError, ValueError):
    """A matrix refused by the condition rule; ``condition`` is the number that refused it."""

    def __init__(self, condition: float, message: str | None = None):
        self.condition = condition
        super().__init__(message or f"{self.WHAT} condition {condition:.3e} exceeds limit")


class RankDeficiencyError(_ConditionError):
    """Channel matrix too ill conditioned for zero-forcing."""
    WHAT = "channel gram"


class SingularFisherError(_ConditionError):
    """Fisher matrix not invertible at the requested tolerance."""
    WHAT = "fisher"


class GramConditionError(FlexArrayError, ValueError):
    """GP gram matrix remains ill conditioned after jitter escalation."""


class OptimizationError(FlexArrayError, RuntimeError):
    """Every candidate of a search failed to evaluate, or an objective value was not finite."""


class ConfigError(FlexArrayError, ValueError):
    """Invalid experiment configuration value."""
