"""Exception types shared across the package, the condition rule they enforce, and the
guarded inverse that applies the rule to the ZF and Fisher stacks."""

import numpy as np

COND_MAX = 1e12  # largest condition number of a ZF, Fisher or GP gram the package inverts
# cond_2(J) <= ||J||_F ||J^-1||_F for the exact inverse; the computed one is off by about
# n cond eps <= 3e-3 relative for n <= 48 and cond <= COND_MAX, far inside this factor
SCREEN_MARGIN = 2.0


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


def guarded_inverse(hermitian):
    """LU inverses of a (..., n, n) Hermitian stack under the condition rule, nan where
    refused, and the refusals: the condition number that refused each matrix (> COND_MAX),
    0 where accepted. The decisions and inverse bits are those of :func:`condition_number`
    and then ``inv`` of the accepted matrices, with ``eigvalsh`` only where needed:

    1. a non-finite entry or a non-positive diagonal entry a_ii refuses a matrix with inf,
       since lambda_min <= a_ii (``eigvalsh`` may read a huge finite ratio there instead);
    2. the others are inverted as one stack; ||J||_F ||J^-1||_F <= COND_MAX / SCREEN_MARGIN
       bounds |lambda|max / |lambda|min, and one Cholesky of the matrices it bounds shows
       them positive definite, so they are accepted;
    3. ``eigvalsh`` decides the rest, and all of them where ``inv`` finds one exactly
       singular or the Cholesky fails."""
    hermitian = np.asarray(hermitian)
    stack = hermitian.reshape(-1, *hermitian.shape[-2:])
    refusals = np.full(len(stack), np.inf)
    inverses = np.full(stack.shape, np.nan, dtype=np.result_type(stack.dtype, float))
    informed = np.flatnonzero(np.isfinite(stack).all(axis=(1, 2))
                              & (np.diagonal(stack, axis1=1, axis2=2).real > 0).all(axis=1))
    rest = stack[informed]
    try:
        inverse = np.linalg.inv(rest)
    except np.linalg.LinAlgError:
        conditions = condition_number(rest)
        accepted = conditions <= COND_MAX
        inverse = np.full(rest.shape, np.nan, dtype=inverses.dtype)
        inverse[accepted] = np.linalg.inv(rest[accepted])
    else:
        bound = np.linalg.norm(rest, axis=(1, 2)) * np.linalg.norm(inverse, axis=(1, 2))
        uncertain = ~(bound <= COND_MAX / SCREEN_MARGIN)
        try:  # the bound sees |lambda| only; Cholesky certifies the sign
            np.linalg.cholesky(rest[~uncertain])
        except np.linalg.LinAlgError:
            uncertain[:] = True
        conditions = np.zeros(len(rest))
        conditions[uncertain] = condition_number(rest[uncertain])
        accepted = conditions <= COND_MAX
        inverse[~accepted] = np.nan
    refusals[informed] = np.where(accepted, 0.0, conditions)
    inverses[informed] = inverse
    return inverses.reshape(hermitian.shape), refusals.reshape(hermitian.shape[:-2])


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
