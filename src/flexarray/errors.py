"""Exception types shared across the package, the condition rule they enforce, the
guarded inverse that applies the rule to the ZF and Fisher stacks, and the integer rule
for counts and indices."""

import math
import numbers

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


def condition_number(hermitian):
    """lambda_max / lambda_min of each Hermitian matrix of a (..., n, n) stack from one
    ``eigvalsh`` of its informed matrices; inf where a matrix is not finite or not positive
    definite. One matrix gives a float, a stack an array of its leading shape."""
    hermitian = np.asarray(hermitian)
    informed = ~_uninformed(hermitian)
    eigs = np.linalg.eigvalsh(hermitian[informed])
    low, high = eigs[:, 0], eigs[:, -1]
    conditions = np.full(informed.shape, np.inf)
    conditions[informed] = np.where(low > 0, high / np.where(low > 0, low, 1.0), np.inf)
    return float(conditions) if conditions.ndim == 0 else conditions


def guarded_inverse(hermitian):
    """LU inverses of a (..., n, n) Hermitian stack under the condition rule, nan where
    refused, and the refusals: the condition number that refused each matrix (> COND_MAX),
    0 where accepted; the decisions and bits of :func:`condition_number`, then ``inv``:

    1. a non-finite entry or non-positive diagonal entry refuses a matrix with inf, and the
       rest are inverted without it: an ``inv`` has the same bits for a matrix in any stack;
    2. ||J||_F ||J^-1||_F <= COND_MAX / SCREEN_MARGIN bounds |lambda|max / |lambda|min, and
       one Cholesky of the matrices it bounds shows them positive definite: accepted;
    3. ``eigvalsh`` decides the rest, or every matrix if ``inv`` finds one exactly singular
       or the Cholesky fails, and ``inv`` then runs again on the accepted ones."""
    hermitian = np.asarray(hermitian)
    stack = hermitian.reshape(-1, *hermitian.shape[-2:])
    informed = ~_uninformed(stack)
    screened = stack if informed.all() else stack[informed]  # no LU for a matrix refused outright
    refusals = np.zeros(len(screened))
    try:
        inverses = np.linalg.inv(screened)
        bound = np.linalg.norm(screened, axis=(1, 2)) * np.linalg.norm(inverses, axis=(1, 2))
        uncertain = ~(bound <= COND_MAX / SCREEN_MARGIN)
        # the bound sees |lambda|, the Cholesky the sign: of the whole stack when it is all bounded
        np.linalg.cholesky(screened[~uncertain] if uncertain.any() else screened)
    except np.linalg.LinAlgError:
        inverses, uncertain = None, np.ones(len(screened), dtype=bool)
    if uncertain.any():
        conditions = condition_number(screened[uncertain])
        refusals[uncertain] = np.where(conditions <= COND_MAX, 0.0, conditions)
    accepted = refusals == 0
    if inverses is None:
        inverses = _spread(np.linalg.inv(screened[accepted]), accepted, np.nan)
    inverses[~accepted] = np.nan
    if not informed.all():
        inverses = _spread(inverses, informed, np.nan)
        refusals = _spread(refusals, informed, np.inf)
    return inverses.reshape(hermitian.shape), refusals.reshape(hermitian.shape[:-2])


def _integer(value, name: str, low: int, high: float = math.inf) -> int:
    """``value`` as an int; ValueError naming it ``name`` unless it is a ``numbers.Integral``
    other than a bool (numpy integers pass) from ``low`` to ``high``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value <= high:
        return int(value)
    limits = f"of at least {low}" if high == math.inf else f"from {low} to {high}"
    raise ValueError(f"{name} must be an integer {limits}, got {value!r}")


def _spread(values, chosen, fill):
    """A stack with the ``values`` at the ``chosen`` places and ``fill`` at the others."""
    spread = np.full((len(chosen), *values.shape[1:]), fill, dtype=values.dtype)
    spread[chosen] = values
    return spread


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
