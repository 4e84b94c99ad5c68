"""Exception hierarchy for selfsim.

Validation errors (bad inputs) derive from ``ValidationError``; numeric
failures (non-convergence, budget exhaustion) derive from ``NumericError``.
Both share the ``SelfsimError`` base so callers can catch everything at once.
"""

import math


class SelfsimError(Exception):
    """Base class for all selfsim errors."""


class ValidationError(SelfsimError, ValueError):
    """Invalid argument; raised before any numeric work starts."""


class NumericError(SelfsimError, RuntimeError):
    """A numeric routine could not meet its accuracy contract."""


# ---------------------------------------------------------------- validation

class DeltaOutOfRange(ValidationError):
    """Scaling exponent outside the admissible open band (0, 2)."""


class NonPositiveScale(ValidationError):
    """A length/scale parameter that must be strictly positive is not."""


class PoleError(ValidationError):
    """Extended factorial evaluated at a negative-integer pole."""


class AlphaOutOfRange(ValidationError):
    """Kernel exponent outside the range the requested branch supports."""


class ExcludedAlpha(ValidationError):
    """Exponent in the excluded negative-odd-integer set of the kernel family."""


class NonPositiveA(ValidationError):
    """Integral cut point must be strictly positive."""


class DeltaPole(ValidationError):
    """Static Green's function prefactor diverges at this exponent."""


class DeltaMismatch(ValidationError):
    """Closed form requested for a different exponent than the parameters carry."""


class OriginSingular(ValidationError):
    """Pointwise evaluation requested at x = 0 where the function is singular."""


class GridTooSmall(ValidationError):
    """Sampling grid has too few points for a spectral operation."""


class NonZeroMeanForce(ValidationError):
    """Static solve needs a zero-mean force unless gauge projection is enabled."""


class EpsNonPositive(ValidationError):
    """Damping parameter negative or not finite, or zero where the route
    needs it strictly positive (the Helmholtz response)."""


class TimeNonPositive(ValidationError):
    """Operation defined only for t > 0."""


class NegativeTime(ValidationError):
    """Dissipative evolution rejects t < 0 (the process is irreversible)."""


class LOutOfGrid(ValidationError):
    """Truncation window extends beyond the sampled grid."""


def check_finite(**values) -> None:
    """Raise ValidationError naming the first argument that is not finite."""
    for name, val in values.items():
        if not math.isfinite(val):
            raise ValidationError(f"{name} must be finite, got {val!r}")


class IoError(SelfsimError, OSError):
    """File output failed."""


# ------------------------------------------------------------------- numeric

class QuadratureNoConvergence(NumericError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SeriesBudgetExceeded(NumericError):
    """A series refused its sum: a term beyond float range, a term ratio
    above the guard, no stop within the term budget, or terms cancelling
    across a hump whose rounding exceeds the tolerance.

    Carries the partial sum (where there is one) and a tail bound, the last
    term or the hump, so the caller can decide whether the partial answer
    is usable.
    """

    def __init__(self, message, partial_sum=None, tail_bound=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.tail_bound = tail_bound
