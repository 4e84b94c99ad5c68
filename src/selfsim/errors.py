"""Exception hierarchy for selfsim.

Validation errors (bad inputs) derive from ``ValidationError``; numeric
failures (non-convergence, budget exhaustion, float range) derive from ``NumericError``.
Both share the ``SelfsimError`` base so callers can catch everything at once.
Each refusal rule that several routes share is written once, here: the
finite, NaN, sign, count and float-range rules.
"""

import contextlib
import math

import numpy as np


class SelfsimError(Exception):
    """Base class for all selfsim errors."""


class ValidationError(SelfsimError, ValueError):
    """Invalid argument, a non-finite or NaN one among them; raised before any numeric work."""


class NumericError(SelfsimError, RuntimeError):
    """A numeric routine could not meet its accuracy contract, or a value left float range."""


# ---------------------------------------------------------------- validation

class DeltaOutOfRange(ValidationError):
    """Exponent outside the open band (0, 2), or outside the part of it a route supports."""


class NonPositiveScale(ValidationError):
    """A length, scale, tolerance, cut point or window that must be finite and > 0 is not."""


class PoleError(ValidationError):
    """At a pole: of the extended factorial (negative integers) or of the static prefactor (delta = 1)."""


class AlphaOutOfRange(ValidationError):
    """Kernel exponent or power outside its branch's range, or in the excluded negative-odd set."""


class OriginSingular(ValidationError):
    """Pointwise evaluation requested at x = 0 where the function is singular."""


class GridTooSmall(ValidationError):
    """Sampling grid has too few points for a spectral operation."""


class NonZeroMeanForce(ValidationError):
    """Static solve needs a zero-mean force unless gauge projection is enabled."""


class EpsNonPositive(ValidationError):
    """Damping negative or not finite, or zero where the route needs it positive (Helmholtz)."""


class TimeNonPositive(ValidationError):
    """Operation defined only for t > 0 (t >= 0 for the irreversible diffusion)."""


class LOutOfGrid(ValidationError):
    """Truncation window extends beyond the sampled grid."""


def check_finite(**values) -> None:
    """Raise ValidationError naming the first argument that is not finite."""
    for name, val in values.items():
        if not math.isfinite(val):
            raise ValidationError(f"{name} must be finite, got {val!r}")


def _check_not_nan(**values) -> None:
    """Raise ValidationError naming the first argument, scalar or array, holding a NaN."""
    for name, val in values.items():
        if np.isnan(val).any():
            raise ValidationError(f"{name} must not be NaN")


def _check_positive(error: type = NonPositiveScale, or_zero: bool = False, **values) -> None:
    """The sign rule: raise ``error`` naming the first argument not finite and > 0 (>= 0 with ``or_zero``)."""
    for name, val in values.items():
        if not (0.0 <= val if or_zero else 0.0 < val) or not val < math.inf:
            raise error(f"{name} must be finite and {'>=' if or_zero else '>'} 0, got {val!r}")


def _check_integer(least: int | None = None, **values) -> None:
    """The count rule: raise ValidationError naming the first argument not an integer (a bool is not) >= least."""
    bound = "" if least is None else f" >= {least}"
    for name, val in values.items():
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or (least is not None and val < least):
            raise ValidationError(f"{name} must be an integer{bound}, got {val!r}")


@contextlib.contextmanager
def _float_range(what: str):
    """The float-range rule: inside, numpy's overflow, division by zero and
    invalid operations raise, and any ArithmeticError, numpy's or Python's,
    leaves as NumericError("<what> is beyond float range")."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError:
        raise NumericError(f"{what} is beyond float range") from None


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
