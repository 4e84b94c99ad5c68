"""Medium parameters, dispersion law, and the extended factorial.

The medium is parametrized by a scaling exponent ``delta`` in (0, 2), a
length scale ``h`` and a dimensionless parameter ``zeta``.  Every spectral
quantity in the library is built on the dispersion law

    omega^2(k) = a_delta * |k|^delta,
    a_delta    = (h^delta / zeta) * pi / (Gamma(1 + delta) * sin(pi delta / 2)),

which is strictly positive on the admissible band: the medium is stable.
``dispersion_quadrature`` evaluates the same coefficient from its defining
integral 2 (h^delta/zeta) |k|^delta * int_0^inf (1 - cos s) / s^(1+delta) ds
and serves as the independent cross-check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .errors import DeltaOutOfRange, PoleError, _check_positive, _float_range, check_finite
from .quadrature import ABS_TOL, quad_checked

__all__ = [
    "MediumParams",
    "make_params",
    "factorial_ext",
    "dispersion",
    "dispersion_quadrature",
]


@dataclass(frozen=True)
class MediumParams:
    """Physical parameters with the derived dispersion coefficient.

    Construct through :func:`make_params`, which validates the admissible
    band and computes ``a_delta``.
    """

    delta: float
    h: float
    zeta: float
    a_delta: float

    @property
    def omega_scale(self) -> float:
        """sqrt(a_delta): frequency scale of the |k|^(delta/2) root."""
        return math.sqrt(self.a_delta)


def make_params(delta: float, h: float, zeta: float) -> MediumParams:
    """Validate (delta, h, zeta) and attach the dispersion coefficient.

    Raises ValidationError for a non-finite argument, DeltaOutOfRange
    unless 0 < delta < 2 (the defining integrals cease to exist at both
    ends), NonPositiveScale for h or zeta <= 0, NumericError for an
    a_delta beyond float range.
    """
    check_finite(delta=delta, h=h, zeta=zeta)
    if not 0.0 < delta < 2.0:
        raise DeltaOutOfRange(f"delta must lie strictly inside (0, 2), got {delta}")
    _check_positive(h=h, zeta=zeta)
    with _float_range(f"a_delta for delta = {delta:g}, h = {h:g}, zeta = {zeta:g}"):
        a = (h**delta / zeta) * math.pi / (_gamma(1.0 + delta) * math.sin(math.pi * delta / 2.0))
        if not 0.0 < a < math.inf:  # Python's * and / leave float range silently
            raise ArithmeticError
    return MediumParams(delta=float(delta), h=float(h), zeta=float(zeta), a_delta=float(a))


def factorial_ext(alpha: float) -> float:
    """Extended factorial alpha! = Gamma(alpha + 1), defined for alpha < -1 too.

    For alpha > -1 this is the ordinary Gamma integral; below -1 it is
    Gamma's analytic continuation, which scipy's Gamma evaluates itself,
    to rounding even next to the poles.  Negative integers are poles and
    raise PoleError; a value beyond float range (alpha > 170.6) NumericError.
    """
    check_finite(alpha=alpha)
    if alpha <= -1.0 and float(alpha).is_integer():
        raise PoleError(f"alpha = {alpha:g} is a pole of the extended factorial")
    with _float_range(f"alpha! for alpha = {alpha:g}"):
        value = float(_gamma(alpha + 1.0))
        if math.isinf(value):  # scipy's Gamma overflows to inf without a flag
            raise ArithmeticError
    return value


def dispersion(params: MediumParams, k):
    """omega^2(k) = a_delta |k|^delta, scalar or array k; NumericError beyond float range."""
    with _float_range("omega^2(k) = a_delta |k|^delta"):
        return params.a_delta * np.abs(k) ** params.delta


# Terms of int_0^1 (1 - cos s)/s^(1+delta) ds integrated term by term;
# 1/(2m)! decay makes 25 terms far more than double precision needs.
_INNER_TERMS = 25


def _dispersion_integral(delta: float) -> float:
    inner = 0.0
    for m in range(1, _INNER_TERMS + 1):
        inner += (-1.0) ** (m + 1) / (_gamma(2 * m + 1.0) * (2 * m - delta))
    p = -1.0 - delta  # int_1^inf cos(s) s^p ds = Re[i e^i int_0^inf e^(-u) (1 + iu)^p du]
    cospart = quad_checked(
        lambda u: -math.exp(-u) * (1.0 + u * u) ** (0.5 * p) * math.sin(1.0 + p * math.atan(u)),
        0.0, np.inf, abs_tol=ABS_TOL * 0.01)
    return inner + 1.0 / delta - cospart


def dispersion_quadrature(params: MediumParams, k: float) -> float:
    """omega^2(k) evaluated from the defining integral instead of the closed form.

    Splits the integrand at s = 1: the inner part is summed exactly
    term by term (the cosine series is corrected against the s^(1-delta)
    behavior), the outer part combines the exact power tail with the cosine
    tail on the contour s = 1 + iu, where e^(is) decays instead of oscillating.
    NumericError: a value beyond float range."""
    check_finite(k=k)
    if k == 0.0:
        return 0.0
    with _float_range(f"omega^2(k) by quadrature at k = {k:g}"):
        base = 2.0 * (params.h**params.delta / params.zeta) * abs(k) ** params.delta
        value = base * _dispersion_integral(params.delta)
        if value == math.inf:  # Python's * leaves float range silently
            raise ArithmeticError
    return value
