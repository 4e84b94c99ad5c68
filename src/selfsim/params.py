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

from .errors import DeltaOutOfRange, NonPositiveScale, PoleError
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

    Raises DeltaOutOfRange unless 0 < delta < 2 (both ends excluded: the
    defining integrals cease to exist at the boundary), NonPositiveScale
    for h <= 0 or zeta <= 0.
    """
    for name, val in (("delta", delta), ("h", h), ("zeta", zeta)):
        if not math.isfinite(val):
            raise NonPositiveScale(f"{name} must be finite, got {val!r}")
    if not 0.0 < delta < 2.0:
        raise DeltaOutOfRange(f"delta must lie strictly inside (0, 2), got {delta}")
    if h <= 0.0:
        raise NonPositiveScale(f"h must be > 0, got {h}")
    if zeta <= 0.0:
        raise NonPositiveScale(f"zeta must be > 0, got {zeta}")
    a = (h**delta / zeta) * math.pi / (_gamma(1.0 + delta) * math.sin(math.pi * delta / 2.0))
    return MediumParams(delta=float(delta), h=float(h), zeta=float(zeta), a_delta=float(a))


def factorial_ext(alpha: float) -> float:
    """Extended factorial alpha! = Gamma(alpha + 1), defined for alpha < -1 too.

    For alpha > -1 this is the ordinary Gamma integral.  Below -1 the
    reflection formula supplies the continuation

        alpha! = -pi / (Gamma(-alpha) * sin(pi alpha)),

    which agrees with the analytic continuation of Gamma everywhere both
    are defined.  Negative integers are poles and raise PoleError.
    """
    if not math.isfinite(alpha):
        raise PoleError(f"alpha must be finite, got {alpha!r}")
    if alpha <= -1.0 and float(alpha).is_integer():
        raise PoleError(f"alpha = {alpha:g} is a pole of the extended factorial")
    if alpha > -1.0:
        return float(_gamma(alpha + 1.0))
    return float(-math.pi / (_gamma(-alpha) * math.sin(math.pi * alpha)))


def dispersion(params: MediumParams, k):
    """omega^2(k) = a_delta |k|^delta.  Accepts scalars or arrays."""
    return params.a_delta * np.abs(k) ** params.delta


def _dispersion_into(a_delta: float, delta: float, k: np.ndarray, out: np.ndarray) -> None:
    """out = a_delta |k|^delta, the same values as ``dispersion``, with
    numpy only and no array beyond out (a symbol on the helper thread)."""
    np.abs(k, out=out)
    out **= delta
    out *= a_delta


# Terms of int_0^1 (1 - cos s)/s^(1+delta) ds integrated term by term;
# 1/(2m)! decay makes 25 terms far more than double precision needs.
_INNER_TERMS = 25


def _dispersion_integral(delta: float) -> float:
    inner = 0.0
    for m in range(1, _INNER_TERMS + 1):
        inner += (-1.0) ** (m + 1) / (_gamma(2 * m + 1.0) * (2 * m - delta))
    # QUADPACK's QAWF: its cosine weight makes the tail beyond s = 1 converge
    cospart = quad_checked(lambda s: s ** (-1.0 - delta), 1.0, np.inf,
                           abs_tol=ABS_TOL * 0.01, weight="cos", wvar=1.0)
    return inner + 1.0 / delta - cospart


def dispersion_quadrature(params: MediumParams, k: float) -> float:
    """omega^2(k) evaluated from the defining integral instead of the closed form.

    Splits the integrand at s = 1: the inner part is summed exactly
    term by term (the cosine series is corrected against the s^(1-delta)
    behavior), the outer part combines the exact power tail with an
    oscillatory cosine-weighted quadrature.
    """
    if k == 0.0:
        return 0.0
    base = 2.0 * (params.h**params.delta / params.zeta) * abs(k) ** params.delta
    return base * _dispersion_integral(params.delta)
