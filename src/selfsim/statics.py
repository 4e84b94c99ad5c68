"""Static response: Green's function, Poisson solver, and the kernel family
b_alpha obtained as regularized Fourier transforms of |k|^alpha.

The point-force displacement is the power law

    g(x) = g0 |x|^(delta-1),   g0 = (zeta delta / (2 pi h^delta)) tan(pi delta / 2),

whose transform is 1 / omega^2(k).  g0 diverges at delta = 1 (the static
problem has no finite power-law solution there); a guard raises PoleError
instead of returning huge numbers.

The Riesz-type kernels

    b_alpha(x) = (1/pi) lim_{eps->0+} int_0^inf e^{-eps k} k^alpha cos(kx) dk
               = -(alpha!/pi) |x|^(-alpha-1) sin(pi alpha / 2)   (x != 0)

generalize the delta function (alpha = 0) and its even derivatives
(alpha = 2, 4, ...: zero off the origin) to a nonlocal family; iterated
Laplacians of a point source and the static Green's function are both
members.  For alpha < -1 the divergent transform is replaced by the
regularized definition, which lands on the same closed form with the
extended factorial; negative odd integers stay excluded.  At a negative
even integer alpha = -2m the extended factorial has a pole that
sin(pi alpha / 2) cancels, and b_{-2m}(x) = (-1)^m |x|^(2m-1) / (2 (2m-1)!)
is the limit (b_{-2}(x) = -|x|/2).  Each b_alpha
with alpha > 0 keeps one sign for all x != 0, yet its integral vanishes:
the tail over (a, inf), riesz_tail_integral, is balanced by an equal and
opposite integral over (0, a), the origin carrying oscillatory mass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as _gamma

from .errors import (
    AlphaOutOfRange,
    EpsNonPositive,
    NonZeroMeanForce,
    NumericError,
    OriginSingular,
    PoleError,
    _check_integer,
    _check_not_nan,
    _check_positive,
    _float_range,
    check_finite,
)
from .grids import RealField, apply_symbol
from .params import MediumParams, dispersion, factorial_ext

__all__ = [
    "POLE_GUARD",
    "greens_static",
    "greens_prefactor",
    "poisson_solve",
    "riesz_kernel",
    "laplacian_power_kernel",
    "riesz_tail_integral",
]

POLE_GUARD = 1e-6
# poisson_solve's largest mean of the force, relative to its largest sample
_MEAN_TOL = 1e-9


def greens_prefactor(params: MediumParams) -> float:
    """g0 = (zeta delta / (2 pi h^delta)) tan(pi delta / 2); PoleError near delta = 1."""
    d = params.delta
    if abs(d - 1.0) <= POLE_GUARD:
        raise PoleError(
            f"static prefactor diverges at delta = 1 (got delta = {d}); no finite power-law response"
        )
    return (params.zeta * d / (2.0 * math.pi * params.h**d)) * math.tan(math.pi * d / 2.0)


def greens_static(params: MediumParams, x):
    """Static displacement response to a unit point force: g0 |x|^(delta-1).

    Scalar or array x.  For delta < 1 the origin is singular and raises;
    for delta > 1 the response vanishes continuously at x = 0.  NumericError:
    a value beyond float range."""
    _check_not_nan(x=x)
    g0 = greens_prefactor(params)
    xa = np.abs(np.asarray(x, dtype=float))
    if np.any(xa == 0.0) and params.delta < 1.0:
        raise OriginSingular("g(x) ~ |x|^(delta-1) is singular at x = 0 for delta < 1")
    with _float_range(f"g(x) = g0 |x|^(delta-1) for delta = {params.delta:g}"):
        out = g0 * xa ** (params.delta - 1.0)
    return float(out) if np.ndim(x) == 0 else out


def poisson_solve(params: MediumParams, force: RealField, project: bool = False) -> RealField:
    """Solve Lap u + f = 0 spectrally; the k = 0 mode of u is gauged to zero.

    The symbol 1/(a_delta |k|^delta) is singular at k = 0, so the force must
    have (numerically) zero mean; pass project=True to subtract the mean
    instead of raising.  The solution is defined up to a rigid displacement,
    fixed here by the zero-mean gauge.
    """
    g = force.grid
    scale = float(np.max(np.abs(force.values))) or 1.0
    mean = abs(float(np.sum(force.values))) / g.n
    if mean > _MEAN_TOL * scale and not project:
        raise NonZeroMeanForce(
            f"force has mean amplitude {mean:g} (tolerance {_MEAN_TOL * scale:g}); "
            "enable project=True to gauge it away"
        )
    inverse = dispersion(params, g.k_half)
    with np.errstate(divide="ignore"):
        np.divide(1.0, inverse, out=inverse)
    inverse[0] = 0.0  # the zero-mean gauge: k_half starts at k = 0
    return apply_symbol(force, inverse)


def riesz_kernel(alpha: float, x, eps: float = 0.0):
    """b_alpha(x): regularized Fourier transform of |k|^alpha, scalar or array x.

    eps > 0 evaluates the damped transform (alpha!/pi) Re[i^(alpha+1) /
    (|x| + i eps)^(alpha+1)]; eps = 0 gives its limit, the closed form
    -(alpha!/pi) |x|^(-alpha-1) sin(pi alpha / 2).  Even integers
    alpha >= 0 are localized (zero for x != 0); negative odd integers are
    excluded.  At a negative even integer -2m the closed form takes its
    finite limit (-1)^m |x|^(2m-1) / (2 (2m-1)!), while the damped
    transform has a pole there and raises PoleError.  A value beyond float
    range at x != 0 raises NumericError; at x = 0, -1 < alpha < 0 gives inf.
    """
    check_finite(alpha=alpha)
    integral = float(alpha).is_integer()
    if integral and alpha <= -1.0 and int(-alpha) % 2 == 1:
        raise AlphaOutOfRange(f"alpha = {alpha:g} lies in the excluded negative-odd set")
    negative_even = integral and alpha <= -2.0
    _check_not_nan(x=x)
    xa = np.abs(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    _check_positive(error=EpsNonPositive, or_zero=True, eps=eps)
    if eps > 0.0 and negative_even:
        raise PoleError(f"the damped transform (eps = {eps:g}) has a pole at alpha = {alpha:g}; "
                        "only its eps = 0 limit is finite")
    # at x = 0 the closed form has a continuous zero for alpha < -1 and an
    # integrable divergence for -1 < alpha < 0
    if eps == 0.0 and alpha >= 0.0:
        if np.any(xa == 0.0):
            raise OriginSingular(
                f"b_alpha carries a distributional part at x = 0 for alpha = {alpha:g}"
            )
        if integral and int(alpha) % 2 == 0:
            return 0.0 if scalar else np.zeros_like(xa)
    with np.errstate(all="ignore"):  # a value beyond float range is refused below
        if eps > 0.0:
            z = xa + 1j * eps
            vals = (factorial_ext(alpha) / math.pi) * (1j ** (alpha + 1.0) / z ** (alpha + 1.0)).real
        elif negative_even:
            m = int(-alpha) // 2
            vals = (-1) ** m * xa ** (2 * m - 1) / (2.0 * _gamma(2.0 * m))
        else:
            vals = (-(factorial_ext(alpha) / math.pi) * xa ** (-alpha - 1.0)
                    * math.sin(math.pi * alpha / 2.0))
    beyond = ~np.isfinite(vals) & np.isfinite(xa) & (xa != 0.0)
    if np.any(beyond):
        raise NumericError(f"b_alpha(x) for alpha = {alpha:g} is beyond float range "
                           f"at |x| = {xa[beyond].flat[0]:g}")
    return float(vals) if scalar else vals


def laplacian_power_kernel(params: MediumParams, n: int, x):
    """Smooth part of the n-th Laplacian power applied to a point source.

    Equals a_delta^n * b_{n delta}(x); n = -1 recovers the static Green's
    function, and n >= 0 gives -(a_delta^n/pi) sin(pi n delta/2)
    (n delta)! |x|^(-n delta - 1), which is 0 for n = 0: the point source
    itself has no smooth part.  The point mass at x = 0 is left out: it is
    1 for n = 0 and 0 for every other n, whose structure at the origin is
    oscillatory and is never sampled on a grid (convolutions against it
    are done spectrally); for n >= 0, x = 0 raises OriginSingular, as
    riesz_kernel does.  n is an integer, never a bool (ValidationError);
    n < -1 raises AlphaOutOfRange, a value beyond float range NumericError.
    """
    _check_integer(n=n)
    if n < -1:
        raise AlphaOutOfRange(f"powers below -1 are not defined, got n = {n}")
    if n == -1:
        return greens_static(params, x)
    with _float_range(f"a_delta^n b_(n delta)(x) for n = {n}"):
        vals = np.float64(params.a_delta) ** n * riesz_kernel(n * params.delta, x)
    return float(vals) if np.ndim(x) == 0 else vals


def riesz_tail_integral(alpha: float, a: float) -> float:
    """int_a^inf b_alpha(x) dx = -(Gamma(alpha)/pi) a^(-alpha) sin(pi alpha / 2), alpha > 0.

    NonPositiveScale: a cut point a <= 0; NumericError: Gamma(alpha) or the value beyond float range."""
    check_finite(alpha=alpha, a=a)
    if alpha <= 0.0:
        raise AlphaOutOfRange(f"tail integral requires alpha > 0, got {alpha}")
    _check_positive(a=a)
    with _float_range(f"the tail integral for alpha = {alpha:g}, a = {a:g}"):
        gamma = _gamma(alpha)
        if math.isinf(gamma):  # scipy's Gamma overflows to inf without a flag
            raise ArithmeticError
        return -(gamma / math.pi) * a ** (-alpha) * math.sin(math.pi * alpha / 2.0)
