"""Static response: Green's function, Poisson solver, and the kernel family
b_alpha obtained as regularized Fourier transforms of |k|^alpha.

The point-force displacement is the power law

    g(x) = g0 |x|^(delta-1),   g0 = (zeta delta / (2 pi h^delta)) tan(pi delta / 2),

whose transform is 1 / omega^2(k).  g0 diverges at delta = 1 (the static
problem has no finite power-law solution there); a guard raises DeltaPole
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
    DeltaPole,
    ExcludedAlpha,
    NonPositiveA,
    NonZeroMeanForce,
    OriginSingular,
    PoleError,
)
from .grids import RealField, apply_symbol
from .params import MediumParams, _dispersion_into, factorial_ext

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
    """g0 = (zeta delta / (2 pi h^delta)) tan(pi delta / 2); DeltaPole near delta = 1."""
    d = params.delta
    if abs(d - 1.0) <= POLE_GUARD:
        raise DeltaPole(
            f"static prefactor diverges at delta = 1 (got delta = {d}); no finite power-law response"
        )
    return (params.zeta * d / (2.0 * math.pi * params.h**d)) * math.tan(math.pi * d / 2.0)


def greens_static(params: MediumParams, x):
    """Static displacement response to a unit point force: g0 |x|^(delta-1).

    Scalar or array x.  For delta < 1 the origin is singular and raises;
    for delta > 1 the response vanishes continuously at x = 0.
    """
    g0 = greens_prefactor(params)
    xa = np.abs(np.asarray(x, dtype=float))
    if np.any(xa == 0.0) and params.delta < 1.0:
        raise OriginSingular("g(x) ~ |x|^(delta-1) is singular at x = 0 for delta < 1")
    out = g0 * xa ** (params.delta - 1.0)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


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
    a, delta = params.a_delta, params.delta

    def inverse(k, out):
        _dispersion_into(a, delta, k, out)
        with np.errstate(divide="ignore"):
            np.divide(1.0, out, out=out)
        if k[0] == 0.0:  # the zero-mean gauge: k = 0 is only ever the first wavenumber
            out[0] = 0.0

    return apply_symbol(force, inverse)


def riesz_kernel(alpha: float, x, eps: float = 0.0):
    """b_alpha(x): regularized Fourier transform of |k|^alpha, scalar or array x.

    eps > 0 evaluates the damped transform (alpha!/pi) Re[i^(alpha+1) /
    (|x| + i eps)^(alpha+1)]; eps = 0 gives its limit, the closed form
    -(alpha!/pi) |x|^(-alpha-1) sin(pi alpha / 2).  Even integers
    alpha >= 0 are localized (zero for x != 0); negative odd integers are
    excluded.  At a negative even integer -2m the closed form takes its
    finite limit (-1)^m |x|^(2m-1) / (2 (2m-1)!), while the damped
    transform has a pole there and raises PoleError.
    """
    if not math.isfinite(alpha):
        raise AlphaOutOfRange(f"alpha must be finite, got {alpha!r}")
    integral = float(alpha).is_integer()
    if integral and alpha <= -1.0 and int(-alpha) % 2 == 1:
        raise ExcludedAlpha(f"alpha = {alpha:g} lies in the excluded negative-odd set")
    negative_even = integral and alpha <= -2.0
    xa = np.abs(np.asarray(x, dtype=float))
    scalar = np.isscalar(x) or np.ndim(x) == 0
    if eps < 0.0 or not math.isfinite(eps):
        raise AlphaOutOfRange(f"eps must be finite and >= 0, got {eps}")
    if eps > 0.0:
        if negative_even:
            raise PoleError(f"the damped transform (eps = {eps:g}) has a pole at alpha = {alpha:g}; "
                            "only its eps = 0 limit is finite")
        fe = factorial_ext(alpha)
        z = xa + 1j * eps
        vals = (fe / math.pi) * (1j ** (alpha + 1.0) / z ** (alpha + 1.0)).real
        return float(vals) if scalar else vals
    if np.any(xa == 0.0):
        if alpha >= 0.0:
            raise OriginSingular(
                f"b_alpha carries a distributional part at x = 0 for alpha = {alpha:g}"
            )
        # alpha < -1: continuous zero; -1 < alpha < 0: integrable divergence
    if integral and alpha >= 0.0 and int(alpha) % 2 == 0:
        vals = np.zeros_like(xa)
        return 0.0 if scalar else vals
    if negative_even:
        m = int(-alpha) // 2
        vals = (-1) ** m * xa ** (2 * m - 1) / (2.0 * _gamma(2.0 * m))
        return float(vals) if scalar else vals
    fe = factorial_ext(alpha)
    with np.errstate(divide="ignore"):
        vals = -(fe / math.pi) * xa ** (-alpha - 1.0) * math.sin(math.pi * alpha / 2.0)
    return float(vals) if scalar else vals


def laplacian_power_kernel(params: MediumParams, n: int, x):
    """Smooth part of the n-th Laplacian power applied to a point source.

    Equals a_delta^n * b_{n delta}(x); n = -1 recovers the static Green's
    function, n = 0 is the point source itself (zero smooth part), and
    n >= 1 gives -(a_delta^n/pi) sin(pi n delta/2) (n delta)! |x|^(-n delta - 1).
    The point mass at x = 0 is left out: it is 1 for n = 0 and 0 for every
    other n, whose structure at the origin is oscillatory and is never
    sampled on a grid (convolutions against it are done spectrally).
    """
    if not isinstance(n, (int, np.integer)):
        raise AlphaOutOfRange(f"n must be an integer, got {n!r}")
    if n < -1:
        raise AlphaOutOfRange(f"powers below -1 are not defined, got n = {n}")
    xa = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    if n == -1:
        return greens_static(params, x)
    if np.any(np.abs(xa) == 0.0):
        raise OriginSingular("the point-source powers are singular at x = 0")
    if n == 0:
        return 0.0 if scalar else np.zeros_like(xa)
    vals = params.a_delta**n * riesz_kernel(n * params.delta, x)
    return vals


def riesz_tail_integral(alpha: float, a: float) -> float:
    """int_a^inf b_alpha(x) dx = -(Gamma(alpha)/pi) a^(-alpha) sin(pi alpha / 2), alpha > 0."""
    if alpha <= 0.0:
        raise AlphaOutOfRange(f"tail integral requires alpha > 0, got {alpha}")
    if a <= 0.0:
        raise NonPositiveA(f"cut point must be > 0, got {a}")
    return -(_gamma(alpha) / math.pi) * a ** (-alpha) * math.sin(math.pi * alpha / 2.0)
