"""The nonlocal Laplacian of the self-similar medium and its relatives.

The central object is the operator

    (Lap u)(x) = (h^delta / zeta) * int_0^inf [u(x-tau) + u(x+tau) - 2 u(x)]
                                             / tau^(1+delta) dtau,

0 < delta < 2: self-adjoint, negative definite, annihilates constants, and
diagonal in Fourier space with symbol -a_delta |k|^delta.  Both routes are
implemented: pointwise singular quadrature on callables and spectral
multiplication on sampled fields, each serving as the other's cross-check.

Also here: one-sided fractional derivatives of increment type (valid for
0 < delta < 1), the nonlocal flux whose divergence reproduces the
Laplacian, and the one-sided fractional-derivative kernel with symbol
(ik)^alpha.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exprel as _exprel

from .errors import (AlphaOutOfRange, DeltaOutOfRange, EpsNonPositive, OriginSingular, ValidationError,
                     _check_positive, _float_range, check_finite)
from .grids import RealField, apply_symbol
from .params import MediumParams, dispersion, factorial_ext
from .quadrature import ABS_TOL, singular_integral

__all__ = [
    "laplacian_apply_point",
    "laplacian_apply_spectral",
    "laplacian_symbol",
    "weyl_marchaud",
    "flux_apply",
    "frac_kernel_y",
    "frac_derivative_spectral",
]

def _second_difference(f, x: float, two_fx: float, h0: float = 1e-2) -> tuple[float, float]:
    """The coefficients A = f''(x) and B = f''''(x)/12 of the second difference

        (f(x + h) + f(x - h) - 2 f(x)) / h^2 = A + B h^2 + C h^4 + ...,

    fitted through h = h0, h0/2, h0/4 (A by two Richardson sweeps).
    two_fx is the caller's 2 f(x), so f(x) is not evaluated again.
    """
    v = [(f(x + h) + f(x - h) - two_fx) / (h * h) for h in (h0, h0 / 2, h0 / 4)]
    r1 = (4.0 * v[1] - v[0]) / 3.0
    r2 = (4.0 * v[2] - v[1]) / 3.0
    s = h0 * h0
    c = ((v[0] - v[1]) - 4.0 * (v[1] - v[2])) * 64.0 / (45.0 * s * s)
    return (16.0 * r2 - r1) / 15.0, (v[1] - v[2]) * 16.0 / (3.0 * s) - c * 5.0 * s / 16.0


def laplacian_apply_point(params: MediumParams, f, x: float, abs_tol: float = ABS_TOL) -> float:
    """Nonlocal Laplacian of a callable at one point, by singular quadrature.

    f must be twice differentiable near x and smooth and bounded beyond:
    a constant plus oscillations (plane waves, any number of them) plus a
    decaying part.  f(x) is evaluated once.  ``quadrature.singular_integral``
    integrates g(tau) = f(x + tau) + f(x - tau) with the shift -2 f(x): a
    fourth-order Taylor disc, Gauss-Kronrod panels on geometric segments to
    tau = 1, the windowed tail sum beyond.  abs_tol must be finite and > 0.
    """
    check_finite(x=x)
    _check_positive(abs_tol=abs_tol)
    delta = params.delta
    two_fx = 2.0 * f(x)
    # the Taylor disc to fourth order: near delta = 2 the tau^4 term of the
    # second difference is still 1e-8 of the eigenvalue of cos(2.5 u)
    fpp, quartic = _second_difference(f, x, two_fx)
    return singular_integral(lambda u: f(x + u) + f(x - u), -two_fx, ((fpp, 2.0), (quartic, 4.0)),
                             delta, abs_tol, params.h**delta / params.zeta)


def laplacian_symbol(params: MediumParams, k) -> np.ndarray:
    """Fourier multiplier of the Laplacian: -a_delta |k|^delta."""
    return -dispersion(params, k)


def laplacian_apply_spectral(params: MediumParams, f: RealField) -> RealField:
    """Nonlocal Laplacian of a sampled field via its Fourier symbol.

    Periodic surrogate of the infinite-line operator: keep a guard band
    wide enough that wrap-around at the measurement window is below
    tolerance.
    """
    return apply_symbol(f, laplacian_symbol(params, f.grid.k_half))


def weyl_marchaud(delta: float, f, x: float, side: str) -> float:
    """One-sided fractional derivative of increment type, 0 < delta < 1.

        D u(x) = delta / Gamma(1 - delta)
                 * int_0^inf [u(x) - u(x -/+ tau)] / tau^(1+delta) dtau

    with ``side`` = "left" (x - tau) or "right" (x + tau).  Both sides are
    returned as plain real integrals; the combination
    -(h^delta Gamma(1-delta) / (zeta delta)) * (D_left + D_right) equals
    the nonlocal Laplacian.
    """
    check_finite(x=x)
    if not 0.0 < delta < 1.0:
        raise DeltaOutOfRange(f"increment derivative needs 0 < delta < 1, got {delta}")
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    sgn = -1.0 if side == "left" else 1.0
    fx = f(x)
    # Taylor disc to second order: the increment is -sgn f' tau - f'' tau^2/2,
    # and the quadratic term still matters at the disc's radius; f' by a
    # central difference of step h0
    h0 = 1e-3
    fp = (f(x + h0) - f(x - h0)) / (2.0 * h0)
    fpp = _second_difference(f, x, 2.0 * fx)[0]
    return singular_integral(lambda u: -f(x + sgn * u), fx, ((-sgn * fp, 1.0), (-fpp / 2.0, 2.0)),
                             delta, ABS_TOL, delta / factorial_ext(-delta))


def _flux_weights(delta: float, dx: float, n: int) -> np.ndarray:
    """Exact moments of tau^-delta against piecewise-linear fields.

    w[p], p < n, multiplies rho_{i+p} in the discrete correlation; w[0] is 0,
    as the p = 0 singular moment cancels between the +tau and -tau branches.
    Over the cell [a, b] = [m dx, (m + 1) dx] each moment is
    int_a^b tau^(-q) dtau = a^(1-q) L exprel((1-q) L), L = log1p(1/m):
    one formula through q = 1 (delta = 1), with no cancellation near it.
    """
    m = np.arange(1, n, dtype=float)
    a = m * dx
    ln_ba = np.log1p(1.0 / m)
    i0 = a ** (1.0 - delta) * ln_ba * _exprel((1.0 - delta) * ln_ba)
    i1 = np.empty(n)
    i1[1:] = a ** (2.0 - delta) * ln_ba * _exprel((2.0 - delta) * ln_ba) - a * i0
    i1[0] = dx ** (2.0 - delta) / (2.0 - delta)
    w = np.zeros(n)
    w[1:] = i0 + (i1[:-1] - i1[1:]) / dx
    return w


def flux_apply(params: MediumParams, rho: RealField) -> RealField:
    """Nonlocal flux j(x) = -(h^delta/(zeta delta)) int [rho(x+tau)-rho(x-tau)] / tau^delta dtau.

    The spatial derivative of the output equals the negated Laplacian of
    rho (particle balance).  The field is taken to vanish beyond the grid
    after subtracting the edge baseline, which makes the discrete operator
    annihilate constants exactly; rho should decay toward the edges.
    The correlation runs on a circle of 2n points, its kernel -w[p] at
    offset p and w[p] at offset 2n - p: no offset wraps, and the first n
    entries are the flux.
    """
    g = rho.grid
    n = g.n
    c = params.h**params.delta / (params.zeta * params.delta)
    vals = rho.values - 0.5 * (rho.values[0] + rho.values[-1])
    w = _flux_weights(params.delta, g.dx, n)
    kernel = np.zeros(2 * n)
    kernel[:n] = -w
    kernel[n + 1 :] = w[:0:-1]
    full = np.fft.irfft(np.fft.rfft(vals, 2 * n) * np.fft.rfft(kernel), 2 * n)
    return RealField(g, -c * full[:n])


def frac_kernel_y(alpha: float, x: float, eps: float = 0.0) -> float:
    """Kernel of the one-sided fractional derivative with symbol (ik)^alpha.

    Regularized form (alpha! / pi) * Re[ i^(2 alpha + 1) / (x + i eps)^(alpha+1) ],
    principal branch.  At eps = 0 the kernel is supported on x > 0, where it
    equals -(alpha!/pi) x^(-alpha-1) sin(pi alpha); it vanishes for x < 0 and
    for integer alpha (off the origin), reproducing the localized
    integer-order derivatives.  NumericError: a value beyond float range.
    """
    check_finite(x=x, alpha=alpha)
    if alpha <= -1.0:
        raise AlphaOutOfRange(f"kernel defined for alpha > -1, got {alpha}")
    _check_positive(error=EpsNonPositive, or_zero=True, eps=eps)
    with _float_range(f"y_alpha(x) for alpha = {alpha:g}, x = {x:g}, eps = {eps:g}"):
        if eps > 0.0:
            val = (1j ** (2.0 * alpha + 1.0)) / complex(x, eps) ** (alpha + 1.0)
            return float(factorial_ext(alpha) / math.pi * val.real)
        if x == 0.0:
            raise OriginSingular("eps = 0 evaluation requires x != 0")
        if x < 0.0 or float(alpha).is_integer():
            return 0.0
        return float(-factorial_ext(alpha) / math.pi * x ** (-alpha - 1.0) * math.sin(math.pi * alpha))


def frac_derivative_spectral(alpha: float, f: RealField) -> RealField:
    """Fractional derivative of a sampled field: multiplier (ik)^alpha.

    Principal branch: (ik)^alpha = |k|^alpha exp(i sign(k) pi alpha / 2).
    alpha = 0 is the identity; integer alpha reproduces ordinary
    derivatives.  NumericError: a symbol beyond float range.
    """
    check_finite(alpha=alpha)
    if alpha < 0.0:
        raise AlphaOutOfRange(f"derivative branch needs alpha >= 0, got {alpha}")
    k = f.grid.k_half
    with _float_range(f"the symbol (ik)^alpha for alpha = {alpha:g}"):
        symbol = k**alpha * np.exp(1j * np.sign(k) * math.pi * alpha / 2.0)
    return apply_symbol(f, symbol)
