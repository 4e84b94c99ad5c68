"""Wave dynamics: Cauchy evolution, convolution kernels, causal and
frequency-domain Green's functions, and the conserved energy.

The equation of motion d^2 u / dt^2 = Lap u diagonalizes in Fourier space,
so the evolution of (u, v) is an exact mode-by-mode rotation with
frequency omega(k) = sqrt(a_delta) |k|^(delta/2).  The state stays in k
between steps: a CauchyState built from fields keeps the rfft spectrum of
u once taken, cauchy_evolve returns the rotated spectra, energy reads them
by Parseval, and the fields are transformed back only when read.  The
solution kernels

    Q(x, t)    = (1/2pi) int e^{ikx} sin(omega t)/omega dk   (velocity kernel)
    dQ/dt      = (1/2pi) int e^{ikx} cos(omega t) dk         (displacement kernel)

satisfy Q(., 0) = 0, dQ/dt(., 0) = delta(x), d2Q/dt2(., 0) = 0, and come in
three evaluations:

* a power series in a_delta t^2 / |x|^delta, valid off the origin (entire
  on the whole exponent band, though near delta = 2 the decay onset can
  exceed any practical term budget for moderate arguments),
* one real-FFT synthesis of the symbol times the Richardson combination
  sum_j c_j e^{-eps_j |k|} of a geometric eps-ladder, i.e. the damped
  transform extrapolated to eps -> 0+ on the symbol side (the symbols
  decay too slowly for a raw truncated transform); the weighted damping
  depends on the grid alone and is kept, read-only, by functools.lru_cache
  for the last grid used (one entry, 4 MB at 2^20 points).  Near the
  origin it is no pointwise route: the damping suppresses the stationary
  wavenumber k* that carries the kernel there, and the relative error
  reaches 2; it was 2e-2 or less only where 20 dx k* / pi < 0.02 (README,
  Numerical notes),
* a certified pointwise quadrature of the Fourier integral along a rotated
  contour, used as the high-accuracy cross-check; it is refused where its
  integrand peaks beyond its rounding budget or leaves float range.

The series and the quadrature are pointwise, for the smooth part off the
origin, and share one entry: finite arguments, OriginSingular at x = 0,
exactly 0 at t = 0, and Q odd and dQ/dt even in t.

The causal Green's function is theta(t) e^{-eps t} Q; its frequency-domain
counterpart inverts omega^2(k) - (omega + i eps)^2.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import (EpsNonPositive, NumericError, OriginSingular, QuadratureNoConvergence, ValidationError,
                     _check_not_nan, _check_positive, _float_range, check_finite)
from .grids import ComplexField, Grid1D, RealField, sample_kernel
from .params import MediumParams, dispersion
from .quadrature import ABS_TOL, _stable_series, _weights_at_zero, quad_checked

__all__ = [
    "CauchyState",
    "cauchy_evolve",
    "energy",
    "wave_kernel_spectral",
    "wave_kernel_dt_spectral",
    "wave_kernel_series",
    "wave_kernel_dt_series",
    "wave_kernel_fourier",
    "wave_kernel_dt_fourier",
    "greens_retarded",
    "helmholtz_green",
    "helmholtz_symbol",
]


class CauchyState:
    """Displacement u and velocity v on one grid, held in x or in k.

    ``CauchyState(u, v)`` holds the two fields.  The rfft spectrum of u is
    taken when ``energy`` or ``cauchy_evolve`` first needs it and is kept;
    the one of v is taken on each use, not kept.  A state that
    ``cauchy_evolve`` returns holds the two rotated spectra, and ``.u`` and
    ``.v`` each run one irfft on first read and keep the field.  The state
    reads its fields when it first needs them: do not change their values
    in place afterwards.
    """

    __slots__ = ("_grid", "_u", "_v", "_uh", "_vh")

    def __init__(self, u: RealField, v: RealField):
        if u.grid != v.grid:
            raise ValidationError("u and v must share one grid")
        self._grid, self._u, self._v, self._uh, self._vh = u.grid, u, v, None, None

    @classmethod
    def _from_spectra(cls, grid: Grid1D, uh: np.ndarray, vh: np.ndarray) -> CauchyState:
        state = cls.__new__(cls)
        state._grid, state._u, state._v, state._uh, state._vh = grid, None, None, uh, vh
        return state

    @property
    def u(self) -> RealField:
        """Displacement field."""
        if self._u is None:
            self._u = RealField(self._grid, np.fft.irfft(self._uh, n=self._grid.n))
        return self._u

    @property
    def v(self) -> RealField:
        """Velocity field."""
        if self._v is None:
            self._v = RealField(self._grid, np.fft.irfft(self._vh, n=self._grid.n))
        return self._v

    def _u_spectrum(self) -> np.ndarray:
        if self._uh is None:
            self._uh = np.fft.rfft(self._u.values)
        return self._uh

    def _v_spectrum(self) -> np.ndarray:
        return np.fft.rfft(self._v.values) if self._vh is None else self._vh


def _sin_over(w: np.ndarray, sw: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
    """sin(w t)/w into out from w and sw = sin(w t), with its w = 0 limit t;
    out may be sw."""
    with np.errstate(invalid="ignore"):
        np.divide(sw, w, out=out)
    if w[0] == 0.0:  # w vanishes only at k = 0, which is only ever the first wavenumber
        out[0] = t
    return out


def cauchy_evolve(params: MediumParams, state: CauchyState, t: float) -> CauchyState:
    """Propagate (u, v) by time t: exact spectral rotation, reversible.

    Mode k advances by (cos wt, sin wt / w; -w sin wt, cos wt); the k = 0
    mode uses the analytic limit u + t v.  Energy is conserved to rounding
    and evolving by t then -t returns the input state.  The result holds
    the rotated spectra: evolving it again, or taking its energy, needs no
    transform.
    """
    check_finite(t=t)
    g = state._grid
    w = dispersion(params, g.k_half)
    np.sqrt(w, out=w)
    cw = np.multiply(w, t)
    sw = np.sin(cw)
    np.cos(cw, out=cw)
    uh, vh = state._u_spectrum(), state._v_spectrum()
    uh2 = cw * uh
    product = _sin_over(w, sw, t, np.empty_like(w)) * vh
    uh2 += product
    np.negative(w, out=w)
    w *= sw
    vh2 = w * uh
    np.multiply(cw, vh, out=product)
    vh2 += product
    return CauchyState._from_spectra(g, uh2, vh2)


def energy(params: MediumParams, state: CauchyState) -> float:
    """Conserved energy (1/2) int (v^2 + u * (-Lap) u) dx.

    The potential part comes from the spectrum of u by Parseval:
    sum_j u_j (-Lap u)_j = (1/n) sum_k w_k omega^2(k) |u_k|^2, where w_k = 2
    counts each conjugate pair and w_k = 1 at k = 0 and, for even n, at the
    Nyquist index.  The kinetic part is taken from v in the form the state
    holds: the x-space sum of v^2 for a state built from fields, and
    (1/n) sum_k w_k |v_k|^2, in the same sum, for one that holds spectra.
    Neither needs a transform beyond the kept spectrum of u.
    """
    g = state._grid
    power = dispersion(params, g.k_half)
    uh = state._u_spectrum()
    power *= np.square(uh.real) + np.square(uh.imag)
    if state._vh is None:
        kinetic = np.sum(state._v.values**2)
    else:
        kinetic = 0.0
        power += np.square(state._vh.real)
        power += np.square(state._vh.imag)
    power[1:(g.n + 1) // 2] *= 2.0
    return float(0.5 * g.dx * (kinetic + np.sum(power) / g.n))


# --------------------------------------------------------------- FFT kernels

@functools.lru_cache(maxsize=1)
def _ladder_damping(grid: Grid1D) -> np.ndarray:
    """sum_j c_j exp(-eps_j k) on k = grid.k_half, read-only.

    It depends on the grid alone, so repeated syntheses on one grid reuse
    it; the cache holds one grid (4 MB at 2^20 points).
    """
    eps_min = 20.0 / (math.pi / grid.dx)
    eps_list = [eps_min * 2.0**j for j in range(4, -1, -1)]
    k = grid.k_half
    damping = np.zeros_like(k)
    work = np.empty_like(k)
    for e_j, c_j in zip(eps_list, _weights_at_zero(eps_list)):
        np.multiply(k, -e_j, out=work)
        np.exp(work, out=work)
        work *= c_j
        damping += work
    damping.flags.writeable = False
    return damping


def _kernel_ladder(grid: Grid1D, symbol: np.ndarray) -> np.ndarray:
    """Kernel of a slowly decaying even symbol, regularized and taken to eps -> 0+.

    The damped symbols S(k) e^{-eps_j k} on a geometric eps-ladder are
    combined with the Lagrange weights c_j of polynomial extrapolation to
    eps = 0 before a single synthesis: since synthesis is linear, this is
    the pointwise extrapolation of the damped kernels, done once on the
    symbol.  The smallest eps still suppresses the Nyquist symbol:
    eps_min * k_max = 20.  The weighted damping is computed once per grid.
    ``symbol`` holds S on grid.k_half, one array that its route builds in
    place; it is damped in place.
    """
    symbol *= _ladder_damping(grid)
    return sample_kernel(grid, symbol)


def wave_kernel_spectral(params: MediumParams, grid: Grid1D, t: float) -> RealField:
    """Velocity kernel Q(., t) sampled on a centered grid.

    FFT synthesis of sin(omega t)/omega with the eps-ladder Richardson
    weights applied to the symbol.  Periodic images decay like
    |x|^(-1-delta) of the grid length; near the origin the error does not
    fall with dx (see the module docstring).
    """
    check_finite(t=t)
    w = dispersion(params, grid.k_half)
    np.sqrt(w, out=w)
    symbol = np.multiply(w, t)
    np.sin(symbol, out=symbol)
    _sin_over(w, symbol, t, symbol)
    del w  # not held across the synthesis
    return RealField(grid, _kernel_ladder(grid, symbol))


def wave_kernel_dt_spectral(params: MediumParams, grid: Grid1D, t: float) -> RealField:
    """Displacement kernel dQ/dt(., t); at t = 0 its discrete mass is exactly 1.

    The origin sample carries the mollified point mass (width ~ ladder
    floor); off-origin samples extrapolate to the smooth part.
    """
    check_finite(t=t)
    symbol = dispersion(params, grid.k_half)
    np.sqrt(symbol, out=symbol)
    symbol *= t
    np.cos(symbol, out=symbol)
    return RealField(grid, _kernel_ladder(grid, symbol))


# -------------------------------------------------------- pointwise kernels

def _pointwise(body, params: MediumParams, x: float, t: float, kind: str) -> float:
    """The one entry of the four pointwise kernels: finite arguments, x != 0,
    zero at t = 0, else body(params, |x|, |t|, kind), with Q odd and dQ/dt
    even in t."""
    check_finite(x=x, t=t)
    if x == 0.0:
        raise OriginSingular("the pointwise wave kernels are defined for x != 0")
    if t == 0.0:
        return 0.0
    val = body(params, abs(x), abs(t), kind)
    return -val if kind == "Q" and t < 0.0 else val


def _series(params: MediumParams, x: float, t: float, kind: str) -> float:
    """The Q or dQ/dt series (r = 1, p = 2) at x, t > 0."""
    ln_xi = math.log(params.a_delta * t * t) - params.delta * math.log(x)
    q, ln_front = (2, math.log(t / x)) if kind == "Q" else (1, -math.log(x))
    return _stable_series(params.delta, 1, 2, q, ln_xi, ln_front)


def wave_kernel_series(params: MediumParams, x: float, t: float) -> float:
    """Smooth part of Q(x, t), x != 0, by its entire power series.

    Q = -(1/pi) sum_{n>=1} (-1)^n t^(2n+1)/(2n+1)! a^n (n delta)!
        sin(pi n delta / 2) |x|^(-n delta - 1);
    odd in t, even in x.  The origin-concentrated parts are omitted
    (convolution with initial data is done spectrally, never by sampling
    the series at x = 0).
    """
    return _pointwise(_series, params, x, t, "Q")


def wave_kernel_dt_series(params: MediumParams, x: float, t: float) -> float:
    """Smooth part of dQ/dt(x, t), x != 0: same series with (2n)! weights."""
    return _pointwise(_series, params, x, t, "dQ")


# relative tolerance of the rotated-contour quad calls
_REL_TOL = 1e-9


def _rotated_fourier(params: MediumParams, x: float, t: float, kind: str) -> float:
    """(1/pi) int_0^inf cos(kx) s(k) dk with s = sin(wt)/w or cos(wt), x, t > 0.

    [0, k0] is integrated directly; beyond k0 the contour k = k0 + iu turns
    e^{ikx} into e^{-ux} while sin/cos grow only sub-exponentially
    (|Im w| ~ u^(delta/2), delta < 2), so the rotated integrand decays and
    is integrated in log-assembled form to avoid overflow.  It may peak far
    above the integral first: refused when ulp(1) peak / x exceeds ABS_TOL,
    or when the peak leaves float range.
    """
    delta = params.delta
    s_a = params.omega_scale
    k0 = max(2.0, 2.0 / x)

    def direct(k):
        w = s_a * k ** (delta / 2.0)
        if kind == "Q":
            s = t if abs(w * t) < 1e-8 else math.sin(w * t) / w
        else:
            s = math.cos(w * t)
        return math.cos(k * x) * s

    p1 = quad_checked(direct, 0.0, k0, abs_tol=ABS_TOL, rel_tol=_REL_TOL)

    # constants of the rotated integrand, on Python complex numbers
    phase = 1j * k0 * x
    half = 0.5 * delta
    ist = 1j * s_a * t
    ln_s = math.log(s_a)
    peak = 0.0

    def rotated(u):
        nonlocal peak
        lnz = cmath.log(k0 + 1j * u)
        iw = ist * cmath.exp(half * lnz)
        ux = u * x
        try:
            if kind == "Q":
                ln_denom = ln_s + half * lnz
                z = 0.5 * (cmath.exp(phase + iw - ux - ln_denom) - cmath.exp(phase - iw - ux - ln_denom))
            else:
                z = 0.5j * (cmath.exp(phase + iw - ux) + cmath.exp(phase - iw - ux))
        except OverflowError:
            # t large against x: the integrand passes float range before e^{-ux} wins
            raise QuadratureNoConvergence(f"rotated integrand leaves float range at u = {u:g}") from None
        v = z.real
        if v > peak or -v > peak:
            peak = abs(v)
        return v

    p2 = quad_checked(rotated, 0.0, np.inf, abs_tol=ABS_TOL, rel_tol=_REL_TOL)
    if (rounding := math.ulp(1.0) * peak / x) > ABS_TOL:
        raise QuadratureNoConvergence(f"rotated integrand peaks at {peak:g}: its rounding {rounding:g} "
                                      f"exceeds {ABS_TOL:g}")
    return (p1 + p2) / math.pi


def wave_kernel_fourier(params: MediumParams, x: float, t: float) -> float:
    """Q(x, t), x != 0, by certified quadrature of its Fourier integral.

    Independent of both the series and the FFT synthesis; this is the
    reference evaluation of the spectral representation.
    """
    return _pointwise(_rotated_fourier, params, x, t, "Q")


def wave_kernel_dt_fourier(params: MediumParams, x: float, t: float) -> float:
    """Smooth part of dQ/dt(x, t), x != 0, by the rotated-contour quadrature."""
    return _pointwise(_rotated_fourier, params, x, t, "dQ")


# ------------------------------------------------------------ Green's functions

def greens_retarded(params: MediumParams, x: float, t: float, eps: float = 0.0) -> float:
    """Causal space-time Green's function theta(t) e^{-eps t} Q(x, t).

    Zero for t <= 0 (Q vanishes at t = 0); the damping factor defaults to
    the undamped limit eps = 0.  Q is the series, else wave_kernel_fourier.
    """
    check_finite(x=x, t=t)
    _check_positive(error=EpsNonPositive, or_zero=True, eps=eps)
    if t <= 0.0:
        return 0.0
    try:
        return math.exp(-eps * t) * wave_kernel_series(params, x, t)
    except NumericError:
        return math.exp(-eps * t) * wave_kernel_fourier(params, x, t)


def helmholtz_symbol(params: MediumParams, k, omega: float, eps: float):
    """Resolvent amplitudes 1 / (omega^2(k) - (omega + i eps)^2), built in
    place in one array: complex, or real at omega = 0, where the shift is
    -eps^2.  A shift (omega + i eps)^2 or an amplitude 1/0 beyond float
    range raises NumericError, at omega = 0 as elsewhere."""
    check_finite(omega=omega)
    _check_not_nan(k=k)
    _check_positive(error=EpsNonPositive, eps=eps)
    with _float_range(f"(omega + i eps)^2 for omega = {omega:g}, eps = {eps:g}"):
        shift = (omega + 1j * eps) ** 2
        if omega == 0.0:
            out = np.asarray(dispersion(params, k))
            out -= shift.real
        else:
            out = np.asarray(dispersion(params, k) - shift)
        np.divide(1.0, out, out=out)
    return out[()]  # a scalar for a scalar k


def helmholtz_green(params: MediumParams, grid: Grid1D, omega: float, eps: float) -> ComplexField:
    """Frequency-domain Green's function on a centered grid.

    Inverse transform of helmholtz_symbol, synthesized with the same
    eps-ladder as the time-domain kernels.  At omega = 0 the symbol is the
    real 1/(omega^2(k) + eps^2) (one transform), and the kernel converges
    (eps -> 0+, after gauging the k = 0 mode) to the static Green's
    function.
    """
    return ComplexField(grid, _kernel_ladder(grid, helmholtz_symbol(params, grid.k_half, omega, eps)))
