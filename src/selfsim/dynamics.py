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
  contour, used as the high-accuracy cross-check.

The causal Green's function is theta(t) e^{-eps t} Q; its frequency-domain
counterpart inverts omega^2(k) - (omega + i eps)^2.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import EpsNonPositive, OriginSingular, ValidationError, check_finite
from .grids import ComplexField, Grid1D, RealField, _beside, _by_halves, _sample_symbol, sample_kernel
from .params import MediumParams, _dispersion_into, dispersion
from .quadrature import ABS_TOL, _stable_log_terms, _stable_series, quad_checked

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
    "wave_series_terms",
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


def _omega_into(a_delta: float, delta: float, k: np.ndarray, out: np.ndarray) -> None:
    """out = omega(k) = sqrt(omega^2(k)), with numpy only."""
    _dispersion_into(a_delta, delta, k, out)
    np.sqrt(out, out=out)


def _sin_over(w: np.ndarray, sw: np.ndarray, t: float, out: np.ndarray, nz: np.ndarray) -> np.ndarray:
    """sin(w t)/w into out from w and sw = sin(w t), with its w = 0 limit t;
    out may be sw, and the boolean nz is overwritten."""
    np.greater(w, 0.0, out=nz)
    np.divide(sw, w, out=out, where=nz)
    np.logical_not(nz, out=nz)
    np.copyto(out, t, where=nz)
    return out


def _rotate(t: float, w, cw, sw, uh, vh, uh2, vh2, ratio, product, nz) -> None:
    """cauchy_evolve's rotation of (uh, vh) into (uh2, vh2), elementwise;
    w and the work arrays ratio, product and nz are overwritten."""
    np.multiply(cw, uh, out=uh2)
    np.multiply(_sin_over(w, sw, t, ratio, nz), vh, out=product)
    uh2 += product
    np.negative(w, out=w)
    w *= sw
    np.multiply(w, uh, out=vh2)
    np.multiply(cw, vh, out=product)
    vh2 += product


def cauchy_evolve(params: MediumParams, state: CauchyState, t: float) -> CauchyState:
    """Propagate (u, v) by time t: exact spectral rotation, reversible.

    Mode k advances by (cos wt, sin wt / w; -w sin wt, cos wt); the k = 0
    mode uses the analytic limit u + t v.  Energy is conserved to rounding
    and evolving by t then -t returns the input state.  The result holds
    the rotated spectra: evolving it again, or taking its energy, needs no
    transform.  The frequencies and their cos and sin are computed beside
    the spectra of u and v, and the rotation by halves (grids._beside).
    """
    check_finite(t=t)
    g = state._grid
    k = g.k_half
    w, cw, sw = np.empty_like(k), np.empty_like(k), np.empty_like(k)
    a, delta = params.a_delta, params.delta

    def frequencies():
        _omega_into(a, delta, k, w)
        np.multiply(w, t, out=cw)
        np.sin(cw, out=sw)
        np.cos(cw, out=cw)

    uh, vh = _beside(frequencies, lambda: (state._u_spectrum(), state._v_spectrum()), k.size)
    del k
    uh2, vh2, product = np.empty_like(uh), np.empty_like(vh), np.empty_like(uh)
    _by_halves(functools.partial(_rotate, t), w, cw, sw, uh, vh, uh2, vh2,
               np.empty_like(w), product, np.empty(w.shape, dtype=bool))
    return CauchyState._from_spectra(g, uh2, vh2)


def energy(params: MediumParams, state: CauchyState) -> float:
    """Conserved energy (1/2) int (v^2 + u * (-Lap) u) dx.

    The potential part comes from the spectrum of u by Parseval:
    sum_j u_j (-Lap u)_j = (1/n) sum_k w_k omega^2(k) |u_k|^2, where w_k = 2
    counts each conjugate pair and w_k = 1 at k = 0 and, for even n, at the
    Nyquist index.  The kinetic part is taken from v in the form the state
    holds: the x-space sum of v^2 for a state built from fields, and
    (1/n) sum_k w_k |v_k|^2, in the same sum, for one that holds spectra.
    Neither needs a transform beyond the kept spectrum of u.  omega^2 is
    computed beside that transform, and the power terms by halves
    (grids._beside); every sum is taken whole.
    """
    g = state._grid
    k = g.k_half
    omega2 = np.empty_like(k)
    a, delta = params.a_delta, params.delta
    uh = _beside(lambda: _dispersion_into(a, delta, k, omega2), state._u_spectrum, k.size)
    del k
    power, work = np.empty_like(omega2), np.empty_like(omega2)
    if state._vh is None:
        kinetic = np.sum(state._v.values**2)
        _by_halves(_spectral_power, uh, omega2, power, work)
    else:
        kinetic = 0.0
        _by_halves(_spectral_power, uh, omega2, power, work, state._vh)
    power[1:(g.n + 1) // 2] *= 2.0
    return float(0.5 * g.dx * (kinetic + np.sum(power) / g.n))


def _spectral_power(uh, omega2, power, work, vh=None) -> None:
    """power = omega^2 |u_k|^2, plus |v_k|^2 where vh is given, elementwise;
    work is overwritten."""
    np.square(uh.real, out=power)
    power += np.square(uh.imag, out=work)
    power *= omega2
    if vh is not None:
        power += np.square(vh.real, out=work)
        power += np.square(vh.imag, out=work)


# --------------------------------------------------------------- FFT kernels

@functools.lru_cache(maxsize=1)
def _ladder_damping(grid: Grid1D) -> np.ndarray:
    """sum_j c_j exp(-eps_j k) on k = grid.k_half, read-only.

    It depends on the grid alone, so repeated syntheses on one grid reuse
    it; the cache holds one grid (4 MB at 2^20 points).
    """
    eps_min = 20.0 / (math.pi / grid.dx)
    eps_list = [eps_min * 2.0**j for j in range(4, -1, -1)]
    weights = [(e_j, math.prod(e_m / (e_m - e_j) for e_m in eps_list if e_m != e_j)) for e_j in eps_list]

    def ladder(k, out, work):
        out.fill(0.0)
        for e_j, c_j in weights:
            np.multiply(k, -e_j, out=work)
            np.exp(work, out=work)
            work *= c_j
            out += work

    damping = _sample_symbol(ladder, grid.k_half, scratch=(float,))
    damping.flags.writeable = False
    return damping


def _kernel_ladder(grid: Grid1D, symbol, dtype=float, scratch=()) -> np.ndarray:
    """Kernel of a slowly decaying even symbol, regularized and taken to eps -> 0+.

    The damped symbols S(k) e^{-eps_j k} on a geometric eps-ladder are
    combined with the Lagrange weights c_j of polynomial extrapolation to
    eps = 0 before a single synthesis: since synthesis is linear, this is
    the pointwise Neville extrapolation of the damped kernels, done once on
    the symbol.  The smallest eps still suppresses the Nyquist symbol:
    eps_min * k_max = 20.  The weighted damping is computed once per grid.
    symbol(k, out, *work) writes S(k) into out, of ``dtype``, with numpy
    only, and may overwrite work arrays of the dtypes ``scratch`` names; the
    damped symbol is evaluated by halves (grids._sample_symbol).
    """

    def damped(k, damping, out, *work):
        symbol(k, out, *work)
        out *= damping

    return sample_kernel(grid, _sample_symbol(damped, grid.k_half, _ladder_damping(grid),
                                              dtype=dtype, scratch=scratch))


def wave_kernel_spectral(params: MediumParams, grid: Grid1D, t: float) -> RealField:
    """Velocity kernel Q(., t) sampled on a centered grid.

    FFT synthesis of sin(omega t)/omega with the eps-ladder Richardson
    weights applied to the symbol.  Periodic images decay like
    |x|^(-1-delta) of the grid length; near the origin the error does not
    fall with dx (see the module docstring).
    """
    check_finite(t=t)
    a, delta = params.a_delta, params.delta

    def symbol(k, out, w, nz):
        _omega_into(a, delta, k, w)
        np.multiply(w, t, out=out)
        np.sin(out, out=out)
        _sin_over(w, out, t, out, nz)

    return RealField(grid, _kernel_ladder(grid, symbol, scratch=(float, bool)))


def wave_kernel_dt_spectral(params: MediumParams, grid: Grid1D, t: float) -> RealField:
    """Displacement kernel dQ/dt(., t); at t = 0 its discrete mass is exactly 1.

    The origin sample carries the mollified point mass (width ~ ladder
    floor); off-origin samples extrapolate to the smooth part.
    """
    check_finite(t=t)
    a, delta = params.a_delta, params.delta

    def symbol(k, out):
        _omega_into(a, delta, k, out)
        out *= t
        np.cos(out, out=out)

    return RealField(grid, _kernel_ladder(grid, symbol))


# ------------------------------------------------------------ series kernels

def _kernel_series_args(params: MediumParams, x: float, t: float, kind: str):
    """(q, ln xi, ln front) of the Q or dQ/dt series (r = 1, p = 2)."""
    ln_xi = math.log(params.a_delta * t * t) - params.delta * math.log(abs(x))
    if kind == "Q":
        return 2, ln_xi, math.log(abs(t) / abs(x))
    return 1, ln_xi, -math.log(abs(x))


def wave_kernel_series(params: MediumParams, x: float, t: float) -> float:
    """Smooth part of Q(x, t), x != 0, by its entire power series.

    Q = -(1/pi) sum_{n>=1} (-1)^n t^(2n+1)/(2n+1)! a^n (n delta)!
        sin(pi n delta / 2) |x|^(-n delta - 1);
    odd in t, even in x.  The origin-concentrated parts are omitted
    (convolution with initial data is done spectrally, never by sampling
    the series at x = 0).
    """
    check_finite(x=x, t=t)
    if x == 0.0:
        raise OriginSingular("series kernel is defined for x != 0")
    if t == 0.0:
        return 0.0
    val = _stable_series(params.delta, 1, 2, *_kernel_series_args(params, x, t, "Q"))
    return val if t > 0 else -val


def wave_kernel_dt_series(params: MediumParams, x: float, t: float) -> float:
    """Smooth part of dQ/dt(x, t), x != 0: same series with (2n)! weights."""
    check_finite(x=x, t=t)
    if x == 0.0:
        raise OriginSingular("series kernel is defined for x != 0")
    if t == 0.0:
        return 0.0
    return _stable_series(params.delta, 1, 2, *_kernel_series_args(params, x, t, "dQ"))


def wave_series_terms(params: MediumParams, x: float, t: float,
                      kind: str = "Q", count: int = 30,
                      include_angular: bool = True) -> np.ndarray:
    """|term_n| magnitudes of the kernel series, for convergence diagnostics.

    The coefficient ratios decay like (2n)^-(2-delta), so the magnitudes
    fall super-exponentially once past the hump.  include_angular=False
    drops the |sin(n pi delta / 2)| factor (which vanishes periodically for
    rational delta), leaving the pure coefficient magnitudes whose ratios
    carry the decay law.
    """
    if kind not in ("Q", "dQ"):
        raise ValidationError("kind must be 'Q' or 'dQ'")
    q, ln_xi, ln_front = _kernel_series_args(params, x, t, kind)
    n = np.arange(1, count + 1, dtype=float)
    mags = np.exp(_stable_log_terms(params.delta, n, 1, 2, q, ln_xi, ln_front))
    if include_angular:
        mags = mags * np.abs(np.sin(n * math.pi * params.delta / 2.0))
    return mags


# -------------------------------------------------- certified quadrature

# relative tolerance of the rotated-contour quad calls
_REL_TOL = 1e-9


def _rotated_fourier(params: MediumParams, x: float, t: float, kind: str) -> float:
    """(1/pi) int_0^inf cos(kx) s(k) dk with s = sin(wt)/w or cos(wt).

    [0, k0] is integrated directly; beyond k0 the contour k = k0 + iu turns
    e^{ikx} into e^{-ux} while sin/cos grow only sub-exponentially
    (|Im w| ~ u^(delta/2), delta < 2), so the rotated integrand decays and
    is integrated in log-assembled form to avoid overflow.
    """
    x = abs(x)
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

    def rotated(u, exp=cmath.exp, log=cmath.log):
        try:
            lnz = log(k0 + 1j * u)
            iw = ist * exp(half * lnz)
            ux = u * x
            if kind == "Q":
                ln_denom = ln_s + half * lnz
                return (0.5 * (exp(phase + iw - ux - ln_denom) - exp(phase - iw - ux - ln_denom))).real
            return (0.5j * (exp(phase + iw - ux) + exp(phase - iw - ux))).real
        except OverflowError:
            # for t large against |x| the integrand peaks beyond float range
            # before e^{-ux} wins.  cmath raises there; numpy's exp gives the
            # inf or nan that makes quad_checked refuse
            with np.errstate(all="ignore"):
                return float(rotated(u, np.exp, np.log))

    p2 = quad_checked(rotated, 0.0, np.inf, abs_tol=ABS_TOL, rel_tol=_REL_TOL)
    return (p1 + p2) / math.pi


def wave_kernel_fourier(params: MediumParams, x: float, t: float) -> float:
    """Q(x, t), x != 0, by certified quadrature of its Fourier integral.

    Independent of both the series and the FFT synthesis; this is the
    reference evaluation of the spectral representation.
    """
    check_finite(x=x, t=t)
    if x == 0.0:
        raise OriginSingular("pointwise Fourier evaluation requires x != 0")
    if t == 0.0:
        return 0.0
    val = _rotated_fourier(params, x, abs(t), "Q")
    return val if t > 0 else -val


def wave_kernel_dt_fourier(params: MediumParams, x: float, t: float) -> float:
    """Smooth part of dQ/dt(x, t), x != 0, by the rotated-contour quadrature."""
    check_finite(x=x, t=t)
    if x == 0.0:
        raise OriginSingular("pointwise Fourier evaluation requires x != 0")
    return _rotated_fourier(params, x, abs(t), "dQ")


# ------------------------------------------------------------ Green's functions

def greens_retarded(params: MediumParams, x: float, t: float, eps: float = 0.0) -> float:
    """Causal space-time Green's function theta(t) e^{-eps t} Q(x, t).

    Zero for t <= 0 (Q vanishes at t = 0); the damping factor defaults to
    the undamped limit eps = 0.
    """
    check_finite(x=x, t=t)
    if eps < 0.0 or not math.isfinite(eps):
        raise EpsNonPositive(f"damping must be finite and >= 0, got {eps}")
    if t <= 0.0:
        return 0.0
    return math.exp(-eps * t) * wave_kernel_series(params, x, t)


def helmholtz_symbol(params: MediumParams, k, omega: float, eps: float):
    """Resolvent amplitudes 1 / (omega^2(k) - (omega + i eps)^2)."""
    check_finite(omega=omega)
    _check_damping(eps)
    return 1.0 / (dispersion(params, k) - (omega + 1j * eps) ** 2)


def _check_damping(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise EpsNonPositive(f"helmholtz damping must be finite and > 0, got {eps}")


def helmholtz_green(params: MediumParams, grid: Grid1D, omega: float, eps: float) -> ComplexField:
    """Frequency-domain Green's function on a centered grid.

    Inverse transform of the resolvent symbol, synthesized with the same
    eps-ladder as the time-domain kernels.  At omega = 0 the symbol is the
    real 1/(omega^2(k) + eps^2), built in float (one transform), and the
    kernel converges (eps -> 0+, after gauging the k = 0 mode) to the
    static Green's function.
    """
    check_finite(omega=omega)
    _check_damping(eps)
    a, delta = params.a_delta, params.delta
    if omega != 0.0:
        shift = (omega + 1j * eps) ** 2

        def resolvent(k, out):
            # helmholtz_symbol's 1 / (omega^2(k) - shift), in place
            _dispersion_into(a, delta, k, out.real)
            out.imag = 0.0
            out -= shift
            np.divide(1.0, out, out=out)

        return ComplexField(grid, _kernel_ladder(grid, resolvent, complex))
    shift = eps * eps

    def static(k, out):
        _dispersion_into(a, delta, k, out)
        out += shift
        np.divide(1.0, out, out=out)

    return ComplexField(grid, _kernel_ladder(grid, static))
