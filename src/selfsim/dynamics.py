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
from .grids import ComplexField, Grid1D, RealField, sample_kernel
from .params import MediumParams, dispersion
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


def _omega(params: MediumParams, k: np.ndarray) -> np.ndarray:
    return np.sqrt(dispersion(params, k))


def _sin_over(w: np.ndarray, sw: np.ndarray, t: float) -> np.ndarray:
    """sin(w t)/w from w and sw = sin(w t), with its w = 0 limit t."""
    out = np.empty_like(w)
    nz = w > 0.0
    out[nz] = sw[nz] / w[nz]
    out[~nz] = t
    return out


def cauchy_evolve(params: MediumParams, state: CauchyState, t: float) -> CauchyState:
    """Propagate (u, v) by time t: exact spectral rotation, reversible.

    Mode k advances by (cos wt, sin wt / w; -w sin wt, cos wt); the k = 0
    mode uses the analytic limit u + t v.  Energy is conserved to rounding
    and evolving by t then -t returns the input state.  The result holds
    the rotated spectra: evolving it again, or taking its energy, needs no
    transform.
    """
    g = state._grid
    uh = state._u_spectrum()
    vh = state._v_spectrum()
    w = _omega(params, g.k_half)
    cw = np.cos(w * t)
    sw = np.sin(w * t)
    uh2 = cw * uh
    uh2 += _sin_over(w, sw, t) * vh
    vh2 = -w * sw * uh
    vh2 += cw * vh
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
    uh = state._u_spectrum()
    power = uh.real**2
    power += uh.imag**2
    power *= dispersion(params, g.k_half)
    if state._vh is None:
        kinetic = np.sum(state._v.values**2)
    else:
        kinetic = 0.0
        power += state._vh.real**2
        power += state._vh.imag**2
    power[1:(g.n + 1) // 2] *= 2.0
    return float(0.5 * g.dx * (kinetic + np.sum(power) / g.n))


# --------------------------------------------------------------- FFT kernels

@functools.lru_cache(maxsize=1)
def _ladder_damping(grid: Grid1D) -> np.ndarray:
    """sum_j c_j exp(-eps_j k) on k = grid.k_half, read-only.

    It depends on the grid alone, so repeated syntheses on one grid reuse
    it; the cache holds one grid (4 MB at 2^20 points).
    """
    k = grid.k_half
    eps_min = 20.0 / (math.pi / grid.dx)
    eps_list = [eps_min * 2.0**j for j in range(4, -1, -1)]
    damping = np.zeros_like(k)
    for e_j in eps_list:
        c_j = math.prod(e_m / (e_m - e_j) for e_m in eps_list if e_m != e_j)
        damping += c_j * np.exp(-e_j * k)
    damping.flags.writeable = False
    return damping


def _kernel_ladder(grid: Grid1D, symbol) -> np.ndarray:
    """Kernel of a slowly decaying even symbol(k), regularized and taken to eps -> 0+.

    The damped symbols S(k) e^{-eps_j k} on a geometric eps-ladder are
    combined with the Lagrange weights c_j of polynomial extrapolation to
    eps = 0 before a single synthesis: since synthesis is linear, this is
    the pointwise Neville extrapolation of the damped kernels, done once on
    the symbol.  The smallest eps still suppresses the Nyquist symbol:
    eps_min * k_max = 20.  The weighted damping is computed once per grid.
    """
    damping = _ladder_damping(grid)
    spec = symbol(grid.k_half)
    spec *= damping
    return sample_kernel(grid, spec)


def wave_kernel_spectral(params: MediumParams, grid: Grid1D, t: float) -> RealField:
    """Velocity kernel Q(., t) sampled on a centered grid.

    FFT synthesis of sin(omega t)/omega with the eps-ladder Richardson
    weights applied to the symbol.  Periodic images decay like
    |x|^(-1-delta) of the grid length; near the origin the error does not
    fall with dx (see the module docstring).
    """

    def sym(k):
        w = _omega(params, k)
        return _sin_over(w, np.sin(w * t), t)

    return RealField(grid, _kernel_ladder(grid, sym))


def wave_kernel_dt_spectral(params: MediumParams, grid: Grid1D, t: float) -> RealField:
    """Displacement kernel dQ/dt(., t); at t = 0 its discrete mass is exactly 1.

    The origin sample carries the mollified point mass (width ~ ladder
    floor); off-origin samples extrapolate to the smooth part.
    """
    return RealField(grid, _kernel_ladder(grid, lambda k: np.cos(_omega(params, k) * t)))


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
    if omega != 0.0:
        return ComplexField(grid, _kernel_ladder(grid, lambda k: helmholtz_symbol(params, k, omega, eps)))
    _check_damping(eps)
    return ComplexField(grid, _kernel_ladder(grid, lambda k: 1.0 / (dispersion(params, k) + eps * eps)))
