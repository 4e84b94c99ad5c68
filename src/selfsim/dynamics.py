"""Wave dynamics: Cauchy evolution, convolution kernels, causal and
frequency-domain Green's functions, and the conserved energy.

The equation of motion d^2 u / dt^2 = Lap u diagonalizes in Fourier space,
so the evolution of (u, v) is an exact mode-by-mode rotation with
frequency omega(k) = sqrt(a_delta) |k|^(delta/2).  The solution kernels

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
  decay too slowly for a raw truncated transform to be trustworthy); the
  weighted damping depends on the grid alone and is kept, read-only, for
  the last grid used (one entry, 4 MB at 2^20 points),
* a certified pointwise quadrature of the Fourier integral along a rotated
  contour, used as the high-accuracy cross-check.

The causal Green's function is theta(t) e^{-eps t} Q; its frequency-domain
counterpart inverts omega^2(k) - (omega + i eps)^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EpsNonPositive, OriginSingular
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


@dataclass(frozen=True)
class CauchyState:
    """Displacement and velocity fields on a shared grid at time t."""

    u: RealField
    v: RealField
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must share one grid")


def _omega(params: MediumParams, k: np.ndarray) -> np.ndarray:
    return np.sqrt(dispersion(params, k))


def cauchy_evolve(params: MediumParams, state: CauchyState, t: float) -> CauchyState:
    """Propagate (u, v) by time t: exact spectral rotation, reversible.

    Mode k advances by (cos wt, sin wt / w; -w sin wt, cos wt); the k = 0
    mode uses the analytic limit u + t v.  Energy is conserved to rounding
    and evolving by t then -t returns the input state.
    """
    g = state.u.grid
    w = _omega(params, g.k_half)
    uh = np.fft.rfft(state.u.values)
    vh = np.fft.rfft(state.v.values)
    cw = np.cos(w * t)
    sw = np.sin(w * t)
    sw_over = np.empty_like(w)
    nz = w > 0.0
    sw_over[nz] = sw[nz] / w[nz]
    sw_over[~nz] = t
    # the rotated spectra are built in place, and the rotation and the input
    # spectra are released before the inverse transforms, which set the peak
    uh2 = cw * uh
    uh2 += sw_over * vh
    vh2 = -w * sw * uh
    vh2 += cw * vh
    del w, cw, sw, sw_over, uh, vh
    u = np.fft.irfft(uh2, n=g.n)
    del uh2
    return CauchyState(
        u=RealField(g, u),
        v=RealField(g, np.fft.irfft(vh2, n=g.n)),
        t=state.t + t,
    )


def energy(params: MediumParams, state: CauchyState) -> float:
    """Conserved energy (1/2) int (v^2 + u * (-Lap) u) dx.

    The potential part comes from one rfft of u by Parseval:
    sum_j u_j (-Lap u)_j = (1/n) sum_k w_k omega^2(k) |u_k|^2, where w_k = 2
    counts each conjugate pair and w_k = 1 at k = 0 and, for even n, at the
    Nyquist index.
    """
    g = state.u.grid
    v = state.v.values
    uh = np.fft.rfft(state.u.values)
    power = uh.real**2
    power += uh.imag**2
    del uh
    power *= dispersion(params, g.k_half)
    power[1:(g.n + 1) // 2] *= 2.0
    return float(0.5 * g.dx * (np.sum(v**2) + np.sum(power) / g.n))


# --------------------------------------------------------------- FFT kernels

# (n, dx) -> sum_j c_j exp(-eps_j k) on grid.k_half, read-only; one grid at a time
_ladder_cache: dict = {}


def _ladder_damping(grid: Grid1D, k: np.ndarray) -> np.ndarray:
    """Richardson-weighted damping of the eps-ladder on k = grid.k_half, cached.

    It depends on (n, dx) alone, so repeated syntheses on one grid reuse it;
    the cache holds one entry (4 MB at 2^20 points) and is replaced when
    the grid changes.
    """
    key = (grid.n, grid.dx)
    damping = _ladder_cache.get(key)
    if damping is None:
        eps_min = 20.0 / (math.pi / grid.dx)
        eps_list = [eps_min * 2.0**j for j in range(4, -1, -1)]
        damping = np.zeros_like(k)
        for e_j in eps_list:
            c_j = math.prod(e_m / (e_m - e_j) for e_m in eps_list if e_m != e_j)
            damping += c_j * np.exp(-e_j * k)
        damping.flags.writeable = False
        _ladder_cache.clear()
        _ladder_cache[key] = damping
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
    k = grid.k_half
    spec = symbol(k)
    spec *= _ladder_damping(grid, k)
    return sample_kernel(grid, spec)


def wave_kernel_spectral(params: MediumParams, grid: Grid1D, t: float) -> RealField:
    """Velocity kernel Q(., t) sampled on a centered grid.

    FFT synthesis of sin(omega t)/omega with the eps-ladder Richardson
    weights applied to the symbol.  Accuracy is set by the grid: the
    ladder floor scales with the Nyquist wavenumber and periodic images
    decay like |x|^(-1-delta) of the grid length.
    """

    def sym(k):
        w = _omega(params, k)
        out = np.empty_like(k)
        nz = w > 0.0
        out[nz] = np.sin(w[nz] * t) / w[nz]
        out[~nz] = t
        return out

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
    if x == 0.0:
        raise OriginSingular("series kernel is defined for x != 0")
    if t == 0.0:
        return 0.0
    val = _stable_series(params.delta, 1, 2, *_kernel_series_args(params, x, t, "Q"))
    return val if t > 0 else -val


def wave_kernel_dt_series(params: MediumParams, x: float, t: float) -> float:
    """Smooth part of dQ/dt(x, t), x != 0: same series with (2n)! weights."""
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
        raise ValueError("kind must be 'Q' or 'dQ'")
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
    if x == 0.0:
        raise OriginSingular("pointwise Fourier evaluation requires x != 0")
    if t == 0.0:
        return 0.0
    val = _rotated_fourier(params, x, abs(t), "Q")
    return val if t > 0 else -val


def wave_kernel_dt_fourier(params: MediumParams, x: float, t: float) -> float:
    """Smooth part of dQ/dt(x, t), x != 0, by the rotated-contour quadrature."""
    if x == 0.0:
        raise OriginSingular("pointwise Fourier evaluation requires x != 0")
    return _rotated_fourier(params, x, abs(t), "dQ")


# ------------------------------------------------------------ Green's functions

def greens_retarded(params: MediumParams, x: float, t: float, eps: float = 0.0) -> float:
    """Causal space-time Green's function theta(t) e^{-eps t} Q(x, t).

    Zero for t <= 0 (Q vanishes at t = 0); the damping factor defaults to
    the undamped limit eps = 0.
    """
    if eps < 0.0 or not math.isfinite(eps):
        raise EpsNonPositive(f"damping must be finite and >= 0, got {eps}")
    if t <= 0.0:
        return 0.0
    return math.exp(-eps * t) * wave_kernel_series(params, x, t)


def helmholtz_symbol(params: MediumParams, k, omega: float, eps: float):
    """Resolvent amplitudes 1 / (omega^2(k) - (omega + i eps)^2)."""
    if not 0.0 < eps < math.inf:
        raise EpsNonPositive(f"helmholtz damping must be finite and > 0, got {eps}")
    return 1.0 / (dispersion(params, k) - (omega + 1j * eps) ** 2)


def helmholtz_green(params: MediumParams, grid: Grid1D, omega: float, eps: float) -> ComplexField:
    """Frequency-domain Green's function on a centered grid.

    Inverse transform of the resolvent symbol, synthesized with the same
    eps-ladder as the time-domain kernels.  At omega = 0 the symbol is real
    (one transform) and the kernel converges (eps -> 0+, after gauging the
    k = 0 mode) to the static Green's function.
    """

    def symbol(k):
        resolvent = helmholtz_symbol(params, k, omega, eps)
        return resolvent.real if omega == 0.0 else resolvent

    return ComplexField(grid, _kernel_ladder(grid, symbol))
