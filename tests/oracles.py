"""Independent oracle evaluations used to freeze expected test values.

The pointwise oracles go straight through scipy.integrate.quad on the
defining integrals (with damped sweeps extrapolated to 0+ where the raw
integral only exists as a limit), deliberately bypassing the library's
closed forms and engines so the two routes stay independent.  The grid
oracle extrapolates sampled kernels in x space, the route the library's
symbol-side eps-ladder replaces.  The Gaussian's Laplacian is a closed
form that no library route uses.  The reference synthesis and Cauchy
rotation are the straightforward forms of the library's kernel synthesis
(a (-1)^j sign array, one transform per symbol part, a fresh damping per
call) that its leaner versions must match bit for bit.
"""

import math
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, hyp1f1


def _neville0(xs, ys):
    tab = [float(y) for y in ys]
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            x0, x1 = xs[i], xs[i + level]
            tab[i] = (x1 * tab[i] - x0 * tab[i + 1]) / (x1 - x0)
    return tab[0]


def _quiet_quad(fn, a, b, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(fn, a, b, **kw)
    return val


def riesz_kernel_sweep(alpha: float, x: float) -> float:
    """(1/pi) lim_{eps->0+} int_0^inf e^{-eps k} k^alpha cos(kx) dk."""
    eps_list = [0.4 * 0.7**j for j in range(8)]
    vals = []
    for e in eps_list:
        p1 = _quiet_quad(lambda k: math.exp(-e * k) * k**alpha * math.cos(k * x),
                         0.0, 1.0, epsabs=1e-13, limit=200)
        p2 = _quiet_quad(lambda k: math.exp(-e * k) * k**alpha, 1.0, np.inf,
                         weight="cos", wvar=x, epsabs=1e-13, limit=300)
        vals.append((p1 + p2) / math.pi)
    return _neville0(eps_list, vals)


def frac_kernel_sweep(alpha: float, x: float) -> float:
    """(1/pi) lim int_0^inf e^{-eps k} k^alpha cos(kx + pi alpha / 2) dk."""
    shift = math.pi * alpha / 2.0
    eps_list = [0.4 * 0.7**j for j in range(8)]
    vals = []
    for e in eps_list:
        p1 = _quiet_quad(lambda k: math.exp(-e * k) * k**alpha * math.cos(k * x + shift),
                         0.0, 1.0, epsabs=1e-13, limit=200)
        pc = _quiet_quad(lambda k: math.exp(-e * k) * k**alpha, 1.0, np.inf,
                         weight="cos", wvar=x, epsabs=1e-13, limit=300)
        ps = _quiet_quad(lambda k: math.exp(-e * k) * k**alpha, 1.0, np.inf,
                         weight="sin", wvar=x, epsabs=1e-13, limit=300)
        vals.append((p1 + math.cos(shift) * pc - math.sin(shift) * ps) / math.pi)
    return _neville0(eps_list, vals)


def greens_fourier(delta: float, x: float, a_delta: float) -> float:
    """(1/(pi a_delta)) int_0^inf k^-delta cos(kx) dk, delta < 1."""
    p1 = _quiet_quad(lambda k: k ** (-delta) * math.cos(k * x), 0.0, 1.0,
                     epsabs=1e-13, limit=300)
    p2 = _quiet_quad(lambda k: k ** (-delta), 1.0, np.inf,
                     weight="cos", wvar=x, epsabs=1e-13, limit=300)
    return (p1 + p2) / (math.pi * a_delta)


def propagator_direct(delta: float, x: float, t: float, a_delta: float) -> float:
    """(1/pi) int_0^inf e^{-a k^delta t} cos(kx) dk by plain adaptive quad."""
    k_hi = (40.0 / (a_delta * t)) ** (1.0 / delta)
    return _quiet_quad(
        lambda k: math.exp(-a_delta * k**delta * t) * math.cos(k * x),
        0.0, k_hi, epsabs=1e-13, limit=int(20 * k_hi * abs(x) / math.pi) + 200,
    ) / math.pi


def gaussian_laplacian(delta: float, x, a_delta: float):
    """Nonlocal Laplacian of exp(-x^2), h = zeta = 1:
    -a 2^delta Gamma((1+delta)/2)/sqrt(pi) 1F1((1+delta)/2; 1/2; -x^2)."""
    scale = a_delta * 2.0**delta * gamma((1.0 + delta) / 2.0) / math.sqrt(math.pi)
    return -scale * hyp1f1((1.0 + delta) / 2.0, 0.5, -np.square(x))


def lorentzian_cdf(x, scale: float):
    """Exact CDF of the scale-s Lorentzian: 1/2 + arctan(x/s)/pi."""
    return 0.5 + np.arctan(np.asarray(x) / scale) / np.pi


def _ladder_eps(grid):
    """The library's eps-ladder: floor 20/k_max, ratio 2, largest first."""
    eps_min = 20.0 / (math.pi / grid.dx)
    return [eps_min * 2.0**j for j in range(4, -1, -1)]


def kernel_ladder_xspace(grid, symbol_half):
    """eps -> 0+ kernel of an even symbol, extrapolated in x space.

    One synthesis per damped symbol S(k) e^{-eps k} on the library's
    eps-ladder (floor 20/k_max, ratio 2), then pointwise Neville to eps = 0;
    real and imaginary parts are extrapolated separately.
    """
    from selfsim.grids import sample_kernel
    from selfsim.quadrature import neville_at_zero

    eps_list = _ladder_eps(grid)
    fields = [sample_kernel(grid, symbol_half * np.exp(-e * grid.k_half)) for e in eps_list]
    out = neville_at_zero(eps_list, [f.real for f in fields])
    if np.iscomplexobj(symbol_half):
        out = out + 1j * neville_at_zero(eps_list, [f.imag for f in fields])
    return out


def sample_kernel_reference(grid, symbol_half):
    """sample_kernel by a (-1)^j sign array, two transforms for every complex
    symbol, and division by dx into a new array."""
    signs = np.where(np.arange(symbol_half.size) % 2 == 0, 1.0, -1.0)
    if np.iscomplexobj(symbol_half):
        re = np.fft.irfft(symbol_half.real * signs, n=grid.n) / grid.dx
        im = np.fft.irfft(symbol_half.imag * signs, n=grid.n) / grid.dx
        return re + 1j * im
    return np.fft.irfft(symbol_half * signs, n=grid.n) / grid.dx


def kernel_ladder_reference(grid, symbol):
    """The library's eps-ladder synthesis with the damping built afresh."""
    eps_list = _ladder_eps(grid)
    k = grid.k_half
    damping = np.zeros_like(k)
    for e_j in eps_list:
        c_j = math.prod(e_m / (e_m - e_j) for e_m in eps_list if e_m != e_j)
        damping += c_j * np.exp(-e_j * k)
    return sample_kernel_reference(grid, symbol(k) * damping)


def wave_symbol_reference(params, k, t, kind):
    """sin(omega t)/omega ("Q", limit t at k = 0) or cos(omega t) ("dQ")."""
    from selfsim import dispersion

    w = np.sqrt(dispersion(params, k))
    if kind == "dQ":
        return np.cos(w * t)
    out = np.empty_like(k)
    nz = w > 0.0
    out[nz] = np.sin(w[nz] * t) / w[nz]
    out[~nz] = t
    return out


def cauchy_evolve_reference(params, u, v, grid, t):
    """(u, v) rotated by time t, each spectrum in one expression."""
    from selfsim import dispersion

    w = np.sqrt(dispersion(params, grid.k_half))
    uh = np.fft.rfft(u)
    vh = np.fft.rfft(v)
    cw = np.cos(w * t)
    sw = np.sin(w * t)
    sw_over = np.empty_like(w)
    nz = w > 0.0
    sw_over[nz] = sw[nz] / w[nz]
    sw_over[~nz] = t
    uh2 = cw * uh + sw_over * vh
    vh2 = -w * sw * uh + cw * vh
    return np.fft.irfft(uh2, n=grid.n), np.fft.irfft(vh2, n=grid.n)
