"""Independent oracle evaluations used to freeze expected test values.

The pointwise oracles go straight through scipy.integrate.quad on the
defining integrals (with damped sweeps extrapolated to 0+ where the raw
integral only exists as a limit), deliberately bypassing the library's
closed forms and engines so the two routes stay independent.  The grid
oracle extrapolates sampled kernels in x space, the route the library's
symbol-side eps-ladder replaces.  The Gaussian's Laplacian is a closed
form that no library route uses.  The reference synthesis and Cauchy
rotation are the straightforward forms of the library's kernel synthesis
(a (-1)^j sign array, one n-point transform per symbol part, a fresh
damping per call) that its leaner versions must match bit for bit; where
sample_kernel splits its cosine transform, to 2e-15 of the peak.  So are
the diffusion diagnostics by a mask over the whole grid and scipy's trapezoid
rules, against the library's windowed versions, and so are the pointwise
quadratures as they were written first: the propagator as a complex
integral (both parts integrated, the real part kept), the rotated wave
kernel integrand on numpy complex scalars, the windowed tail with
per-node weights and boolean masks, each behind a quad whose warnings a
filter silences, and the operators' inner region as one checked QAGP call
on its geometric segments.  At delta = 1 the wave kernels have closed forms in
Faddeeva's function, which no library route uses, and the stable CDF is
scipy's levy_stable, or its Fourier inversion by quad, whose oscillating
part takes quad's sin weight (QUADPACK's QAWO and QAWF).  The flux's
reference is its correlation as first written, a linear convolution
zero-padded to 3n points.
"""

import cmath
import math
import warnings

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad, trapezoid
from scipy.special import erfc, gamma, hyp1f1, wofz


def _neville0(xs, ys):
    """Neville's tableau of ys(xs) at 0; ys entries may be arrays."""
    tab = [np.asarray(y, dtype=float) for y in ys]
    n = len(tab)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            tab[i] = (x1 * tab[i] - x0 * tab[i + 1]) / (x1 - x0)
    out = tab[0]
    return float(out) if out.ndim == 0 else out


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


def wave_kernels_delta_one(params, x: float, t: float) -> tuple[float, float]:
    """Q and dQ/dt at delta = 1, x != 0, t >= 0, in closed form.

    With c = omega_scale, alpha = c e^(i pi/4) / (2 sqrt|x|), z = alpha t
    and Dawson's function F(z) = -i (sqrt(pi)/2) (w(z) - e^(-z^2)) (w is
    Faddeeva's function),

        Q     = (2 / (pi c sqrt|x|)) Re[e^(i pi/4) F(z)],
        dQ/dt = (2 / (pi c sqrt|x|)) Re[e^(i pi/4) alpha (1 - 2 z F(z))].
    """
    c = params.omega_scale
    root = math.sqrt(abs(x))
    rot = cmath.exp(0.25j * math.pi)
    alpha = c * rot / (2.0 * root)
    z = alpha * t
    dawson = -0.5j * math.sqrt(math.pi) * (complex(wofz(z)) - cmath.exp(-z * z))
    front = 2.0 / (math.pi * c * root)
    return front * (rot * dawson).real, front * (rot * alpha * (1.0 - 2.0 * z * dawson)).real


def lorentzian_cdf(x, scale: float):
    """Exact CDF of the scale-s Lorentzian: 1/2 + arctan(x/s)/pi."""
    return 0.5 + np.arctan(np.asarray(x) / scale) / np.pi


def stable_cdf_reference(params, t, x):
    """CDF of the symmetric stable law with characteristic function
    e^{-a |k|^delta t}: scipy's levy_stable at scale (a t)^(1/delta), and
    the Lorentzian at delta = 1.  scipy.stats is imported here only, so that
    no library import pays for it."""
    scale = (params.a_delta * t) ** (1.0 / params.delta)
    if params.delta == 1.0:
        return lorentzian_cdf(x, scale)
    from scipy.stats import levy_stable

    return levy_stable.cdf(np.asarray(x, dtype=float) / scale, params.delta, 0.0)


def stable_cdf_fourier(params, t, x):
    """CDF of the symmetric stable law with characteristic function
    e^{-a |k|^delta t}, by its Fourier inversion

        F(x) = 1/2 + (1/pi) int_0^inf e^{-a t k^delta} sin(kx)/k dk.

    With h = pi/|x|, half a period of sin(kx): where h < 1, [0, h] by quad
    (the cusp of k^delta at 0 within one half period) and [h, 1] by quad's
    sin weight (QAWO); else [0, 1] and [1, h] by quad.  The rest, from
    max(1, h), by the sin weight on an infinite range (QAWF).  Uses no
    levy_stable, grid or series.  At delta = 1 it is within 2.3e-16 of the
    Lorentzian for |x| from 0.7 to 2621; at |x| = 1e-8 (or 1e-3 where
    a t = 4 pi) it is off by up to 4.3e-10, where [1, h] holds little of
    the integral.
    """
    at, d = params.a_delta * t, params.delta

    def cdf(x):
        if x == 0.0:
            return 0.5
        xa = abs(x)
        h = math.pi / xa
        envelope = lambda k: math.exp(-at * k**d) / k
        direct = lambda k: envelope(k) * math.sin(k * xa)
        if h < 1.0:
            body = (quad(direct, 0.0, h, epsabs=1e-14, limit=200)[0]
                    + quad(envelope, h, 1.0, weight="sin", wvar=xa, epsabs=1e-14, limit=2000)[0])
        else:
            body = quad(direct, 0.0, 1.0, epsabs=1e-14, limit=200)[0] + quad(direct, 1.0, h, epsabs=1e-14, limit=200)[0]
        tail = quad(envelope, max(1.0, h), np.inf, weight="sin", wvar=xa, epsabs=1e-14, limlst=200)[0]
        return 0.5 + math.copysign((body + tail) / math.pi, x)

    return np.array([cdf(float(v)) for v in np.ravel(x)]).reshape(np.shape(x))


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

    eps_list = _ladder_eps(grid)
    fields = [sample_kernel(grid, symbol_half * np.exp(-e * grid.k_half)) for e in eps_list]
    out = _neville0(eps_list, [f.real for f in fields])
    if np.iscomplexobj(symbol_half):
        out = out + 1j * _neville0(eps_list, [f.imag for f in fields])
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


def ladder_damping_reference(grid):
    """The eps-ladder's Richardson-weighted damping on grid.k_half, built afresh."""
    eps_list = _ladder_eps(grid)
    k = grid.k_half
    damping = np.zeros_like(k)
    for e_j in eps_list:
        c_j = math.prod(e_m / (e_m - e_j) for e_m in eps_list if e_m != e_j)
        damping += c_j * np.exp(-e_j * k)
    return damping


def kernel_ladder_reference(grid, symbol):
    """The library's eps-ladder synthesis with the damping built afresh."""
    return sample_kernel_reference(grid, symbol(grid.k_half) * ladder_damping_reference(grid))


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


def flux_linear_reference(params, rho):
    """flux_apply as a linear convolution zero-padded to 3n points, with a
    (2n + 1)-entry kernel whose centre and both ends no output reads (a
    zero stands in for the unread weight w[n])."""
    from selfsim.operator import _flux_weights

    g = rho.grid
    n = g.n
    c = params.h**params.delta / (params.zeta * params.delta)
    vals = rho.values - 0.5 * (rho.values[0] + rho.values[-1])
    w = np.append(_flux_weights(params.delta, g.dx, n), 0.0)
    kernel = np.zeros(2 * n + 1)
    kernel[n + 1 :] = -w[1:]
    kernel[:n] = w[1:][::-1]
    m = 3 * n  # full linear convolution length n + (2n + 1) - 1
    full = np.fft.irfft(np.fft.rfft(vals, m) * np.fft.rfft(kernel, m), m)
    return -c * full[n : 2 * n]


def truncated_moment_reference(w, p, L):
    """int_{-L}^{L} x^p W dx: a mask over all of grid.x, scipy's trapezoid."""
    x = w.grid.x
    mask = np.abs(x) <= L
    return float(trapezoid(x[mask] ** p * w.values[mask], x[mask]))


def fit_tail_exponent_reference(w, x_lo, x_hi):
    """Slope of log W against log x over a mask of all of grid.x; None
    where fewer than 8 points are usable."""
    x = w.grid.x
    mask = (x >= x_lo) & (x <= x_hi) & (w.values > 0.0)
    if np.count_nonzero(mask) < 8:
        return None
    return float(np.polyfit(np.log(x[mask]), np.log(w.values[mask]), 1)[0])


def numeric_cdf_core_reference(w, xq):
    """The grid core of numeric_cdf by scipy's cumulative_trapezoid."""
    x = w.grid.x
    cum = np.concatenate([[0.0], cumulative_trapezoid(w.values, x)])
    return np.interp(xq, x, cum - cum[w.grid.n // 2] + 0.5)


# ------------------------------------------- the pointwise routes, first form

def outcome(call, message=True):
    """float.hex of call(), or the type (and message) of what it raised."""
    try:
        return float(call()).hex()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
        return f"{type(exc).__name__}: {exc}" if message else type(exc).__name__


def quad_checked_reference(fn, a, b, abs_tol, rel_tol=1e-11, limit=400, **kwargs):
    """quad_checked with quad's warnings silenced by a filter; kwargs go to quad."""
    from selfsim import QuadratureNoConvergence

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = quad(fn, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=limit, **kwargs)
    if not math.isfinite(val) or err > max(abs_tol, rel_tol * abs(val)) * 50.0:
        raise QuadratureNoConvergence(
            f"quadrature on [{a:g}, {b:g}] reported error {err:g} (budget {abs_tol:g})"
        )
    return val


def singular_integral_reference(g, shift, taylor, delta, abs_tol, scale):
    """singular_integral as it was with one QUADPACK call on its inner
    region [1e-3, 1]: QAGP, started on the segments between the breakpoints
    2^j 1e-3."""
    from selfsim.quadrature import oscillatory_tail

    _DISC = 1e-3
    _POINTS = tuple(_DISC * 2.0**j for j in range(1, 10))
    tol = abs_tol / max(scale, 1.0)
    power = -1.0 - delta
    inner = -0.0  # the exact additive identity: inner is bit for bit the first term
    for c, p in taylor:
        inner += c * _DISC ** (p - delta) / (p - delta)
    inner += quad_checked_reference(lambda u: (g(u) + shift) * u**power, _DISC, 1.0,
                                    abs_tol=tol * 0.4, limit=200, points=_POINTS)
    outer = shift / delta + oscillatory_tail(g, power, 1.0, abs_tol=tol * 0.4)
    return scale * (inner + outer)


def propagator_quadrature_reference(params, x, t, abs_tol=1e-9):
    """propagator_quadrature for delta < 1, x != 0: the complex integral's
    real and imaginary parts each by quad, the real part returned."""
    a_t = params.a_delta * t
    d = params.delta

    def integrand(u):
        return 1j * np.exp(-a_t * (u ** d) * np.exp(1j * math.pi * d / 2.0) - u * abs(x))

    re = quad_checked_reference(lambda u: integrand(u).real, 0.0, np.inf, abs_tol)
    im = quad_checked_reference(lambda u: integrand(u).imag, 0.0, np.inf, abs_tol)
    return float((re + 1j * im).real) / math.pi


def rotated_fourier_reference(params, x, t, kind, abs_tol=1e-9):
    """Q ("Q") or dQ/dt ("dQ") at (x, t > 0) by the rotated-contour
    quadrature, its integrand on numpy complex scalars."""
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

    p1 = quad_checked_reference(direct, 0.0, k0, abs_tol, rel_tol=1e-9)
    phase = 1j * k0 * x

    def rotated(u):
        lnz = np.log(k0 + 1j * u)
        iw = 1j * s_a * t * np.exp(0.5 * delta * lnz)
        if kind == "Q":
            ln_denom = math.log(s_a) + 0.5 * delta * lnz
            return 0.5 * (np.exp(phase + iw - u * x - ln_denom)
                          - np.exp(phase - iw - u * x - ln_denom))
        return 0.5j * (np.exp(phase + iw - u * x) + np.exp(phase - iw - u * x))

    p2 = quad_checked_reference(lambda u: rotated(u).real, 0.0, np.inf, abs_tol, rel_tol=1e-9)
    return (p1 + p2) / math.pi


def oscillatory_tail_reference(g, power, start, abs_tol):
    """oscillatory_tail with 21 weights kept per panel and the nodes below
    U picked by a boolean mask.  Its scalar constants are its own, so that a
    changed library constant shows as a difference; the qk21 tables are
    shared."""
    from operator import mul

    from selfsim import NonPositiveScale, QuadratureNoConvergence
    from selfsim.quadrature import _DIFF, _KRONROD, _NODES

    steepness = 9.0
    window_at_u = 0.5 * math.erfc(-0.5 * steepness)
    window_at_2u = 0.5 * math.erfc(0.5 * steepness)
    max_window, growth, min_panel = 2.0**16, 1.25, 1e-10

    if not 0.0 < start < math.inf:
        raise NonPositiveScale(f"start must be finite and > 0, got {start!r}")
    if not power < -1.0:
        raise QuadratureNoConvergence(
            f"tail weight u^{power:g} is not integrable at infinity: the windowed tail takes power < -1")
    q = power + 1.0
    nodes, weights, values = [], [], []
    folded = 0.0
    big = 4.0 * start
    a, h = start, 0.25 * start
    prev = None
    seen = 0.0
    while True:
        jumped = False
        while a < 2.0 * big:
            end = big if a < big else 2.0 * big
            while True:
                b = min(a + h, end)
                r = 0.5 * (b - a)
                us = [a + r + r * x for x in _NODES]
                gs = [g(u) for u in us]
                err = r * abs(sum(map(mul, _DIFF, [v * u**power for v, u in zip(gs, us)])))
                tol = 0.1 * abs_tol * (b - a) / b
                if err <= tol:
                    break
                if not math.isfinite(err):
                    raise QuadratureNoConvergence(f"tail integrand evaluated non-finite on [{a:g}, {b:g}]")
                if b - a < min_panel * b:
                    if jumped:
                        raise QuadratureNoConvergence(
                            f"tail panels near u = {a:g} miss their tolerance at width {b - a:g}: "
                            "the integrand jumps, or abs_tol is below its rounding"
                        )
                    jumped = True
                    break
                h = 0.5 * (b - a)
            nodes += us
            values += gs
            weights += [r * w for w in _KRONROD]
            h = 2.0 * (b - a) if err == 0.0 else (b - a) * min(2.0, max(0.5, 0.9 * (tol / err) ** 0.05))
            a = b
        u, w, gv = np.array(nodes), np.array(weights), np.array(values)
        up = u**power
        below = u < big
        folded += float(np.dot(w[below], gv[below] * up[below]))
        seen = max(seen, float(np.max(np.abs(gv[below]), initial=0.0)))
        u, w, gv, up = u[~below], w[~below], gv[~below], up[~below]
        chi = (0.5 * erfc(steepness * (u / big - 1.5)) - window_at_2u) / (window_at_u - window_at_2u)
        bump = w * chi * (1.0 - chi)
        m = float(np.dot(bump, gv) / np.sum(bump))
        peak = float(np.max(np.abs(gv)))
        value = folded + float(np.dot(w * chi, (gv - m) * up))
        value -= m * big**q / q
        if prev is not None and abs(value - prev) <= abs_tol:
            if peak > growth * seen and peak * big**q / -q > abs_tol:
                raise QuadratureNoConvergence(
                    f"tail factor g from {start:g} grows (max {peak:g} on [{big:g}, {2 * big:g}], "
                    f"{seen:g} before): the windowed sum may be the Abel value of a divergent integral"
                )
            return value
        prev, seen = value, max(seen, peak)
        folded += float(np.dot(w, gv * up))
        nodes, weights, values = [], [], []
        big *= 2.0
        if big > max_window * start:
            raise QuadratureNoConvergence(
                f"tail integral from {start:g} did not settle by U = {big / 2:g}"
            )
