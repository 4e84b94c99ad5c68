"""Shared quadrature and series engines.

Two recurring difficulties, one routine each:

* power-law singularity at 0           -> Taylor disc + one quad_checked
                                          call with geometric breakpoints,
* bounded tails g(u) u^power to inf    -> Gauss-Kronrod panels under a
                                          smooth window that doubles until
                                          two windowed sums agree.

singular_integral joins the two into the pointwise form of the power-kernel
convolution, int_0^inf (g(u) + shift) u^(-1-delta) du, which both operators
of ``selfsim.operator`` evaluate.

Every library call of scipy.integrate.quad goes through quad_checked: the
reported error is checked against the budget, and QuadratureNoConvergence
raised when it is over.  Near 0 the breakpoints 2^j 1e-3 start QUADPACK's
QAGP on geometric panels that cluster toward the singular end.  The tail
has its own 21-point Gauss-Kronrod panels.  ABS_TOL is the absolute
tolerance the library's routes pass; laplacian_apply_point alone lets its
caller set another.

Regularized (eps -> 0+) grid transforms take their Richardson weights on
the symbol (see ``dynamics``); neville_at_zero extrapolates scalar sweeps.

The power series of the wave kernels, the propagator and its tail mass are
all the Bergstroem/Feller expansion of a symmetric stable law (Feller,
Vol. II, XVII.6),

    (1/pi) sum_{n>=1} (-1)^(n-1) sin(n pi delta/2)
           Gamma(n delta + r) / Gamma(p n + q) xi^n front.

Every such sum runs on one guarded term loop, _series_terms: the terms in
log space, a stop at the first term below 1e-14 that is smaller than its
predecessor, a ratio guard of 1e8, a refusal of a term beyond float range
and at most 400 terms, each a SeriesBudgetExceeded.  A tail sum beyond some
|x| (tail_cdf_mass at its smallest x, image_series below at |u| = 1/2) takes
its terms where each is largest and refuses terms that cancel across a hump
far above its tolerance.  The callers differ only in their parameters:

    caller                   r  p  q  xi               front
    wave_kernel_series       1  2  2  a t^2/|x|^delta  t/|x|
    wave_kernel_dt_series    1  2  1  a t^2/|x|^delta  1/|x|
    propagator_series        1  1  1  a t/|x|^delta    1/|x|
    tail_cdf_mass            0  1  1  a t/x^delta      1

image_series sums such a tail (front 1/|y|) over the periodic images of a
centered grid, |y| >= L/2, as one even power series in x/L whose
coefficients are Riemann zeta values; the propagator's infinite-line
samples subtract it from the periodic synthesis.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import repeat
from operator import mul

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc as _erfc
from scipy.special import gammaln as _gammaln
from scipy.special import zeta as _zeta

from .errors import QuadratureNoConvergence, SeriesBudgetExceeded, ValidationError

__all__ = [
    "ABS_TOL",
    "quad_checked",
    "neville_at_zero",
    "oscillatory_tail",
    "singular_integral",
    "image_series",
]

ABS_TOL = 1e-9


def quad_checked(fn, a, b, abs_tol, rel_tol=1e-11, limit=400, **kwargs):
    """scipy quad that raises instead of warning when accuracy is not met.

    With full_output, quad returns its message instead of issuing a warning,
    so the process-wide warning filters are left alone; a warning that fn
    itself issues reaches the caller's filters.
    """
    val, err = quad(fn, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=1, **kwargs)[:2]
    if not math.isfinite(val) or err > max(abs_tol, rel_tol * abs(val)) * 50.0:
        raise QuadratureNoConvergence(
            f"quadrature on [{a:g}, {b:g}] reported error {err:g} (budget {abs_tol:g})"
        )
    return val


def neville_at_zero(xs, ys):
    """Polynomial extrapolation of ys(xs) to 0; ys entries may be arrays."""
    tab = [np.asarray(y, dtype=float) for y in ys]
    n = len(tab)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            tab[i] = (x1 * tab[i] - x0 * tab[i + 1]) / (x1 - x0)
    out = tab[0]
    return float(out) if out.ndim == 0 else out


# QUADPACK's 21-point Gauss-Kronrod rule (qk21) on [-1, 1]: the positive
# abscissae, their Kronrod weights and the weights of the embedded 10-point
# Gauss rule, which uses every second abscissa.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077600525722214, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# all 21 nodes in ascending order, their Kronrod weights, and the Kronrod
# minus Gauss weights, whose sum against the integrand is the error estimate
_NODES = tuple(-x for x in _XK[:10]) + _XK[::-1]
_KRONROD = _WK[:10] + _WK[::-1]
_DIFF = tuple(w - (_WG[i // 2] if i % 2 else 0.0) for i, w in enumerate(_WK))
_DIFF = _DIFF[:10] + _DIFF[::-1]

# The window chi: 1/2 erfc(9 (u/U - 1.5)) on (U, 2U), shifted and scaled to
# take exactly 1 at U and 0 at 2U.
_STEEPNESS = 9.0
_WINDOW_AT_U = 0.5 * math.erfc(-0.5 * _STEEPNESS)
_WINDOW_AT_2U = 0.5 * math.erfc(0.5 * _STEEPNESS)
_MAX_WINDOW = 2.0**16      # largest U, in units of start
_GROWTH = 1.25             # largest rise of max|g| on [U, 2U] over [start, U]
_MEAN_FLOOR = 1e-8         # windowed means below this share of max|g| are zero
_MIN_PANEL = 1e-10         # narrowest panel, relative to its end


def oscillatory_tail(g, power: float, start: float, abs_tol: float) -> float:
    """int_start^inf g(u) u^power du by a smoothly windowed sum.

    g is bounded: a constant, plus an oscillation about zero with any number
    of carriers, plus a part that decays.  With a cutoff chi equal to 1 up
    to U and falling smoothly to 0 at 2U (an erfc step), the sum

        int_start^U g u^power + int_U^2U (g - m) u^power chi + m int_U^inf u^power

    has no integration-by-parts boundary terms, so it approaches the
    integral faster than any power of k U for every carrier k (the windowed
    Green function idea: Monro, Caltech thesis 2007; Bruno, Lyon,
    Perez-Arancibia and Turc, SIAM J. Appl. Math. 76, 2016).  m is the mean
    of g on (U, 2U) under the bump chi (1 - chi), and its tail is integrated
    in closed form, so a constant part of g (1 + cos u) is exact too.

    21-point Gauss-Kronrod panels march out from start; a panel is accepted
    when its Kronrod-Gauss difference is at most 0.1 abs_tol h/b (width h,
    right end b), and each g value is computed once: panels below U are
    folded into a running sum, so each doubling of U, from 4 start up,
    costs only the new span.  The value is accepted when two successive
    windowed sums agree to abs_tol.  Refused with QuadratureNoConvergence:

    * power >= 0, where the integral of the weight itself diverges
      (cos(3u)/log(1 + u) from 1 is one such integral that converges);
    * max|g| on [U, 2U] above 1.25 times max|g| on [start, U] when the sums
      agree: the windowed sum of a growing g is an Abel value, also when the
      integral diverges (u^1/2 cos 3u against u^-1/2).  The reference is
      all of [start, U], not [U/2, U], because the beat of two close
      carriers can leave one window's maximum 1.35 times the last one's;
    * for power >= -1, a windowed mean above both 1e-8 max|g| and
      abs_tol / int_U^2U u^power, whose integral diverges;
    * a non-finite g value;
    * a second panel in one doubling of U that misses its tolerance at a
      width of 1e-10 of its position: g jumps again, or abs_tol is below
      the rounding of g there;
    * U beyond 2^16 start without agreement ("did not settle"), as for a g
      that tends to its limit only like a power of u (2 + 1/u).

    The first such panel of a doubling is accepted: it holds a jump of g,
    at a cost of about |jump| times its width.  g should still be smooth:
    a jump between a panel's last node and its end is invisible to the
    error estimate (cos 3u below 5 and u^-2 above, from 1, misses by
    3.6e-9 at abs_tol 1e-10).
    """
    if not start > 0.0:
        raise ValidationError(f"tail start must be > 0, got {start!r}")
    if power >= 0.0:
        raise QuadratureNoConvergence(f"tail weight u^{power:g} is not integrable: the integral diverges")
    q = power + 1.0

    def weight_integral(a, b):
        return math.log(b / a) if q == 0.0 else (b**q - a**q) / q

    nodes: list[float] = []
    values: list[float] = []
    halves: list[float] = []  # one half-width per panel
    folded = 0.0
    big = 4.0 * start
    a, h = start, 0.25 * start
    prev = None
    seen = 0.0  # max|g| on [start, U]
    while True:
        jumped = False
        while a < 2.0 * big:
            end = big if a < big else 2.0 * big
            while True:
                b = min(a + h, end)
                r = 0.5 * (b - a)
                c = a + r
                us = [c + r * x for x in _NODES]
                gs = list(map(g, us))
                err = r * abs(sum(map(mul, _DIFF, map(mul, gs, map(pow, us, repeat(power))))))
                tol = 0.1 * abs_tol * (b - a) / b
                if err <= tol:
                    break
                if not math.isfinite(err):
                    raise QuadratureNoConvergence(f"tail integrand evaluated non-finite on [{a:g}, {b:g}]")
                if b - a < _MIN_PANEL * b:
                    if jumped:
                        raise QuadratureNoConvergence(
                            f"tail panels near u = {a:g} miss their tolerance at width {b - a:g}: "
                            "the integrand jumps, or abs_tol is below its rounding"
                        )
                    jumped = True
                    break  # a jump of g: accepted at a cost of about |jump| (b - a)
                h = 0.5 * (b - a)
            nodes += us
            values += gs
            halves.append(r)
            h = 2.0 * (b - a) if err == 0.0 else (b - a) * min(2.0, max(0.5, 0.9 * (tol / err) ** 0.05))
            a = b
        u, gv = np.array(nodes), np.array(values)
        w = np.multiply.outer(halves, _KRONROD).ravel()
        up = u**power
        # panels never straddle U, so the nodes below it are a prefix
        k = bisect_left(nodes, big)
        folded += float(np.dot(w[:k], gv[:k] * up[:k]))
        seen = max(seen, float(np.max(np.abs(gv[:k]), initial=0.0)))
        u, w, gv, up = u[k:], w[k:], gv[k:], up[k:]
        chi = (0.5 * _erfc(_STEEPNESS * (u / big - 1.5)) - _WINDOW_AT_2U) / (_WINDOW_AT_U - _WINDOW_AT_2U)
        bump = w * chi * (1.0 - chi)
        m = float(np.dot(bump, gv) / np.sum(bump))
        peak = float(np.max(np.abs(gv)))
        diverging = (q >= 0.0 and abs(m) > _MEAN_FLOOR * peak
                     and abs(m) * weight_integral(big, 2.0 * big) > abs_tol)
        # the mean's tail beyond U in closed form; where that diverges, a
        # mean above the floor is left out, so that the rest settles and is refused
        mean = m if q < 0.0 or diverging else 0.0
        value = folded + float(np.dot(w * chi, (gv - mean) * up))
        value -= mean * big**q / q if q < 0.0 else mean * weight_integral(start, big)
        if prev is not None and abs(value - prev) <= abs_tol:
            if peak > _GROWTH * seen:
                raise QuadratureNoConvergence(
                    f"tail factor g from {start:g} grows (max {peak:g} on [{big:g}, {2 * big:g}], "
                    f"{seen:g} before): the windowed sum may be the Abel value of a divergent integral"
                )
            if diverging:
                raise QuadratureNoConvergence(
                    f"tail integrand from {start:g} has mean {m:g} against u^{power:g}: the integral diverges"
                )
            return value
        prev, seen = value, max(seen, peak)
        folded += float(np.dot(w, gv * up))
        nodes, values, halves = [], [], []
        big *= 2.0
        if big > _MAX_WINDOW * start:
            raise QuadratureNoConvergence(
                f"tail integral from {start:g} did not settle by U = {big / 2:g}"
            )


# singular_integral's split: the Taylor disc (0, _DISC), one QAGP call on
# [_DISC, 1] started on the geometric panels between _POINTS, the tail from 1
_DISC = 1e-3
_POINTS = tuple(_DISC * 2.0**j for j in range(1, 10))


def singular_integral(g, shift: float, taylor, delta: float, abs_tol: float, scale: float) -> float:
    """scale * int_0^inf (g(u) + shift) u^(-1-delta) du, 0 < delta < 2.

    g is bounded, and near 0 g(u) + shift is the sum of c u^p over the
    (c, p) pairs of ``taylor``, each p > delta, to the order that matters
    below 1e-3.  Three parts, each to 0.4 abs_tol / max(scale, 1):

    * (0, 1e-3): the Taylor terms in closed form; direct evaluation there
      loses every digit to the cancellation in g(u) + shift;
    * [1e-3, 1]: one quad_checked call with the breakpoints 2^j 1e-3;
    * (1, inf): shift's tail, shift / delta, in closed form, plus
      oscillatory_tail of g.
    """
    tol = abs_tol / max(scale, 1.0)
    power = -1.0 - delta
    inner = -0.0  # the exact additive identity: inner is bit for bit the first term
    for c, p in taylor:
        inner += c * _DISC ** (p - delta) / (p - delta)
    inner += quad_checked(lambda u: (g(u) + shift) * u**power, _DISC, 1.0,
                          abs_tol=tol * 0.4, limit=200, points=_POINTS)
    outer = shift / delta + oscillatory_tail(g, power, 1.0, abs_tol=tol * 0.4)
    return scale * (inner + outer)


# ------------------------------------------------------ stable-law series

# The series stops at the first term below _SERIES_ABS_TOL that is smaller
# than its predecessor, i.e. on the decreasing side of the hump.  The stop
# is absolute: when every term is below it the sum is its first term
# (propagator_series at delta = 0.1, t = 1, x = 1.8e16 gives 1.32e-18
# against a true 8.17e-19).  _SERIES_RATIO_GUARD aborts runaway growth.
_SERIES_MAX_TERMS = 400
_SERIES_ABS_TOL = 1e-14
_SERIES_RATIO_GUARD = 1e8


def _stable_log_terms(delta, n, r, p, q, ln_xi, ln_front=0.0):
    """ln |term n| without its angular factor; n and ln_xi may be arrays."""
    return _gammaln(n * delta + r) - _gammaln(p * n + q) + n * ln_xi + ln_front


def _stable_sign(delta: float, n: int) -> float:
    """The angular factor of term n, (1/pi) (-1)^(n-1) sin(n pi delta/2)."""
    return (1.0 / math.pi) * (-1.0) ** (n - 1) * math.sin(n * math.pi * delta / 2.0)


def _series_terms(delta: float, log_term, relative: bool = False) -> tuple[float, list[float]]:
    """The one term loop of every stable-law series: the terms of magnitude
    e^log_term(n), n = 1, 2, ..., with their angular factors, up to the
    stop, 1e-14, or with ``relative`` 1e-14 times the first magnitude where
    that exceeds 1.  Returns the sum and the magnitudes summed.  Raises
    SeriesBudgetExceeded, with the partial sum and a tail bound, when a term
    overflows float range, outgrows its predecessor by the ratio guard, or
    _SERIES_MAX_TERMS terms do not reach the stop.
    """
    total = 0.0
    mags: list[float] = []
    tol = _SERIES_ABS_TOL
    prev_m = math.inf
    for n in range(1, _SERIES_MAX_TERMS + 1):
        lnm = log_term(n)
        if lnm > 700.0:
            # the hump exceeds float range; near delta = p the coefficient
            # decay (pn)^-(p-delta) sets in far too late for this argument
            raise SeriesBudgetExceeded(
                f"term magnitude overflows at n = {n}; argument too large for "
                f"the series at delta = {delta:g}",
                partial_sum=total, tail_bound=math.inf,
            )
        m = math.exp(lnm)
        if relative and n == 1:
            tol *= max(1.0, m)
        total += _stable_sign(delta, n) * m
        mags.append(m)
        if m < tol and m < prev_m:
            return total, mags
        if m > prev_m * _SERIES_RATIO_GUARD:
            raise SeriesBudgetExceeded(
                f"term ratio exceeded guard {_SERIES_RATIO_GUARD:g} at n = {n}",
                partial_sum=total, tail_bound=m,
            )
        prev_m = m
    raise SeriesBudgetExceeded(
        f"series did not reach {tol:g} within {_SERIES_MAX_TERMS} terms",
        partial_sum=total, tail_bound=prev_m,
    )


def _stable_series(delta: float, r, p, q, ln_xi: float, ln_front: float) -> float:
    """The series at one argument, summed in log space by the stop rule."""
    r, p, q = float(r), float(p), float(q)  # gammaln of a Python int is 5x slower
    return _series_terms(delta, lambda n: _stable_log_terms(delta, n, r, p, q, ln_xi, ln_front))[0]


def image_series(delta: float, r, p, q, ln_c: float, length: float, u: np.ndarray) -> np.ndarray:
    """sum_{m != 0} K(x + m L) at x = u L, |u| <= 1/2, for a kernel whose
    tail is the stable series with xi = c/|y|^delta and front 1/|y|,

        K(y) = sum_n sign_n Gamma(n delta + r)/Gamma(p n + q) c^n |y|^(-s_n),   s_n = n delta + 1.

    The images sit at |y| >= L/2, and over the lattice each power is an
    even power series in u (the binomial series of (1 +- u/m)^(-s), summed
    over m by the Riemann zeta function; DLMF 25.11):

        sum_{m != 0} |x + m L|^(-s) = 2 L^(-s) sum_k C(s + 2k - 1, 2k) zeta(s + 2k) u^(2k).

    The coefficients of u^(2k) are summed over n, and the one series in u^2
    is evaluated by Horner's rule, one pass over u per power kept.  Both
    sums stop by the series engine's rule on the term magnitudes at |u| = 1/2,
    where every power is largest (in n, L^(-s) [zeta(s, 1/2) + zeta(s, 3/2)];
    in k, the coefficient times 4^(-k)), with the stop 1e-14 taken relative
    to the first of them where that exceeds 1.  For delta < 1 the series in
    n converges at every |y|; from 1 up it is asymptotic and settles only
    where L/2 spans many scales c^(1/delta).  SeriesBudgetExceeded is
    raised, and nothing is corrected, where it does not settle, and where
    the magnitudes summed are so far above that stop that their rounding
    exceeds it: L/2 far inside the scale, where the terms cancel.
    """
    r, p, q = float(r), float(p), float(q)
    ln_len = math.log(length)
    ln_coef = []

    def log_term(n):
        s = n * delta + 1.0
        ln_coef.append(_stable_log_terms(delta, n, r, p, q, ln_c) - s * ln_len)
        return ln_coef[-1] + math.log(_zeta(s, 0.5) + _zeta(s, 1.5))

    mags = _series_terms(delta, log_term, relative=True)[1]
    tol = _SERIES_ABS_TOL * max(1.0, mags[0])
    if (hump := sum(mags)) * math.ulp(1.0) > tol:
        raise SeriesBudgetExceeded(f"image terms cancel across a hump of {hump:g}: their rounding "
                                   f"exceeds {tol:g}; L/2 is far inside the scale", tail_bound=hump)
    signs = np.array([_stable_sign(delta, n) for n in range(1, len(mags) + 1)])
    s = np.arange(1, len(mags) + 1) * delta + 1.0
    # C(s + 2k - 1, 2k) = Gamma(s + 2k) / (Gamma(2k + 1) Gamma(s))
    ln_coef = np.array(ln_coef) - _gammaln(s)
    coefs = []
    prev_m = math.inf
    for k in range(_SERIES_MAX_TERMS):
        terms = np.exp(ln_coef + _gammaln(s + 2 * k) - _gammaln(2 * k + 1.0)) * _zeta(s + 2 * k)
        coefs.append(2.0 * float(np.dot(signs, terms)))
        m = 2.0 * float(np.sum(terms)) * 0.25**k
        if m < tol and m < prev_m:
            break
        prev_m = m
    else:
        raise SeriesBudgetExceeded(f"image series in u did not reach {tol:g} within {_SERIES_MAX_TERMS} terms",
                                   partial_sum=None, tail_bound=prev_m)
    u2 = np.square(u)
    out = np.full_like(u2, coefs[-1])
    for a in coefs[-2::-1]:
        out *= u2
        out += a
    return out
