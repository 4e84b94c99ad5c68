"""Shared quadrature and series engines.

Two recurring difficulties, one routine each:

* power-law singularity at 0           -> geometric panels + Taylor disc,
* bounded oscillatory tails            -> half-cycles between the zeros of
                                          the integrand + Wynn epsilon, or
                                          doubling blocks + Wynn epsilon when
                                          it decays or has too few zeros.

Everything is plain scipy.integrate.quad underneath; warnings are turned
into QuadratureNoConvergence when the reported error exceeds the budget.

Regularized (eps -> 0+) grid transforms take their Richardson weights on
the symbol (see ``dynamics``); neville_at_zero extrapolates scalar sweeps.

The power series of the wave kernels, the propagator and its tail mass are
all the Bergstroem/Feller expansion of a symmetric stable law (Feller,
Vol. II, XVII.6),

    (1/pi) sum_{n>=1} (-1)^(n-1) sin(n pi delta/2)
           Gamma(n delta + r) / Gamma(p n + q) xi^n front,

summed by one log-space engine under a ``SeriesPolicy``.  The callers
differ only in their parameters:

    caller                   r  p  q  xi               front
    wave_kernel_series       1  2  2  a t^2/|x|^delta  t/|x|
    wave_kernel_dt_series    1  2  1  a t^2/|x|^delta  1/|x|
    propagator_series        1  1  1  a t/|x|^delta    1/|x|
    tail_cdf_mass            0  1  1  a t/x^delta      1
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln as _gammaln

from .errors import QuadratureNoConvergence, SeriesBudgetExceeded

__all__ = [
    "SeriesPolicy",
    "quad_checked",
    "neville_at_zero",
    "wynn_epsilon",
    "panel_integral",
    "oscillatory_tail",
]


def quad_checked(fn, a, b, abs_tol, rel_tol=1e-11, limit=400, **kwargs):
    """scipy quad that raises instead of warning when accuracy is not met."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = quad(fn, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=limit, **kwargs)
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


def wynn_epsilon(partial_sums) -> float:
    """Wynn's epsilon acceleration of a sequence of partial sums."""
    e_prev = [0.0] * (len(partial_sums) + 1)
    e_curr = list(partial_sums)
    best = partial_sums[-1]
    for k in range(1, len(partial_sums)):
        e_next = []
        for i in range(len(e_curr) - 1):
            diff = e_curr[i + 1] - e_curr[i]
            if diff == 0.0:
                e_next.append(e_prev[i + 1])
            else:
                e_next.append(e_prev[i + 1] + 1.0 / diff)
        e_prev, e_curr = e_curr, e_next
        if k % 2 == 0 and e_curr:
            best = e_curr[-1]
    return best


def panel_integral(fn, a: float, b: float, abs_tol: float, growth: float = 2.0) -> float:
    """Integral over [a, b] by adaptive quad on geometric panels from a.

    Panels [a, a*growth], [a*growth, a*growth^2], ... cluster resolution
    toward the lower end, where the integrands handled here concentrate
    their difficulty.
    """
    total = 0.0
    lo = a
    share = abs_tol / max(4.0, math.log(b / a) / math.log(growth) + 1.0)
    while lo < b * (1.0 - 1e-12):
        hi = min(growth * lo, b)
        total += quad_checked(fn, lo, hi, abs_tol=share, limit=200)
        lo = hi
    return total


# Zero-aligned branch: scan [start, 32 start] on a fine grid for the zeros,
# widening the scan 32-fold at a time while fewer than 4 sign changes show;
# step later brackets by a quarter of the zero gap, give up after a budget.
# Fewer than 4 sign changes over a span S put the zero gap above about S/4,
# so 512 new points over the next 31 S still sample each gap about 4 times.
_DECAY_PROBE_POINTS = 17
_ZERO_SCAN_POINTS = 2049
_WIDENED_SCAN_POINTS = 513
_SCAN_WIDTH = 32.0
_SCAN_LEVELS = 3
_MIN_SIGN_CHANGES = 4
_BRACKET_STEPS = 64
_HALF_CYCLES = 4000
_WYNN_WINDOW = 24
# the last half-cycle of the window must be smaller than its first by this
# relative margin, far above the rounding of equal half-cycles
_MIN_SHRINK = 1e-9
# the half-cycle sizes must fall towards zero: a floor they level off at
# above this share of the last size marks a divergent integral (measured on
# the window at agreement: 0.02-0.09 for pure power laws, 0.42 for
# u^-1/2 (1 + 10/u), 0.81-0.94 for cos(3u)(1 + u^-q), q = 1/2 and 1)
_MAX_FLOOR_SHARE = 0.5
# Doubling fallback: block count and the relative certification floor, which
# is the honest level of that branch (see oscillatory_tail).
_DOUBLING_BLOCKS = 36
_DOUBLING_REL_FLOOR = 1e-5


def _tail_block(fn, a: float, b: float, abs_tol: float) -> float:
    """quad of one tail block; only non-finite values are refused here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _err = quad(fn, a, b, epsabs=abs_tol * 0.1, epsrel=1e-11, limit=800)
    if not math.isfinite(val):
        raise QuadratureNoConvergence(f"tail block [{a:g}, {b:g}] evaluated non-finite")
    return val


def _doubling_tail(fn, start: float, abs_tol: float, closed_form: float) -> float:
    """The fallback branch: blocks [a, 2a], decay stop or Wynn to the floor."""
    sums: list[float] = []
    blocks: list[float] = []
    recent: list[float] = []
    partial = closed_form
    a = start
    for _ in range(_DOUBLING_BLOCKS):
        b = 2.0 * a
        val = _tail_block(fn, a, b, abs_tol)
        partial += val
        blocks.append(val)
        sums.append(partial)
        if len(blocks) >= 2 and abs(blocks[-1]) < abs_tol * 0.25 and abs(blocks[-2]) < abs_tol * 0.25:
            return partial
        if len(sums) >= 6:
            est = wynn_epsilon(sums)
            recent.append(est)
            if len(recent) >= 4:
                spread = max(recent[-4:]) - min(recent[-4:])
                if spread < max(abs_tol, _DOUBLING_REL_FLOOR * abs(est)):
                    return est
        a = b
    raise QuadratureNoConvergence(
        f"tail integral from {start:g} did not settle within {_DOUBLING_BLOCKS} doubling blocks"
    )


def _next_zero(fn, zero: float, step: float) -> float:
    """The first sign change of fn past zero, on a grid of the given step."""
    lo = f_lo = None
    for j in range(1, _BRACKET_STEPS + 1):
        hi = zero + j * step
        f_hi = fn(hi)
        if not math.isfinite(f_hi):
            raise QuadratureNoConvergence(f"tail integrand evaluated non-finite at {hi:g}")
        if lo is not None and (f_hi > 0.0) != (f_lo > 0.0):
            return brentq(fn, lo, hi)
        lo, f_lo = hi, f_hi
    raise QuadratureNoConvergence(
        f"no sign change of the tail integrand within {_BRACKET_STEPS} steps past {zero:g}"
    )


def _scan_zeros(fn, start: float, abs_tol: float):
    """Zeros of fn past start for the zero-aligned branch, or None.

    The scan covers [start, 32 start] with 2049 points, then widens 32-fold
    (512 more points each time, at most twice) while it holds fewer than 4
    sign changes, so slow oscillations still get their zeros.  None means
    take the doubling branch: fn has decayed over the last half of the
    scanned span (the 17-point probe), or the widest scan still shows too
    few sign changes.
    """
    grid: list[float] = []
    values: list[float] = []
    lo = start
    for level in range(_SCAN_LEVELS):
        hi = _SCAN_WIDTH * lo
        probe = np.linspace(0.5 * hi, hi, _DECAY_PROBE_POINTS).tolist()
        if max(abs(fn(u)) for u in probe) * 0.5 * hi < abs_tol:
            return None
        points = (np.linspace(lo, hi, _WIDENED_SCAN_POINTS).tolist()[1:] if level
                  else np.linspace(lo, hi, _ZERO_SCAN_POINTS).tolist())
        grid += points
        values += [fn(u) for u in points]
        if not all(math.isfinite(v) for v in values[-len(points):]):
            raise QuadratureNoConvergence(f"tail integrand evaluated non-finite in the zero scan from {start:g}")
        positive = np.array(values) > 0.0
        changes = np.flatnonzero(positive[1:] != positive[:-1])
        if len(changes) >= _MIN_SIGN_CHANGES:
            return [brentq(fn, grid[i], grid[i + 1]) for i in changes]
        lo = hi
    return None


def _size_floor(u, sizes) -> float:
    """Level that the half-cycle sizes approach, from a fit s = A + B u^-q.

    Three sizes at geometrically spaced u (the middle one interpolated in
    log-log) fix A by Aitken's delta-squared: a power law gives A = 0.
    """
    u_mid = math.sqrt(u[0] * u[-1])
    s_mid = math.exp(np.interp(math.log(u_mid), np.log(u), np.log(sizes)))
    d1 = sizes[0] - s_mid
    d2 = s_mid - sizes[-1]
    if d1 - d2 <= 0.0:
        return 0.0
    return sizes[-1] - d2 * d2 / (d1 - d2)


def oscillatory_tail(fn, start: float, abs_tol: float, closed_form: float = 0.0) -> float:
    """closed_form + int_start^inf fn, fn oscillating about zero or decaying.

    closed_form is the part of the caller's tail integral it knows exactly
    (the operators' f(x) tau^(-1-delta) term); the partial sums start from
    it, so the stop rule certifies the whole value.  Two branches:

    * Zero-aligned (fn changes sign at least 4 times on [start, 32 start],
      or on a scan widened 32-fold once or twice, and has not decayed over
      the last half of that span): blocks run between consecutive
      zeros of fn, found by brentq, as in QUADPACK's QAWF and Sidi's
      mW-transformation.  The half-cycle integrals alternate, so Wynn's
      epsilon on the last 24 partial sums converges geometrically; the
      value is accepted once three consecutive extrapolants agree to
      abs_tol, with no relative floor.  Wynn also sums divergent
      alternating series, so agreement raises QuadratureNoConvergence
      while the last half-cycle of the window is no smaller than its first,
      or while the window's sizes level off: a fit A + B u^-q through three
      of them puts the floor A above half the last size.  One window cannot
      tell a floor from a slow approach to a power law, so a convergent
      tail still far from its power law at agreement (cos(3u) u^-0.2
      (1 + 3/u) or cos(3u)/log(1 + u) from u = 1) is refused too.  So
      are no bracket within 64 steps of a quarter zero gap, and 4000
      half-cycles without agreement.
    * Doubling fallback (decaying integrands, or too few sign changes on
      the widest scan): blocks [a, 2a].  A decaying fn stops once two
      consecutive blocks fall under abs_tol (tight certification).
      Otherwise Wynn's epsilon runs on the block partial sums and stops
      when four extrapolants agree to max(abs_tol, 1e-5 |value|).  That
      relative floor is the honest level of this branch: past a dozen
      doublings a block holds more oscillations than quad can subdivide,
      so the block values carry ~1e-5 relative noise.
    """
    zeros = _scan_zeros(fn, start, abs_tol)
    if zeros is None:
        return _doubling_tail(fn, start, abs_tol, closed_form)
    step = 0.25 * float(np.median(np.diff(zeros)))

    partial = closed_form + _tail_block(fn, start, zeros[0], abs_tol)
    sums: list[float] = []
    sizes: list[float] = []
    mids: list[float] = []
    recent: list[float] = []
    a = zeros[0]
    for n in range(1, _HALF_CYCLES + 1):
        b = zeros[n] if n < len(zeros) else _next_zero(fn, a, step)
        block = _tail_block(fn, a, b, abs_tol)
        partial += block
        sums.append(partial)
        sizes.append(abs(block))
        mids.append(0.5 * (a + b))
        recent.append(wynn_epsilon(sums[-_WYNN_WINDOW:]))
        if len(recent) >= 3 and max(recent[-3:]) - min(recent[-3:]) < abs_tol:
            window = sizes[-_WYNN_WINDOW:]
            if (window[-1] >= window[0] * (1.0 - _MIN_SHRINK)
                    or _size_floor(mids[-len(window):], window) > _MAX_FLOOR_SHARE * window[-1]):
                # the extrapolants agree on the Abel value of a divergent sum
                raise QuadratureNoConvergence(
                    f"tail half-cycles from {start:g} do not shrink to zero: the integral diverges"
                )
            return recent[-1]
        a = b
    raise QuadratureNoConvergence(
        f"tail integral from {start:g} did not settle within {_HALF_CYCLES} half-cycles"
    )


def complex_quad(fn, a, b, abs_tol, limit=400):
    """quad for complex-valued integrands (real and imaginary parts separately)."""
    re = quad_checked(lambda u: fn(u).real, a, b, abs_tol=abs_tol, limit=limit)
    im = quad_checked(lambda u: fn(u).imag, a, b, abs_tol=abs_tol, limit=limit)
    return re + 1j * im


# ------------------------------------------------------ stable-law series

@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation contract for the stable-law power series.

    The sum stops at the first term below abs_tol that is smaller than its
    predecessor, i.e. on the decreasing side of the hump.  The stop is
    absolute: when every term is below abs_tol the sum is its first term
    (propagator_series at delta = 0.1, t = 1, x = 1.8e16 gives 1.32e-18
    against a true 8.17e-19).  ratio_guard aborts runaway growth.
    """

    max_terms: int = 400
    abs_tol: float = 1e-14
    ratio_guard: float = 1e8

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.abs_tol <= 0.0:
            raise ValueError("abs_tol must be > 0")


DEFAULT_SERIES = SeriesPolicy()


def _stable_log_terms(delta, n, r, p, q, ln_xi, ln_front=0.0):
    """ln |term n| without its angular factor; n and ln_xi may be arrays."""
    return _gammaln(n * delta + r) - _gammaln(p * n + q) + n * ln_xi + ln_front


def _stable_sign(delta: float, n: int) -> float:
    """The angular factor of term n, (1/pi) (-1)^(n-1) sin(n pi delta/2)."""
    return (1.0 / math.pi) * (-1.0) ** (n - 1) * math.sin(n * math.pi * delta / 2.0)


def _stable_series(delta: float, r, p, q, ln_xi: float, ln_front: float,
                   policy: SeriesPolicy | None = None) -> float:
    """The series at one argument, summed in log space until policy
    (default DEFAULT_SERIES) stops it.

    Raises SeriesBudgetExceeded, with the partial sum and a tail bound, when
    a term overflows float range, outgrows its predecessor by ratio_guard,
    or max_terms terms do not reach abs_tol.
    """
    policy = policy or DEFAULT_SERIES
    r, p, q = float(r), float(p), float(q)  # gammaln of a Python int is 5x slower
    total = 0.0
    prev_m = math.inf
    for n in range(1, policy.max_terms + 1):
        lnm = _stable_log_terms(delta, n, r, p, q, ln_xi, ln_front)
        if lnm > 700.0:
            # the hump exceeds float range; near delta = p the coefficient
            # decay (pn)^-(p-delta) sets in far too late for this argument
            raise SeriesBudgetExceeded(
                f"term magnitude overflows at n = {n}; argument too large for "
                f"the series at delta = {delta:g}",
                partial_sum=total, tail_bound=math.inf,
            )
        m = math.exp(lnm)
        total += _stable_sign(delta, n) * m
        if m < policy.abs_tol and m < prev_m:
            return total
        if m > prev_m * policy.ratio_guard:
            raise SeriesBudgetExceeded(
                f"term ratio exceeded guard {policy.ratio_guard:g} at n = {n}",
                partial_sum=total, tail_bound=m,
            )
        prev_m = m
    raise SeriesBudgetExceeded(
        f"series did not reach abs_tol = {policy.abs_tol:g} within {policy.max_terms} terms",
        partial_sum=total, tail_bound=prev_m,
    )
