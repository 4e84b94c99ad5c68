"""Nonlocal diffusion: heavy-tailed propagator, density evolution, stable
sampling, and the diagnostics that pin down the tail statistics.

d rho / dt = Lap rho spreads mass through jumps of every length with a
power-law rate; its propagator

    W(x, t) = (1/pi) int_0^inf e^{-a_delta k^delta t} cos(kx) dk

is the symmetric stable density with characteristic function
e^{-a_delta |k|^delta t}: normalized, positive, symmetric, a semigroup in
t, shrinking to zero uniformly as t grows.  Variance and all higher even
moments diverge (the |x|^(-1-delta) tail), which is exactly what the
truncated-moment and tail-slope diagnostics measure.  delta = 1 is the
Cauchy/Lorentzian closed form; t < 0 is rejected, the process is
irreversible.

Monte Carlo cross-validation draws i.i.d. symmetric stable variates with
scale (a_delta t)^(1/delta) by the standard trigonometric transform and
compares their empirical distribution against the numeric CDF (grid core
plus analytic tail series).
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DeltaOutOfRange,
    LOutOfGrid,
    OriginSingular,
    TimeNonPositive,
    ValidationError,
    _check_integer,
    _check_not_nan,
    _check_positive,
    _float_range,
    check_finite,
)
from .grids import Grid1D, RealField, apply_symbol, sample_kernel
from .operator import flux_apply, laplacian_apply_spectral
from .params import MediumParams, dispersion
from .quadrature import (ABS_TOL, _series_terms, _stable_log_terms, _stable_series, _stable_sign, image_series,
                         quad_checked)

__all__ = [
    "SampleBatch",
    "propagator",
    "propagator_cauchy",
    "propagator_series",
    "propagator_quadrature",
    "diffuse",
    "sample_levy",
    "numeric_cdf",
    "tail_cdf_mass",
    "truncated_moment",
    "continuity_residual",
    "fit_tail_exponent",
    "ks_distance",
]

# sampler chunking: fixed-size chunks, each drawn from its own sub-seed
# spawned from the master seed; the chunked sub-seeds define the stream
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of stable jump displacements; scale is finite and
    > 0 (NonPositiveScale), seed an integer >= 0 (ValidationError)."""

    delta: float
    scale: float
    seed: int
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_positive(scale=self.scale)
        _check_integer(least=0, seed=self.seed)
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("samples contain non-finite values")

    def to_csv(self, path) -> None:
        """One column ``x``; the metadata line before the header records
        delta/scale/seed.  Written by ``write_csv_atomic`` like every other
        table."""
        from .io import write_csv_atomic

        write_csv_atomic(str(path), ["x"], np.asarray(self.samples, dtype=np.float64),
                         preamble=f"# delta={float(self.delta)!r} scale={float(self.scale)!r} seed={self.seed}")


def _heat_symbol(params: MediumParams, t: float, k: np.ndarray) -> np.ndarray:
    """e^{-omega^2(k) t}, built in place in one new array."""
    out = dispersion(params, k)
    np.negative(out, out=out)
    out *= t
    return np.exp(out, out=out)


def propagator(params: MediumParams, grid: Grid1D, t: float, *, line: bool = False) -> RealField:
    """W(., t) sampled on a centered grid by FFT of e^{-omega^2(k) t}.

    The symbol decays stretched-exponentially, so no damping ladder is
    needed; choose dx small enough that the Nyquist symbol is negligible.
    The synthesis is the periodic kernel sum_m W(x + m L), whose discrete
    mass is exactly 1; its images of the |x|^(-1-delta) tail fall off only
    like L^(-1-delta).  With ``line`` they are subtracted in closed form
    (quadrature.image_series), which leaves the infinite-line samples,
    mass 1 - P(|X| >= L/2), and raises SeriesBudgetExceeded where the tail
    series has not settled at |x| = L/2 (for delta >= 1, where L/2 does
    not span many scales (a t)^(1/delta)).
    """
    _check_positive(error=TimeNonPositive, t=t)
    values = sample_kernel(grid, _heat_symbol(params, t, grid.k_half))
    if line:
        m = grid.n // 2
        # x = -j dx at index m - j, so u = x/L = -j/n; the kernel is even
        images = image_series(params.delta, 1, 1, 1, math.log(params.a_delta * t),
                              grid.length, np.arange(m + 1) / grid.n)
        values[m::-1] -= images
        values[m + 1 :] = values[m - 1 : 0 : -1]
    return RealField(grid, values)


def propagator_cauchy(params: MediumParams, x, t: float):
    """delta = 1 closed form: (1/pi) s / (x^2 + s^2) with s = a_1 t.

    Evaluated as (s/h)/h/pi with h = hypot(x, s), which forms no x^2 or
    s^2, so it overflows only where the value does.  An s or a value
    beyond float range raises NumericError.
    """
    _check_positive(error=TimeNonPositive, t=t)
    _check_not_nan(x=x)
    if abs(params.delta - 1.0) > 1e-12:
        raise DeltaOutOfRange(f"closed form requires delta = 1, got {params.delta}")
    with _float_range(f"the Cauchy propagator at t = {t:g}"):
        s = params.a_delta * t
        if not 0.0 < s < math.inf:  # Python's * leaves float range silently
            raise ArithmeticError
        h = np.hypot(x, s)
        vals = s / h / h / math.pi
    return float(vals) if np.ndim(x) == 0 else vals


def propagator_series(params: MediumParams, x: float, t: float) -> float:
    """W(x, t), x != 0, by its power series; convergent only for delta < 1.

    W = (1/pi) sum_{n>=1} (-1)^(n-1) (n delta)!/n! sin(pi n delta / 2)
        (a t)^n |x|^(-n delta - 1).

    For delta >= 1 the series diverges and the request is rejected; no
    analytic-continuation heroics.
    """
    check_finite(x=x)
    _check_positive(error=TimeNonPositive, t=t)
    if not params.delta < 1.0:
        raise DeltaOutOfRange(
            f"propagator series converges only for delta < 1, got {params.delta}"
        )
    if x == 0.0:
        raise OriginSingular("series propagator is defined for x != 0")
    ln_xi = math.log(params.a_delta * t) - params.delta * math.log(abs(x))
    return _stable_series(params.delta, 1, 1, 1, ln_xi, -math.log(abs(x)))


def propagator_quadrature(params: MediumParams, x: float, t: float) -> float:
    """W(x, t) by quadrature along the ray k = c u e^{i theta} (oracle grade).

    theta = pi/2 below delta = 1/2, and pi/(4 delta), the middle of the
    sector where Re k^delta > 0, from 1/2 up: e^{-a t k^delta} and e^{ik|x|}
    both decay, also near delta = 1, where on the imaginary axis the first
    barely does.  c puts the integrand's width at u ~ 1: 1/|x| beyond the
    scale (a t)^(1/delta), inside it 1/scale on the ray and 1 on the axis
    (for small delta, u^delta decays too slowly for the wider span).
    At x = 0, W = Gamma(1 + 1/delta) (a t)^(-1/delta) / pi in closed form.
    W is held to max(ABS_TOL, 1e-11 |W|), not the scaled integral to
    ABS_TOL; past quad's reach (tiny x and t, W huge) the route refuses.
    """
    check_finite(x=x)
    _check_positive(error=TimeNonPositive, t=t)
    d = params.delta
    if x == 0.0:
        ln_w = math.lgamma(1.0 + 1.0 / d) - (math.log(params.a_delta) + math.log(t)) / d
        with _float_range(f"W(0, t) = e^{ln_w:g}/pi"):
            return math.exp(ln_w) / math.pi
    a_t = params.a_delta * t
    ln_scale = math.log(a_t) / d
    c = 1.0 / abs(x) if math.log(abs(x)) > ln_scale else math.exp(-ln_scale) if d >= 0.5 else 1.0
    # e^{i theta} is exactly 1j on the imaginary axis; the real part is the whole answer
    theta = math.pi / 2.0 if d < 0.5 else math.pi / (4.0 * d)
    rot = 1j if d < 0.5 else cmath.exp(1j * theta)
    phase = cmath.exp(1j * d * theta)
    a_tc = a_t * c**d
    ixa = 1j * rot * abs(x) * c

    def integrand(u):
        return (rot * cmath.exp(-a_tc * u**d * phase + u * ixa)).real

    return c * quad_checked(integrand, 0.0, np.inf, abs_tol=ABS_TOL * min(1.0, math.pi / c)) / math.pi


def diffuse(params: MediumParams, rho0: RealField, t: float) -> RealField:
    """Evolve a density by e^{-omega^2(k) t}; mass is conserved exactly.

    t must be finite and >= 0 (TimeNonPositive): the semigroup has no
    inverse among densities, its backward multiplier grows without bound.
    """
    _check_positive(error=TimeNonPositive, or_zero=True, t=t)
    return apply_symbol(rho0, _heat_symbol(params, t, rho0.grid.k_half))


def sample_levy(params: MediumParams, t: float, n: int, seed: int) -> SampleBatch:
    """n i.i.d. symmetric stable displacements with scale (a_delta t)^(1/delta).

    Chambers-Mallows-Stuck transform of a uniform angle phi and an
    exponential mixture w, one expression on the whole band: at delta = 1
    the mixture's power is 0 and it gives tan(phi), the Cauchy law, to
    rounding.  The empirical characteristic function converges to
    e^{-a_delta |k|^delta t}.  Chunks of 2^16 draws, each from its own
    sub-seed spawned from ``seed``, define the stream.  NumericError: beyond float range.
    """
    _check_positive(error=TimeNonPositive, t=t)
    _check_integer(least=1, n=n)
    _check_integer(least=0, seed=seed)
    delta = params.delta
    with _float_range(f"a stable sample for delta = {delta:g}, t = {t:g}"):
        scale = (params.a_delta * t) ** (1.0 / delta)
        if not 0.0 < scale < math.inf:  # underflow, and Python's *, raise nothing
            raise ArithmeticError
        n_chunks = (n + _CHUNK - 1) // _CHUNK
        seqs = np.random.SeedSequence(seed).spawn(n_chunks)
        out = np.empty(n)
        for i, ss in enumerate(seqs):
            lo = i * _CHUNK
            hi = min(lo + _CHUNK, n)
            m = hi - lo
            rng = np.random.default_rng(ss)
            phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0, m)
            w = rng.exponential(1.0, m)
            out[lo:hi] = (
                np.sin(delta * phi)
                / np.cos(phi) ** (1.0 / delta)
                * (np.cos((1.0 - delta) * phi) / w) ** ((1.0 - delta) / delta)
            )
        return SampleBatch(delta=delta, scale=scale, seed=seed, samples=scale * out)


def tail_cdf_mass(params: MediumParams, x, t: float):
    """P(X > x), x > 0, by the term-by-term integral of the tail series.

    Its x-derivative is minus the propagator series.  The series engine's
    stop rule takes the terms at the smallest x, where each is largest, and
    the same terms are summed at every x; x = +inf gives 0.  Convergent for
    delta < 1, but far inside the scale (a t)^(1/delta) its terms cancel;
    from 1 up the expansion is asymptotic.  SeriesBudgetExceeded is raised
    where the series does not settle at the smallest x, or where the
    rounding of the terms summed there exceeds ABS_TOL.
    """
    _check_positive(error=TimeNonPositive, t=t)
    xa = np.asarray(x, dtype=float)
    if not np.all(xa > 0.0):
        raise ValidationError("tail mass needs x > 0")
    d = params.delta
    ln_xi = math.log(params.a_delta * t) - d * np.log(xa)
    top = float(np.max(ln_xi, initial=-math.inf))
    terms = len(_series_terms(d, lambda n: _stable_log_terms(d, n, 0.0, 1.0, 1.0, top))[1])
    tot = sum(_stable_sign(d, n) * np.exp(_stable_log_terms(d, n, 0.0, 1.0, 1.0, ln_xi))
              for n in range(1, terms + 1))
    return float(tot) if np.ndim(x) == 0 else tot


def numeric_cdf(params: MediumParams, t: float, xq, grid: Grid1D | None = None):
    """CDF of W(., t) at query points: grid core plus analytic tail.

    Up to the grid's last point the cumulative trapezoid of the
    infinite-line propagator (``propagator(..., line=True)``) is
    interpolated (anchored at CDF(0) = 1/2 by symmetry); beyond it
    tail_cdf_mass takes over, whose series the line propagator has settled
    at |x| = L/2.  The default grid has dx = 0.01 and the fewest points, a
    power of 2 up to 2^19, whose half-width is at least 25 and covers the
    reach the image series needs at |x| = L/2: for delta >= 1, where it is
    asymptotic, 32 scales (a t)^(1/delta); below 1, one scale, so that no
    term outgrows the first.
    """
    _check_positive(error=TimeNonPositive, t=t)
    _check_not_nan(xq=xq)
    if grid is None:
        d, dx, n = params.delta, 0.01, 1 << 10
        ln_reach = math.log(params.a_delta * t) / d + (math.log(32.0) if d >= 1.0 else 0.0)
        while n < 1 << 19 and ((n // 2 - 1) * dx < 25.0 or math.log(n // 2 * dx) < ln_reach):
            n *= 2
        grid = Grid1D.centered(n, dx)
    w = propagator(params, grid, t, line=True)
    x = grid.x
    cum = np.concatenate([[0.0], np.cumsum(_trapezoids(w.values, x))])
    cum = cum - cum[grid.n // 2] + 0.5
    xqa = np.asarray(xq, dtype=float)
    out = np.empty_like(xqa)
    far = np.abs(xqa) > x[-1]
    out[~far] = np.interp(xqa[~far], x, cum)
    tail = tail_cdf_mass(params, np.abs(xqa[far]), t)
    out[far] = np.where(xqa[far] > 0.0, 1.0 - tail, tail)
    return float(out) if np.ndim(xq) == 0 else out


def ks_distance(samples: np.ndarray, cdf_values_sorted: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic of samples against their model CDF values.

    ``samples`` must be in ascending order, at least one, and
    ``cdf_values_sorted`` the model CDF evaluated at them, one value per
    sample; ValidationError otherwise.
    """
    n = np.size(cdf_values_sorted)
    if n == 0:
        raise ValidationError("ks_distance needs at least one sample")
    samples = np.asarray(samples)
    if samples.shape != (n,):
        raise ValidationError(f"ks_distance needs one CDF value per sample, got {samples.size} samples "
                              f"and {n} values")
    if np.any(samples[1:] < samples[:-1]):
        raise ValidationError("ks_distance needs the samples in ascending order")
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(
        max(np.max(np.abs(steps_hi - cdf_values_sorted)), np.max(np.abs(steps_lo - cdf_values_sorted)))
    )


def _trapezoids(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The trapezoid areas between neighbouring samples, in scipy's
    cumulative_trapezoid and trapezoid arithmetic."""
    return np.diff(x) * (y[1:] + y[:-1]) / 2.0


def _window(grid: Grid1D, lo: float, hi: float) -> tuple[slice, np.ndarray]:
    """The grid points with lo <= x <= hi, as an index slice and their x,
    bit for bit the slice of grid.x, without building grid.x: x rises with
    the index, so the points are one contiguous range, found by bisection
    on grid.x's own arithmetic."""
    if not lo <= hi:  # an empty window, or a NaN end
        return slice(0, 0), np.empty(0)

    def x_at(j: int) -> float:
        return grid.x_min + grid.dx * j

    first = bisect_left(range(grid.n), lo, key=x_at)
    end = bisect_right(range(grid.n), hi, key=x_at)
    return slice(first, end), grid.x_min + grid.dx * np.arange(first, end)


def truncated_moment(w: RealField, p: int, L: float) -> float:
    """int_{-L}^{L} x^p W(x) dx on the grid (trapezoid).

    Odd p vanish by symmetry; even p >= 2 grow like L^(p - delta): the
    moments have no infinite-window limit.  p is an integer in 1..4, never
    a bool; L is finite and > 0 (NonPositiveScale) and inside the grid.
    """
    _check_integer(p=p)
    if p not in (1, 2, 3, 4):
        raise ValidationError(f"moment order must be 1..4, got {p}")
    _check_positive(L=L)
    if L > -w.grid.x_min or L > w.grid.x_min + w.grid.dx * (w.grid.n - 1):
        raise LOutOfGrid(f"window [-{L}, {L}] extends beyond the grid")
    rows, x = _window(w.grid, -L, L)
    return float(_trapezoids(x ** p * w.values[rows], x).sum())


def _ddx4(vals: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(vals)
    out[2:-2] = (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (12.0 * dx)
    out[:2] = np.gradient(vals[:3], dx)[:2]
    out[-2:] = np.gradient(vals[-3:], dx)[-2:]
    return out


def continuity_residual(params: MediumParams, rho: RealField) -> RealField:
    """Particle-balance residual d rho/dt + d j/dx = Lap rho + d j/dx.

    The two sides arrive by independent routes: the Laplacian spectrally,
    the flux by direct singular quadrature with its divergence taken by
    fourth-order finite differences.  For a smooth decaying density the
    residual is small relative to max |Lap rho|.
    """
    lap = laplacian_apply_spectral(params, rho)
    j = flux_apply(params, rho)
    return RealField(rho.grid, lap.values + _ddx4(j.values, rho.grid.dx))


def fit_tail_exponent(w: RealField, x_lo: float, x_hi: float) -> float:
    """Least-squares slope of log W against log x on [x_lo, x_hi].

    Approaches -(1 + delta) once the window sits in the single-term tail
    regime (x well beyond the scale (a_delta t)^(1/delta)).  The window
    must satisfy 0 < x_lo < x_hi, as log x needs.
    """
    if not 0.0 < x_lo < x_hi:
        raise LOutOfGrid(f"tail window needs 0 < x_lo < x_hi, got ({x_lo:g}, {x_hi:g})")
    rows, x = _window(w.grid, x_lo, x_hi)
    vals = w.values[rows]
    usable = vals > 0.0
    if np.count_nonzero(usable) < 8:
        raise LOutOfGrid("tail window contains too few usable points")
    coeffs = np.polyfit(np.log(x[usable]), np.log(vals[usable]), 1)
    return float(coeffs[0])
