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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DeltaMismatch,
    DeltaOutOfRange,
    LOutOfGrid,
    NegativeTime,
    OriginSingular,
    TimeNonPositive,
    ValidationError,
)
from .grids import Grid1D, RealField, apply_symbol, sample_kernel
from .operator import flux_apply, laplacian_apply_spectral
from .params import DEFAULT_QUADRATURE, MediumParams, QuadratureConfig, dispersion
from .quadrature import (SeriesPolicy, _stable_log_terms, _stable_series, _stable_sign,
                         complex_quad, quad_checked)

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

# sampler chunking: fixed-size chunks with sub-seeds spawned from the master
# seed, so partitioned/parallel generation reproduces the same stream
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of stable jump displacements."""

    delta: float
    scale: float
    seed: int
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValidationError(f"scale must be > 0, got {self.scale}")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("samples contain non-finite values")

    def to_csv(self, path) -> None:
        """One column ``x``; the metadata line before the header records
        delta/scale/seed.  Written by ``write_csv_atomic`` like every other
        table."""
        from .io import write_csv_atomic

        write_csv_atomic(str(path), ["x"], np.asarray(self.samples, dtype=np.float64).reshape(-1, 1),
                         preamble=f"# delta={float(self.delta)!r} scale={float(self.scale)!r} seed={self.seed}")


def propagator(params: MediumParams, grid: Grid1D, t: float) -> RealField:
    """W(., t) sampled on a centered grid by FFT of e^{-omega^2(k) t}.

    The symbol decays stretched-exponentially, so no damping ladder is
    needed; choose dx small enough that the Nyquist symbol is negligible
    and the grid long enough that the periodic images of the heavy tail
    are below tolerance.  Discrete mass is exactly 1.
    """
    if t <= 0.0:
        raise TimeNonPositive(f"propagator defined for t > 0, got {t}")
    sym = np.exp(-dispersion(params, grid.k_half) * t)
    return RealField(grid, sample_kernel(grid, sym))


def propagator_cauchy(params: MediumParams, x, t: float):
    """delta = 1 closed form: (1/pi) s / (x^2 + s^2) with s = a_1 t."""
    if abs(params.delta - 1.0) > 1e-12:
        raise DeltaMismatch(f"closed form requires delta = 1, got {params.delta}")
    if t <= 0.0:
        raise TimeNonPositive(f"propagator defined for t > 0, got {t}")
    s = params.a_delta * t
    xa = np.asarray(x, dtype=float)
    vals = (1.0 / math.pi) * s / (xa * xa + s * s)
    return float(vals) if np.ndim(x) == 0 else vals


def propagator_series(params: MediumParams, x: float, t: float,
                      policy: SeriesPolicy | None = None) -> float:
    """W(x, t), x != 0, by its power series; convergent only for delta < 1.

    W = (1/pi) sum_{n>=1} (-1)^(n-1) (n delta)!/n! sin(pi n delta / 2)
        (a t)^n |x|^(-n delta - 1).

    For delta >= 1 the series diverges and the request is rejected; no
    analytic-continuation heroics.
    """
    if not params.delta < 1.0:
        raise DeltaOutOfRange(
            f"propagator series converges only for delta < 1, got {params.delta}"
        )
    if x == 0.0:
        raise OriginSingular("series propagator is defined for x != 0")
    if t <= 0.0:
        raise TimeNonPositive(f"propagator defined for t > 0, got {t}")
    ln_xi = math.log(params.a_delta * t) - params.delta * math.log(abs(x))
    return _stable_series(params.delta, 1, 1, 1, ln_xi, -math.log(abs(x)), policy)


def propagator_quadrature(params: MediumParams, x: float, t: float,
                          qcfg: QuadratureConfig | None = None) -> float:
    """W(x, t) by direct quadrature of the Fourier integral (oracle grade).

    For delta < 1 the contour k -> iu turns the integral into a smooth,
    positive, exponentially decaying one; for delta >= 1 the damped
    envelope already dies fast enough for direct adaptive quadrature.
    """
    if t <= 0.0:
        raise TimeNonPositive(f"propagator defined for t > 0, got {t}")
    qcfg = qcfg or DEFAULT_QUADRATURE
    a_t = params.a_delta * t
    d = params.delta
    xa = abs(x)
    if d < 1.0 and xa > 0.0:
        # (1/pi) Re{ i int_0^inf exp(-a t (iu)^delta - u x) du }; for d < 1 the
        # principal branch of (iu)^delta has positive real part, so the
        # rotated integrand decays monotonically
        def integrand(u):
            return 1j * np.exp(-a_t * (u ** d) * np.exp(1j * math.pi * d / 2.0) - u * xa)

        val = complex_quad(integrand, 0.0, np.inf, abs_tol=qcfg.abs_tol,
                          limit=qcfg.max_subdivisions)
        return float(val.real) / math.pi
    # direct: envelope e^{-a t k^delta} confines the mass to k ~ (30/(a t))^(1/delta)
    k_hi = (40.0 / a_t) ** (1.0 / d)
    return quad_checked(lambda k: math.exp(-a_t * k**d) * math.cos(k * xa),
                        0.0, k_hi, abs_tol=qcfg.abs_tol,
                        limit=max(qcfg.max_subdivisions, int(20 * k_hi * xa / math.pi) + 50)) / math.pi


def diffuse(params: MediumParams, rho0: RealField, t: float) -> RealField:
    """Evolve a density by e^{-omega^2(k) t}; mass is conserved exactly.

    t < 0 is rejected: the smoothing semigroup has no inverse among
    densities (and the backward multiplier would amplify without bound).
    """
    if t < 0.0:
        raise NegativeTime(f"diffusion is irreversible; got t = {t}")
    return apply_symbol(rho0, np.exp(-dispersion(params, rho0.grid.k_half) * t))


def sample_levy(params: MediumParams, t: float, n: int, seed: int) -> SampleBatch:
    """n i.i.d. symmetric stable displacements with scale (a_delta t)^(1/delta).

    Trigonometric transform of a uniform angle and an exponential mixture;
    the empirical characteristic function converges to
    e^{-a_delta |k|^delta t}.  Chunked generation with spawned sub-seeds
    keeps the stream reproducible under partitioning.
    """
    if t <= 0.0:
        raise TimeNonPositive(f"sampling needs t > 0, got {t}")
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    delta = params.delta
    scale = (params.a_delta * t) ** (1.0 / delta)
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    seqs = np.random.SeedSequence(seed).spawn(n_chunks)
    out = np.empty(n)
    cauchy = abs(delta - 1.0) < 1e-12
    for i, ss in enumerate(seqs):
        lo = i * _CHUNK
        hi = min(lo + _CHUNK, n)
        m = hi - lo
        rng = np.random.default_rng(ss)
        phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0, m)
        if cauchy:
            out[lo:hi] = np.tan(phi)
        else:
            w = rng.exponential(1.0, m)
            out[lo:hi] = (
                np.sin(delta * phi)
                / np.cos(phi) ** (1.0 / delta)
                * (np.cos((1.0 - delta) * phi) / w) ** ((1.0 - delta) / delta)
            )
    return SampleBatch(delta=delta, scale=scale, seed=seed, samples=scale * out)


# Terms summed by tail_cdf_mass, for delta < 1 and delta >= 1.  Below 1
# the series converges and 14 terms hold once x is a few scales out; from
# 1 up it is asymptotic, and optimal truncation keeps its leading 4.
_TAIL_TERMS = (14, 4)


def tail_cdf_mass(params: MediumParams, x, t: float):
    """P(X > x) for x >> scale, term-by-term integral of the tail series.

    Its x-derivative is minus the propagator series.  Convergent for
    delta < 1; for delta >= 1 the same expression is the asymptotic
    expansion and only its leading terms are summed (optimal truncation),
    accurate once x is a few scales out.
    """
    d = params.delta
    terms = _TAIL_TERMS[d >= 1.0]
    ln_xi = math.log(params.a_delta * t) - d * np.log(np.asarray(x, dtype=float))
    tot = sum(_stable_sign(d, n) * np.exp(_stable_log_terms(d, n, 0, 1, 1, ln_xi))
              for n in range(1, terms + 1))
    return float(tot) if np.ndim(x) == 0 else tot


def numeric_cdf(params: MediumParams, t: float, xq, core_halfwidth: float = 25.0,
                grid: Grid1D | None = None):
    """CDF of W(., t) at query points: grid core plus analytic tail.

    Inside |x| <= core_halfwidth the cumulative trapezoid of the FFT
    propagator is interpolated (anchored at CDF(0) = 1/2 by symmetry);
    beyond, the tail series takes over.  The default grid keeps the
    periodic-image bias of the cumulative below ~1e-3 for the delta range
    of the acceptance checks.
    """
    if grid is None:
        grid = Grid1D.centered(1 << 19, 0.01)
    w = propagator(params, grid, t)
    x = grid.x
    cum = np.concatenate([[0.0], np.cumsum(_trapezoids(w.values, x))])
    cum = cum - cum[grid.n // 2] + 0.5
    xqa = np.asarray(xq, dtype=float)
    out = np.empty_like(xqa)
    hi = xqa > core_halfwidth
    lo = xqa < -core_halfwidth
    mid = ~(hi | lo)
    out[mid] = np.interp(xqa[mid], x, cum)
    out[hi] = 1.0 - tail_cdf_mass(params, xqa[hi], t)
    out[lo] = tail_cdf_mass(params, -xqa[lo], t)
    return float(out) if np.ndim(xq) == 0 else out


def ks_distance(samples: np.ndarray, cdf_values_sorted: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic of samples against their model CDF values.

    ``cdf_values_sorted`` must be the model CDF evaluated at the sorted
    samples.
    """
    n = cdf_values_sorted.size
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
    the index, so the points are one contiguous range."""
    if not lo <= hi:  # an empty window, or a NaN end
        return slice(0, 0), np.empty(0)

    def x_at(j: int) -> float:
        return grid.x_min + grid.dx * j

    q_lo, q_hi = np.clip([(lo - grid.x_min) / grid.dx, (hi - grid.x_min) / grid.dx],
                         -1.0, float(grid.n))
    first = max(math.ceil(q_lo), 0)
    last = min(math.floor(q_hi), grid.n - 1)
    # the quotients are rounded: one step at each end gives exactly the
    # points the comparison with grid.x would select
    if first > 0 and x_at(first - 1) >= lo:
        first -= 1
    elif first < grid.n and x_at(first) < lo:
        first += 1
    if last < grid.n - 1 and x_at(last + 1) <= hi:
        last += 1
    elif last >= 0 and x_at(last) > hi:
        last -= 1
    last = max(last, first - 1)
    return slice(first, last + 1), grid.x_min + grid.dx * np.arange(first, last + 1)


def truncated_moment(w: RealField, p: int, L: float) -> float:
    """int_{-L}^{L} x^p W(x) dx on the grid (trapezoid).

    Odd p vanish by symmetry; even p >= 2 grow like L^(p - delta): the
    moments have no infinite-window limit.
    """
    if p not in (1, 2, 3, 4):
        raise ValidationError(f"moment order must be 1..4, got {p}")
    if L <= 0.0:
        raise LOutOfGrid(f"window must be positive, got {L}")
    g = w.grid
    if L > -g.x_min or L > g.x_min + g.dx * (g.n - 1):
        raise LOutOfGrid(f"window [-{L}, {L}] extends beyond the grid")
    rows, x = _window(g, -L, L)
    return float(_trapezoids(x ** p * w.values[rows], x).sum())


def _ddx4(vals: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(vals)
    out[2:-2] = (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (12.0 * dx)
    edge = np.gradient(vals, dx)
    out[:2] = edge[:2]
    out[-2:] = edge[-2:]
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
    regime (x well beyond the scale (a_delta t)^(1/delta)).
    """
    rows, x = _window(w.grid, x_lo, x_hi)
    vals = w.values[rows]
    usable = vals > 0.0
    if np.count_nonzero(usable) < 8:
        raise LOutOfGrid("tail window contains too few usable points")
    coeffs = np.polyfit(np.log(x[usable]), np.log(vals[usable]), 1)
    return float(coeffs[0])
