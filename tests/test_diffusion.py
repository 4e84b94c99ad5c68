import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.integrate import trapezoid

from selfsim import (
    DeltaMismatch,
    DeltaOutOfRange,
    Grid1D,
    LOutOfGrid,
    NegativeTime,
    TimeNonPositive,
    continuity_residual,
    diffuse,
    fit_tail_exponent,
    ks_distance,
    laplacian_apply_spectral,
    make_params,
    numeric_cdf,
    propagator,
    propagator_cauchy,
    propagator_quadrature,
    propagator_series,
    sample_levy,
    truncated_moment,
)
from selfsim.diffusion import tail_cdf_mass
from selfsim.errors import NumericError, OriginSingular, SeriesBudgetExceeded, ValidationError
from selfsim.quadrature import ABS_TOL

from oracles import (
    fit_tail_exponent_reference,
    lorentzian_cdf,
    numeric_cdf_core_reference,
    propagator_direct,
    propagator_quadrature_reference,
    stable_cdf_reference,
    truncated_moment_reference,
)

# exponents drawn across the band 0 < delta < 2, clear of its endpoints
BAND = st.floats(0.05, 1.95, exclude_min=True, exclude_max=True)


class TestPropagator:
    def test_cauchy_point_value(self, params_one):
        grid = Grid1D.centered(1 << 20, 0.04)
        w = propagator(params_one, grid, 1.0)
        assert w.value_near(0.0) == pytest.approx(1.0 / math.pi**2, abs=1e-8)

    @given(delta=BAND)
    def test_mass_symmetry_positivity(self, delta):
        # t puts the Nyquist symbol at e^-40, below rounding
        p = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(2048, 0.05)
        w = propagator(p, grid, 40.0 / (p.a_delta * (math.pi / 0.05) ** delta))
        assert w.mass() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(w.values[1:] - w.values[1:][::-1])) < 1e-12 * w.values.max()
        assert w.values.min() >= -1e-8 * w.values.max()

    def test_peak_decays_in_time(self, params_half):
        grid = Grid1D.centered(1 << 16, 0.02)
        peaks = [propagator(params_half, grid, t).values.max() for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_time_validation(self, params_half):
        grid = Grid1D.centered(256, 0.1)
        with pytest.raises(TimeNonPositive):
            propagator(params_half, grid, 0.0)

    def test_matches_direct_quadrature(self, params_three_halves):
        grid = Grid1D.centered(1 << 16, 0.02)
        w = propagator(params_three_halves, grid, 0.8)
        for x in (0.0, 1.0, 4.0):
            orc = propagator_direct(1.5, x, 0.8, params_three_halves.a_delta)
            # periodic images of the x^-2.5 tail cap the grid accuracy here
            assert w.value_near(x) == pytest.approx(orc, rel=5e-6)


class TestLinePropagator:
    """propagator(..., line=True): the periodic images of the tail taken off
    in closed form (quadrature.image_series), leaving infinite-line samples."""

    @given(delta=BAND, a_t=st.floats(0.1, 10.0), n=st.sampled_from([1 << 12, 1 << 13, 1 << 14]))
    @example(delta=1.0, a_t=math.pi, n=1 << 14)
    @example(delta=0.5, a_t=0.5, n=1 << 12)
    @example(delta=1.949, a_t=10.0, n=1 << 12)
    def test_matches_pointwise_routes_on_band(self, delta, a_t, n):
        p = make_params(delta, 1.0, 1.0)
        t = a_t / p.a_delta
        scale = a_t ** (1.0 / delta)
        # dx resolves the symbol: a t k^delta = 36 at the Nyquist wavenumber
        grid = Grid1D.centered(n, math.pi * scale / 36.0 ** (1.0 / delta))
        # only grids whose L/2 spans many scales: below delta ~ 0.47 no grid
        # of 2^14 points that resolves the symbol does
        assume(grid.length / 2.0 >= 4.0 * scale)
        w = propagator(p, grid, t, line=True)
        m = n // 2
        if delta == 1.0:
            assert np.max(np.abs(w.values - propagator_cauchy(p, grid.x, t))) <= 1e-12
        # the ray quadrature is absolute to ABS_TOL, out to the grid's edge
        for j in [min(m + round(r * scale / grid.dx), n - 1) for r in (0.0, 0.5, 2.0, 8.0)] + [n - 1]:
            assert abs(w.values[j] - propagator_quadrature(p, float(grid.x[j]), t)) <= ABS_TOL
        if delta < 1.0:
            # from two scales out the series terms fall at least like 2^(-n delta)
            for j in (m + math.ceil(2.0 * scale / grid.dx), m + n // 8, m + n // 4, n - 1):
                j = min(j, n - 1)
                x = float(grid.x[j])
                if x >= 2.0 * scale:
                    assert abs(w.values[j] - propagator_series(p, x, t)) <= 1e-12

    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
    def test_mass_is_the_lorentzian_mass_inside_half_the_grid(self, params_one, t):
        # the periodic kernel has mass exactly 1; the line samples have
        # P(|X| < L/2) = (2/pi) arctan(L / (2 s)), s = a t, less the
        # trapezoid rule's end correction (dx^2/12) (W'(-L/2) - W'(L/2))
        grid = Grid1D.centered(1 << 12, 0.04)
        w = propagator(params_one, grid, t, line=True)
        s, half = params_one.a_delta * t, grid.length / 2.0
        slope = -2.0 * s * half / (math.pi * (half * half + s * s) ** 2)  # W'(L/2)
        want = (2.0 / math.pi) * math.atan(half / s) + grid.dx**2 / 6.0 * slope
        assert w.mass() == pytest.approx(want, abs=1e-12)
        assert w.values[1:].tobytes() == w.values[1:][::-1].tobytes()

    def test_cauchy_gates_on_a_grid_64_times_smaller(self, params_one):
        # AC07's 1e-8 gates on 2^14 points; the periodic kernel needed 2^20
        grid = Grid1D.centered(1 << 14, 0.04)
        exact = propagator_cauchy(params_one, grid.x, 1.0)
        periodic = propagator(params_one, grid, 1.0)
        line = propagator(params_one, grid, 1.0, line=True)
        assert np.max(np.abs(periodic.values - exact)) > 1e-6
        assert np.max(np.abs(line.values - exact)) < 1e-8
        assert abs(line.value_near(0.0) - 1.0 / math.pi**2) < 1e-8

    @pytest.mark.parametrize("delta,half_scales,match", [
        (1.5, 2.0, "overflows"),  # asymptotic: its terms turn before the stop
        (1.95, 8.0, "overflows"),
        (0.3, 1e-3, "hump"),  # convergent, but cancelling far above its value
    ])
    def test_refuses_where_the_image_series_cannot_settle(self, delta, half_scales, match):
        p = make_params(delta, 1.0, 1.0)
        scale = p.a_delta ** (1.0 / delta)
        grid = Grid1D.centered(1 << 10, 2.0 * half_scales * scale / (1 << 10))
        with pytest.raises(SeriesBudgetExceeded, match=match):
            propagator(p, grid, 1.0, line=True)
        assert propagator(p, grid, 1.0).mass() == pytest.approx(1.0, abs=1e-12)


class TestPropagatorCauchy:
    def test_peak_and_half_width(self, params_one):
        s = params_one.a_delta
        assert propagator_cauchy(params_one, 0.0, 1.0) == pytest.approx(1.0 / math.pi**2, rel=1e-14)
        assert propagator_cauchy(params_one, s, 1.0) == pytest.approx(
            0.5 * propagator_cauchy(params_one, 0.0, 1.0), rel=1e-14
        )

    def test_analytic_mass(self, params_one):
        # arctan antiderivative: window mass 2 arctan(X/s)/pi
        x = np.linspace(-500.0, 500.0, 200001)
        num = float(trapezoid(propagator_cauchy(params_one, x, 1.0), x))
        want = 2.0 * math.atan(500.0 / params_one.a_delta) / math.pi
        assert num == pytest.approx(want, abs=1e-9)

    def test_wrong_exponent_rejected(self, params_half):
        with pytest.raises(DeltaMismatch):
            propagator_cauchy(params_half, 0.0, 1.0)


class TestPropagatorSeries:
    def test_rejected_at_and_above_one(self):
        for delta in (1.0, 1.2, 1.9):
            p = make_params(delta, 1.0, 1.0)
            with pytest.raises(DeltaOutOfRange):
                propagator_series(p, 1.0, 1.0)

    def test_origin_rejected(self, params_half):
        with pytest.raises(OriginSingular):
            propagator_series(params_half, 0.0, 1.0)

    def test_leading_tail_term(self, params_half):
        # far out, one term dominates: (1/pi) G(1+d) sin(pi d/2) a t |x|^(-1-d)
        p = params_half
        lead = lambda x: (  # noqa: E731
            math.gamma(1.5) * math.sin(math.pi / 4.0) * p.a_delta / (math.pi * x**1.5)
        )
        # the correction decays only like x^-1/2, so push far out
        assert propagator_series(p, 1e6, 1.0) == pytest.approx(lead(1e6), rel=1e-2)
        err_near = abs(propagator_series(p, 1e3, 1.0) - lead(1e3)) / lead(1e3)
        err_far = abs(propagator_series(p, 1e6, 1.0) - lead(1e6)) / lead(1e6)
        assert err_far < err_near

    def test_vanishes_at_small_time(self, params_half):
        assert propagator_series(params_half, 3.0, 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_tiny_value_is_its_first_term(self):
        # the stop is absolute (1e-14): when every term is below it the sum
        # is its first term, 1.32e-18 here against a true 8.17e-19
        p = make_params(0.1, 1.0, 1.0)
        x = 1.8e16
        first = math.gamma(1.1) * math.sin(0.05 * math.pi) * p.a_delta / (math.pi * x**1.1)
        got = propagator_series(p, x, 1.0)
        assert got == 1.3158313955408703e-18
        assert got == pytest.approx(first, rel=1e-12)

    def test_matches_rotated_quadrature(self, params_half):
        for x, t in ((3.0, 1.0), (1.0, 0.5), (10.0, 2.0)):
            s = propagator_series(params_half, x, t)
            q = propagator_quadrature(params_half, x, t)
            assert s == pytest.approx(q, rel=1e-9)

    @given(delta=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True))
    def test_matches_rotated_quadrature_on_band(self, delta):
        # at x = 1 and xi = a t/|x|^delta on the edge of the convergence
        # domain halved (the cap of the benchmark's oracle draws); measured
        # worst 1.6e-11 on 60 exponents
        p = make_params(delta, 1.0, 1.0)
        t = min(2.0, 2.0 ** (-(delta - 0.75) / 0.1)) / p.a_delta
        assert propagator_series(p, 1.0, t) == pytest.approx(
            propagator_quadrature(p, 1.0, t), rel=1e-9)

    def test_quadrature_matches_series_thousands_of_units_out(self, params_half):
        # the integrand lives in u < 1/|x| there; scaled by 1/|x| it is found
        # (2.19e-11 against 4.67e-6 before, without refusing)
        for x in (7984.0, 20000.0):
            assert propagator_quadrature(params_half, x, 4.0) == pytest.approx(
                propagator_series(params_half, x, 4.0), rel=1e-8)

    @pytest.mark.parametrize("delta", [0.995, 0.998, 0.999])
    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.01])
    def test_quadrature_answers_just_below_one(self, delta, x):
        # on the imaginary axis e^{-a t k^delta} barely decays near delta = 1,
        # and quad refused all of these; the ray at pi/(4 delta) answers
        p = make_params(delta, 1.0, 1.0)
        got = propagator_quadrature(p, x, 1.0)
        assert got == pytest.approx(propagator_quadrature(p, 0.0, 1.0), rel=1e-3)

    def test_matches_grid_propagator_far_field(self, params_half):
        # long tuned grid so the periodic images of the heavy tail stay
        # below the 1e-6 comparison level at |x| = 3
        grid = Grid1D.centered(1 << 23, 0.1)
        w = propagator(params_half, grid, 1.0)
        want = propagator_series(params_half, 3.0, 1.0)
        assert w.value_near(3.0) == pytest.approx(want, rel=1e-6)


class TestQuadratureBitIdentity:
    def test_real_part_alone_matches_complex_quadrature(self):
        # one quad of the real part, on the ray and scaled, against the complex
        # route on the imaginary axis unscaled, each to ABS_TOL
        rng = np.random.default_rng(15)
        for _ in range(200):
            delta = float(rng.uniform(0.05, 0.95))
            x = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 8.0))
            t = float(rng.uniform(0.05, 5.0))
            p = make_params(delta, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            assert propagator_quadrature(p, x, t) == pytest.approx(
                propagator_quadrature_reference(p, x, t), abs=ABS_TOL), (delta, x, t)


class TestQuadratureRay:
    """From delta = 1/2 up, propagator_quadrature integrates along the ray at
    angle pi/(4 delta); at x = 0 it takes the Gamma form."""

    @staticmethod
    def _bergstroem(p, x, t, terms=10):
        # (1/pi) sum_n (-1)^(n-1) Gamma(n delta + 1)/n! sin(n pi delta/2)
        # (a t)^n x^(-n delta - 1), asymptotic for delta > 1 (Feller, Vol.
        # II, XVII.6); its 10th term is below 1e-20 at both points
        d = p.delta
        return sum((-1) ** (n - 1) * math.sin(n * math.pi * d / 2.0)
                   * math.exp(math.lgamma(n * d + 1.0) - math.lgamma(n + 1.0)
                              + n * math.log(p.a_delta * t) - (n * d + 1.0) * math.log(x))
                   for n in range(1, terms + 1)) / math.pi

    @pytest.mark.parametrize("delta,x,t", [(1.4788722586074652, 266.6423961593377, 1.273018458753433),
                                           (1.1918465787624493, 592.6630907685352, 0.37371659917898126)])
    def test_far_tail_matches_bergstroem_series(self, delta, x, t):
        # the real line cut at (40/(a t))^(1/delta) was off by 1.7e-9 and
        # 1.5e-9 here, the unscaled ray by 2.0e-13 and 7.9e-14; the ray scaled
        # by 1/|x| is off by 1.1e-15 and 6.2e-16
        p = make_params(delta, 1.0, 1.0)
        assert propagator_quadrature(p, x, t) == pytest.approx(self._bergstroem(p, x, t), abs=1e-9)

    @given(delta=st.floats(1.0, 2.0, exclude_max=True), a_t=st.floats(0.1, 10.0))
    def test_origin_limit_is_gamma_form(self, delta, a_t):
        # the ray's value next to the origin meets the closed form at x = 0,
        # where W itself moves by under 1e-12 of W; measured worst 1.7e-11
        # over 600 uniform draws (3.0e-10 on the unscaled ray)
        p = make_params(delta, 1.0, 1.0)
        t = a_t / p.a_delta
        near = propagator_quadrature(p, 1e-6 * a_t ** (1.0 / delta), t)
        assert near == pytest.approx(propagator_quadrature(p, 0.0, t), abs=1e-9)

    def test_origin_beyond_float_range_refused(self):
        # Gamma(21) (a t)^(-20) / pi is about e^880 at a t = 1e-18
        p = make_params(0.05, 1.0, 1.0)
        with pytest.raises(NumericError, match="beyond float range"):
            propagator_quadrature(p, 0.0, 1e-18 / p.a_delta)


class TestTailCdfMass:
    @given(delta=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True))
    def test_derivative_is_propagator_series(self, delta):
        # -d/dx P(X > x) = W(x): the r = 0 series differentiated term by
        # term is the propagator series, at xi = a t/x^delta = 0.1; each call
        # sums the terms the stop rule takes at its x, and the central
        # difference leaves about 1e-8 relative
        p = make_params(delta, 1.0, 1.0)
        for x in (30.0, 100.0):
            t = 0.1 * x**delta / p.a_delta
            h = 1e-4 * x
            slope = (tail_cdf_mass(p, x + h, t) - tail_cdf_mass(p, x - h, t)) / (2.0 * h)
            assert -slope == pytest.approx(propagator_series(p, x, t), rel=1e-6)

    @given(delta=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True))
    @example(delta=0.1)
    def test_tail_is_a_probability_inside_the_scale(self, delta):
        # at x = 30, xi = a t/x^delta at the edge of the convergence domain
        # halved, up to 8: a fixed 14 terms gave -3.24 at delta = 0.1
        p = make_params(delta, 1.0, 1.0)
        t = min(8.0, 2.0 ** (-(delta - 0.75) / 0.1)) * 30.0**delta / p.a_delta
        vals = tail_cdf_mass(p, np.array([30.0, 60.0, 1e6]), t)
        assert np.all((vals > 0.0) & (vals < 0.5)) and np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("delta,scales", [(1.0, 0.5), (1.5, 0.5), (1.95, 0.5), (0.1, 1e-13)])
    def test_refused_inside_the_scale(self, delta, scales):
        # from delta = 1 up the expansion is asymptotic, and inside the scale
        # its terms grow from the first; below 1 it converges, but far inside
        # its terms cancel (at delta = 0.1, xi = 20 the sum was -2.4e6)
        p = make_params(delta, 1.0, 1.0)
        with pytest.raises(SeriesBudgetExceeded):
            tail_cdf_mass(p, scales * p.a_delta ** (1.0 / delta), 1.0)
        # thirty scales out the same series settles, and the Lorentzian agrees
        got = tail_cdf_mass(p, 30.0 * p.a_delta ** (1.0 / delta), 1.0)
        if delta == 1.0:
            assert got == pytest.approx(1.0 - lorentzian_cdf(30.0 * p.a_delta, p.a_delta), rel=1e-12)

    def test_empty_query_and_infinity(self, params_half):
        assert tail_cdf_mass(params_half, np.array([]), 1.0).shape == (0,)
        assert tail_cdf_mass(params_half, math.inf, 1.0) == 0.0


class TestDiffuse:
    def test_identity_at_zero_time(self, params_half, gaussian_field):
        out = diffuse(params_half, gaussian_field, 0.0)
        assert np.max(np.abs(out.values - gaussian_field.values)) < 1e-14

    def test_negative_time_rejected(self, params_half, gaussian_field):
        with pytest.raises(NegativeTime):
            diffuse(params_half, gaussian_field, -0.5)

    @given(delta=BAND)
    @example(delta=0.5)
    def test_mass_conserved(self, delta, gaussian_field):
        out = diffuse(make_params(delta, 1.0, 1.0), gaussian_field, 1.7)
        assert out.mass() == pytest.approx(gaussian_field.mass(), abs=1e-13)

    @given(delta=BAND)
    @example(delta=0.5)
    def test_semigroup(self, delta, gaussian_field):
        params = make_params(delta, 1.0, 1.0)
        one = diffuse(params, gaussian_field, 0.9)
        two = diffuse(params, diffuse(params, gaussian_field, 0.4), 0.5)
        assert np.max(np.abs(one.values - two.values)) / np.max(np.abs(one.values)) < 1e-12

    def test_point_source_matches_cauchy_closed_form(self, params_one):
        grid = Grid1D.centered(1 << 20, 0.04)
        spike = np.zeros(grid.n)
        spike[grid.n // 2] = 1.0 / grid.dx
        from selfsim import RealField

        rho = diffuse(params_one, RealField(grid, spike), 1.0)
        want = propagator_cauchy(params_one, grid.x, 1.0)
        assert np.max(np.abs(rho.values - want)) < 1e-8


class TestSampler:
    def test_deterministic_under_seed(self, params_half):
        a = sample_levy(params_half, 1.0, 5000, 42)
        b = sample_levy(params_half, 1.0, 5000, 42)
        assert np.array_equal(a.samples, b.samples)
        c = sample_levy(params_half, 1.0, 5000, 43)
        assert not np.array_equal(a.samples, c.samples)

    def test_partition_stability(self, params_half):
        # chunked sub-seeding: a longer run extends a shorter one
        a = sample_levy(params_half, 1.0, 1 << 16, 7)
        b = sample_levy(params_half, 1.0, (1 << 16) + 500, 7)
        assert np.array_equal(a.samples, b.samples[: 1 << 16])

    def test_cauchy_quartiles(self, params_one):
        batch = sample_levy(params_one, 1.0, 100_000, 20260808)
        q25, q50, q75 = np.percentile(batch.samples, [25, 50, 75])
        scale = params_one.a_delta
        assert abs(q50) < 0.05 * scale
        assert (q75 - q25) == pytest.approx(2.0 * scale, rel=0.05)

    def test_scale_parameter(self, params_half):
        batch = sample_levy(params_half, 2.0, 10, 1)
        assert batch.scale == pytest.approx((params_half.a_delta * 2.0) ** 2.0, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
    def test_empirical_characteristic_function(self, delta):
        # E exp(ikX) should follow exp(-a_delta |k|^delta t); the empirical
        # average carries O(1/sqrt(n)) noise
        p = make_params(delta, 1.0, 1.0)
        t, n = 0.02, 200_000
        batch = sample_levy(p, t, n, seed=31415)
        for k in (0.05, 0.2, 1.0):
            ecf = np.mean(np.exp(1j * k * batch.samples))
            want = math.exp(-p.a_delta * k**delta * t)
            assert abs(ecf - want) < 4.0 / math.sqrt(n)

    def test_validation(self, params_half):
        with pytest.raises(TimeNonPositive):
            sample_levy(params_half, 0.0, 10, 1)
        with pytest.raises(ValidationError):
            sample_levy(params_half, 1.0, 0, 1)
        for seed in (-1, 1.5, None):
            with pytest.raises(ValidationError):
                sample_levy(params_half, 1.0, 10, seed)

    def test_csv_export(self, params_half, tmp_path):
        batch = sample_levy(params_half, 1.0, 16, 5)
        path = tmp_path / "samples.csv"
        batch.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# delta=0.5 scale=")
        assert "seed=5" in lines[0]
        assert lines[1] == "x"
        assert [float(v) for v in lines[2:]] == pytest.approx(list(batch.samples))


class TestNumericCdf:
    def test_against_lorentzian(self, params_one):
        xq = np.array([-40.0, -5.0, -1.0, 0.0, 2.0, 8.0, 60.0])
        got = numeric_cdf(params_one, 1.0, xq, grid=Grid1D.centered(1 << 18, 0.01))
        want = lorentzian_cdf(xq, params_one.a_delta)
        assert np.max(np.abs(got - want)) < 1e-3

    def test_tail_takes_over_at_the_grids_last_point(self, params_one):
        # half-width 20.48: beyond the last point, 20.47, the tail series
        # answers, where the cumulative would clamp at the grid's edge
        grid = Grid1D.centered(4096, 0.01)
        xq = np.array([-30.0, -20.47, 20.47, 30.0, 1e8])
        got = numeric_cdf(params_one, 1.0, xq, grid=grid)
        assert np.max(np.abs(got - lorentzian_cdf(xq, params_one.a_delta))) < 1e-4
        assert got[3] == pytest.approx(lorentzian_cdf(30.0, params_one.a_delta), rel=1e-12)

    def test_center_and_monotonicity(self, params_half):
        xq = np.linspace(-80.0, 80.0, 401)
        vals = numeric_cdf(params_half, 1.0, xq)
        assert numeric_cdf(params_half, 1.0, 0.0) == pytest.approx(0.5, abs=1e-6)
        assert np.all(np.diff(vals) > -1e-12)
        assert vals[0] > 0.0 and vals[-1] < 1.0

    @staticmethod
    def _handoff(delta, t):
        """The hand-off points of the default grid at time t, the last point
        c and the next float beyond it on either side, and the CDF there:
        the grid has dx = 0.01 and the fewest points (a power of 2 up to 2^19)
        whose half-width is at least 25 and covers the image series' reach."""
        p = make_params(delta, 1.0, 1.0)
        reach = (p.a_delta * t) ** (1.0 / delta) * (32.0 if delta >= 1.0 else 1.0)
        n = 1 << 10
        while n < 1 << 19 and ((n // 2 - 1) * 0.01 < 25.0 or n // 2 * 0.01 < reach):
            n *= 2
        c = (n // 2 - 1) * 0.01
        xq = np.array([np.nextafter(-c, -np.inf), -c, c, np.nextafter(c, np.inf)])
        return p, xq, numeric_cdf(p, t, xq)

    @classmethod
    def _handoff_jumps(cls, delta, times=(0.5, 1.0, 2.0, 4.0)):
        """CDF steps, in the direction of increasing x, across x = -c and x = +c
        at each time: from the last core point to the first tail point."""
        for t in times:
            v = cls._handoff(delta, t)[2]
            yield from (v[1] - v[0], v[3] - v[2])

    @given(delta=st.floats(0.5, 1.95, exclude_max=True))
    @example(delta=0.5)
    def test_continuous_at_core_tail_handoff(self, delta):
        # at the grid's last point the line propagator has settled the same
        # series; the largest jump measured on the band is 3.6e-11
        for jump in self._handoff_jumps(delta):
            assert abs(jump) <= 1e-9

    def test_continuous_at_core_tail_handoff_small_delta(self):
        for jump in self._handoff_jumps(0.3):
            assert abs(jump) <= 1e-9

    def test_continuous_at_core_tail_handoff_at_a_later_time(self):
        # at |x| = 25, under 4 scales out, a fixed 4 tail terms jumped 3.35e-3 here
        for jump in self._handoff_jumps(1.95, (2.0,)):
            assert abs(jump) <= 1e-9

    @given(delta=st.floats(0.25, 1.9), t=st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    @example(delta=1.0, t=2.0)
    @example(delta=1.9, t=2.0)
    def test_matches_levy_stable_across_the_handoff(self, delta, t):
        # at the grid's last point, and at |x| = 25, where a fixed-term tail
        # took over before (off by 1.7e-3 at delta = 1.9, t = 2)
        p, xq, got = self._handoff(delta, t)
        assert np.max(np.abs(got - stable_cdf_reference(p, t, xq))) <= 1e-6
        xq = np.array([-25.0, np.nextafter(-25.0, 0.0), np.nextafter(25.0, 0.0), 25.0, 25.5])
        assert np.max(np.abs(numeric_cdf(p, t, xq) - stable_cdf_reference(p, t, xq))) <= 1e-6

    def test_tail_values_are_probabilities_at_small_delta(self):
        # a fixed 14 tail terms gave [-0.984, 1.984] here; the values are
        # within 1e-10 of levy_stable's
        p = make_params(0.1, 1.0, 1.0)
        vals = numeric_cdf(p, 0.5, [-30.0, 30.0])
        assert np.max(np.abs(vals - stable_cdf_reference(p, 0.5, np.array([-30.0, 30.0])))) <= 1e-9

    @pytest.mark.parametrize("call,error", [
        (lambda p: numeric_cdf(p, 0.0, 1.0), TimeNonPositive),
        (lambda p: numeric_cdf(p, -1.0, 1.0), TimeNonPositive),
        (lambda p: numeric_cdf(p, math.inf, 1.0), TimeNonPositive),
        (lambda p: numeric_cdf(p, math.nan, 1.0), TimeNonPositive),
        (lambda p: tail_cdf_mass(p, 5.0, 0.0), TimeNonPositive),
        (lambda p: tail_cdf_mass(p, 5.0, math.inf), TimeNonPositive),
        (lambda p: tail_cdf_mass(p, 0.0, 1.0), ValidationError),
        (lambda p: tail_cdf_mass(p, -5.0, 1.0), ValidationError),
        (lambda p: tail_cdf_mass(p, np.array([5.0, math.nan]), 1.0), ValidationError),
    ], ids=["cdf_t_zero", "cdf_t_negative", "cdf_t_inf", "cdf_t_nan", "tail_t_zero", "tail_t_inf",
            "tail_x_zero", "tail_x_negative", "tail_x_nan"])
    def test_bad_arguments_are_refused_before_any_work(self, params_half, fft_calls, call, error):
        # t must be finite and > 0, and the tail mass needs x > 0 (+inf gives
        # 0); a math domain error, a nan with a RuntimeWarning, or a 2^19-point
        # grid ending in SeriesBudgetExceeded answered these before
        with pytest.raises(error):
            call(params_half)
        assert fft_calls == []

    def test_ks_distance_of_exact_uniform(self):
        u = (np.arange(1, 101) - 0.5) / 100.0
        assert ks_distance(u, u) == pytest.approx(0.005, abs=1e-12)


class TestMoments:
    def _field(self, params, t=0.5):
        grid = Grid1D.centered(1 << 19, 0.02)
        return propagator(params, grid, t)

    def test_odd_moments_vanish(self, params_half):
        w = self._field(params_half)
        assert abs(truncated_moment(w, 1, 50.0)) < 1e-10
        assert abs(truncated_moment(w, 3, 50.0)) < 1e-7

    def test_second_moment_growth_exponent(self, params_half):
        grid = Grid1D.centered(1 << 21, 0.01)
        w = propagator(params_half, grid, 0.1)
        ratio = truncated_moment(w, 2, 1000.0) / truncated_moment(w, 2, 500.0)
        assert ratio == pytest.approx(2.0 ** 1.5, rel=0.05)

    def test_cauchy_closed_form(self, params_one):
        # m2(L) = (2 s / pi)(L - s arctan(L / s)), s = a_1 t
        grid = Grid1D.centered(1 << 19, 0.02)
        w = grid.sample(lambda x: propagator_cauchy(params_one, x, 1.0))
        s = params_one.a_delta
        for L in (50.0, 200.0, 1000.0):
            want = (2.0 * s / math.pi) * (L - s * math.atan(L / s))
            assert truncated_moment(w, 2, L) == pytest.approx(want, rel=1e-4)

    def test_window_validation(self, params_half):
        w = self._field(params_half)
        with pytest.raises(LOutOfGrid):
            truncated_moment(w, 2, 1e9)
        with pytest.raises(ValidationError):
            truncated_moment(w, 5, 10.0)


class TestTailExponent:
    @pytest.mark.parametrize("delta,t,win", [(0.5, 0.1, (50.0, 150.0)), (1.0, 0.1, (10.0, 40.0))])
    def test_slope_matches_exponent(self, delta, t, win):
        p = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(1 << 20, 0.01)
        w = propagator(p, grid, t)
        assert fit_tail_exponent(w, *win) == pytest.approx(-(1.0 + delta), abs=0.05)

    def test_window_needs_points(self, params_half):
        grid = Grid1D.centered(256, 0.1)
        w = propagator(params_half, grid, 1.0)
        with pytest.raises(LOutOfGrid):
            fit_tail_exponent(w, 100.0, 101.0)

    @pytest.mark.parametrize("window", [(-5.0, 5.0), (0.0, 50.0), (-50.0, -10.0), (50.0, 10.0)])
    def test_window_must_be_positive(self, params_half, window):
        # the fit takes log x, so it needs 0 < x_lo < x_hi; a window
        # reaching x <= 0 ended in numpy's LinAlgError after LAPACK messages
        w = propagator(params_half, Grid1D.centered(4096, 0.05), 1.0)
        with pytest.raises(LOutOfGrid):
            fit_tail_exponent(w, *window)


class TestWindowedDiagnostics:
    """The diagnostics compute x on their window only; their answers must be
    those of a mask over all of grid.x, bit for bit."""

    @staticmethod
    def _ends(x, rng, count):
        """Window ends on grid points, one float either side of them, and
        between them, over the whole grid and past both of its ends."""
        picks = rng.integers(0, x.size, count)
        on = x[picks]
        return np.concatenate([[x[0], x[-1], x[0] - 1.0, x[-1] + 1.0], on,
                               np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
                               on + rng.uniform(0.0, 1.0, count) * (x[1] - x[0])])

    @pytest.mark.parametrize("grid", [Grid1D.centered(4096, 0.037), Grid1D(-3.3, 0.01, 1000),
                                      Grid1D(0.25, 0.013, 999)], ids=["centered", "offset", "positive"])
    def test_equal_the_mask_algebra(self, grid):
        # both signs, so that the fit's positivity test drops points
        w = grid.sample(lambda x: np.cos(3.0 * x) / (1.0 + x * x))
        x = grid.x
        rng = np.random.default_rng(5)
        ends = self._ends(x, rng, 40)
        lengths = ends[(ends > 0.0) & (ends <= -x[0]) & (ends <= x[-1])]
        lengths = np.append(lengths, min(-x[0], x[-1]))  # the whole grid, if it holds 0
        for L in lengths[lengths > 0.0]:
            for p in (1, 2, 3, 4):
                assert truncated_moment(w, p, L) == truncated_moment_reference(w, p, L), (p, L)
        # the log-log fit takes positive x only; on the positive grid the
        # window (ends.min(), x[-1]) holds the first point
        ends = ends[ends > 0.0]
        sparse = 0
        windows = list(zip(rng.permutation(ends), rng.permutation(ends)))
        windows += [(ends.min(), x[-1]), (5e-324, np.inf), (x[-9], x[-1] + 5.0), (x[-1], np.inf),
                    (x[-2], x[-50]), (math.nan, x[-1]), (x[-1] - 5.0, math.nan)]
        for x_lo, x_hi in windows:
            want = fit_tail_exponent_reference(w, x_lo, x_hi)
            if want is None:
                sparse += 1
                with pytest.raises(LOutOfGrid):
                    fit_tail_exponent(w, x_lo, x_hi)
            else:
                assert fit_tail_exponent(w, x_lo, x_hi) == want, (x_lo, x_hi)
        assert 4 <= sparse < len(windows) - 4

    def test_selftest_windows_on_a_large_grid(self, params_half):
        grid = Grid1D.centered(1 << 20, 0.01)
        w = propagator(params_half, grid, 0.1)
        assert fit_tail_exponent(w, 50.0, 150.0) == fit_tail_exponent_reference(w, 50.0, 150.0)
        for L in (500.0, 1000.0):
            assert truncated_moment(w, 2, L) == truncated_moment_reference(w, 2, L)

    @pytest.mark.parametrize("delta", [0.3, 1.0, 1.9])
    def test_cdf_core_equals_scipy_cumulative_trapezoid(self, delta):
        grid = Grid1D.centered(1 << 14, 0.01)
        p = make_params(delta, 1.0, 1.0)
        xq = np.linspace(-20.0, 20.0, 801)
        got = numeric_cdf(p, 1.0, xq, grid=grid)
        want = numeric_cdf_core_reference(propagator(p, grid, 1.0, line=True), xq)
        assert np.array_equal(got, want)


class TestContinuity:
    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_gaussian_residual_small(self, delta):
        p = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(32768, 0.015)
        rho = grid.sample(lambda x: np.exp(-x * x))
        resid = continuity_residual(p, rho)
        lap = laplacian_apply_spectral(p, rho)
        assert np.max(np.abs(resid.values)) / np.max(np.abs(lap.values)) < 1e-3

    def test_constant_density_balances(self, params_half, small_grid):
        rho = small_grid.sample(lambda x: np.full_like(x, 0.3))
        resid = continuity_residual(params_half, rho)
        assert np.max(np.abs(resid.values)) < 1e-10
