import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad
from scipy.special import sici

from selfsim import (
    AlphaOutOfRange,
    DeltaOutOfRange,
    Grid1D,
    NonPositiveScale,
    OriginSingular,
    QuadratureNoConvergence,
    dispersion,
    flux_apply,
    frac_derivative_spectral,
    frac_kernel_y,
    laplacian_apply_point,
    laplacian_apply_spectral,
    make_params,
)
from selfsim import quadrature
from selfsim.operator import weyl_marchaud
from selfsim.quadrature import oscillatory_tail

from oracles import (
    frac_kernel_sweep,
    gaussian_laplacian,
    oscillatory_tail_reference,
    outcome,
    panel_integral_reference,
)

# exponents drawn across the band 0 < delta < 2, clear of its endpoints
BAND = st.floats(0.05, 1.95, exclude_min=True, exclude_max=True)

TIGHT = 1e-11


class TestLaplacianPoint:
    def test_annihilates_constants(self, params_half):
        val = laplacian_apply_point(params_half, lambda u: 3.7, 0.4)
        assert abs(val) < 1e-10

    @pytest.mark.parametrize("abs_tol", [0.0, -1e-9, math.nan, math.inf])
    def test_rejects_abs_tol(self, params_half, abs_tol):
        # refused before f is evaluated; accepted, an infinite tolerance
        # would give -5.649 for cos(2u) at x = 0.3, where the answer is -5.851
        calls = []
        with pytest.raises(NonPositiveScale, match="abs_tol"):
            laplacian_apply_point(params_half, lambda u: calls.append(u) or math.cos(2.0 * u), 0.3, abs_tol)
        assert calls == []

    @pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("x", [0.0, 0.3])
    def test_plane_wave_eigenvalue(self, delta, x):
        p = make_params(delta, 1.0, 1.0)
        got = laplacian_apply_point(p, lambda u: math.cos(2.0 * u), x)
        want = -dispersion(p, 2.0) * math.cos(2.0 * x)
        assert got == pytest.approx(want, rel=1e-4)

    @given(delta=st.floats(0.3, 1.95, exclude_max=True), k0=st.floats(1.0, 3.0, exclude_max=True),
           x=st.floats(-2.0, 2.0))
    @example(delta=0.3, k0=2.0, x=0.3)
    def test_plane_wave_eigenvalue_on_band(self, delta, k0, x):
        # measured worst 4.5e-6 of the eigenvalue from delta = 0.29 up
        p = make_params(delta, 1.0, 1.0)
        lam = float(dispersion(p, k0))
        got = laplacian_apply_point(p, lambda u: math.cos(k0 * u), x)
        assert abs(got + lam * math.cos(k0 * x)) <= 1e-4 * lam

    @given(delta=BAND, k0=st.floats(1.0, 3.0, exclude_max=True), x=st.floats(-2.0, 2.0))
    @example(delta=0.3, k0=2.0, x=0.3)
    @example(delta=0.14, k0=2.0, x=0.0)
    def test_plane_wave_eigenvalue_tight_on_band(self, delta, k0, x):
        # measured worst 1.1e-11 of the eigenvalue
        p = make_params(delta, 1.0, 1.0)
        lam = float(dispersion(p, k0))
        got = laplacian_apply_point(p, lambda u: math.cos(k0 * u), x)
        assert abs(got + lam * math.cos(k0 * x)) <= 1e-6 * lam

    @given(delta=BAND, k0=st.floats(0.05, 1.0, exclude_max=True), x=st.floats(-2.0, 2.0))
    @example(delta=0.3, k0=0.2, x=0.3)
    @example(delta=0.3, k0=0.05, x=0.3)
    def test_slow_plane_wave_eigenvalue_on_band(self, delta, k0, x):
        # the window doubles until k0 U is large, to U = 8192 at k0 = 0.05;
        # measured worst 6.0e-9 of the eigenvalue (delta = 1.94, k0 = 0.05)
        p = make_params(delta, 1.0, 1.0)
        lam = float(dispersion(p, k0))
        got = laplacian_apply_point(p, lambda u: math.cos(k0 * u), x)
        assert abs(got + lam * math.cos(k0 * x)) <= 1e-8 * lam

    @given(delta=BAND, x=st.floats(-2.0, 2.0))
    @example(delta=1.0169206842019496, x=0.24868894691607402)
    @example(delta=1.1342354109418162, x=0.05361628303106425)
    @example(delta=0.8560000000000008, x=1.5)
    def test_gaussian_matches_closed_form_on_band(self, delta, x):
        # measured worst 6.4e-12 of |Lap u(0)| over delta 0.06-1.94
        p = make_params(delta, 1.0, 1.0)
        scale = -gaussian_laplacian(delta, 0.0, p.a_delta)
        got = laplacian_apply_point(p, lambda u: math.exp(-u * u), x)
        assert abs(got - gaussian_laplacian(delta, x, p.a_delta)) <= 1e-4 * scale

    def test_plane_wave_cost(self):
        # f(x) is evaluated once and the tail sees no constant part
        # (measured 2,821 calls); the bound is a tenth of the calls that
        # doubling tail blocks took
        x = 0.3
        calls = []

        def f(u):
            calls.append(u)
            return math.cos(2.0 * u)

        p = make_params(0.5, 1.0, 1.0)
        got = laplacian_apply_point(p, f, x)
        assert got == pytest.approx(-dispersion(p, 2.0) * math.cos(2.0 * x), rel=1e-4)
        assert calls.count(x) == 1
        assert len(calls) <= 216643 // 10

    def test_sum_of_plane_waves(self):
        p = make_params(0.5, 1.0, 1.0)
        got = laplacian_apply_point(p, lambda u: math.cos(u) + math.cos(1.7 * u), 0.3)
        want = -p.a_delta * (math.cos(0.3) + 1.7**0.5 * math.cos(0.51))  # -10.494029891710648
        assert got == pytest.approx(want, abs=1e-6)

    @given(delta=BAND, k1=st.floats(0.05, 3.0, exclude_max=True), k2=st.floats(0.05, 3.0, exclude_max=True),
           x=st.floats(-2.0, 2.0))
    @example(delta=0.5, k1=1.0, k2=1.7, x=0.3)
    @example(delta=0.3, k1=1.0, k2=1.015, x=0.3)
    def test_sum_of_plane_waves_on_band(self, delta, k1, k2, x):
        # the window needs no zeros of the integrand, so two carriers, even
        # beating slowly, settle like one (measured worst 0.27 of this
        # bound over 2500 random draws, 30% of them within 5% of k1 = k2)
        p = make_params(delta, 1.0, 1.0)
        lam1, lam2 = float(dispersion(p, k1)), float(dispersion(p, k2))
        got = laplacian_apply_point(p, lambda u: math.cos(k1 * u) + math.cos(k2 * u), x)
        want = -lam1 * math.cos(k1 * x) - lam2 * math.cos(k2 * x)
        assert abs(got - want) <= 1e-8 * (lam1 + lam2)

    @given(delta=BAND, k0=st.floats(0.05, 3.0, exclude_max=True), x=st.floats(-2.0, 2.0))
    @example(delta=0.5, k0=1.0, x=0.3)
    def test_plane_wave_on_a_constant_on_band(self, delta, k0, x):
        # f(x + u) + f(x - u) has mean 2 and no zeros; the windowed mean
        # carries the constant's tail in closed form.  The constant's
        # rounding in the second difference near tau = 1e-3 costs up to the
        # route's absolute tolerance 1e-9 near delta = 2, where lam(0.05) is
        # 0.05: 2 of 3000 random draws over delta 1.3-1.95 exceeded 1e-8 lam,
        # by at most 4.3e-10
        p = make_params(delta, 1.0, 1.0)
        lam = float(dispersion(p, k0))
        got = laplacian_apply_point(p, lambda u: 1.0 + math.cos(k0 * u), x)
        assert abs(got + lam * math.cos(k0 * x)) <= 1e-8 * lam + 1e-9

    @pytest.mark.parametrize("k0", [0.2, 0.05])
    def test_slow_plane_wave_cost(self, k0):
        # measured 4,795 and 5,047 calls
        calls = []

        def f(u):
            calls.append(u)
            return math.cos(k0 * u)

        p = make_params(0.3, 1.0, 1.0)
        lam = float(dispersion(p, k0))
        got = laplacian_apply_point(p, f, 0.3)
        assert abs(got + lam * math.cos(k0 * 0.3)) <= 1e-8 * lam
        assert len(calls) < 20000

    def test_gaussian_cost(self):
        # a decaying integrand settles at U = 8 (measured 763 calls); the
        # bound is 10% over the calls of the doubling tail blocks
        calls = []

        def f(u):
            calls.append(u)
            return math.exp(-u * u)

        p = make_params(0.5, 1.0, 1.0)
        got = laplacian_apply_point(p, f, 0.3)
        assert got == pytest.approx(gaussian_laplacian(0.5, 0.3, p.a_delta), rel=1e-8)
        assert len(calls) <= 805 * 11 // 10

    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 1.5, 1.9])
    def test_gaussian_matches_spectral(self, delta):
        # wide grid so the spectral route's finite-window mean offset is
        # below the comparison tolerance; residual normalized by the peak
        p = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(1 << 21, 0.01)
        lap = laplacian_apply_spectral(p, grid.sample(lambda x: np.exp(-x * x)))
        scale = float(np.max(np.abs(lap.values)))
        worst = 0.0
        for x in (0.0, 0.5, 1.0):
            q = laplacian_apply_point(p, lambda u: np.exp(-u * u), x, TIGHT)
            worst = max(worst, abs(q - lap.value_near(x)) / scale)
        assert worst < 1e-5

    def test_narrow_bump_far_field_is_power_kernel(self, params_half):
        # width -> 0 extrapolation of the Laplacian of a unit-mass bump at
        # distance 1 recovers (h^delta/zeta) |x|^(-1-delta) = 1
        widths = [0.2, 0.1, 0.05]
        vals = []
        for w in widths:
            fn = lambda u, w=w: np.exp(-u * u / (2 * w * w)) / (math.sqrt(2 * math.pi) * w)
            vals.append(laplacian_apply_point(params_half, fn, 1.0, TIGHT))
        tab = list(vals)
        xs = [w * w for w in widths]
        for level in range(1, 3):
            for i in range(3 - level):
                x0, x1 = xs[i], xs[i + level]
                tab[i] = (x1 * tab[i] - x0 * tab[i + 1]) / (x1 - x0)
        assert tab[0] == pytest.approx(1.0, abs=5e-4)


class TestLaplacianSpectral:
    def test_annihilates_constants(self, params_half, small_grid):
        f = small_grid.sample(lambda x: np.full_like(x, 2.5))
        out = laplacian_apply_spectral(params_half, f)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_on_grid_mode_is_exact_eigenfunction(self, params_three_halves, small_grid):
        k0 = 24 * 2.0 * math.pi / small_grid.length
        f = small_grid.sample(lambda x: np.cos(k0 * x))
        out = laplacian_apply_spectral(params_three_halves, f)
        want = -dispersion(params_three_halves, k0) * np.cos(k0 * small_grid.x)
        assert np.max(np.abs(out.values - want)) / dispersion(params_three_halves, k0) < 1e-10

    @given(delta=BAND)
    @example(delta=0.5)
    def test_self_adjoint_and_negative(self, delta, small_grid):
        params = make_params(delta, 1.0, 1.0)
        rng = np.random.default_rng(7)
        f = small_grid.sample(lambda x: np.exp(-x * x) * np.cos(2 * x))
        g = small_grid.sample(lambda x: np.exp(-((x - 1) ** 2) / 2))
        lf = laplacian_apply_spectral(params, f)
        lg = laplacian_apply_spectral(params, g)
        a = np.dot(f.values, lg.values)
        b = np.dot(lf.values, g.values)
        assert a == pytest.approx(b, rel=1e-12)
        for _ in range(5):
            h = small_grid.sample(
                lambda x, c=rng.uniform(1, 3), s=rng.uniform(0.5, 2): np.exp(-x * x / s) * np.cos(c * x)
            )
            lh = laplacian_apply_spectral(params, h)
            assert np.dot(h.values, lh.values) <= 1e-12

    def test_quadratic_form_vanishes_only_for_constants(self, params_half, small_grid):
        const = small_grid.sample(lambda x: np.full_like(x, 1.3))
        lc = laplacian_apply_spectral(params_half, const)
        assert abs(np.dot(const.values, lc.values)) < 1e-10
        bump = small_grid.sample(lambda x: np.exp(-x * x))
        lb = laplacian_apply_spectral(params_half, bump)
        assert np.dot(bump.values, lb.values) < -1e-3


class TestWeylMarchaud:
    def test_range_restriction(self):
        with pytest.raises(DeltaOutOfRange):
            weyl_marchaud(1.2, lambda u: u, 0.0, "left")

    def test_constant_annihilated(self):
        for side in ("left", "right"):
            assert abs(weyl_marchaud(0.5, lambda u: 4.0, 0.3, side)) < 1e-10

    def test_even_function_sides_agree_at_origin(self):
        left = weyl_marchaud(0.5, lambda u: math.cos(u), 0.0, "left")
        right = weyl_marchaud(0.5, lambda u: math.cos(u), 0.0, "right")
        assert left == pytest.approx(right, rel=1e-9)

    def test_recombination_reproduces_laplacian(self, params_half):
        # the right-sided derivative carries a principal-branch phase
        # (-1)^delta that cancels against (-1)^-delta in the recombination,
        # leaving the real sum of the two one-sided integrals
        delta = params_half.delta
        coef = params_half.h**delta * math.gamma(1.0 - delta) / (params_half.zeta * delta)
        f = lambda u: np.exp(-u * u)  # noqa: E731
        for x in (0.0, 0.4, 1.0):
            dl = weyl_marchaud(delta, f, x, "left")
            dr = weyl_marchaud(delta, f, x, "right")
            lap = laplacian_apply_point(params_half, f, x)
            assert -coef * (dl + dr) == pytest.approx(lap, rel=1e-5)

    @given(delta=st.floats(0.5, 0.95, exclude_max=True))
    @example(delta=0.2)
    def test_recombination_gives_plane_wave_eigenvalue(self, delta):
        # the tail's f(x) tau^(-1-delta) part is exact, so the windowed sums
        # carry only the oscillation; measured worst 1.3e-11 of the eigenvalue
        p = make_params(delta, 1.0, 1.0)
        coef = math.gamma(1.0 - delta) / delta
        lam = float(dispersion(p, 1.3))
        f = lambda u: math.cos(1.3 * u)  # noqa: E731
        for x in (0.0, 0.4):
            got = -coef * (weyl_marchaud(delta, f, x, "left") + weyl_marchaud(delta, f, x, "right"))
            assert abs(got + lam * math.cos(1.3 * x)) <= 1e-4 * lam

    @given(delta=st.floats(0.05, 0.5, exclude_min=True, exclude_max=True),
           k0=st.floats(1.0, 3.0, exclude_max=True), x=st.floats(-2.0, 2.0))
    @example(delta=0.3, k0=1.0, x=-1.1)
    @example(delta=0.3, k0=2.9, x=0.4)
    def test_recombination_tight_below_half(self, delta, k0, x):
        # both examples were refused with doubling tail blocks; measured
        # worst 6.5e-12 of the eigenvalue
        p = make_params(delta, 1.0, 1.0)
        coef = math.gamma(1.0 - delta) / delta
        lam = float(dispersion(p, k0))
        f = lambda u: math.cos(k0 * u)  # noqa: E731
        got = -coef * (weyl_marchaud(delta, f, x, "left") + weyl_marchaud(delta, f, x, "right"))
        assert abs(got + lam * math.cos(k0 * x)) <= 1e-6 * lam


# factors g with a divergent int_1^inf g(u) du, which the tail is handed as
# g(u) u^1/2 against u^-1/2, and (g, power) pairs whose weight or mean
# diverges
DIVERGENT = {
    "cos": lambda u: math.cos(3.0 * u),
    "u_cos": lambda u: u * math.cos(3.0 * u),
    "cos_1_inv_u": lambda u: math.cos(3.0 * u) * (1.0 + 1.0 / u),
    "cos_1_inv_sqrt_u": lambda u: math.cos(3.0 * u) * (1.0 + u**-0.5),
}
DIVERGENT_WEIGHTS = {
    "weight_not_integrable": (lambda u: math.cos(3.0 * u) / math.log(1.0 + u), 0.0),
    "mean_against_1_over_u": (lambda u: 1.0 + math.cos(u), -1.0),
}


class TestOscillatoryTail:
    @pytest.mark.parametrize("k0", [1.0, 2.0, 2.9])
    def test_cosine_integral_closed_form(self, k0):
        # int_1^inf cos(k0 u)/u du = -Ci(k0)
        got = oscillatory_tail(lambda u: math.cos(k0 * u), -1.0, 1.0, 1e-12)
        assert got == pytest.approx(-sici(k0)[1], abs=1e-12)

    def test_integrand_that_stops_oscillating(self):
        # cos 3u below 5 and u^-2 above: the window needs no zeros of the
        # integrand.  The jump at 5 falls between a panel's last node and
        # its end, where the error estimate cannot see it: measured 3.6e-9
        g = lambda u: math.cos(3.0 * u) * u * u if u < 5.0 else 1.0  # noqa: E731
        want = quad(lambda u: math.cos(3.0 * u), 1.0, 5.0)[0] + quad(lambda u: u**-2, 5.0, math.inf)[0]
        assert oscillatory_tail(g, -2.0, 1.0, 1e-10) == pytest.approx(want, abs=1e-8)

    def test_slowly_convergent_tail(self):
        # int_1^inf cos(3u) u^-0.2 (1 + 3/u) du converges although its
        # integrand shrinks only like u^-0.2; measured 9.1e-12
        want = quad(lambda u: u**-0.2 * (1.0 + 3.0 / u), 1.0, math.inf, weight="cos", wvar=3.0,
                    epsabs=1e-12, limit=2000)[0]
        got = oscillatory_tail(lambda u: math.cos(3.0 * u) * (1.0 + 3.0 / u), -0.2, 1.0, 1e-10)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("g", DIVERGENT.values(), ids=DIVERGENT.keys())
    def test_refuses_divergent_integrals(self, g):
        # the windowed sums of these integrands agree on an Abel value, but
        # the factor g(u) u^1/2 against u^-1/2 grows (u^3/2 cos 3u is refused
        # earlier, when its panels reach the rounding of the factor)
        with pytest.raises(QuadratureNoConvergence):
            oscillatory_tail(lambda u: g(u) * u**0.5, -0.5, 1.0, 1e-10)

    @pytest.mark.parametrize("start", [0.0, -1.0])
    def test_start_must_be_positive(self, start):
        # the window starts at 4 start and doubles, so from 0 it never moves
        with pytest.raises(ValueError):
            oscillatory_tail(math.cos, -1.5, start, 1e-9)

    @pytest.mark.parametrize("g,power", DIVERGENT_WEIGHTS.values(), ids=DIVERGENT_WEIGHTS.keys())
    def test_refuses_divergent_weights(self, g, power):
        # cos(3u)/log(1 + u) converges, but u^0 is refused whatever g is;
        # the mean 1 of 1 + cos u against 1/u diverges
        with pytest.raises(QuadratureNoConvergence, match="diverges"):
            oscillatory_tail(g, power, 1.0, 1e-10)


class TestTailBitIdentity:
    """The panel centre computed once, one half-width per panel and the nodes
    below U taken as a prefix change no bit of the windowed tail, and no
    refusal's type or message."""

    INPUTS = {
        "cos": lambda k1, k2: lambda u: math.cos(k1 * u),
        "gaussian": lambda k1, k2: lambda u: math.exp(-u * u),
        "two_carriers": lambda k1, k2: lambda u: math.cos(k1 * u) + math.cos(k2 * u),
        "one_plus_cos": lambda k1, k2: lambda u: 1.0 + math.cos(k1 * u),
    }

    @pytest.mark.parametrize("name", INPUTS)
    def test_laplacian_matches_reference_on_band(self, name, monkeypatch):
        rng = np.random.default_rng(15)
        cases = []
        for _ in range(30):
            delta = float(rng.uniform(0.05, 1.95))
            k1, k2 = (float(k) for k in rng.uniform(0.05, 3.0, 2))
            cases.append((make_params(delta, 1.0, 1.0), self.INPUTS[name](k1, k2), float(rng.uniform(-2.0, 2.0))))
        got = [outcome(lambda: laplacian_apply_point(p, f, x)) for p, f, x in cases]
        monkeypatch.setattr(quadrature, "oscillatory_tail", oscillatory_tail_reference)
        assert got == [outcome(lambda: laplacian_apply_point(p, f, x)) for p, f, x in cases]

    @pytest.mark.parametrize("g,power,start", [
        *((lambda u, g=g: g(u) * u**0.5, -0.5, 1.0) for g in DIVERGENT.values()),
        *((g, power, 1.0) for g, power in DIVERGENT_WEIGHTS.values()),
        (math.cos, -1.5, 0.0),
        (math.cos, -1.5, -1.0),
        (lambda u: math.cos(2.0 * u), -1.0, 1.0),
        (lambda u: math.cos(3.0 * u) * u * u if u < 5.0 else 1.0, -2.0, 1.0),
        (lambda u: math.cos(3.0 * u) * (1.0 + 3.0 / u), -0.2, 1.0),
        (lambda u: (1.0 + u * u) ** -0.25, -1.5, 1.0),
        (lambda u: math.nan if u > 7.0 else math.cos(u), -1.0, 1.0),
    ], ids=[*DIVERGENT, *DIVERGENT_WEIGHTS, "start_0", "start_negative", "cos", "stops_oscillating",
            "slowly_convergent", "did_not_settle", "non_finite"])
    def test_tail_matches_reference(self, g, power, start):
        want = outcome(lambda: oscillatory_tail_reference(g, power, start, 1e-10))
        assert outcome(lambda: oscillatory_tail(g, power, start, 1e-10)) == want


class TestInnerRegionBitIdentity:
    """One quad call with the breakpoints 2^j 1e-3 (QUADPACK's QAGP) gives
    the inner region bit for bit as one call per geometric panel did; where
    either side refuses, both refuse with the same exception type."""

    INPUTS = TestTailBitIdentity.INPUTS

    def _cases(self, name, seed, low, high):
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(30):
            delta = float(rng.uniform(low, high))
            k1, k2 = (float(k) for k in rng.uniform(0.05, 3.0, 2))
            cases.append((delta, self.INPUTS[name](k1, k2), float(rng.uniform(-2.0, 2.0))))
        return cases

    @staticmethod
    def _outcomes(monkeypatch, call):
        got = call()
        real = quadrature.quad_checked

        def per_panel(fn, a, b, abs_tol, points=None, **kwargs):
            # only the breakpointed inner region is replaced: the reference
            # calls quad_checked itself, once per panel, without points
            if points is None:
                return real(fn, a, b, abs_tol, **kwargs)
            return panel_integral_reference(fn, a, b, abs_tol)

        monkeypatch.setattr(quadrature, "quad_checked", per_panel)
        return got, call()

    @pytest.mark.parametrize("name", INPUTS)
    def test_laplacian_matches_reference_on_band(self, name, monkeypatch):
        cases = self._cases(name, 16, 0.05, 1.95)
        got, want = self._outcomes(monkeypatch, lambda: [
            outcome(lambda: laplacian_apply_point(make_params(d, 1.0, 1.0), f, x), message=False)
            for d, f, x in cases])
        assert got == want

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("name", INPUTS)
    def test_weyl_marchaud_matches_reference_on_band(self, name, side, monkeypatch):
        cases = self._cases(name, 17, 0.05, 0.95)
        got, want = self._outcomes(monkeypatch, lambda: [
            outcome(lambda: weyl_marchaud(d, f, x, side), message=False) for d, f, x in cases])
        assert got == want


class TestFlux:
    def test_symmetric_density_gives_antisymmetric_flux(self, params_half, gaussian_field):
        j = flux_apply(params_half, gaussian_field)
        n = gaussian_field.grid.n
        assert abs(j.values[n // 2]) < 1e-12
        assert np.max(np.abs(j.values[1:] + j.values[1:][::-1])) < 1e-10

    def test_constant_gives_zero_flux(self, params_half, small_grid):
        f = small_grid.sample(lambda x: np.full_like(x, 0.8))
        assert np.max(np.abs(flux_apply(params_half, f).values)) == 0.0

    @pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
    def test_divergence_matches_laplacian(self, delta):
        p = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(16384, 0.02)
        rho = grid.sample(lambda x: np.exp(-x * x))
        j = flux_apply(p, rho).values
        div = np.gradient(j, grid.dx, edge_order=2)
        lap = laplacian_apply_spectral(p, rho).values
        scale = np.max(np.abs(lap))
        # second-order differences of the flux leave an O(dx^2) defect
        assert np.max(np.abs(div + lap)) / scale < 1e-3

    def test_cauchy_density_flux_balances_time_derivative(self, params_one):
        # closed-form time derivative of the Lorentzian vs flux divergence
        grid = Grid1D.centered(65536, 0.01)
        s = params_one.a_delta
        rho = grid.sample(lambda x: (1.0 / math.pi) * s / (x * x + s * s))
        drho_dt = (1.0 / math.pi) * params_one.a_delta * (grid.x**2 - s * s) / (grid.x**2 + s * s) ** 2
        j = flux_apply(params_one, rho).values
        div = np.gradient(j, grid.dx, edge_order=2)
        resid = drho_dt + div
        assert np.max(np.abs(resid)) / np.max(np.abs(drho_dt)) < 1e-4


class TestFracKernel:
    def test_integer_orders_localized(self):
        assert frac_kernel_y(1.0, 0.7) == 0.0
        assert frac_kernel_y(2.0, -1.3) == 0.0

    def test_half_order_value(self):
        # frozen: -Gamma(1.5) sin(pi/2) / pi, confirmed by the damped sweep
        assert frac_kernel_y(0.5, 1.0) == pytest.approx(-0.28209479177387814, rel=1e-12)
        assert frac_kernel_y(0.5, 1.0) == pytest.approx(frac_kernel_sweep(0.5, 1.0), abs=1e-7)

    def test_kernel_is_one_sided(self):
        # the defining transform of (ik)^alpha vanishes for x < 0; the
        # damped-sweep oracle confirms the cancellation
        assert frac_kernel_y(0.5, -1.0) == 0.0
        assert abs(frac_kernel_sweep(0.5, -1.0)) < 1e-7

    def test_regularized_form_converges_to_limit(self):
        vals = [frac_kernel_y(0.5, 1.0, eps) for eps in (0.1, 0.01, 0.001)]
        errs = [abs(v - frac_kernel_y(0.5, 1.0)) for v in vals]
        assert errs[0] > errs[1] > errs[2]

    def test_origin_needs_regularization(self):
        with pytest.raises(OriginSingular):
            frac_kernel_y(0.5, 0.0, 0.0)
        assert math.isfinite(frac_kernel_y(0.5, 0.0, 0.5))

    def test_alpha_band(self):
        with pytest.raises(AlphaOutOfRange):
            frac_kernel_y(-1.5, 1.0)


class TestFracDerivativeSpectral:
    def test_first_derivative_of_sine(self, small_grid):
        k0 = 16 * 2.0 * math.pi / small_grid.length
        f = small_grid.sample(lambda x: np.sin(k0 * x))
        out = frac_derivative_spectral(1.0, f)
        assert np.max(np.abs(out.values - k0 * np.cos(k0 * small_grid.x))) < 1e-10

    def test_second_derivative_of_gaussian(self, small_grid, gaussian_field):
        out = frac_derivative_spectral(2.0, gaussian_field)
        x = small_grid.x
        want = (4 * x * x - 2) * np.exp(-x * x)
        assert np.max(np.abs(out.values - want)) < 1e-8

    def test_identity_at_zero(self, gaussian_field):
        out = frac_derivative_spectral(0.0, gaussian_field)
        assert np.max(np.abs(out.values - gaussian_field.values)) < 1e-14

    def test_half_derivative_squares_to_first(self, small_grid, gaussian_field):
        once = frac_derivative_spectral(0.5, gaussian_field)
        twice = frac_derivative_spectral(0.5, once)
        want = frac_derivative_spectral(1.0, gaussian_field)
        assert np.max(np.abs(twice.values - want.values)) < 1e-10

    def test_negative_order_rejected(self, gaussian_field):
        with pytest.raises(AlphaOutOfRange):
            frac_derivative_spectral(-0.5, gaussian_field)
