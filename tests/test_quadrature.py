import importlib
import math
import pkgutil
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, strategies as st
from scipy.special import zeta

import selfsim
from selfsim import (
    Grid1D,
    QuadratureNoConvergence,
    ValidationError,
    dispersion_quadrature,
    laplacian_apply_point,
    make_params,
)
from selfsim import quadrature
from selfsim.diffusion import (diffuse, numeric_cdf, propagator, propagator_cauchy, propagator_quadrature,
                               propagator_series, sample_levy, tail_cdf_mass)
from selfsim.dynamics import (
    CauchyState,
    cauchy_evolve,
    greens_retarded,
    helmholtz_green,
    helmholtz_symbol,
    wave_kernel_dt_fourier,
    wave_kernel_dt_series,
    wave_kernel_dt_spectral,
    wave_kernel_fourier,
    wave_kernel_series,
    wave_kernel_spectral,
)
from selfsim.operator import frac_derivative_spectral, frac_kernel_y, weyl_marchaud
from selfsim.quadrature import neville_at_zero, quad_checked
from selfsim.statics import greens_static, laplacian_power_kernel, riesz_kernel, riesz_tail_integral

from oracles import _neville0, quad_checked_reference


class TestQuadChecked:
    def test_leaves_warning_filters_alone(self):
        # full_output makes quad return its message instead of warning, so
        # no call reads or rewrites the process's filters, not even while
        # the integrand runs
        before = warnings.filters
        contents = list(before)
        seen = []

        def f(u):
            seen.append(warnings.filters is before)
            return math.cos(u)

        quad_checked(f, 0.0, 1.0, 1e-9)
        with pytest.raises(QuadratureNoConvergence):
            quad_checked(lambda u: f(1e4 * u), 0.0, 100.0, 1e-12)
        dispersion_quadrature(make_params(0.7, 1.0, 1.0), 2.0)
        assert all(seen)
        assert warnings.filters is before
        assert warnings.filters == contents

    def test_failure_raises_under_error_filter(self):
        # quad's message is read from its return value: under an "error"
        # filter a failed run still raises QuadratureNoConvergence, not
        # scipy's IntegrationWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureNoConvergence, match="reported error"):
                quad_checked(lambda u: math.cos(1e4 * u), 0.0, 100.0, 1e-12)

    @pytest.mark.parametrize("fn,a,b", [(math.cos, 0.0, 1.0), (lambda u: u**-0.5, 1e-3, 1.0),
                                        (lambda u: math.exp(-u * u), 0.0, math.inf),
                                        (lambda u: math.cos(30.0 * u) * u**-0.8, 1e-3, 1.0)],
                             ids=["cos", "singular", "infinite", "oscillating"])
    def test_values_equal_filtered_quad(self, fn, a, b):
        assert quad_checked(fn, a, b, 1e-10).hex() == quad_checked_reference(fn, a, b, 1e-10).hex()


@pytest.fixture
def quad_calls(monkeypatch):
    """The (a, b, keyword arguments) of every quad call that quad_checked makes."""
    calls = []
    real = quadrature.quad

    def counting(fn, a, b, *args, **kwargs):
        calls.append((a, b, kwargs))
        return real(fn, a, b, *args, **kwargs)

    monkeypatch.setattr(quadrature, "quad", counting)
    return calls


@pytest.fixture
def quad_evals(monkeypatch):
    """A list of one item: the integrand evaluations of every quad call that
    quad_checked makes."""
    evals = [0]
    real = quadrature.quad

    def counting(fn, a, b, *args, **kwargs):
        def counted(u):
            evals[0] += 1
            return fn(u)

        return real(counted, a, b, *args, **kwargs)

    monkeypatch.setattr(quadrature, "quad", counting)
    return evals


class TestNevilleAtZero:
    def test_weights_match_neville_tableau(self):
        # Sum_j w_j y_j with the Lagrange weights at 0 is the polynomial that
        # Neville's tableau extrapolates, on geometric ladders of 2 to 7
        # levels with the ratios the library's sweeps use (1/4 to 0.7)
        rng = np.random.default_rng(38)
        for _ in range(200):
            levels, x0, ratio = int(rng.integers(2, 8)), rng.uniform(0.05, 0.5), rng.uniform(0.25, 0.7)
            xs = [x0 * ratio**j for j in range(levels)]
            a, b = rng.uniform(-2.0, 2.0, (2, 50))
            ys = [np.exp(a * x) * np.cos(b * x) + 0.1 for x in xs]
            got, want = neville_at_zero(xs, ys), _neville0(xs, ys)
            assert got.shape == (50,)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            got, want = neville_at_zero(xs, [y[0] for y in ys]), _neville0(xs, [y[0] for y in ys])
            assert type(got) is float
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestImageSeries:
    @given(delta=st.floats(0.05, 1.95), c=st.floats(0.1, 10.0), u=st.floats(0.0, 0.5))
    @example(delta=1.0, c=math.pi, u=0.5)
    def test_matches_hurwitz_zeta_lattice_sums(self, delta, c, u):
        # sum_n sign_n Gamma(n delta + 1)/n! c^n L^(-s) [zeta(s, 1 + u) + zeta(s, 1 - u)],
        # s = n delta + 1, term by term, with L/2 = 64 scales c^(1/delta);
        # the sums in n and in u^2 each stop below 1e-14, the engine's absolute stop
        length = 128.0 * c ** (1.0 / delta)
        got = float(quadrature.image_series(delta, 1, 1, 1, math.log(c), length, np.array([u]))[0])
        want = 0.0
        for n in range(1, 200):
            s = n * delta + 1.0
            magnitude = math.exp(math.lgamma(s) - math.lgamma(n + 1.0) + n * math.log(c) - s * math.log(length))
            if magnitude < 1e-30:
                break
            want += quadrature._stable_sign(delta, n) * magnitude * (zeta(s, 1.0 + u) + zeta(s, 1.0 - u))
        assert got == pytest.approx(want, rel=1e-13, abs=2e-14)


class TestQuadCallCounts:
    """Each pointwise route integrates only what its answer needs."""

    @pytest.mark.parametrize("delta", [0.3, 0.75, 1.0, 1.5])
    def test_propagator_quadrature_makes_one_call(self, quad_calls, delta):
        # the real part of the integral along one ray: the imaginary axis
        # below delta = 1/2, the ray at angle pi/(4 delta) from 1/2 up
        got = propagator_quadrature(make_params(delta, 1.0, 1.0), 0.7, 1.2)
        assert np.isfinite(got)
        assert len(quad_calls) == 1

    @pytest.mark.parametrize("delta", [0.3, 1.0, 1.5])
    def test_propagator_at_origin_makes_no_call(self, quad_calls, delta):
        # W(0, t) = Gamma(1 + 1/delta) (a t)^(-1/delta) / pi in closed form
        p = make_params(delta, 1.0, 1.0)
        got = propagator_quadrature(p, 0.0, 1.2)
        assert quad_calls == []
        assert got == pytest.approx(
            math.gamma(1.0 + 1.0 / delta) * (p.a_delta * 1.2) ** (-1.0 / delta) / math.pi, rel=1e-14)

    @pytest.mark.parametrize("delta,x", [(1.05, 2000.0), (1.5, 500.0)])
    def test_propagator_far_tail_evaluations(self, quad_evals, delta, x):
        # the ray at pi/(4 delta), scaled by 1/|x|, decays at every |x|: 255
        # and 375 evaluations, where the real line cut at (40/(a t))^(1/delta)
        # took 38,493 and 5,733
        assert np.isfinite(propagator_quadrature(make_params(delta, 1.0, 1.0), x, 1.0))
        assert quad_evals[0] <= 1000

    @pytest.mark.parametrize("route", [wave_kernel_fourier, wave_kernel_dt_fourier])
    @pytest.mark.parametrize("delta", [0.3, 1.0, 1.8])
    def test_wave_kernel_fourier_makes_two_calls(self, quad_calls, route, delta):
        # [0, k0] directly and the rotated contour beyond k0
        got = route(make_params(delta, 1.0, 1.0), 2.0, 1.0)
        assert np.isfinite(got)
        assert [b for _, b, _ in quad_calls] == [2.0, math.inf]

    @pytest.fixture
    def inner_marches(self, monkeypatch):
        """(a, end, h) of each _march call of an inner region (jumped None)."""
        seen, march = [], quadrature._march

        def spy(g, shift, power, a, end, h, abs_tol, jumped, *rest):
            if jumped is None:
                seen.append((a, end, h))
            return march(g, shift, power, a, end, h, abs_tol, jumped, *rest)

        monkeypatch.setattr(quadrature, "_march", spy)
        return seen

    @staticmethod
    def _assert_one_inner_call(quad_calls, inner_marches):
        # the whole of [1e-3, 1] in one pass of the library's own panels,
        # started on its geometric segments, each one panel wide; neither
        # it, the Taylor disc nor the windowed tail calls QUADPACK
        assert quad_calls == []
        ends = [1e-3 * 2.0**j for j in range(10)] + [1.0]
        assert inner_marches == [(a, b, b - a) for a, b in zip(ends, ends[1:])]

    def test_laplacian_inner_region_makes_one_call(self, quad_calls, inner_marches):
        got = laplacian_apply_point(make_params(0.5, 1.0, 1.0), lambda u: math.cos(2.0 * u), 0.3)
        assert np.isfinite(got)
        self._assert_one_inner_call(quad_calls, inner_marches)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_weyl_marchaud_inner_region_makes_one_call(self, quad_calls, inner_marches, side):
        got = weyl_marchaud(0.5, lambda u: math.cos(2.0 * u), 0.3, side)
        assert np.isfinite(got)
        self._assert_one_inner_call(quad_calls, inner_marches)

    @pytest.mark.parametrize("delta,abs_tol", [(0.5, 1e-9), (1.9, 1e-11)])
    def test_operators_make_no_call(self, quad_calls, delta, abs_tol):
        # the Taylor disc, the inner region's panels and the windowed tail
        # are the library's own; at delta = 1.9 and 1e-11 the inner panels
        # lean on their rounding floor
        cos, gaussian = (lambda u: math.cos(2.0 * u)), (lambda u: math.exp(-u * u))
        got = [laplacian_apply_point(make_params(delta, 1.0, 1.0), f, 0.3, abs_tol) for f in (cos, gaussian)]
        if delta < 1.0:
            got += [weyl_marchaud(delta, f, 0.3, side) for f in (cos, gaussian) for side in ("left", "right")]
        assert np.all(np.isfinite(got))
        assert quad_calls == []

    def test_dispersion_quadrature_makes_one_call(self, quad_calls):
        # the cosine tail on the contour s = 1 + iu, u from 0 to inf, with no weight function
        assert np.isfinite(dispersion_quadrature(make_params(0.5, 1.0, 1.0), 1.0))
        assert [(a, b, "weight" in kwargs) for a, b, kwargs in quad_calls] == [(0.0, math.inf, False)]


def _pointwise(route, arg):
    """route(p, x, t) with the bad value as arg and 1 for the other."""
    def call(p, bad):
        args = {"x": 1.0, "t": 1.0, arg: bad}
        return route(p, args["x"], args["t"])

    return pytest.param(call, arg, id=f"{route.__name__}-{arg}")


_GRID = Grid1D.centered(64, 0.1)
_FIELD = _GRID.sample(lambda x: np.exp(-x * x))
# the grid routes, each with its time or frequency as the bad value
_GRID_ROUTES = [
    pytest.param(lambda p, bad: propagator(p, _GRID, bad), "t", id="propagator-t"),
    pytest.param(lambda p, bad: diffuse(p, _FIELD, bad), "t", id="diffuse-t"),
    pytest.param(lambda p, bad: sample_levy(p, bad, 10, 1), "t", id="sample_levy-t"),
    pytest.param(lambda p, bad: cauchy_evolve(p, CauchyState(_FIELD, _FIELD), bad), "t",
                 id="cauchy_evolve-t"),
    pytest.param(lambda p, bad: wave_kernel_spectral(p, _GRID, bad), "t", id="wave_kernel_spectral-t"),
    pytest.param(lambda p, bad: wave_kernel_dt_spectral(p, _GRID, bad), "t",
                 id="wave_kernel_dt_spectral-t"),
    pytest.param(lambda p, bad: helmholtz_green(p, _GRID, bad, 0.1), "omega", id="helmholtz_green-omega"),
    pytest.param(lambda p, bad: helmholtz_symbol(p, 1.0, bad, 0.1), "omega", id="helmholtz_symbol-omega"),
    pytest.param(lambda p, bad: frac_derivative_spectral(bad, _FIELD), "alpha", id="frac_derivative_spectral-alpha"),
]
# the scalar routes, each with one scalar argument as the bad value
_SCALAR_ROUTES = [
    pytest.param(lambda p, bad: propagator_cauchy(make_params(1.0, 1.0, 1.0), 1.0, bad), "t",
                 id="propagator_cauchy-t"),
    pytest.param(lambda p, bad: riesz_tail_integral(0.5, bad), "a", id="riesz_tail_integral-a"),
    pytest.param(lambda p, bad: riesz_tail_integral(bad, 1.0), "alpha", id="riesz_tail_integral-alpha"),
    pytest.param(lambda p, bad: dispersion_quadrature(p, bad), "k", id="dispersion_quadrature-k"),
    pytest.param(lambda p, bad: frac_kernel_y(0.5, bad), "x", id="frac_kernel_y-x"),
    pytest.param(lambda p, bad: laplacian_apply_point(p, math.cos, bad), "x", id="laplacian_apply_point-x"),
    pytest.param(lambda p, bad: weyl_marchaud(0.5, math.cos, bad, "left"), "x", id="weyl_marchaud-x"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, arg", [
    _pointwise(route, arg)
    for route in (propagator_series, propagator_quadrature, wave_kernel_series, wave_kernel_dt_series,
                  wave_kernel_fourier, wave_kernel_dt_fourier, greens_retarded)
    for arg in ("x", "t")
] + _GRID_ROUTES + _SCALAR_ROUTES)
def test_pointwise_routes_refuse_non_finite_arguments(quad_calls, fft_calls, call, arg, bad):
    # one refusal for every pointwise and grid route, naming the argument,
    # before any quadrature or transform starts and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"{arg} must be finite"):
            call(make_params(0.5, 1.0, 1.0), bad)
    assert quad_calls == []
    assert fft_calls == []


_NAN_ROUTES = [
    pytest.param(lambda p, x: numeric_cdf(p, 1.0, x), "xq", id="numeric_cdf"),
    pytest.param(lambda p, x: tail_cdf_mass(p, x, 1.0), "x", id="tail_cdf_mass"),
    pytest.param(lambda p, x: greens_static(p, x), "x", id="greens_static"),
    pytest.param(lambda p, x: riesz_kernel(0.5, x), "x", id="riesz_kernel"),
    pytest.param(lambda p, x: laplacian_power_kernel(p, 2, x), "x", id="laplacian_power_kernel"),
    pytest.param(lambda p, x: laplacian_power_kernel(p, 0, x), "x", id="laplacian_power_kernel-0"),
    pytest.param(lambda p, x: helmholtz_symbol(p, x, 1.0, 0.1), "k", id="helmholtz_symbol"),
    pytest.param(lambda p, x: propagator_cauchy(make_params(1.0, 1.0, 1.0), x, 1.0), "x", id="propagator_cauchy"),
]


@pytest.mark.parametrize("points", [math.nan, np.array([2.0, math.nan, 3.0])], ids=["scalar", "array"])
@pytest.mark.parametrize("call, arg", _NAN_ROUTES)
def test_array_routes_refuse_nan_points(quad_calls, fft_calls, call, arg, points):
    # a NaN point is refused by name before any work, and without a
    # warning; it answered nan, raised NumericError or warned before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=rf"\b{arg}\b"):
            call(make_params(0.5, 1.0, 1.0), points)
    assert quad_calls == []
    assert fft_calls == []


def test_cdf_keeps_its_infinite_limits():
    # only NaN points are refused: the CDF is 0 and 1 at -inf and +inf
    assert list(numeric_cdf(make_params(0.5, 1.0, 1.0), 1.0, np.array([-math.inf, math.inf]))) == [0.0, 1.0]


def test_dispersion_refusal_goes_through_quad_checked(monkeypatch):
    # a quad that reports an error far over the budget is refused by
    # quad_checked's one rule, with its message
    monkeypatch.setattr(quadrature, "quad", lambda fn, a, b, **kwargs: (0.5, 1.0, {}))
    with pytest.raises(QuadratureNoConvergence, match=r"quadrature on \[0, inf\] reported error 1 "):
        dispersion_quadrature(make_params(0.5, 1.0, 1.0), 1.0)


def test_only_quadrature_binds_scipy_quad():
    # every library QUADPACK call goes through quad_checked, the selftest's
    # rotated-contour oracle too
    binders = []
    for info in pkgutil.iter_modules(selfsim.__path__):
        module = importlib.import_module(f"selfsim.{info.name}")
        if any(value is scipy.integrate.quad for value in vars(module).values()):
            binders.append(info.name)
    assert binders == ["quadrature"]
