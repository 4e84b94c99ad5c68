import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import trapezoid
from scipy.special import gamma

from selfsim import (
    AlphaOutOfRange,
    EpsNonPositive,
    Grid1D,
    NonPositiveScale,
    NonZeroMeanForce,
    NumericError,
    OriginSingular,
    PoleError,
    SampleBatch,
    ValidationError,
    dispersion,
    dispersion_quadrature,
    factorial_ext,
    frac_derivative_spectral,
    frac_kernel_y,
    greens_prefactor,
    greens_retarded,
    greens_static,
    helmholtz_symbol,
    laplacian_apply_spectral,
    laplacian_power_kernel,
    make_params,
    poisson_solve,
    propagator_cauchy,
    riesz_kernel,
    riesz_tail_integral,
    sample_levy,
    truncated_moment,
)
from selfsim.quadrature import oscillatory_tail, singular_integral

from oracles import greens_fourier, riesz_kernel_sweep

# exponents drawn across the band 0 < delta < 2, clear of its endpoints
BAND = st.floats(0.05, 1.95, exclude_min=True, exclude_max=True)


class TestGreensStatic:
    def test_delta_half_at_unit_distance(self, params_half):
        # 1/(4 pi), frozen from the Fourier-integral oracle
        assert greens_static(params_half, 1.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13)
        orc = greens_fourier(0.5, 1.0, params_half.a_delta)
        assert greens_static(params_half, 1.0) == pytest.approx(orc, rel=1e-8)

    def test_homogeneity(self, params_half):
        ratio = greens_static(params_half, 4.0) / greens_static(params_half, 1.0)
        assert ratio == pytest.approx(0.5, rel=1e-14)

    def test_pole_at_delta_one(self, params_one):
        with pytest.raises(PoleError):
            greens_static(params_one, 1.0)
        with pytest.raises(PoleError):
            greens_prefactor(make_params(1.0 + 1e-9, 1.0, 1.0))

    def test_origin_branches(self):
        with pytest.raises(OriginSingular):
            greens_static(make_params(0.5, 1.0, 1.0), 0.0)
        assert greens_static(make_params(1.5, 1.0, 1.0), 0.0) == 0.0

    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.5])
    def test_transform_identity(self, delta):
        # 2 g0 Gamma(delta) cos(pi delta / 2) a_delta = 1
        p = make_params(delta, 1.0, 1.0)
        g0 = greens_prefactor(p)
        assert 2.0 * g0 * gamma(delta) * math.cos(math.pi * delta / 2.0) * p.a_delta == pytest.approx(
            1.0, abs=1e-12
        )


class TestPoissonSolve:
    def test_zero_force(self, params_half, small_grid):
        f = small_grid.sample(lambda x: np.zeros_like(x))
        u = poisson_solve(params_half, f)
        assert np.max(np.abs(u.values)) == 0.0

    @given(delta=BAND)
    @example(delta=0.5)
    def test_round_trip(self, delta, small_grid):
        params = make_params(delta, 1.0, 1.0)
        f = small_grid.sample(lambda x: np.exp(-((x - 1) ** 2)) - np.exp(-((x + 1) ** 2)))
        u = poisson_solve(params, f, project=True)
        back = laplacian_apply_spectral(params, u)
        assert np.max(np.abs(back.values + f.values)) / np.max(np.abs(f.values)) < 1e-6

    def test_mean_force_rejected_without_projection(self, params_half, gaussian_field):
        with pytest.raises(NonZeroMeanForce):
            poisson_solve(params_half, gaussian_field)
        poisson_solve(params_half, gaussian_field, project=True)

    def test_far_field_approaches_greens(self, params_half):
        # narrow unit bump: away from it, u(x) - u(x_ref) follows the
        # point-force response (gauge-invariant comparison)
        grid = Grid1D.centered(1 << 20, 0.01)
        w = 0.05
        f = grid.sample(lambda x: np.exp(-x * x / (2 * w * w)) / (math.sqrt(2 * math.pi) * w))
        u = poisson_solve(params_half, f, project=True)
        x_ref = 40.0
        for x in (0.5, 1.0, 5.0):
            du = u.value_near(x) - u.value_near(x_ref)
            dg = greens_static(params_half, x) - greens_static(params_half, x_ref)
            assert du == pytest.approx(dg, rel=2e-2)


class TestRieszKernel:
    def test_even_integers_localized(self):
        for alpha in (0, 2, 4, 0.0, 2.0, 4.0):
            assert riesz_kernel(alpha, 1.3) == 0.0
        assert riesz_kernel(0.0, 0.4) == 0.0
        assert riesz_kernel(4.0, -2.0) == 0.0

    def test_half_order_against_sweep_oracle(self):
        # frozen: -(Gamma(1.5)/pi) sin(pi/4)
        assert riesz_kernel(0.5, 1.0) == pytest.approx(-0.19947114020071635, rel=1e-12)
        assert riesz_kernel(0.5, 1.0) == pytest.approx(riesz_kernel_sweep(0.5, 1.0), abs=1e-7)

    def test_negative_half_order(self):
        assert riesz_kernel(-0.5, 1.0) == pytest.approx(0.3989422804014327, rel=1e-12)
        assert riesz_kernel(-0.5, 1.0) == pytest.approx(riesz_kernel_sweep(-0.5, 1.0), abs=1e-7)

    def test_symmetry(self):
        xs = np.array([0.2, 1.0, 3.7])
        for alpha in (-0.5, 0.5, 1.5, 2.3):
            assert np.array_equal(riesz_kernel(alpha, xs), riesz_kernel(alpha, -xs))

    def test_branch_agreement_above_minus_one(self):
        # closed form == continuation form 1/(2 cos(pi a/2) Gamma(-a)) |x|^(-a-1)
        for alpha in np.linspace(-0.95, -0.15, 9):
            lhs = riesz_kernel(float(alpha), 1.7)
            rhs = 1.7 ** (-alpha - 1.0) / (2.0 * math.cos(math.pi * alpha / 2.0) * gamma(-alpha))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_branch_below_minus_one(self):
        for alpha in (-1.5, -2.5):
            lhs = riesz_kernel(alpha, 2.0)
            rhs = 2.0 ** (-alpha - 1.0) / (2.0 * math.cos(math.pi * alpha / 2.0) * gamma(-alpha))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_excluded_exponents(self):
        for alpha in (-1, -3, -5, -1.0, -3.0, -5.0):
            with pytest.raises(AlphaOutOfRange):
                riesz_kernel(alpha, 1.0)

    def test_origin_rules(self):
        with pytest.raises(OriginSingular):
            riesz_kernel(0.5, 0.0)
        assert riesz_kernel(-1.5, 0.0) == 0.0

    def test_regularized_form_matches_limit(self):
        exact = riesz_kernel(0.5, 1.0)
        errs = [abs(riesz_kernel(0.5, 1.0, eps) - exact) for eps in (0.1, 0.01)]
        assert errs[1] < errs[0] < 0.1

    def test_exponent_flags(self):
        # a negative even integer is not in the excluded set: at eps = 0 it
        # gives the finite limit, b_{-2}(x) = -|x|/2, for an int as for a
        # float; the damped transform has a pole there and refuses
        for alpha in (-2, -2.0):
            assert riesz_kernel(alpha, 1.3) == pytest.approx(-0.65, rel=1e-15)
            with pytest.raises(PoleError, match="damped transform"):
                riesz_kernel(alpha, 1.0, eps=0.1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_negative_even_limit_between_neighbours(self, m):
        # (-1)^m |x|^(2m-1) / (2 (2m-1)!), the limit of the closed form at
        # alpha -> -2m from either side
        for x in (0.7, 1.3, 2.5):
            got = riesz_kernel(-2 * m, x)
            below, above = riesz_kernel(-2 * m - 1e-6, x), riesz_kernel(-2 * m + 1e-6, x)
            assert got == pytest.approx((-1) ** m * x ** (2 * m - 1) / (2 * math.factorial(2 * m - 1)), rel=1e-14)
            assert got == pytest.approx(below, rel=1e-5)
            assert got == pytest.approx(above, rel=1e-5)
            # the first-order terms of the two neighbours cancel
            assert got == pytest.approx(0.5 * (below + above), rel=1e-9)
        assert np.array_equal(riesz_kernel(-2 * m, np.array([-1.3, 1.3])), np.full(2, riesz_kernel(-2 * m, 1.3)))


class TestLaplacianPowerKernel:
    def test_first_power_is_plain_power_law(self):
        # a_delta cancels: (h^delta/zeta) |x|^(-1-delta), = 1 at x = 1, h = zeta = 1
        for delta in (0.3, 0.5, 1.0, 1.7):
            p = make_params(delta, 1.0, 1.0)
            assert laplacian_power_kernel(p, 1, 1.0) == pytest.approx(-1.0, rel=1e-12)

    def test_second_power_vanishes_at_delta_one(self, params_one):
        assert laplacian_power_kernel(params_one, 2, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_power_is_greens(self, params_half):
        assert laplacian_power_kernel(params_half, -1, 1.0) == pytest.approx(
            greens_static(params_half, 1.0), rel=1e-14
        )

    def test_zero_power_smooth_part_and_token(self, params_half):
        assert laplacian_power_kernel(params_half, 0, 0.7) == 0.0

    def test_homogeneity(self, params_half):
        p = params_half
        for n in (1, 2, 3):
            ref = laplacian_power_kernel(p, n, 1.0)
            for x in (0.5, 2.0, 7.0):
                scaled = laplacian_power_kernel(p, n, x) * abs(x) ** (n * p.delta + 1.0)
                assert scaled == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n,x", [(101, 0.5), (150, 0.5), (201, 0.5), (45, np.array([0.5, 1.0]))],
                             ids=["101", "150", "201", "product_45"])
    def test_beyond_float_range_is_a_numeric_error(self, n, x):
        # a_delta = 1.06e5: a_delta^n passes float range from n = 62, and at
        # n = 45 its product with b_(n delta)(1/2) does
        with pytest.raises(NumericError, match="beyond float range"):
            laplacian_power_kernel(make_params(1.5, 1e3, 1.0), n, x)

    def test_origin_and_validation(self, params_half):
        with pytest.raises(OriginSingular):
            laplacian_power_kernel(params_half, 1, 0.0)
        with pytest.raises(AlphaOutOfRange):
            laplacian_power_kernel(params_half, -2, 1.0)
        # a non-integer power is refused by the count rule, that class exactly
        with pytest.raises(ValidationError, match=r"^n must be an integer, got 1\.5$") as info:
            laplacian_power_kernel(params_half, 1.5, 1.0)
        assert type(info.value) is ValidationError


class TestCompensationIntegrals:
    def test_frozen_half_order(self):
        assert riesz_tail_integral(0.5, 1.0) == pytest.approx(-0.3989422804014327, rel=1e-12)

    def test_even_order_vanishes(self):
        assert riesz_tail_integral(2.0, 3.0) == pytest.approx(0.0, abs=1e-16)

    def test_cut_point_scaling(self):
        for alpha in (0.5, 1.2):
            ratio = riesz_tail_integral(alpha, 2.0) / riesz_tail_integral(alpha, 1.0)
            assert ratio == pytest.approx(2.0 ** (-alpha), rel=1e-13)

    def test_origin_integral_diverges_toward_zero_cut(self):
        # the head int_0^a b_alpha dx = -tail grows without bound as a -> 0+
        vals = [abs(riesz_tail_integral(0.5, a)) for a in (1.0, 0.1, 0.01)]
        assert vals[0] < vals[1] < vals[2]

    def test_validation(self):
        with pytest.raises(AlphaOutOfRange):
            riesz_tail_integral(-0.5, 1.0)
        with pytest.raises(NonPositiveScale):
            riesz_tail_integral(0.5, 0.0)


class TestNormalizationTrichotomy:
    def test_zero_order_regularized_mass_tends_to_one(self):
        # eps > 0 kernel at alpha = 0 is the Poisson family: mass -> 1
        g = Grid1D.centered(1 << 15, 0.01)
        masses = []
        for eps in (0.5, 0.1, 0.02):
            vals = riesz_kernel(0.0, g.x, eps)
            masses.append(float(trapezoid(vals, g.x)))
        assert abs(masses[-1] - 1.0) < 0.01
        assert abs(masses[-1] - 1.0) < abs(masses[0] - 1.0)

    def test_negative_band_mass_diverges(self):
        # -1 < alpha < 0: integral over growing windows increases without bound
        alpha = -0.5
        windows = (1.0, 10.0, 100.0)
        vals = []
        for w in windows:
            x = np.linspace(1e-4, w, 20001)
            vals.append(2.0 * float(trapezoid(riesz_kernel(alpha, x), x)))
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 2.0 * vals[0]


# each refused by its rule, with exactly that rule's class and message: a
# non-finite alpha by check_finite, a nan or inf damping, scale, window,
# tail start or abs_tol by the sign rule, a bool count or a seed that is
# not a count by the count rule; accepted, eps = nan would give the eps = 0
# kernel (riesz_kernel) or nan (greens_retarded), L = nan a zero moment,
# alpha = inf a math domain or division error, alpha = nan a nan kernel,
# scale = nan a batch, True the count 1, a seed of True the preamble
# seed=True, and an abs_tol of -1 a TypeError, of 0 or nan a
# QuadratureNoConvergence and of inf an answer with nothing certified.
# A value beyond float range, at either end, is refused by the float-range
# rule, with no overflow warning, where it was +-inf, 0, a bare
# OverflowError, or a ValidationError of the result
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,error,message", [
    (lambda p: riesz_kernel(0.5, 1.0, eps=math.nan), EpsNonPositive, "eps must be finite and >= 0, got nan"),
    (lambda p: riesz_kernel(0.5, 1.0, eps=math.inf), EpsNonPositive, "eps must be finite and >= 0, got inf"),
    (lambda p: riesz_kernel(math.nan, 1.0), ValidationError, "alpha must be finite, got nan"),
    (lambda p: riesz_kernel(math.inf, 1.0), ValidationError, "alpha must be finite, got inf"),
    (lambda p: riesz_kernel(-math.inf, 1.0), ValidationError, "alpha must be finite, got -inf"),
    (lambda p: frac_kernel_y(0.5, 1.0, eps=math.nan), EpsNonPositive, "eps must be finite and >= 0, got nan"),
    (lambda p: frac_kernel_y(math.inf, 1.0), ValidationError, "alpha must be finite, got inf"),
    (lambda p: frac_kernel_y(math.inf, 1.0, eps=0.1), ValidationError, "alpha must be finite, got inf"),
    (lambda p: frac_kernel_y(math.nan, 1.0), ValidationError, "alpha must be finite, got nan"),
    (lambda p: frac_kernel_y(math.nan, 1.0, eps=0.1), ValidationError, "alpha must be finite, got nan"),
    (lambda p: greens_retarded(p, 1.0, 1.0, eps=math.nan), EpsNonPositive, "eps must be finite and >= 0, got nan"),
    (lambda p: greens_retarded(p, 1.0, 1.0, eps=math.inf), EpsNonPositive, "eps must be finite and >= 0, got inf"),
    (lambda p: helmholtz_symbol(p, 1.0, 1.0, math.nan), EpsNonPositive, "eps must be finite and > 0, got nan"),
    (lambda p: helmholtz_symbol(p, 1.0, 1.0, math.inf), EpsNonPositive, "eps must be finite and > 0, got inf"),
    (lambda p: truncated_moment(Grid1D.centered(64, 0.1).sample(np.exp), 2, math.nan), NonPositiveScale,
     "L must be finite and > 0, got nan"),
    (lambda p: riesz_kernel(2.5, 1e-300), NumericError, "beyond float range"),
    (lambda p: riesz_kernel(0.5, 1e-310), NumericError, "beyond float range"),
    (lambda p: make_params(0.5, 1.0, 1e-320), NumericError, "beyond float range"),
    (lambda p: make_params(1.9, 1e200, 1.0), NumericError, "beyond float range"),
    (lambda p: make_params(1.9, 1e-300, 1.0), NumericError, "beyond float range"),
    (lambda p: dispersion(make_params(1.9, 1.0, 1.0), 1e300), NumericError, "beyond float range"),
    (lambda p: dispersion_quadrature(make_params(1.9, 1.0, 1.0), 1e300), NumericError, "beyond float range"),
    (lambda p: dispersion_quadrature(make_params(1.9, 1e150, 1.0), 1e20), NumericError, "beyond float range"),
    (lambda p: greens_static(make_params(0.01, 1.0, 1.0), 1e-320), NumericError, "beyond float range"),
    (lambda p: laplacian_power_kernel(make_params(0.01, 1.0, 1.0), -1, 1e-320), NumericError,
     "beyond float range"),
    (lambda p: sample_levy(p, 1e300, 10, 1), NumericError, "beyond float range"),
    (lambda p: sample_levy(make_params(0.01, 1.0, 1.0), 1.0, 1000, 1), NumericError, "beyond float range"),
    (lambda p: sample_levy(make_params(0.05, 1.0, 1.0), 1e-300, 10, 1), NumericError, "beyond float range"),
    (lambda p: frac_kernel_y(0.5, 1e-320), NumericError, "beyond float range"),
    (lambda p: frac_kernel_y(200.0, 1.0, eps=0.1), NumericError, "beyond float range"),
    (lambda p: factorial_ext(171.0), NumericError, "beyond float range"),
    (lambda p: SampleBatch(0.5, math.nan, 1, np.zeros(3)), NonPositiveScale, "scale must be finite and > 0, got nan"),
    (lambda p: SampleBatch(0.5, 0.0, 1, np.zeros(3)), NonPositiveScale, "scale must be finite and > 0, got 0.0"),
    (lambda p: SampleBatch(0.5, math.inf, 1, np.zeros(3)), NonPositiveScale, "scale must be finite and > 0, got inf"),
    (lambda p: SampleBatch(0.5, 1.0, True, np.zeros(3)), ValidationError, "seed must be an integer >= 0, got True"),
    (lambda p: SampleBatch(0.5, 1.0, -3.5, np.zeros(3)), ValidationError, "seed must be an integer >= 0, got -3.5"),
    (lambda p: SampleBatch(0.5, 1.0, 2.5, np.zeros(3)), ValidationError, "seed must be an integer >= 0, got 2.5"),
    (lambda p: laplacian_power_kernel(p, True, 1.0), ValidationError, "n must be an integer, got True"),
    (lambda p: truncated_moment(Grid1D.centered(64, 0.1).sample(np.exp), True, 1.0), ValidationError,
     "p must be an integer, got True"),
    (lambda p: Grid1D.centered(True, 0.1), ValidationError, "n must be an integer, got True"),
    (lambda p: oscillatory_tail(math.cos, -1.5, 0.0, 1e-9), NonPositiveScale, "start must be finite and > 0, got 0.0"),
    (lambda p: oscillatory_tail(math.cos, -1.5, 1.0, -1.0), NonPositiveScale,
     "abs_tol must be finite and > 0, got -1.0"),
    (lambda p: oscillatory_tail(math.cos, -1.5, 1.0, 0.0), NonPositiveScale,
     "abs_tol must be finite and > 0, got 0.0"),
    (lambda p: oscillatory_tail(math.cos, -1.5, 1.0, math.nan), NonPositiveScale,
     "abs_tol must be finite and > 0, got nan"),
    (lambda p: oscillatory_tail(math.cos, -1.5, 1.0, math.inf), NonPositiveScale,
     "abs_tol must be finite and > 0, got inf"),
    (lambda p: singular_integral(math.cos, -1.0, ((0.5, 2.0),), 0.5, -1.0, 1.0), NonPositiveScale,
     "abs_tol must be finite and > 0, got -1.0"),
    (lambda p: singular_integral(math.cos, -1.0, ((0.5, 2.0),), 0.5, 0.0, 1.0), NonPositiveScale,
     "abs_tol must be finite and > 0, got 0.0"),
    (lambda p: singular_integral(math.cos, -1.0, ((0.5, 2.0),), 0.5, math.nan, 1.0), NonPositiveScale,
     "abs_tol must be finite and > 0, got nan"),
    (lambda p: singular_integral(math.cos, -1.0, ((0.5, 2.0),), 0.5, math.inf, 1.0), NonPositiveScale,
     "abs_tol must be finite and > 0, got inf"),
    (lambda p: riesz_tail_integral(200.0, 1e-3), NumericError, "beyond float range"),
    (lambda p: riesz_tail_integral(180.5, 10.0), NumericError, "beyond float range"),
    (lambda p: riesz_tail_integral(200.5, 1e3), NumericError, "beyond float range"),
    (lambda p: frac_derivative_spectral(300.0, Grid1D.centered(64, 0.1).sample(np.exp)), NumericError,
     "beyond float range"),
    (lambda p: propagator_cauchy(make_params(1.0, 1.0, 1.0), 1.0, 1e308), NumericError, "beyond float range"),
    (lambda p: propagator_cauchy(make_params(1.0, 1.0, 1.0), 0.0, 1e-320), NumericError, "beyond float range"),
], ids=["riesz_eps_nan", "riesz_eps_inf", "riesz_alpha_nan", "riesz_alpha_inf",
        "riesz_alpha_minus_inf", "frac_kernel_eps_nan", "frac_kernel_alpha_inf",
        "frac_kernel_alpha_inf_eps", "frac_kernel_alpha_nan", "frac_kernel_alpha_nan_eps",
        "greens_eps_nan", "greens_eps_inf",
        "helmholtz_eps_nan", "helmholtz_eps_inf", "moment_L_nan",
        "riesz_overflow", "riesz_overflow_subnormal_x",
        "a_delta_zeta_subnormal", "a_delta_h_overflow", "a_delta_underflow", "dispersion_overflow",
        "dispersion_quadrature_overflow", "dispersion_quadrature_product", "greens_static_overflow",
        "power_kernel_minus_one_overflow", "levy_scale_overflow", "levy_samples_overflow",
        "levy_scale_underflow", "frac_kernel_overflow", "frac_kernel_factorial_overflow",
        "factorial_overflow", "batch_scale_nan", "batch_scale_zero", "batch_scale_inf",
        "batch_seed_bool", "batch_seed_negative_fraction", "batch_seed_fraction",
        "power_kernel_n_bool", "moment_p_bool", "grid_n_bool", "tail_start_zero",
        "tail_abs_tol_negative", "tail_abs_tol_zero", "tail_abs_tol_nan", "tail_abs_tol_inf",
        "singular_abs_tol_negative", "singular_abs_tol_zero", "singular_abs_tol_nan",
        "singular_abs_tol_inf",
        "tail_integral_overflow", "tail_integral_gamma_overflow", "tail_integral_gamma_overflow_times_zero",
        "frac_derivative_overflow", "cauchy_scale_overflow", "cauchy_origin_overflow"])
def test_non_finite_and_negative_parameters_are_refused(params_half, call, error, message):
    with pytest.raises(error) as info:
        call(params_half)
    assert type(info.value) is error
    assert message in str(info.value)
