import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from selfsim import (
    DeltaOutOfRange,
    NonPositiveScale,
    PoleError,
    ValidationError,
    dispersion,
    dispersion_quadrature,
    factorial_ext,
    make_params,
)


class TestMakeParams:
    def test_delta_one_coefficient_is_h_pi_over_zeta(self):
        assert make_params(1.0, 1.0, 0.1).a_delta == pytest.approx(10.0 * math.pi, rel=1e-14)
        assert make_params(1.0, 1.0, 1.0).a_delta == pytest.approx(math.pi, rel=1e-14)

    def test_delta_half_matches_quadrature_oracle(self):
        # frozen from the defining integral (series + oscillatory tail)
        assert make_params(0.5, 1.0, 1.0).a_delta == pytest.approx(5.013256549262030, rel=1e-12)

    @pytest.mark.parametrize("delta", [2.0, 0.0, -0.5, 2.7])
    def test_delta_band_is_strict(self, delta):
        with pytest.raises(DeltaOutOfRange):
            make_params(delta, 1.0, 1.0)

    @pytest.mark.parametrize("h,zeta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_scales_must_be_positive(self, h, zeta):
        with pytest.raises(NonPositiveScale):
            make_params(0.5, h, zeta)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError) as info:
            make_params(0.5, float("nan"), 1.0)
        assert type(info.value) is ValidationError
        assert str(info.value) == "h must be finite, got nan"

    def test_coefficient_positive_across_band(self):
        for delta in np.linspace(0.05, 1.95, 39):
            assert make_params(float(delta), 2.0, 0.3).a_delta > 0.0


class TestFactorialExt:
    def test_zero(self):
        assert factorial_ext(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_positive_half_integers(self):
        assert factorial_ext(0.5) == pytest.approx(math.gamma(1.5), rel=1e-15)

    def test_continuation_below_minus_one(self):
        # Gamma(-1.5) through the recurrence Gamma(0.5)/((-1.5)(-0.5))
        want = math.gamma(0.5) / 0.75
        assert factorial_ext(-2.5) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("alpha", [-1.0, -2.0, -3.0, -7.0])
    def test_negative_integer_poles(self, alpha):
        with pytest.raises(PoleError):
            factorial_ext(alpha)

    def test_euler_reflection(self):
        for alpha in np.linspace(0.05, 0.95, 19):
            lhs = factorial_ext(float(alpha) - 1.0) * factorial_ext(-float(alpha))
            assert lhs == pytest.approx(math.pi / math.sin(math.pi * alpha), rel=1e-12)

    @given(alpha=st.one_of(
        st.builds(lambda k, j, side: -k + side * 10.0**-j,
                  st.integers(1, 8), st.integers(3, 12), st.sampled_from([-1.0, 1.0])),
        st.floats(-8.0, 8.0, exclude_min=True, exclude_max=True).filter(
            lambda a: a > -1.0 or not a.is_integer()),
    ))
    @example(alpha=-1.3)
    @example(alpha=-1.9)
    @example(alpha=-2.7)
    @example(alpha=-4.2)
    def test_branches_agree_with_gamma_recurrence(self, alpha):
        # Gamma(alpha + 1) = Gamma(alpha + 1 + m) / ((alpha + 1) ... (alpha + m)),
        # m steps up to a positive argument; within 1e-12 of a pole too
        m = max(0, math.floor(-alpha))
        want = math.gamma(alpha + 1.0 + m) / math.prod(alpha + i for i in range(1, m + 1))
        assert factorial_ext(alpha) == pytest.approx(want, rel=1e-13)


class TestDispersion:
    def test_zero_wavenumber(self, params_half):
        assert dispersion(params_half, 0.0) == 0.0

    def test_delta_one_value(self):
        p = make_params(1.0, 1.0, 1.0)
        assert dispersion(p, 2.0) == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_delta_half_value(self, params_half):
        assert dispersion(params_half, 4.0) == pytest.approx(10.026513098524003, rel=1e-12)

    def test_scaling_homogeneity(self, params_half):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = rng.uniform(-10, 10)
            c = rng.uniform(-5, 5)
            assert dispersion(params_half, c * k) == pytest.approx(
                abs(c) ** 0.5 * dispersion(params_half, k), rel=1e-12
            )

    def test_stability_positive_off_zero(self):
        for delta in (0.25, 1.0, 1.9):
            p = make_params(delta, 1.0, 0.7)
            assert np.all(dispersion(p, np.array([-3.0, -0.1, 0.1, 8.0])) > 0.0)

    def test_accepts_arrays(self, params_half):
        k = np.array([0.0, 1.0, -1.0])
        out = dispersion(params_half, k)
        assert out.shape == (3,)
        assert out[1] == out[2]


class TestDispersionQuadrature:
    def test_zero_wavenumber(self, params_half):
        assert dispersion_quadrature(params_half, 0.0) == 0.0

    def test_delta_one_is_pi(self, params_one):
        assert dispersion_quadrature(params_one, 1.0) == pytest.approx(math.pi, rel=1e-9)

    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
    def test_agrees_with_closed_form(self, delta, k):
        p = make_params(delta, 1.0, 1.0)
        assert dispersion_quadrature(p, k) == pytest.approx(dispersion(p, k), rel=1e-6)

    @given(delta=st.floats(0.05, 1.95), k=st.floats(0.1, 10.0))
    @example(delta=0.798024012006003, k=6.1)
    def test_matches_closed_form_on_band(self, delta, k):
        # the cosine tail on the contour s = 1 + iu; QUADPACK's cosine weight
        # on the real axis was 2.35e-14 off at the example
        p = make_params(delta, 1.0, 1.0)
        assert dispersion_quadrature(p, k) == pytest.approx(dispersion(p, k), rel=2e-14, abs=0.0)
