import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from selfsim import (
    CauchyState,
    EpsNonPositive,
    Grid1D,
    RealField,
    SeriesBudgetExceeded,
    cauchy_evolve,
    dispersion,
    energy,
    greens_retarded,
    greens_static,
    helmholtz_green,
    helmholtz_symbol,
    make_params,
    wave_kernel_dt_fourier,
    wave_kernel_dt_series,
    wave_kernel_dt_spectral,
    wave_kernel_fourier,
    wave_kernel_series,
    wave_kernel_spectral,
)
from selfsim import dynamics
from selfsim.diffusion import propagator
from selfsim.errors import NumericError, OriginSingular, SelfsimError
from selfsim.operator import laplacian_apply_spectral, weyl_marchaud
from selfsim.quadrature import neville_at_zero, oscillatory_tail

from oracles import (
    cauchy_evolve_reference,
    kernel_ladder_reference,
    kernel_ladder_xspace,
    outcome,
    rotated_fourier_reference,
    sample_kernel_reference,
    wave_kernels_delta_one,
    wave_symbol_reference,
)

# exponents drawn across the band 0 < delta < 2, clear of its endpoints
BAND = st.floats(0.05, 1.95, exclude_min=True, exclude_max=True)


def _state(grid, ufn, vfn):
    return CauchyState(grid.sample(ufn), grid.sample(vfn))


class TestCauchyEvolve:
    def test_zero_time_is_identity(self, params_half, small_grid):
        s0 = _state(small_grid, lambda x: np.exp(-x * x), lambda x: np.sin(x) * np.exp(-x * x))
        s1 = cauchy_evolve(params_half, s0, 0.0)
        assert np.max(np.abs(s1.u.values - s0.u.values)) < 1e-14
        assert np.max(np.abs(s1.v.values - s0.v.values)) < 1e-14

    def test_single_mode_rotation(self, params_half, small_grid):
        k0 = 20 * 2.0 * math.pi / small_grid.length
        w = math.sqrt(dispersion(params_half, k0))
        s0 = _state(small_grid, lambda x: np.cos(k0 * x), lambda x: np.zeros_like(x))
        for t in (0.3, 1.7):
            st = cauchy_evolve(params_half, s0, t)
            want = math.cos(w * t) * np.cos(k0 * small_grid.x)
            assert np.max(np.abs(st.u.values - want)) < 1e-12

    def test_zero_mode_drifts_linearly(self, params_half, small_grid):
        # constant displacement + constant velocity: u -> u0 + t v0
        s0 = _state(small_grid, lambda x: np.full_like(x, 1.0), lambda x: np.full_like(x, 0.25))
        st = cauchy_evolve(params_half, s0, 2.0)
        assert np.max(np.abs(st.u.values - 1.5)) < 1e-12
        assert np.max(np.abs(st.v.values - 0.25)) < 1e-12

    @given(delta=BAND)
    @example(delta=1.5)
    def test_time_reversal(self, delta, small_grid):
        params = make_params(delta, 1.0, 1.0)
        s0 = _state(small_grid, lambda x: np.exp(-x * x) * np.cos(3 * x), lambda x: np.exp(-x * x / 2))
        back = cauchy_evolve(params, cauchy_evolve(params, s0, 1.3), -1.3)
        assert np.max(np.abs(back.u.values - s0.u.values)) < 1e-10
        assert np.max(np.abs(back.v.values - s0.v.values)) < 1e-10

    @given(delta=BAND, t1=st.floats(-3.0, 3.0), t2=st.floats(-3.0, 3.0))
    @example(delta=1.5, t1=0.7, t2=-2.1)
    def test_semigroup(self, delta, t1, t2, small_grid):
        # the spectra stay in k between the two steps: no round trip in x
        params = make_params(delta, 1.0, 1.0)
        s0 = _state(small_grid, lambda x: np.exp(-x * x) * np.cos(3 * x), lambda x: np.exp(-x * x / 2))
        two = cauchy_evolve(params, cauchy_evolve(params, s0, t1), t2)
        one = cauchy_evolve(params, s0, t1 + t2)
        for got, want in [(two.u.values, one.u.values), (two.v.values, one.v.values)]:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(s0.u.values))

    def test_grid_mismatch_rejected(self, small_grid):
        other = Grid1D.centered(1024, 0.05)
        with pytest.raises(ValueError):
            CauchyState(
                small_grid.sample(lambda x: np.zeros_like(x)),
                other.sample(lambda x: np.zeros_like(x)),
            )


class TestEnergy:
    def test_zero_state(self, params_half, small_grid):
        s = _state(small_grid, lambda x: np.zeros_like(x), lambda x: np.zeros_like(x))
        assert energy(params_half, s) == 0.0

    def test_single_mode_constant_in_time(self, params_half, small_grid):
        k0 = 12 * 2.0 * math.pi / small_grid.length
        s0 = _state(small_grid, lambda x: np.cos(k0 * x), lambda x: np.zeros_like(x))
        e0 = energy(params_half, s0)
        for t in (0.5, 2.0, 9.0):
            assert energy(params_half, cauchy_evolve(params_half, s0, t)) == pytest.approx(
                e0, rel=1e-12
            )

    @given(delta=BAND)
    @example(delta=1.5)
    def test_conserved_over_many_steps(self, delta, small_grid):
        params = make_params(delta, 1.0, 1.0)
        s = _state(small_grid, lambda x: np.exp(-x * x) * np.cos(2 * x), lambda x: 0.3 * np.exp(-x * x))
        e0 = energy(params, s)
        for _ in range(100):
            s = cauchy_evolve(params, s, 0.04)
        assert energy(params, s) == pytest.approx(e0, rel=1e-10)

    @given(delta=BAND, n=st.integers(8, 257), seed=st.integers(0, 2**32 - 1))
    @example(delta=1.5, n=8, seed=0)
    @example(delta=0.3, n=9, seed=1)
    def test_parseval_form_equals_the_x_space_form(self, delta, n, seed):
        # the one-rfft sum weights each conjugate pair twice, and k = 0 and
        # an even grid's Nyquist index once
        params = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(n, 0.1)
        rng = np.random.default_rng(seed)
        u, v = (RealField(grid, rng.standard_normal(n)) for _ in range(2))
        lap_u = laplacian_apply_spectral(params, u).values
        want = 0.5 * grid.dx * (np.sum(v.values**2) - np.sum(u.values * lap_u))
        assert energy(params, CauchyState(u, v)) == pytest.approx(want, rel=1e-12)

    @given(delta=BAND, n=st.integers(8, 257), seed=st.integers(0, 2**32 - 1), t=st.floats(-3.0, 3.0))
    @example(delta=1.5, n=8, seed=0, t=1.0)
    @example(delta=0.3, n=9, seed=1, t=-0.4)
    def test_evolved_energy_equals_the_x_space_form_of_its_fields(self, delta, n, seed, t):
        # the evolved state holds spectra: its kinetic part is taken by Parseval
        params = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(n, 0.1)
        rng = np.random.default_rng(seed)
        s = cauchy_evolve(params, CauchyState(*(RealField(grid, rng.standard_normal(n)) for _ in range(2))), t)
        u, v = s.u.values, s.v.values
        lap_u = laplacian_apply_spectral(params, s.u).values
        want = 0.5 * grid.dx * (np.sum(v**2) - np.sum(u * lap_u))
        assert energy(params, s) == pytest.approx(want, rel=1e-12)


class TestSpectralState:
    """A state built from fields keeps the spectrum of u once taken; one that
    cauchy_evolve returns holds spectra and transforms a field back only
    when it is first read."""

    def test_energy_evolve_energy_takes_two_forward_transforms(self, params_half, small_grid, fft_calls):
        s0 = _state(small_grid, lambda x: np.exp(-x * x), lambda x: np.sin(x) * np.exp(-x * x))
        energy(params_half, s0)
        s1 = cauchy_evolve(params_half, s0, 0.5)
        energy(params_half, s1)
        assert fft_calls == ["rfft", "rfft"]

    def test_spectral_steps_take_no_transform(self, params_half, small_grid, fft_calls):
        s = cauchy_evolve(params_half, _state(small_grid, lambda x: np.exp(-x * x), lambda x: 0.0 * x), 0.1)
        del fft_calls[:]
        for _ in range(5):
            energy(params_half, s)
            s = cauchy_evolve(params_half, s, 0.1)
        assert fft_calls == []

    def test_each_field_is_transformed_back_once(self, params_half, small_grid, fft_calls):
        s0 = _state(small_grid, lambda x: np.exp(-x * x), lambda x: np.sin(x) * np.exp(-x * x))
        s1 = cauchy_evolve(params_half, s0, 0.5)
        del fft_calls[:]
        assert s1.u is s1.u
        assert fft_calls == ["irfft"]
        assert s1.v is s1.v
        assert fft_calls == ["irfft", "irfft"]
        # a field once read does not move energy or the next step to x space
        energy(params_half, s1)
        cauchy_evolve(params_half, s1, 0.5)
        assert fft_calls == ["irfft", "irfft"]

    def test_building_a_state_takes_no_transform(self, small_grid, fft_calls):
        s0 = _state(small_grid, lambda x: np.exp(-x * x), lambda x: 0.0 * x)
        assert s0.u.grid == s0.v.grid
        assert fft_calls == []

    def test_fields_are_read_only_attributes(self, params_half, small_grid):
        s0 = _state(small_grid, lambda x: np.exp(-x * x), lambda x: 0.0 * x)
        for s in (s0, cauchy_evolve(params_half, s0, 0.5)):
            with pytest.raises(AttributeError):
                s.u = s0.u


class TestTypedRefusals:
    """Refusals of bad input are SelfsimErrors (ValidationErrors), which
    callers can catch with every other selfsim error."""

    @pytest.mark.parametrize("call", [
        lambda: CauchyState(Grid1D.centered(8, 0.1).sample(np.cos), Grid1D.centered(16, 0.1).sample(np.cos)),
        lambda: weyl_marchaud(0.5, math.cos, 0.3, "up"),
        lambda: oscillatory_tail(math.cos, -1.5, 0.0, 1e-10),
    ], ids=["cauchy_state_grids", "weyl_marchaud_side", "oscillatory_tail_start"])
    def test_is_a_selfsim_error(self, call):
        with pytest.raises(SelfsimError):
            call()


class TestSpectralKernels:
    def test_velocity_kernel_zero_at_t0(self, params_half, small_grid):
        q = wave_kernel_spectral(params_half, small_grid, 0.0)
        assert np.max(np.abs(q.values)) == 0.0

    def test_displacement_kernel_unit_mass_at_t0(self, params_half, small_grid):
        m = wave_kernel_dt_spectral(params_half, small_grid, 0.0).mass()
        assert m == pytest.approx(1.0, abs=1e-9)

    @given(delta=BAND)
    @example(delta=0.5)
    def test_even_in_x(self, delta, small_grid):
        q = wave_kernel_spectral(make_params(delta, 1.0, 1.0), small_grid, 0.8).values
        assert np.max(np.abs(q[1:] - q[1:][::-1])) < 1e-10 * np.max(np.abs(q))

    def test_odd_in_t(self, params_half, small_grid):
        plus = wave_kernel_spectral(params_half, small_grid, 0.6).values
        minus = wave_kernel_spectral(params_half, small_grid, -0.6).values
        assert np.max(np.abs(plus + minus)) < 1e-12

    def test_second_time_derivative_vanishes_initially(self, params_half):
        # Q(x, 2dt) - 2 Q(x, dt) + Q(x, 0) over dt^2 tends to 0 linearly
        x = 1.0
        dts = [0.08, 0.04, 0.02, 0.01]
        vals = []
        for dt in dts:
            fd = (
                wave_kernel_series(params_half, x, 2 * dt)
                - 2.0 * wave_kernel_series(params_half, x, dt)
            ) / dt**2
            vals.append(fd)
        assert all(abs(a) > abs(b) for a, b in zip(vals, vals[1:]))
        assert neville_at_zero(dts, vals) == pytest.approx(0.0, abs=1e-6)

    def test_grid_kernel_matches_series_at_delta_one(self, params_one):
        # ladder floor 20 dx / pi ~ 8e-3, guard length ~1e4
        grid = Grid1D.centered(1 << 23, 1.25e-3)
        q = wave_kernel_spectral(params_one, grid, 1.0)
        for x_t in (1.0, 2.0, 3.0, 5.0):
            xg = grid.x[grid.index_near(x_t)]
            want = wave_kernel_series(params_one, xg, 1.0)
            assert q.value_near(x_t) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("delta", [0.5, 1.5])
    def test_symbol_ladder_matches_xspace_ladder(self, delta):
        # Richardson weights on the symbol equal Neville on the sampled kernels
        params = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(1 << 13, 0.05)
        w = np.sqrt(dispersion(params, grid.k_half))
        t = 1.2
        with np.errstate(invalid="ignore"):
            q_sym = np.where(w > 0.0, np.sin(w * t) / w, t)
        cases = [
            (wave_kernel_spectral(params, grid, t).values, q_sym),
            (wave_kernel_dt_spectral(params, grid, t).values, np.cos(w * t)),
            (helmholtz_green(params, grid, 0.0, 0.2).values,
             helmholtz_symbol(params, grid.k_half, 0.0, 0.2)),
            (helmholtz_green(params, grid, 1.3, 0.1).values,
             helmholtz_symbol(params, grid.k_half, 1.3, 0.1)),
        ]
        for got, sym in cases:
            want = kernel_ladder_xspace(grid, sym)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestSynthesisBitIdentity:
    """The cached ladder damping and the mirrored cosine transform keep every
    kernel within rounding of its reference and exactly even; the in-place
    Cauchy rotation changes no bit of the output."""

    @given(delta=BAND, n=st.sampled_from([1 << 12, 1 << 13]), t=st.floats(0.1, 2.0))
    @example(delta=0.5, n=1 << 12, t=1.0)
    def test_matches_reference_on_band(self, delta, n, t):
        p = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(n, 0.05)
        k = grid.k_half
        cases = [
            (propagator(p, grid, t).values,
             sample_kernel_reference(grid, np.exp(-dispersion(p, k) * t))),
            (wave_kernel_spectral(p, grid, t).values,
             kernel_ladder_reference(grid, lambda k: wave_symbol_reference(p, k, t, "Q"))),
            (wave_kernel_dt_spectral(p, grid, t).values,
             kernel_ladder_reference(grid, lambda k: wave_symbol_reference(p, k, t, "dQ"))),
        ]
        for omega in (0.0, 1.3):  # the resolvent, complex at omega = 0 too
            cases.append((helmholtz_green(p, grid, omega, 0.1).values,
                          kernel_ladder_reference(grid, lambda k: 1.0 / (dispersion(p, k) - (omega + 0.1j) ** 2))))
        m = n // 2
        for got, want in cases:
            assert got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
            assert got[m + 1:].tobytes() == got[m - 1:0:-1].tobytes()
        s0 = _state(grid, lambda x: np.exp(-x * x) * np.cos(2 * x), lambda x: 0.3 * np.exp(-x * x) * x)
        s1 = cauchy_evolve(p, s0, t)
        u_ref, v_ref = cauchy_evolve_reference(p, s0.u.values, s0.v.values, grid, t)
        for got, want in [(s1.u.values, u_ref), (s1.v.values, v_ref)]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_ladder_damping_is_read_only(self):
        grid = Grid1D.centered(1 << 12, 0.05)
        dynamics._ladder_damping.cache_clear()
        damping = dynamics._ladder_damping(grid)
        assert dynamics._ladder_damping(grid) is damping
        assert not damping.flags.writeable
        with pytest.raises(ValueError):
            damping[0] = 0.0

    def test_alternating_grids_match_fresh_calls(self, params_half):
        # the one-entry cache is replaced on every change of grid
        grids = [Grid1D.centered(1 << 12, 0.05), Grid1D.centered(1 << 12, 0.04)]
        got = [wave_kernel_spectral(params_half, g, 0.7).values for g in grids + grids]
        assert dynamics._ladder_damping.cache_info().currsize == 1
        for i, g in enumerate(grids + grids):
            dynamics._ladder_damping.cache_clear()
            fresh = wave_kernel_spectral(params_half, g, 0.7).values
            assert got[i].tobytes() == fresh.tobytes()


# the reference's numpy integrand hands QUADPACK a nan or inf where it leaves
# float range; the library's integrand refuses there itself
_NUMPY_OVERFLOW = re.compile(r"QuadratureNoConvergence: quadrature on \[0, inf\] reported error (nan|inf) "
                             r"\(budget 1e-09\)")
_OVERFLOW = re.compile(r"QuadratureNoConvergence: rotated integrand leaves float range at u = \S+")


def _same_outcome(got, want):
    return got == want or bool(_NUMPY_OVERFLOW.fullmatch(want) and _OVERFLOW.fullmatch(got))


class TestFourierBitIdentity:
    """The rotated integrand on Python complex numbers (cmath) changes no
    bit of Q or dQ/dt, and refuses where the numpy form overflowed."""

    def test_matches_reference_on_band(self):
        rng = np.random.default_rng(15)
        for i in range(150):
            delta = float(rng.uniform(0.05, 1.95))
            x = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 6.0))
            t = float(rng.uniform(-3.0, 3.0))
            p = make_params(delta, 1.0, 1.0)
            want_q = outcome(lambda: rotated_fourier_reference(p, x, abs(t), "Q") * math.copysign(1.0, t))
            want_dq = outcome(lambda: rotated_fourier_reference(p, x, abs(t), "dQ"))
            got_q = outcome(lambda: wave_kernel_fourier(p, x, t))
            got_dq = outcome(lambda: wave_kernel_dt_fourier(p, x, t))
            if i == 63:
                # (1.8497, 3.7677, 2.5785): the integrand peaks near 1e207, and the
                # reference returns Q = -2.1e163 and dQ/dt = -2.0e166 from it
                assert abs(float.fromhex(want_q)) > 1e160 and abs(float.fromhex(want_dq)) > 1e160
                assert got_q.startswith("QuadratureNoConvergence: rotated integrand peaks")
                assert got_dq.startswith("QuadratureNoConvergence: rotated integrand peaks")
                continue
            assert _same_outcome(got_q, want_q), (delta, x, t, got_q, want_q)
            assert _same_outcome(got_dq, want_dq), (delta, x, t, got_dq, want_dq)

    @pytest.mark.parametrize("kind,route", [("Q", wave_kernel_fourier), ("dQ", wave_kernel_dt_fourier)])
    def test_overflow_is_refused(self, kind, route):
        # t large against x: the rotated integrand passes float range, where
        # cmath raises and numpy returned nan
        p = make_params(1.8220583136570803, 1.0, 1.0)
        x, t = 2.0840462259093817, 2.732423584380128
        want = outcome(lambda: rotated_fourier_reference(p, x, t, kind))
        assert want.endswith("reported error nan (budget 1e-09)")
        assert _OVERFLOW.fullmatch(outcome(lambda: route(p, x, t)))


# the four pointwise routes, each (params, x, t) -> float
_POINTWISE = (wave_kernel_series, wave_kernel_dt_series, wave_kernel_fourier, wave_kernel_dt_fourier)


class TestSeriesKernels:
    def test_zero_time(self, params_half):
        # one entry for all four routes: exactly zero at t = +-0 (the
        # quadrature of dQ/dt used to return rounding, 7.1e-17 at x = 0.5)
        for route in _POINTWISE:
            for x, t in ((0.5, 0.0), (-0.5, -0.0), (2.0, 0.0)):
                got = route(params_half, x, t)
                assert got == 0.0 and math.copysign(1.0, got) == 1.0, (route.__name__, x, t)

    def test_origin_rejected(self, params_half):
        for route in _POINTWISE:
            for x in (0.0, -0.0):
                with pytest.raises(OriginSingular, match="defined for x != 0"):
                    route(params_half, x, 1.0)

    def test_parity_in_t(self):
        # Q(x, -t) == -Q(x, t) and dQ/dt(x, -t) == dQ/dt(x, t) bit for bit,
        # wherever the route answers
        rng = np.random.default_rng(37)
        answered = 0
        for _ in range(40):
            p = make_params(float(rng.uniform(0.05, 1.95)), 1.0, 1.0)
            x, t = float(rng.uniform(-4.0, 4.0)), float(rng.uniform(0.05, 3.0))
            for route, sign in zip(_POINTWISE, (-1.0, 1.0, -1.0, 1.0)):
                want = outcome(lambda: route(p, x, t))
                if want.startswith(("SeriesBudgetExceeded", "QuadratureNoConvergence")):
                    assert outcome(lambda: route(p, x, -t)) == want
                    continue
                answered += 1
                assert route(p, x, -t) == sign * float.fromhex(want), (route.__name__, x, t)
        assert answered > 100

    def test_small_time_leading_order(self, params_half):
        # dQ/dt ~ (t^2/2) (h^delta/zeta) |x|^(-1-delta); frozen full value
        got = wave_kernel_dt_series(params_half, 1.0, 0.1)
        assert got == pytest.approx(0.005, abs=1e-4)
        assert got == pytest.approx(0.004966719026479016, rel=1e-12)

    def test_even_in_x(self, params_half):
        assert wave_kernel_series(params_half, -2.3, 0.7) == wave_kernel_series(params_half, 2.3, 0.7)

    def test_odd_in_t(self, params_half):
        assert wave_kernel_series(params_half, 1.0, -0.9) == -wave_kernel_series(params_half, 1.0, 0.9)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
    def test_matches_fourier_quadrature(self, delta):
        p = make_params(delta, 1.0, 1.0)
        for x, t in ((0.7, 0.5), (2.0, 1.0), (1.5, 2.0)):
            s = wave_kernel_series(p, x, t)
            f = wave_kernel_fourier(p, x, t)
            assert s == pytest.approx(f, rel=1e-8)
            sd = wave_kernel_dt_series(p, x, t)
            fd = wave_kernel_dt_fourier(p, x, t)
            assert sd == pytest.approx(fd, rel=1e-8)

    @given(delta=BAND)
    def test_matches_fourier_quadrature_on_band(self, delta):
        # x = 2 and xi = a t^2/|x|^delta = 0.5; measured worst 3.1e-10 on
        # 60 exponents
        p = make_params(delta, 1.0, 1.0)
        t = math.sqrt(0.5 * 2.0**delta / p.a_delta)
        assert wave_kernel_series(p, 2.0, t) == pytest.approx(
            wave_kernel_fourier(p, 2.0, t), rel=1e-8)
        assert wave_kernel_dt_series(p, 2.0, t) == pytest.approx(
            wave_kernel_dt_fourier(p, 2.0, t), rel=1e-8)

    @pytest.mark.parametrize(
        "delta,cases",
        [
            (0.25, ((0.7, 0.5), (2.0, 1.0), (5.0, 5.0))),
            (1.9, ((5.0, 0.5), (10.0, 1.0), (3.0, 0.2))),
        ],
    )
    def test_band_edges_where_series_converges(self, delta, cases):
        p = make_params(delta, 1.0, 1.0)
        for x, t in cases:
            assert wave_kernel_series(p, x, t) == pytest.approx(
                wave_kernel_fourier(p, x, t), rel=1e-7
            )

    def test_late_convergence_onset_raises_budget(self):
        # near delta = 2 the coefficient decay (2n)^-(2-delta) starts so
        # late that moderate arguments exhaust any realistic budget; the
        # exception carries the diagnostic payload instead of overflowing
        p = make_params(1.9, 1.0, 1.0)
        with pytest.raises(SeriesBudgetExceeded) as err:
            wave_kernel_series(p, 0.7, 0.5)
        assert err.value.tail_bound is not None

    def test_budget_exceeded_carries_partial_sum(self):
        # 400 terms do not reach the absolute stop at 1e-14
        with pytest.raises(SeriesBudgetExceeded, match="within 400 terms") as err:
            wave_kernel_series(make_params(1.9, 1.0, 1.0), 0.7, 0.5)
        assert err.value.partial_sum == pytest.approx(-1.922e173, rel=1e-3)
        assert err.value.tail_bound == pytest.approx(3.602e174, rel=1e-3)

    def test_overflowing_term_refused(self):
        with pytest.raises(SeriesBudgetExceeded, match="overflows at n = 81") as err:
            wave_kernel_series(make_params(0.5, 1.0, 1.0), 1e-4, 100.0)
        assert math.isfinite(err.value.partial_sum)
        assert err.value.tail_bound == math.inf

    def test_ratio_guard_refused(self):
        # at x = 1e-30 the second term outgrows the first by more than 1e8
        with pytest.raises(SeriesBudgetExceeded, match=r"exceeded guard 1e\+08 at n = 2") as err:
            wave_kernel_series(make_params(0.5, 1.0, 1.0), 1e-30, 1.0)
        assert err.value.partial_sum == pytest.approx(-6.667e58, rel=1e-3)
        assert err.value.tail_bound == pytest.approx(2.094e59, rel=1e-3)


class TestRoutesAgreeWhereBothAnswer:
    """Each pointwise route refuses once its rounding passes ABS_TOL, so
    wherever both answer they agree, and at delta = 1 each answer matches
    the closed form."""

    @staticmethod
    def _answer(fn, p, x, t):
        try:
            return fn(p, x, t)
        except NumericError:
            return None

    @given(delta=BAND, lx=st.floats(-1.0, 1.5), lt=st.floats(-1.0, 1.5))
    @settings(max_examples=60)
    # the series disagreed by 3.4e-6 and by 3.4e46, the Fourier route
    # returned -3.4e186 and 1.5e96, before the two rounding guards
    @example(delta=1.1759452382139497, lx=math.log10(9.052044911129157), lt=math.log10(14.755196336244786))
    @example(delta=0.0726412895490854, lx=math.log10(4.65025441301289), lt=math.log10(26.766592693605972))
    @example(delta=1.5, lx=0.0, lt=math.log10(5.0))
    @example(delta=1.2, lx=math.log10(2.0), lt=math.log10(20.0))
    def test_series_and_fourier_agree_on_band(self, delta, lx, lt):
        p = make_params(delta, 1.0, 1.0)
        x, t = 10.0**lx, 10.0**lt
        for series, fourier in ((wave_kernel_series, wave_kernel_fourier),
                                (wave_kernel_dt_series, wave_kernel_dt_fourier)):
            s, f = self._answer(series, p, x, t), self._answer(fourier, p, x, t)
            if s is not None and f is not None:
                assert abs(s - f) <= 1e-6 * max(abs(f), 1e-2), (series.__name__, s, f)

    @pytest.mark.parametrize("route", ["series", "fourier", "dt_series", "dt_fourier"])
    def test_delta_one_routes_refuse_or_match_closed_form(self, route, params_one):
        fn, which = TestDeltaOneClosedForm.ROUTES[route]
        rng = np.random.default_rng(35)
        answered = 0
        for xi in np.geomspace(0.01, 1e3, 60):
            x = float(rng.uniform(0.3, 4.0))
            t = math.sqrt(xi * x / params_one.a_delta)
            got = self._answer(fn, params_one, x, t)
            if got is not None:
                answered += 1
                want = wave_kernels_delta_one(params_one, x, t)[which]
                # absolute below |Q| = 1: the Fourier route's budget is ABS_TOL
                # (7.7e-10 off Q = -0.026 at xi = 142)
                assert abs(got - want) <= 1e-8 * max(abs(want), 1.0), (x, t)
        assert answered >= 20


class TestDeltaOneClosedForm:
    """At delta = 1 the series and Fourier routes agree with the Faddeeva
    closed forms of Q and dQ/dt (relative, floor 1e-2)."""

    ROUTES = {"series": (wave_kernel_series, 0), "fourier": (wave_kernel_fourier, 0),
              "dt_series": (wave_kernel_dt_series, 1), "dt_fourier": (wave_kernel_dt_fourier, 1)}

    @pytest.mark.parametrize("route", ROUTES)
    def test_routes_match_closed_form(self, route):
        fn, which = self.ROUTES[route]
        rng = np.random.default_rng(16)
        for _ in range(50):
            p = make_params(1.0, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            x = float(rng.uniform(0.3, 4.0)) * float(rng.choice([-1.0, 1.0]))
            xi = float(rng.uniform(0.01, 20.0))
            t = math.sqrt(xi * abs(x) / p.a_delta)
            want = wave_kernels_delta_one(p, x, t)[which]
            assert abs(fn(p, x, t) - want) <= 1e-10 * max(abs(want), 1e-2), (x, t)

    def test_series_refuses_or_agrees_far_past_its_hump(self, params_one):
        # at xi = 200 the terms pass a hump of 3.7e21; unguarded, the sum was -1.15e7
        want = wave_kernels_delta_one(params_one, 2.0, 11.284)[0]
        assert want == pytest.approx(-0.1771776, abs=1e-7)
        try:
            got = wave_kernel_series(params_one, 2.0, 11.284)
        except NumericError:
            return
        assert got == pytest.approx(want, rel=1e-10)


class TestRetardedGreens:
    def test_causality(self, params_half):
        for t in (-5.0, -0.1, 0.0):
            assert greens_retarded(params_half, 1.0, t) == 0.0

    def test_equals_kernel_when_undamped(self, params_half):
        assert greens_retarded(params_half, 1.3, 0.8) == wave_kernel_series(params_half, 1.3, 0.8)

    def test_damping_factor(self, params_half):
        got = greens_retarded(params_half, 1.0, 2.0, eps=0.5)
        want = math.exp(-1.0) * wave_kernel_series(params_half, 1.0, 2.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_refused_where_the_series_cancels(self, params_one):
        # xi = 200: the series gave -1.15e7 against a true -0.1771776
        with pytest.raises(NumericError):
            greens_retarded(params_one, 2.0, 11.284)

    @pytest.mark.parametrize("xi", [80.0, 120.0])
    def test_falls_back_to_quadrature_where_the_series_refuses(self, params_one, xi):
        # the series' terms cancel across humps of 3e8 and 8e12 here; the
        # rotated contour still answers (measured within 1.5e-11 of the oracle)
        x = 2.0
        t = math.sqrt(xi * x / params_one.a_delta)
        with pytest.raises(NumericError):
            wave_kernel_series(params_one, x, t)
        got = greens_retarded(params_one, x, t)
        assert got == wave_kernel_fourier(params_one, x, t)
        assert abs(got - wave_kernels_delta_one(params_one, x, t)[0]) <= 1e-8

    def test_negative_damping_rejected(self, params_half):
        with pytest.raises(EpsNonPositive):
            greens_retarded(params_half, 1.0, 1.0, eps=-0.1)


class TestHelmholtz:
    def test_eps_must_be_positive(self, params_half, small_grid):
        with pytest.raises(EpsNonPositive):
            helmholtz_green(params_half, small_grid, 1.0, 0.0)

    def test_symbol_asymptotics(self, params_half):
        # far above the driving frequency the resolvent follows 1/omega^2(k)
        k = 1e4
        sym = helmholtz_symbol(params_half, k, omega=1.0, eps=0.05)
        assert sym.real == pytest.approx(1.0 / dispersion(params_half, k), rel=3e-3)
        assert abs(sym.imag) < abs(sym.real) * 1e-2

    def test_symbol_causal_sign(self, params_half):
        # the +i eps prescription puts the response's imaginary part on one side
        sym = helmholtz_symbol(params_half, 1.0, omega=2.0, eps=0.1)
        assert sym.imag > 0.0
        conj_rel = np.conj(1.0 / (dispersion(params_half, 1.0) - (2.0 - 0.1j) ** 2))
        assert sym == pytest.approx(conj_rel, rel=1e-14)

    @pytest.mark.parametrize("call", [
        lambda p: helmholtz_symbol(p, 1.0, 1e155, 0.1),
        lambda p: helmholtz_symbol(p, np.array([0.0, 1.0]), 1.0, 1e155),
        lambda p: helmholtz_green(p, Grid1D.centered(64, 0.1), 1.35e154, 0.1),
        lambda p: helmholtz_symbol(p, 1.0, 0.0, 1e155),
        lambda p: helmholtz_green(p, Grid1D.centered(64, 0.1), 0.0, 1e155),
        lambda p: helmholtz_symbol(p, np.array([0.0, 1.0]), 0.0, 1e-170),
        lambda p: helmholtz_symbol(p, 0.0, 0.0, 1e-155),
        lambda p: helmholtz_green(p, Grid1D.centered(64, 0.1), 0.0, 1e-170),
        lambda p: helmholtz_green(p, Grid1D.centered(64, 0.1), 1e-170, 1e-170),
    ], ids=["symbol-omega", "symbol-eps", "green-omega", "symbol-omega-zero", "green-omega-zero",
            "symbol-eps-underflow", "symbol-eps-subnormal", "green-eps-underflow", "green-shift-underflow"])
    @pytest.mark.filterwarnings("error")
    def test_shift_beyond_float_range_is_refused(self, params_half, fft_calls, call):
        # (omega + i eps)^2 overflowed in Python's complex power; at omega = 0
        # the shift -eps^2 is refused by the same rule, and a shift whose
        # square underflows leaves 1/0 at k = 0, refused with it
        with pytest.raises(NumericError, match="beyond float range"):
            call(params_half)
        assert fft_calls == []

    @given(delta=BAND, eps=st.floats(1e-3, 1e3))
    @example(delta=0.5, eps=0.1)
    @example(delta=0.5, eps=1e-150)
    def test_static_symbol_is_real_and_bit_exact(self, delta, eps):
        # at omega = 0 the shift is -eps^2 bit for bit, so the symbol is the
        # float 1/(omega^2(k) + eps^2); eps^2 = 1e-300 is still in float
        # range, so its k = 0 amplitude 1e300 is answered
        p = make_params(delta, 1.0, 1.0)
        k = Grid1D.centered(2048, 0.05).k_half
        got = helmholtz_symbol(p, k, 0.0, eps)
        want = 1.0 / (dispersion(p, k) + eps * eps)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("omega, transforms", [(0.0, 1), (1.3, 2)])
    def test_real_symbol_takes_one_transform(self, params_half, small_grid, monkeypatch,
                                             omega, transforms):
        # at omega = 0 the resolvent symbol is real: one inverse transform,
        # and an imaginary part of +0.0
        calls = []
        irfft = np.fft.irfft

        def counted(*args, **kwargs):
            calls.append(args)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted)
        h = helmholtz_green(params_half, small_grid, omega, 0.1).values
        assert len(calls) == transforms
        if omega == 0.0:
            assert not np.signbit(h.imag).any() and not h.imag.any()

    def test_static_limit(self, params_half):
        # omega = 0: eps sweep of gauge-invariant differences extrapolates
        # to the static response (unit test at looser tolerance than the
        # acceptance run, on a smaller grid)
        grid = Grid1D.centered(1 << 18, 0.02)
        eps_list = (0.4, 0.2, 0.1)
        diffs = []
        for eps in eps_list:
            h = helmholtz_green(params_half, grid, 0.0, eps)
            diffs.append(h.value_near(1.0).real - h.value_near(2.0).real)
        ext = neville_at_zero([e * e for e in eps_list], diffs)
        want = greens_static(params_half, 1.0) - greens_static(params_half, 2.0)
        assert ext == pytest.approx(want, rel=0.05)
