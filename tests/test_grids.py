import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from selfsim import (
    ComplexField,
    Grid1D,
    GridTooSmall,
    NonPositiveScale,
    RealField,
    dispersion,
    grids,
    helmholtz_symbol,
    make_params,
)
from selfsim import (
    CauchyState,
    cauchy_evolve,
    diffuse,
    dynamics,
    energy,
    helmholtz_green,
    laplacian_apply_spectral,
    poisson_solve,
    propagator,
    wave_kernel_dt_spectral,
    wave_kernel_spectral,
)
from selfsim.errors import ValidationError
from selfsim.grids import apply_symbol, sample_kernel

from oracles import ladder_damping_reference, sample_kernel_reference, wave_symbol_reference

# exponents drawn across the band 0 < delta < 2, clear of its endpoints
BAND = st.floats(0.05, 1.95, exclude_min=True, exclude_max=True)

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"

# numpy >= 2 transforms long double arrays in long double, older numpy in
# float64; where long double is float64 there is nothing finer to compare with
LONG_FFT = (np.fft.irfft(np.ones(3, dtype=np.longdouble)).dtype == np.longdouble
            and np.finfo(np.longdouble).eps < np.finfo(float).eps)


class TestGrid1D:
    def test_too_few_points(self):
        with pytest.raises(GridTooSmall):
            Grid1D(0.0, 0.1, 4)

    def test_nonpositive_spacing(self):
        with pytest.raises(NonPositiveScale):
            Grid1D(0.0, 0.0, 64)

    def test_centered_has_origin_sample(self):
        g = Grid1D.centered(64, 0.25)
        assert g.x[g.n // 2] == 0.0
        assert g.is_centered
        assert g.index_near(0.26) == g.n // 2 + 1

    def test_index_near_outside(self):
        g = Grid1D.centered(16, 0.5)
        with pytest.raises(ValidationError):
            g.index_near(100.0)

    def test_non_finite_origin_refused(self):
        for x_min in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                Grid1D(x_min, 0.5, 16)

    def test_non_integral_point_count_refused(self):
        for make in (lambda: Grid1D.centered(16.5, 0.5), lambda: Grid1D(0.0, 0.5, 16.0)):
            with pytest.raises(ValidationError):
                make()
        assert Grid1D.centered(np.int64(16), 0.5).x.size == 16

    def test_index_near_non_finite(self):
        g = Grid1D.centered(16, 0.5)
        for x in (math.nan, math.inf, -math.inf, 1e308):
            with pytest.raises(ValidationError):
                g.index_near(x)

    def test_wavenumber_layout(self):
        g = Grid1D.centered(32, 0.5)
        assert g.k[0] == 0.0
        assert g.k[1] == pytest.approx(2.0 * math.pi / g.length)


class TestFields:
    def test_shape_mismatch(self):
        g = Grid1D.centered(16, 0.5)
        with pytest.raises(ValidationError):
            RealField(g, np.zeros(15))

    def test_nonfinite_rejected(self):
        g = Grid1D.centered(16, 0.5)
        vals = np.zeros(16)
        vals[3] = np.inf
        with pytest.raises(ValidationError):
            RealField(g, vals)

    def test_values_of_the_right_dtype_are_kept(self):
        g = Grid1D.centered(16, 0.5)
        a = np.linspace(-1.0, 1.0, 16)
        assert RealField(g, a).values is a
        z = a * (1.0 - 0.5j)
        assert ComplexField(g, z).values is z
        single = RealField(g, a.astype(np.float32)).values
        assert single.dtype == np.float64
        assert single.tobytes() == a.astype(np.float32).astype(np.float64).tobytes()

    def test_mass_is_discrete_integral(self):
        g = Grid1D.centered(512, 0.05)
        f = g.sample(lambda x: np.exp(-x * x))
        assert f.mass() == pytest.approx(math.sqrt(math.pi), rel=1e-10)


class TestApplySymbol:
    @pytest.mark.parametrize("grid", [Grid1D.centered(1024, 0.05), Grid1D(-30.3, 0.05, 1023)],
                             ids=["centered", "off-center-odd"])
    def test_gaussian_symbol_on_gaussian(self, grid):
        # exp(-k^2) times the transform sqrt(pi) exp(-k^2/4) of exp(-x^2)
        # inverts to exp(-x^2/5) / sqrt(5), wherever the grid sits
        f = grid.sample(lambda x: np.exp(-((x + 5.0) ** 2)))
        out = apply_symbol(f, np.exp(-grid.k_half**2))
        want = np.exp(-((grid.x + 5.0) ** 2) / 5.0) / math.sqrt(5.0)
        assert np.max(np.abs(out.values - want)) < 1e-12
        with pytest.raises(ValidationError):
            apply_symbol(f, np.exp(-grid.k**2))


class TestSampleKernel:
    def test_gaussian_symbol_pair(self):
        # (1/2pi) int exp(-k^2) e^{ikx} dk = exp(-x^2/4) / (2 sqrt(pi))
        g = Grid1D.centered(1024, 0.1)
        vals = sample_kernel(g, np.exp(-g.k_half**2))
        want = np.exp(-g.x**2 / 4.0) / (2.0 * math.sqrt(math.pi))
        assert np.max(np.abs(vals - want)) < 1e-12

    def test_requires_centered_grid(self):
        g = Grid1D(0.0, 0.1, 64)
        with pytest.raises(ValidationError):
            sample_kernel(g, np.ones(33))

    def test_complex_symbol(self):
        g = Grid1D.centered(512, 0.1)
        sym = np.exp(-g.k_half**2) * (1.0 + 0.5j)
        vals = sample_kernel(g, sym)
        want = (1.0 + 0.5j) * np.exp(-g.x**2 / 4.0) / (2.0 * math.sqrt(math.pi))
        assert np.max(np.abs(vals - want)) < 1e-12

    @pytest.mark.parametrize("part", [1.0, 1.0 + 0j, 1.0 + 0.5j], ids=["real", "zero_imag", "complex"])
    def test_leaves_the_symbol_unchanged(self, part):
        g = Grid1D.centered(512, 0.1)
        sym = np.exp(-g.k_half**2) * part
        before = sym.copy()
        sample_kernel(g, sym)
        assert sym.tobytes() == before.tobytes()

    def test_complex_symbol_with_zero_imaginary_part(self):
        # the real kernel's bits, an imaginary part of +0.0
        g = Grid1D.centered(512, 0.1)
        sym = np.exp(-g.k_half**2)
        vals = sample_kernel(g, sym + 0j)
        assert np.iscomplexobj(vals)
        assert vals.real.tobytes() == sample_kernel(g, sym).tobytes()
        assert not vals.imag.any() and not np.signbit(vals.imag).any()

    @pytest.mark.parametrize("n", [1 << 12, 1 << 17], ids=["whole", "split"])
    def test_complex_symbol_parts_are_the_real_kernels(self, n):
        # each part is written through a strided view of the one output
        g = Grid1D.centered(n, 0.01)
        p = make_params(0.7, 1.0, 1.0)
        a = np.exp(-dispersion(p, g.k_half) * 0.5)
        b = wave_symbol_reference(p, g.k_half, 0.7, "Q") * ladder_damping_reference(g)
        vals = sample_kernel(g, a + 1j * b)
        assert vals.real.tobytes() == sample_kernel(g, a).tobytes()
        assert vals.imag.tobytes() == sample_kernel(g, b).tobytes()

    @staticmethod
    def _symbols(grid, delta):
        """The propagator's symbol, a ladder-damped wave symbol and a Helmholtz resolvent."""
        p = make_params(delta, 1.0, 1.0)
        k = grid.k_half
        return [np.exp(-dispersion(p, k) * 0.5),
                wave_symbol_reference(p, k, 0.7, "Q") * ladder_damping_reference(grid),
                helmholtz_symbol(p, k, 1.3, 0.1)]

    @given(delta=BAND, n=st.sampled_from([1 << 12, 1 << 16, 1 << 17, (1 << 17) + 4,
                                           1 << 18, (1 << 18) + 2, 3 << 17]))
    @example(delta=0.5, n=1 << 17)
    @example(delta=1.0, n=1 << 18)
    @example(delta=1.5, n=3 << 17)
    @example(delta=0.7, n=1 << 16)
    @example(delta=0.7, n=(1 << 17) + 4)
    @example(delta=0.7, n=(1 << 18) + 2)
    @example(delta=0.06, n=(1 << 17) + 4)
    def test_split_transform_matches_reference_on_band(self, delta, n):
        # one cosine transform, split above 2^16 points while n/2 is a
        # multiple of 4 and whole otherwise, written once and mirrored:
        # within rounding of the reference's n-point transform, and
        # exactly even on every grid.  Where n/2 has a large prime factor
        # (2 * 3^2 * 11 * 331 and 3 * 43691) both transforms round more:
        # near delta = 0.05, whose kernel is a grid-scale spike, up to
        # 3.5e-15 max|K| for sample_kernel and 2.8e-15 for the reference
        # from a long double transform, and 4e-15 apart.  There both are
        # held to 4e-15 of the long double transform instead
        grid = Grid1D.centered(n, 0.01)
        m = n // 2
        for sym in self._symbols(grid, delta):
            before = sym.copy()
            got = sample_kernel(grid, sym)
            assert got.dtype == sym.dtype
            if n not in ((1 << 17) + 4, (1 << 18) + 2):
                want = sample_kernel_reference(grid, sym)
                assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
            elif LONG_FFT:
                exact = sample_kernel_reference(grid, sym.astype(np.result_type(sym, np.longdouble)))
                for kernel in (got, sample_kernel_reference(grid, sym)):
                    assert np.max(np.abs(kernel - exact)) <= 4e-15 * np.max(np.abs(exact))
            assert got[m + 1:].tobytes() == got[m - 1:0:-1].tobytes()
            assert sym.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [1 << 16, (1 << 17) + 4, (1 << 18) + 2])
    def test_base_case_keeps_the_reference_bits(self, n):
        # the largest grid README's defaults use, and half-lengths that are
        # not multiples of 4, take the whole cosine transform: the bits of
        # one unshifted n-point irfft of the symbol, centred and mirrored
        grid = Grid1D.centered(n, 0.01)
        m = n // 2
        scale = 1.0 / (n * grid.dx)
        for sym in self._symbols(grid, 0.7):
            got = sample_kernel(grid, sym)
            parts = [(sym.real, got.real)] + ([(sym.imag, got.imag)] if np.iscomplexobj(sym) else [])
            for part, kernel in parts:
                y = np.fft.irfft(np.array(part, dtype=float), n=n, norm="forward")[: m + 1] * scale
                assert kernel[m::-1].tobytes() == y.tobytes()
                assert kernel[m + 1:].tobytes() == y[1:m].tobytes()


@pytest.mark.skipif(not GLIBC, reason="the allocator thresholds are set through glibc's mallopt")
def test_repeated_transforms_reuse_resident_scratch():
    # with glibc's adaptive thresholds each 2^20-point irfft faults its
    # scratch in afresh, about 4,000 minor faults a call
    code = (
        "import resource, numpy as np, selfsim.grids\n"
        "spec = np.fft.rfft(np.random.default_rng(0).standard_normal(1 << 20))\n"
        "np.fft.irfft(spec, n=1 << 20)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(2):\n"
        "    np.fft.irfft(spec, n=1 << 20)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = Path(grids.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100


# ---------------------------------------------------------------- one thread

@pytest.fixture(scope="module")
def large_grid():
    # 2^17 + 1 wavenumbers, on which the cosine transform splits twice
    return Grid1D.centered(1 << 18, 0.01)


ROUTES = ["propagator", "diffuse", "laplacian_apply_spectral", "poisson_solve", "cauchy_evolve+energy",
          "wave_kernel_spectral", "wave_kernel_dt_spectral", "helmholtz_green omega = 0",
          "helmholtz_green omega > 0"]


def _routes(grid):
    """Each spectral route of ROUTES on grid, as a function returning its output values."""
    p = make_params(0.7, 1.3, 0.8)
    f = grid.sample(lambda x: np.exp(-x * x) * np.cos(1.7 * x))
    force = grid.sample(lambda x: np.exp(-(x - 0.5) ** 2) - np.exp(-(x + 0.5) ** 2))

    def cauchy():
        state = CauchyState(f, force)
        e0 = energy(p, state)
        moved = cauchy_evolve(p, state, 0.9)
        return np.concatenate([[e0, energy(p, moved)], moved.u.values, moved.v.values])

    return dict(zip(ROUTES, [
        # at t = 0.01 the symbol is 0.5 or more up to the Nyquist wavenumber
        lambda: propagator(p, grid, 0.01).values,
        lambda: diffuse(p, f, 0.6).values,
        lambda: laplacian_apply_spectral(p, f).values,
        lambda: poisson_solve(p, force, project=True).values,
        cauchy,
        lambda: wave_kernel_spectral(p, grid, 0.9).values,
        lambda: wave_kernel_dt_spectral(p, grid, 0.9).values,
        lambda: helmholtz_green(p, grid, 0.0, 0.2).values,
        lambda: helmholtz_green(p, grid, 1.3, 0.1).values,
    ]))


@pytest.mark.parametrize("route", ROUTES)
def test_spectral_routes_start_no_thread(large_grid, route, monkeypatch):
    # io._fork_range forks CSV children on the premise that no selfsim
    # thread is running
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    run = _routes(large_grid)[route]
    monkeypatch.setattr(threading.Thread, "start", recording)
    dynamics._ladder_damping.cache_clear()
    run()
    assert started == []


# Tracemalloc peaks of each route on large_grid, in units of n * 8 bytes,
# as the routes measured before their symbols became plain arrays, rounded
# up to 0.01.  Held past their use, the wave kernel's omega read 3.38 and
# the omega = 0 Helmholtz symbol, while ComplexField copies the kernel,
# 4.00.  The synthesis peaks above the Helmholtz symbol, so the symbol is
# pinned on its own, built in place as k, omega^2(k) and one complex array
# (1 / (omega^2(k) - shift) read 2.50).  The grid stays at 2^17 points or
# more, where numpy's temporary elision (arrays of 256 KB and up) takes
# dispersion's product and laplacian_symbol's negation in place.
_PEAKS = {"propagator": 2.38, "diffuse": 2.63, "laplacian_apply_spectral": 2.63, "poisson_solve": 2.63,
          "cauchy_evolve+energy": 7.01, "wave_kernel_spectral": 2.88, "wave_kernel_dt_spectral": 2.88,
          "helmholtz_green omega = 0": 3.51, "helmholtz_green omega > 0": 4.38, "helmholtz_symbol": 2.07}


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="the peaks are pinned on numpy 2's transforms")
@pytest.mark.parametrize("route", list(_PEAKS))
def test_spectral_routes_hold_no_more_memory(large_grid, route):
    p = make_params(0.7, 1.3, 0.8)
    run = {**_routes(large_grid), "helmholtz_symbol": lambda: helmholtz_symbol(p, large_grid.k_half, 1.3, 0.1)}
    dynamics._ladder_damping.cache_clear()
    tracemalloc.start()
    try:
        run[route]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAKS[route] * large_grid.n * 8
