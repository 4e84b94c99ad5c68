"""Self-test harness: every acceptance criterion as one executable case.

Each case cross-validates a closed form against an independent numeric
route (quadrature, series, Monte Carlo, or an exact identity) at a fixed
tolerance.  ``run_selftest`` runs the cases one after another in the
calling process, prints one pass/fail line per case as it finishes, and
returns the collected results; the CLI maps any failure to exit code 3.

The suite is desk scale.  Its spectral cases use grids of 2^14 to 2^18
points: AC07, AC09 and AC10 read the infinite-line propagator, whose
periodic images are subtracted in closed form, and AC06 compares
g(1) - g(2), in which the images cancel.  Its cases compute for about
90 ms in all (2-core x86-64, warm), AC04's wave-kernel quadratures and
AC10's Monte Carlo the longest at under 20 ms each.  At that size forked
workers cost more than they save: a fresh ``selfsim selftest`` took
1.006 s with its cases on a fork pool against 0.931 s in one process
(medians of 11 runs, 2-core x86-64).
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma

from . import diffusion as dif
from . import dynamics as dyn
from . import statics as sta
from .grids import Grid1D
from .operator import laplacian_apply_point, laplacian_apply_spectral
from .params import dispersion, dispersion_quadrature, factorial_ext, make_params
from .quadrature import neville_at_zero

__all__ = ["SelftestCase", "CaseResult", "CASES", "run_selftest"]


class CheckFailure(AssertionError):
    pass


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


@dataclass(frozen=True)
class SelftestCase:
    case_id: str
    title: str
    fn: object


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    title: str
    passed: bool
    detail: str


# ---------------------------------------------------------------- criteria

def _ac01_dispersion():
    worst = 0.0
    for delta in (0.25, 0.5, 1.0, 1.5, 1.9):
        p = make_params(delta, 1.0, 1.0)
        for k in (0.1, 1.0, 10.0):
            closed = dispersion(p, k)
            oracle = dispersion_quadrature(p, k)
            rel = abs(oracle - closed) / closed
            worst = max(worst, rel)
    _check(worst < 1e-6, f"dispersion closed-vs-quadrature rel {worst:.2e} >= 1e-6")
    return f"max rel {worst:.2e} over 5 exponents x 3 wavenumbers (tol 1e-6)"


def _ac02_eigenfunction():
    grid = Grid1D.centered(1024, 0.05)
    worst_spec = 0.0
    worst_quad = 0.0
    for delta in (0.5, 1.0, 1.5, 1.9):
        p = make_params(delta, 1.0, 1.0)
        k0 = 32 * 2.0 * math.pi / grid.length
        f = grid.sample(lambda x: np.cos(k0 * x))
        want = -dispersion(p, k0) * np.cos(k0 * grid.x)
        got = laplacian_apply_spectral(p, f).values
        worst_spec = max(worst_spec, float(np.max(np.abs(got - want)) / dispersion(p, k0)))
    for delta in (0.5, 1.0, 1.5):
        p = make_params(delta, 1.0, 1.0)
        for x in (0.0, 0.3):
            got = laplacian_apply_point(p, lambda u: math.cos(2.0 * u), x)
            want = -dispersion(p, 2.0) * math.cos(2.0 * x)
            worst_quad = max(worst_quad, abs(got - want) / abs(want))
    _check(worst_spec < 1e-10, f"spectral eigenfunction rel {worst_spec:.2e} >= 1e-10")
    _check(worst_quad < 1e-4, f"quadrature eigenfunction rel {worst_quad:.2e} >= 1e-4")
    return f"spectral rel {worst_spec:.2e} (tol 1e-10), quadrature rel {worst_quad:.2e} (tol 1e-4)"


def _ac03_static_roundtrip():
    worst_id = 0.0
    for delta in (0.25, 0.5, 1.5):
        p = make_params(delta, 1.0, 1.0)
        g0 = sta.greens_prefactor(p)
        ident = 2.0 * g0 * _gamma(delta) * math.cos(math.pi * delta / 2.0) * p.a_delta
        worst_id = max(worst_id, abs(ident - 1.0))
    _check(worst_id < 1e-12, f"transform identity off by {worst_id:.2e} (tol 1e-12)")
    p = make_params(0.5, 1.0, 1.0)
    grid = Grid1D.centered(4096, 0.02)
    f = grid.sample(lambda x: np.exp(-((x - 1.0) ** 2)) - np.exp(-((x + 1.0) ** 2)))
    u = sta.poisson_solve(p, f, project=True)
    recovered = laplacian_apply_spectral(p, u).values
    rel = float(np.max(np.abs(recovered + f.values)) / np.max(np.abs(f.values)))
    _check(rel < 1e-6, f"poisson round trip rel {rel:.2e} >= 1e-6")
    return f"prefactor identity {worst_id:.2e} (tol 1e-12); round trip rel {rel:.2e} (tol 1e-6)"


def _ac04_cauchy_kernels():
    grid = Grid1D.centered(4096, 0.05)
    p = make_params(0.75, 1.0, 1.0)
    q0 = dyn.wave_kernel_spectral(p, grid, 0.0)
    _check(float(np.max(np.abs(q0.values))) == 0.0, "Q(., 0) not identically zero")
    mass = dyn.wave_kernel_dt_spectral(p, grid, 0.0).mass()
    _check(abs(mass - 1.0) < 1e-9, f"dQ/dt(., 0) mass {mass!r} off by {abs(mass - 1.0):.2e}")
    worst = 0.0
    for delta in (0.5, 1.0, 1.5):
        pd = make_params(delta, 1.0, 1.0)
        for x, t in ((1.0, 0.5), (2.0, 1.0), (5.0, 1.0)):
            s = dyn.wave_kernel_series(pd, x, t)
            f = dyn.wave_kernel_fourier(pd, x, t)
            worst = max(worst, abs(s - f) / abs(s))
            sd = dyn.wave_kernel_dt_series(pd, x, t)
            fd = dyn.wave_kernel_dt_fourier(pd, x, t)
            worst = max(worst, abs(sd - fd) / abs(sd))
    _check(worst < 1e-6, f"series vs Fourier quadrature kernel rel {worst:.2e} >= 1e-6")
    rng = np.random.default_rng(11)
    gridE = Grid1D.centered(2048, 0.05)
    u0 = gridE.sample(lambda x: np.exp(-(x**2)) * np.cos(3.0 * x))
    v0 = gridE.sample(lambda x: 0.3 * np.exp(-(x**2) / 4.0) * np.sin(x))
    state = dyn.CauchyState(u0, v0)
    e0 = dyn.energy(p, state)
    drift = 0.0
    for _ in range(100):
        state = dyn.cauchy_evolve(p, state, 0.05)
        drift = max(drift, abs(dyn.energy(p, state) - e0) / e0)
    _check(drift < 1e-10, f"energy drift {drift:.2e} >= 1e-10 over 100 steps")
    return (
        f"Q(.,0)=0 exact; mass(dQ/dt)={mass!r} (tol 1e-9); series vs Fourier quadrature rel "
        f"{worst:.2e} (tol 1e-6); energy drift {drift:.2e} (tol 1e-10)"
    )


def _ac05_retarded_causality():
    p = make_params(0.75, 1.0, 1.0)
    for t in (-2.0, -0.3, 0.0):
        _check(dyn.greens_retarded(p, 1.3, t) == 0.0, f"retarded response nonzero at t={t}")
    worst = 0.0
    for x, t in ((0.7, 0.4), (2.0, 1.0)):
        g = dyn.greens_retarded(p, x, t, eps=0.0)
        q = dyn.wave_kernel_series(p, x, t)
        worst = max(worst, abs(g - q) / abs(q))
    damped = dyn.greens_retarded(p, 1.0, 2.0, eps=0.5)
    want = math.exp(-1.0) * dyn.wave_kernel_series(p, 1.0, 2.0)
    worst = max(worst, abs(damped - want) / abs(want))
    _check(worst < 1e-12, f"retarded kernel mismatch rel {worst:.2e}")
    return f"zero for t <= 0; equals damped kernel for t > 0 (rel {worst:.2e})"


def _ac06_helmholtz_static():
    p = make_params(0.5, 1.0, 1.0)
    # the periodic images shift g(1) and g(2) nearly alike, so the difference
    # needs no image correction and a short grid
    grid = Grid1D.centered(1 << 17, 0.01)
    eps_list = (0.4, 0.2, 0.1)
    diffs = []
    for eps in eps_list:
        h = dyn.helmholtz_green(p, grid, omega=0.0, eps=eps)
        diffs.append(h.value_near(1.0).real - h.value_near(2.0).real)
    # the eps-dependence at omega=0 enters through eps^2 in the symbol
    ext = neville_at_zero([e * e for e in eps_list], diffs)
    exact = sta.greens_static(p, 1.0) - sta.greens_static(p, 2.0)
    rel = abs(ext - exact) / abs(exact)
    _check(rel < 0.01, f"helmholtz -> static mismatch {rel:.2%} >= 1%")
    return f"gauge-invariant difference matches static response to {rel:.2%} (tol 1%)"


def _ac07_cauchy_profile():
    p = make_params(1.0, 1.0, 1.0)
    grid = Grid1D.centered(1 << 14, 0.04)
    w = dif.propagator(p, grid, 1.0, line=True)
    exact = dif.propagator_cauchy(p, grid.x, 1.0)
    x0_err = abs(w.value_near(0.0) - 1.0 / math.pi**2)
    sup = float(np.max(np.abs(w.values - exact)))
    _check(x0_err < 1e-8, f"W(0,1) off by {x0_err:.2e} (tol 1e-8)")
    _check(sup < 1e-8, f"profile sup-norm {sup:.2e} >= 1e-8")
    return f"W(0,1)=1/pi^2 within {x0_err:.2e}; sup-norm vs closed form {sup:.2e} (tol 1e-8)"


def _ac08_probability_axioms():
    p = make_params(0.8, 1.0, 1.0)
    grid = Grid1D.centered(1 << 16, 0.02)
    rho0 = grid.sample(lambda x: np.exp(-(x**2)) / math.sqrt(math.pi))
    rho1 = dif.diffuse(p, rho0, 0.7)
    mass_err = abs(rho1.mass() - rho0.mass())
    _check(mass_err < 1e-12, f"mass drift {mass_err:.2e} under diffusion")
    w = dif.propagator(p, grid, 0.5)
    neg = float(w.values.min())
    _check(neg >= -1e-8 * float(w.values.max()), f"propagator dips to {neg:.2e}")
    sym = float(np.max(np.abs(w.values[1:] - w.values[1:][::-1])))
    _check(sym < 1e-12 * float(w.values.max()), f"propagator asymmetry {sym:.2e}")
    two = dif.diffuse(p, dif.diffuse(p, rho0, 0.3), 0.4)
    semi = float(np.max(np.abs(two.values - rho1.values)) / np.max(np.abs(rho1.values)))
    _check(semi < 1e-12, f"semigroup defect {semi:.2e} >= 1e-12")
    return (
        f"mass drift {mass_err:.1e}; min/max {neg:.1e}; asymmetry {sym:.1e}; "
        f"semigroup defect {semi:.1e}"
    )


def _ac09_tails_and_moments():
    cases = {
        0.5: dict(t=0.1, window=(50.0, 150.0), grid=Grid1D.centered(1 << 18, 0.01), L=500.0),
        1.0: dict(t=0.1, window=(10.0, 40.0), grid=Grid1D.centered(1 << 16, 0.01), L=100.0),
        1.5: dict(t=0.05, window=(10.0, 40.0), grid=Grid1D.centered(1 << 16, 0.005), L=50.0),
    }
    details = []
    for delta, c in cases.items():
        p = make_params(delta, 1.0, 1.0)
        w = dif.propagator(p, c["grid"], c["t"], line=True)
        slope = dif.fit_tail_exponent(w, *c["window"])
        _check(abs(slope + 1.0 + delta) < 0.05,
               f"delta={delta}: tail slope {slope:.3f} vs {-(1 + delta):.3f}")
        ratio = dif.truncated_moment(w, 2, 2.0 * c["L"]) / dif.truncated_moment(w, 2, c["L"])
        target = 2.0 ** (2.0 - delta)
        _check(abs(ratio - target) / target < 0.05,
               f"delta={delta}: m2 ratio {ratio:.3f} vs {target:.3f}")
        details.append(f"d={delta}: slope {slope:.3f}, m2 ratio {ratio:.3f}")
    return "; ".join(details) + " (tols 0.05 / 5%)"


def _ac10_monte_carlo():
    details = []
    for delta, grid in ((0.5, Grid1D.centered(1 << 15, 0.01)), (1.5, Grid1D.centered(1 << 14, 0.005))):
        p = make_params(delta, 1.0, 1.0)
        batch = dif.sample_levy(p, t=1.0, n=100_000, seed=20260808)
        s = np.sort(batch.samples)
        cdf = dif.numeric_cdf(p, 1.0, s, grid=grid)
        ks = dif.ks_distance(s, cdf)
        _check(ks < 0.01, f"delta={delta}: KS distance {ks:.4f} >= 0.01")
        details.append(f"d={delta}: KS {ks:.4f}")
    return "; ".join(details) + " at n=1e5 (tol 0.01)"


def _j_oscillatory_oracle(alpha: float, a: float) -> float:
    """(1/pi) int_0^inf k^(alpha-1) sin(k a) dk, damped sweep when it grows."""
    def parts(eps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p1, _ = quad(lambda k: math.exp(-eps * k) * k ** (alpha - 1.0) * math.sin(k * a),
                         0.0, 1.0, epsabs=1e-13, limit=200)
            p2, _ = quad(lambda k: math.exp(-eps * k) * k ** (alpha - 1.0), 1.0, np.inf,
                         weight="sin", wvar=a, epsabs=1e-13, limit=300)
        return (p1 + p2) / math.pi

    if alpha < 1.0:
        return parts(0.0)
    eps_list = [0.2 * 0.6**j for j in range(7)]
    return neville_at_zero(eps_list, [parts(e) for e in eps_list])


def _ac11_potentials():
    xs = np.array([0.3, 1.0, 2.7])
    for alpha in (0.5, 1.5, -0.5):
        sym = np.max(np.abs(sta.riesz_kernel(alpha, xs) - sta.riesz_kernel(alpha, -xs)))
        _check(sym == 0.0, f"alpha={alpha}: kernel not symmetric")
    for alpha in (0, 2, 4):
        _check(sta.riesz_kernel(float(alpha), 1.3) == 0.0,
               f"alpha={alpha}: even-integer kernel not localized")
    worst_osc = 0.0
    for alpha in (0.5, 1.5):
        for a in (0.5, 1.0, 2.0):
            head = -sta.riesz_tail_integral(alpha, a)  # int_0^a b_alpha dx
            worst_osc = max(worst_osc, abs(head - _j_oscillatory_oracle(alpha, a)))
    _check(worst_osc < 1e-4, f"oscillatory confirmation off by {worst_osc:.2e}")
    worst_branch = 0.0
    for alpha in (-1.5, -2.5, -3.4):
        closed = sta.riesz_kernel(alpha, 1.7)
        reflected = abs(1.7) ** (-alpha - 1.0) / (
            2.0 * math.cos(math.pi * alpha / 2.0) * _gamma(-alpha)
        )
        worst_branch = max(worst_branch, abs(closed - reflected))
    _check(worst_branch < 1e-12, f"alpha < -1 branch mismatch {worst_branch:.2e}")
    return (
        f"symmetry & localization exact; oscillatory check {worst_osc:.1e} (tol 1e-4); "
        f"continuation branch {worst_branch:.1e}"
    )


def _ac12_extended_factorial():
    # continuation through the recurrence: Gamma(-1.5) = Gamma(0.5)/((-1.5)(-0.5))
    want = math.gamma(0.5) / ((-1.5) * (-0.5))
    got = factorial_ext(-2.5)
    err = abs(got - want)
    _check(err < 1e-10, f"factorial_ext(-2.5) off by {err:.2e}")
    return f"factorial_ext(-2.5) = {got:.10f} vs continuation {want:.10f} (err {err:.1e})"


def _ac13_series_guards():
    for delta in (0.5, 1.0, 1.5):
        p = make_params(delta, 1.0, 1.0)
        for kind in ("Q", "dQ"):
            mags = dyn.wave_series_terms(p, x=1.0, t=1.0, kind=kind, count=25,
                                         include_angular=False)
            ratios = mags[1:] / mags[:-1]
            _check(bool(np.all(np.diff(ratios[4:]) < 0.0)),
                   f"delta={delta} {kind}: term ratios not monotone after n=5")
    p = make_params(1.2, 1.0, 1.0)
    try:
        dif.propagator_series(p, 1.0, 1.0)
    except Exception as exc:
        rejected = type(exc).__name__ == "DeltaOutOfRange"
    else:
        rejected = False
    _check(rejected, "propagator series accepted delta >= 1")
    return "term-ratio decay monotone past n=5; series rejects delta >= 1"


def _ac14_continuity():
    details = []
    for delta in (0.5, 1.0):
        p = make_params(delta, 1.0, 1.0)
        grid = Grid1D.centered(32768, 0.015)
        rho = grid.sample(lambda x: np.exp(-(x**2)))
        resid = dif.continuity_residual(p, rho)
        lap = laplacian_apply_spectral(p, rho)
        rel = float(np.max(np.abs(resid.values)) / np.max(np.abs(lap.values)))
        _check(rel < 1e-3, f"delta={delta}: continuity residual {rel:.2e} >= 1e-3")
        details.append(f"d={delta}: {rel:.1e}")
    return "max residual " + "; ".join(details) + " (tol 1e-3)"


def _ac15_determinism():
    from .cli import main as cli_main

    argv = ["dispersion", "--delta", "0.75", "--h", "1", "--zeta", "1", "--k", "0,1,2.5"]
    outputs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as td:
            code = cli_main(argv + ["--out", td])
            _check(code == 0, f"dispersion command exited {code}")
            blobs = {}
            for name in sorted(os.listdir(td)):
                with open(os.path.join(td, name), "rb") as fh:
                    blobs[name] = fh.read()
            outputs.append(blobs)
    _check(outputs[0].keys() == outputs[1].keys(), "output file sets differ")
    for name in outputs[0]:
        _check(outputs[0][name] == outputs[1][name], f"{name} differs between identical runs")
    return f"{len(outputs[0])} files byte-identical across re-runs"


CASES = [
    SelftestCase("AC01", "dispersion closed form vs quadrature", _ac01_dispersion),
    SelftestCase("AC02", "eigenfunction identity (spectral + quadrature)", _ac02_eigenfunction),
    SelftestCase("AC03", "static transform identity and Poisson round trip", _ac03_static_roundtrip),
    SelftestCase("AC04", "Cauchy kernels, series vs Fourier quadrature, energy", _ac04_cauchy_kernels),
    SelftestCase("AC05", "retarded Green's function causality", _ac05_retarded_causality),
    SelftestCase("AC06", "Helmholtz limit recovers the static response", _ac06_helmholtz_static),
    SelftestCase("AC07", "delta = 1 propagator equals the Lorentzian", _ac07_cauchy_profile),
    SelftestCase("AC08", "probability axioms of the diffusion", _ac08_probability_axioms),
    SelftestCase("AC09", "heavy-tail exponents and truncated moments", _ac09_tails_and_moments),
    SelftestCase("AC10", "Monte Carlo vs numeric CDF (KS)", _ac10_monte_carlo),
    SelftestCase("AC11", "potential family integrals and continuation", _ac11_potentials),
    SelftestCase("AC12", "extended factorial continuation value", _ac12_extended_factorial),
    SelftestCase("AC13", "series convergence guards", _ac13_series_guards),
    SelftestCase("AC14", "continuity-equation residual", _ac14_continuity),
    SelftestCase("AC15", "deterministic outputs", _ac15_determinism),
]


def run_selftest(case_ids=None) -> list[CaseResult]:
    """Run the acceptance cases (all, or the ids given) in registry order,
    here, and report each on stdout as soon as it has finished."""
    from .errors import ValidationError

    wanted = set(case_ids) if case_ids else None
    if wanted:
        unknown = wanted - {c.case_id for c in CASES}
        if unknown:
            raise ValidationError(f"unknown case ids: {sorted(unknown)}")
    results = []
    for case in CASES:
        if wanted and case.case_id not in wanted:
            continue
        try:
            passed, detail = True, case.fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            passed, detail = False, str(exc)
        results.append(CaseResult(case.case_id, case.title, passed, detail))
        sys.stdout.write(f"{'PASS' if passed else 'FAIL'} {case.case_id} {case.title}: {detail}\n")
    return results
