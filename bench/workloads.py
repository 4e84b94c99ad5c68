"""Seeded request lists for the three benchmark workloads.

A workload is a list of ``Request`` objects built from a seed.  Each
request has three parts:

* ``prepare(ctx)`` builds its inputs (untimed),
* ``run(ctx)`` calls the library and returns the output (timed),
* ``check(ctx, out)`` compares the output with a closed form or an
  independent route and returns ``(label, error, tolerance)`` triples
  (untimed, and never traced).

``ctx`` is a dict shared by the requests of one pass, so a later request
can check a combination of earlier outputs (the Helmholtz eps-ladder).
Tolerances are the ones the acceptance suite (``selfsim.selftest``) uses
for the same comparison; each check names the case it borrows from.

Library functions are always looked up through their module at call
time (``dif.propagator``, not a captured function object), so the
tracer's patches apply to the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, hyp1f1, zeta

import selfsim.cli as cli
from selfsim import diffusion as dif
from selfsim import dynamics as dyn
from selfsim import operator as op
from selfsim import params as prm
from selfsim import statics as sta
from selfsim.grids import Grid1D
from selfsim.quadrature import neville_at_zero

WORKLOADS = ("fields", "cli", "oracles")

# Commands on which the CLI fails or answers wrongly today (see probes);
# the first is the README's potentials line, verbatim.
README_POTENTIALS = ["potentials", "--alphas", "-0.5,0.5,1.5", "--x", "0.25,0.5,1,2"]
PROBE_LAPLACIAN = ["laplacian", "--delta", "1.484", "--function", "gaussian", "--pointwise", "9"]
PROBE_MC = ["mc", "--delta", "0.3", "--t", "2", "--n-samples", "100000", "--seed", "1", "--ks"]


@dataclass
class Request:
    route: str
    run: Callable
    check: Callable
    prepare: Callable | None = None


class CommandFailed(Exception):
    """A CLI command exited with a non-zero code (or raised SystemExit)."""

    def __init__(self, code: int, stderr: str):
        super().__init__(stderr.strip().splitlines()[-1] if stderr.strip() else f"exit {code}")
        self.kind = f"exit {code}"


def _rel(got, want) -> float:
    return abs(got - want) / abs(want)


def _stream(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _params(delta: float):
    return prm.make_params(float(delta), 1.0, 1.0)


def _strata(rng, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw inside each of n equal strata of [lo, hi).

    Keeps the cost of a pass nearly independent of the seed while every
    seed still draws fresh values across the whole interval.
    """
    width = (hi - lo) / n
    return [float(lo + (i + rng.uniform()) * width) for i in range(n)]


def _mass_error(values: np.ndarray, dx: float, want: complex) -> float:
    return abs(complex(np.sum(values)) * dx - want) / abs(want)


def _asymmetry(values: np.ndarray) -> float:
    # centered grid: x_j and x_{n-j} mirror each other for j >= 1
    v = values[1:]
    return float(np.max(np.abs(v - v[::-1])) / np.max(np.abs(values)))


def _spectral_laplacian(delta: float, a: float, grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Benchmark-side -a |k|^delta multiplier, independent of the library."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    return np.fft.ifft(np.fft.fft(u) * (-a * np.abs(k) ** delta)).real


def _quiet_quad(fn, a, b, **kw) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return quad(fn, a, b, **kw)[0]


def gaussian_laplacian(delta: float, x):
    """Closed form of the nonlocal Laplacian of exp(-x^2), h = zeta = 1:
    -a 2^d G((1+d)/2)/G(1/2) 1F1((1+d)/2; 1/2; -x^2)."""
    a = _params(delta).a_delta
    scale = a * 2.0**delta * gamma((1.0 + delta) / 2.0) / math.sqrt(math.pi)
    return -scale * hyp1f1((1.0 + delta) / 2.0, 0.5, -np.square(x))


def periodic_images(delta: float, x, length: float):
    """Sum over n != 0 of Lap exp(-y^2) at y = x + n L, for |x| << L.

    Far from the bump the Laplacian is int e^{-s^2} |y - s|^{-1-d} ds
    = sqrt(pi) |y|^{-1-d} (1 + (1+d)(2+d)/(4 y^2) + ...); the sums over
    n are Hurwitz zeta values.  This is what a periodic grid of length L
    adds to the infinite-line operator.
    """
    s = 1.0 + delta
    x = np.asarray(x, dtype=float)
    total = 0.0
    for q in (1.0 + x / length, 1.0 - x / length):
        total = total + length**-s * zeta(s, q) \
            + (s * (s + 1.0) / 4.0) * length ** -(s + 2.0) * zeta(s + 2.0, q)
    return math.sqrt(math.pi) * total


def stable_cdf_oracle(a_t: float, delta: float, x: float) -> float:
    """CDF of the symmetric stable law, 1/2 + (1/pi) int_0^inf e^{-a t k^d} sin(kx)/k dk."""
    k_hi = (40.0 / a_t) ** (1.0 / delta)
    val = _quiet_quad(lambda k: math.exp(-a_t * k**delta) * math.sin(k * x) / k,
                      0.0, k_hi, epsabs=1e-12, limit=2000)
    return 0.5 + val / math.pi


# ------------------------------------------------------------------- fields

def fields_requests(seed: int) -> list[Request]:
    """Library calls on centered 2^20 grids (one 2^21), no file output."""
    rng = _stream(seed, "fields")
    g20 = Grid1D.centered(1 << 20, 0.01)
    g21 = Grid1D.centered(1 << 21, 0.01)
    reqs: list[Request] = []

    # diffusion propagator: exact discrete mass, positivity, symmetry (AC04/AC08)
    d_w, t_w = rng.uniform(0.5, 1.8), rng.uniform(0.2, 2.0)

    def check_prop(ctx, w):
        vals = w.values
        return [("mass", _mass_error(vals, g20.dx, 1.0), 1e-9),
                ("negativity", max(0.0, -vals.min() / vals.max()), 1e-8),
                ("asymmetry", _asymmetry(vals), 1e-12)]

    reqs.append(Request("propagator", lambda ctx: dif.propagator(_params(d_w), g20, t_w), check_prop))

    # heavy tail on the 2^21 grid: fitted slope -(1 + delta) (AC09)
    d_tail = rng.uniform(0.5, 1.5)
    window = (20.0, 80.0)

    def run_tail(ctx):
        w = dif.propagator(_params(d_tail), g21, 0.1)
        return dif.fit_tail_exponent(w, *window)

    reqs.append(Request("propagator_2e21+fit_tail_exponent", run_tail,
                        lambda ctx, slope: [("tail slope", abs(slope + 1.0 + d_tail), 0.05)]))

    # diffuse: mass conservation (AC08)
    d_df, t_df = rng.uniform(0.3, 1.8), rng.uniform(0.1, 2.0)

    def prep_gauss(ctx):
        ctx["rho0"] = g20.sample(lambda x: np.exp(-x * x) / math.sqrt(math.pi))

    def check_diffuse(ctx, rho1):
        return [("mass drift", abs(rho1.mass() - ctx["rho0"].mass()), 1e-12)]

    reqs.append(Request("diffuse", lambda ctx: dif.diffuse(_params(d_df), ctx["rho0"], t_df),
                        check_diffuse, prep_gauss))

    # spectral Laplacian of an exact grid eigenfunction (AC02).  The error
    # is taken relative to the largest symbol on the grid: rounding in the
    # 2^20-point transforms (and in cos of phases up to 1e5) is relative to
    # that, not to the eigenvalue of one low mode.
    d_lap = rng.uniform(0.1, 1.9)
    k0 = 2.0 * math.pi * int(rng.integers(8, 2048)) / (g20.n * g20.dx)

    def prep_cos(ctx):
        ctx["cos"] = g20.sample(lambda x: np.cos(k0 * x))

    def check_lap(ctx, lap):
        a = _params(d_lap).a_delta
        err = float(np.max(np.abs(lap.values + a * k0**d_lap * ctx["cos"].values)))
        return [("eigenvalue", err / (a * (math.pi / g20.dx) ** d_lap), 1e-10)]

    reqs.append(Request("laplacian_apply_spectral",
                        lambda ctx: op.laplacian_apply_spectral(_params(d_lap), ctx["cos"]),
                        check_lap, prep_cos))

    # Poisson solve, round trip through an independent multiplier (AC03)
    d_ps, c_ps = rng.uniform(0.2, 1.8), rng.uniform(0.5, 2.0)

    def prep_force(ctx):
        ctx["force"] = g20.sample(lambda x: np.exp(-(x - c_ps) ** 2) - np.exp(-(x + c_ps) ** 2))

    def check_poisson(ctx, u):
        p = _params(d_ps)
        f = ctx["force"].values
        back = _spectral_laplacian(d_ps, p.a_delta, g20, u.values)
        return [("round trip", float(np.max(np.abs(back + f)) / np.max(np.abs(f))), 1e-6)]

    reqs.append(Request("poisson_solve",
                        lambda ctx: sta.poisson_solve(_params(d_ps), ctx["force"], project=True),
                        check_poisson, prep_force))

    # Cauchy evolution: energy conserved (AC04)
    d_c, t_c, k_c = rng.uniform(0.2, 1.8), rng.uniform(0.1, 2.0), rng.uniform(1.0, 4.0)

    def prep_state(ctx):
        u0 = g20.sample(lambda x: np.exp(-x * x) * np.cos(k_c * x))
        v0 = g20.sample(lambda x: 0.3 * np.exp(-x * x / 4.0) * np.sin(x))
        ctx["state"] = dyn.CauchyState(u0, v0)

    def run_cauchy(ctx):
        p = _params(d_c)
        e0 = dyn.energy(p, ctx["state"])
        moved = dyn.cauchy_evolve(p, ctx["state"], t_c)
        return e0, dyn.energy(p, moved)

    reqs.append(Request("cauchy_evolve+energy", run_cauchy,
                        lambda ctx, e: [("energy drift", _rel(e[1], e[0]), 1e-10)], prep_state))

    # wave kernels by FFT synthesis: exact masses t and 1, evenness (AC04)
    d_q, t_q = rng.uniform(0.2, 1.8), rng.uniform(0.2, 2.0)

    def check_q(want):
        def check(ctx, q):
            return [("mass", _mass_error(q.values, g20.dx, want), 1e-9),
                    ("asymmetry", _asymmetry(q.values), 1e-10)]
        return check

    reqs.append(Request("wave_kernel_spectral",
                        lambda ctx: dyn.wave_kernel_spectral(_params(d_q), g20, t_q), check_q(t_q)))
    reqs.append(Request("wave_kernel_dt_spectral",
                        lambda ctx: dyn.wave_kernel_dt_spectral(_params(d_q), g20, t_q), check_q(1.0)))

    # Helmholtz at omega = 0: eps-ladder of gauge-invariant differences
    # extrapolates to the static Green's function (AC06)
    d_h0 = rng.uniform(0.3, 0.7)
    eps_ladder = [e * rng.uniform(0.8, 1.25) for e in (0.4, 0.2, 0.1)]

    def run_h0(eps):
        return lambda ctx: dyn.helmholtz_green(_params(d_h0), g20, 0.0, eps)

    def check_h0(ctx, h):
        ctx.setdefault("h0_diffs", []).append(h.value_near(1.0).real - h.value_near(2.0).real)
        if len(ctx["h0_diffs"]) < len(eps_ladder):
            return []
        ext = neville_at_zero([e * e for e in eps_ladder], ctx["h0_diffs"])
        g0 = (d_h0 / (2.0 * math.pi)) * math.tan(math.pi * d_h0 / 2.0)
        exact = g0 * (1.0 - 2.0 ** (d_h0 - 1.0))
        return [("static limit", _rel(ext, exact), 0.01)]

    for eps in eps_ladder:
        reqs.append(Request("helmholtz_green_omega0", run_h0(eps), check_h0))

    # Helmholtz at omega > 0: exact mass S(0) and evenness
    d_h, w_h, e_h = rng.uniform(0.2, 1.8), rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.2)

    def check_h(ctx, h):
        want = 1.0 / (-(w_h + 1j * e_h) ** 2)
        return [("mass", _mass_error(h.values, g20.dx, want), 1e-9),
                ("asymmetry", _asymmetry(h.values), 1e-10)]

    reqs.append(Request("helmholtz_green",
                        lambda ctx: dyn.helmholtz_green(_params(d_h), g20, w_h, e_h), check_h))

    # numeric CDF against a quadrature of the characteristic function (AC10 tolerance)
    # below delta = 0.4 the default grid is far narrower than the law's
    # scale and the tail series is off by up to 0.05 (see the cli probes)
    d_cdf, t_cdf = rng.uniform(0.4, 0.9), rng.uniform(0.5, 2.0)
    xq = np.sort(rng.uniform(-40.0, 40.0, 201))

    def check_cdf(ctx, cdf):
        p = _params(d_cdf)
        picks = xq[:: len(xq) // 4]
        err = max(abs(float(c) - stable_cdf_oracle(p.a_delta * t_cdf, d_cdf, float(x)))
                  for x, c in zip(picks, cdf[:: len(xq) // 4]))
        # the grid core hands off to the tail series at |x| = 25; a step
        # there shows as a drop between neighbouring query points
        return [("cdf vs oracle", err, 0.01),
                ("monotone across the core/tail handoff", float(max(0.0, -np.min(np.diff(cdf)))), 0.01)]

    reqs.append(Request("numeric_cdf", lambda ctx: dif.numeric_cdf(_params(d_cdf), t_cdf, xq), check_cdf))
    return reqs


# ---------------------------------------------------------------------- cli

def _hash_tree(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """selfsim.cli.main with stdout and stderr captured; SystemExit -> its code."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _wave_xi_cap(delta: float) -> float:
    """Largest a t^2/|x|^delta at which both kernel routes converge, halved.

    Measured on this library: the cap is 22.6 up to delta = 1.3 and then
    falls by about sqrt(2) per 0.05 in delta (1.0 at delta = 1.95).
    """
    return min(8.0, 2.0 * 2.0 ** (-(delta - 1.7) / 0.125))


def cli_requests(seed: int) -> list[Request]:
    """The README command list through selfsim.cli.main, one fresh dir per pass."""
    rng = _stream(seed, "cli")
    d = {name: float(rng.uniform(lo, hi)) for name, lo, hi in (
        ("dispersion", 0.1, 1.9), ("laplacian", 0.3, 0.7), ("cauchy", 0.2, 1.8),
        ("helmholtz", 0.2, 1.8), ("diffusion_tail", 0.45, 0.6), ("mc", 0.4, 0.9),
    )}
    d["greens"] = float(rng.choice([rng.uniform(0.2, 0.8), rng.uniform(1.2, 1.8)]))
    d["kernels"] = float(rng.uniform(0.2, 1.8))
    ks = [0.0] + sorted(rng.uniform(0.1, 5.0, 3).round(3))
    xs_g = sorted(rng.uniform(0.25, 8.0, 4).round(3))
    times_c = sorted(rng.uniform(0.2, 2.0, 3).round(3))
    p_k = _params(d["kernels"])
    xs_k = sorted(rng.uniform(0.5, 4.0, 3).round(3))
    # t such that a t^2 / x_min^delta stays under the convergence cap
    t_k = round(math.sqrt(rng.uniform(0.1, 1.0) * _wave_xi_cap(d["kernels"])
                          * xs_k[0] ** d["kernels"] / p_k.a_delta), 4)
    omega, eps_h = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.05, 0.2), 3)
    times_1 = sorted(rng.uniform(0.2, 2.0, 3).round(3))
    # around the README's delta = 0.5, t = 0.1: the 50..150 window sits in
    # the single-term tail regime there (slope error 0.028 of 0.05)
    t_tail = round(rng.uniform(0.05, 0.1), 4)
    t_mc, seed_mc = round(rng.uniform(0.5, 2.0), 3), int(rng.integers(1, 1 << 30))
    alphas = [round(rng.uniform(-0.9, -0.1), 3), round(rng.uniform(0.1, 0.9), 3),
              round(rng.uniform(1.1, 1.9), 3)]
    xs_p = sorted(rng.uniform(0.25, 4.0, 4).round(3))

    commands = [
        ("dispersion", ["dispersion", "--delta", repr(d["dispersion"]), "--k", _fmt(ks)]),
        ("greens-static", ["greens-static", "--delta", repr(d["greens"]), "--x", _fmt(xs_g)]),
        ("laplacian", ["laplacian", "--delta", repr(d["laplacian"]), "--function", "gaussian",
                       "--pointwise", "9"]),
        ("cauchy", ["cauchy", "--delta", repr(d["cauchy"]), "--times", _fmt(times_c)]),
        ("kernels", ["kernels", "--delta", repr(d["kernels"]), "--t", repr(t_k), "--x", _fmt(xs_k)]),
        ("helmholtz", ["helmholtz", "--delta", repr(d["helmholtz"]), "--omega", repr(omega),
                       "--eps", repr(eps_h)]),
        ("diffusion", ["diffusion", "--delta", "1", "--times", _fmt(times_1)]),
        ("diffusion-tail", ["diffusion", "--delta", repr(d["diffusion_tail"]), "--times",
                            repr(t_tail), "--n", "1048576", "--dx", "0.01",
                            "--tail-window", "50,150"]),
        ("mc", ["mc", "--delta", repr(d["mc"]), "--t", repr(t_mc), "--n-samples", "100000",
                "--seed", str(seed_mc), "--ks"]),
        # the README line, with the negative list attached by "=" so argparse
        # does not read "-0.5,..." as an option (see probes)
        ("potentials", ["potentials", f"--alphas={_fmt(alphas)}", "--x", _fmt(xs_p)]),
        ("selftest", ["selftest"]),
    ]

    def out_dir(ctx, name):
        return os.path.join(ctx["pass_dir"], name)

    def checks_for(name):
        def check(ctx, res):
            where = out_dir(ctx, name)
            ctx.setdefault("hashes", {})[name] = _hash_tree(where)
            if name == "selftest":
                ctx["selftest_stderr"] = res[2]
            return CLI_CHECKS[name](where)
        return check

    def runner(name, argv):
        def run(ctx):
            code, stdout, stderr = run_cli(argv + ["--out", out_dir(ctx, name)])
            if code != 0:
                raise CommandFailed(code, stderr)
            return code, stdout, stderr
        return run

    def check_dispersion(where):
        _, t = _read_csv(os.path.join(where, "dispersion.csv"))
        err = max((abs(r[2] - r[1]) / r[1] for r in t if r[1] != 0.0), default=0.0)
        return [("closed vs quadrature", err, 1e-6)]

    def check_greens(where):
        _, t = _read_csv(os.path.join(where, "greens_static.csv"))
        dl = d["greens"]
        g0 = (dl / (2.0 * math.pi)) * math.tan(math.pi * dl / 2.0)
        return [("closed form", max(_rel(r[1], g0 * r[0] ** (dl - 1.0)) for r in t), 1e-12)]

    def check_laplacian(where):
        _, pointwise = _read_csv(os.path.join(where, "laplacian_pointwise.csv"))
        _, t = _read_csv(os.path.join(where, "laplacian.csv"))
        dl = d["laplacian"]
        scale = float(np.max(np.abs(t[:, 2])))
        near = np.abs(t[:, 0]) <= 3.0
        length = len(t) * float(t[1, 0] - t[0, 0])
        spectral_want = gaussian_laplacian(dl, t[near, 0]) + periodic_images(dl, t[near, 0], length)
        return [("quadrature vs closed form",
                 float(np.max(np.abs(pointwise[:, 1] - gaussian_laplacian(dl, pointwise[:, 0])))) / scale,
                 1e-4),
                ("spectral vs closed form + periodic images",
                 float(np.max(np.abs(t[near, 2] - spectral_want))) / scale, 1e-10)]

    def check_cauchy(where):
        res = _read_json(os.path.join(where, "cauchy.json"))["results"]
        e0 = res["energy_t0"]
        return [("energy drift", max(_rel(v, e0) for v in res.values()), 1e-10)]

    def check_kernels(where):
        _, t = _read_csv(os.path.join(where, "kernels.csv"))
        err = max(max(_rel(r[2], r[1]), _rel(r[4], r[3])) for r in t)
        return [("series vs quadrature", err, 1e-6)]

    def check_helmholtz(where):
        _, t = _read_csv(os.path.join(where, "helmholtz.csv"))
        dx = float(t[1, 0] - t[0, 0])
        want = 1.0 / (-(omega + 1j * eps_h) ** 2)
        return [("mass", _mass_error(t[:, 1] + 1j * t[:, 2], dx, want), 1e-9)]

    def check_diffusion(where):
        res = _read_json(os.path.join(where, "diffusion.json"))["results"]
        n, dx = 1 << 16, 0.02
        length = n * dx
        found = []
        for t in times_1:
            s = math.pi * t  # a_1 = pi at h = zeta = 1
            arg = 2.0 * math.pi * s / length
            periodic_peak = 1.0 / (length * math.tanh(arg / 2.0))  # Lorentzian summed over images
            found.append(("peak vs periodized Lorentzian", _rel(res[f"peak_t{t:g}"], periodic_peak), 1e-8))
            found.append(("mass", abs(res[f"mass_t{t:g}"] - 1.0), 1e-9))
        return found

    def check_diffusion_tail(where):
        res = _read_json(os.path.join(where, "diffusion.json"))["results"]
        return [("tail slope", abs(res["tail_slope"] - res["tail_slope_expected"]), 0.05),
                ("mass", abs(res[f"mass_t{t_tail:g}"] - 1.0), 1e-9)]

    def check_mc(where):
        res = _read_json(os.path.join(where, "mc.json"))["results"]
        return [("KS distance", res["ks_distance"], 0.01)]

    def check_potentials(where):
        header, t = _read_csv(os.path.join(where, "potentials.csv"))
        worst = 0.0
        for j, alpha in enumerate(alphas, start=1):
            fe = math.gamma(alpha + 1.0)
            want = -(fe / math.pi) * t[:, 0] ** (-alpha - 1.0) * math.sin(math.pi * alpha / 2.0)
            worst = max(worst, float(np.max(np.abs(t[:, j] - want) / np.abs(want))))
        return [("closed form", worst, 1e-12)]

    def check_selftest(where):
        res = _read_json(os.path.join(where, "selftest.json"))["results"]
        return [("failed cases", float(res["n_fail"]), 0.5)]

    CLI_CHECKS = {
        "dispersion": check_dispersion, "greens-static": check_greens,
        "laplacian": check_laplacian, "cauchy": check_cauchy, "kernels": check_kernels,
        "helmholtz": check_helmholtz, "diffusion": check_diffusion,
        "diffusion-tail": check_diffusion_tail, "mc": check_mc,
        "potentials": check_potentials, "selftest": check_selftest,
    }
    return [Request(name, runner(name, argv), checks_for(name)) for name, argv in commands]


# ------------------------------------------------------------------ oracles

def _propagator_eta_cap(delta: float) -> float:
    """Largest a t/|x|^delta at which the delta < 1 propagator series converges, halved."""
    return min(2.0, 2.0 ** (-(delta - 0.75) / 0.1))


ORACLE_STRATA = 20
# Kernel values below this are compared absolutely (at 1e-8, AC07's
# absolute tolerance), above it relatively (at 1e-6, AC04's): both routes
# work to an absolute quadrature tolerance of 1e-9, so the relative
# difference of a kernel value near 1e-3 says nothing about either.
WAVE_FLOOR = 1e-2


def no_check(ctx, out):
    """For the first route of a pair; the second request checks both."""
    return []


def store(name: str, module, delta: float, *args):
    """Request body: module.name(params(delta), *args), kept in ctx under name."""
    def run(ctx):
        ctx[name] = getattr(module, name)(_params(delta), *args)
        return ctx[name]
    return run


def pair_check(other: str, label: str, tol: float, floor: float = 0.0):
    """Difference from the output another request stored, relative to the
    larger of that output and ``floor`` (absolute below the floor)."""
    return lambda ctx, out: [(label, abs(out - ctx[other]) / max(abs(ctx[other]), floor), tol)]


def oracles_requests(seed: int) -> list[Request]:
    """Pointwise independent routes across 0 < delta < 2, each checked."""
    rng = _stream(seed, "oracles")
    n = ORACLE_STRATA
    reqs: list[Request] = []
    d_disp = _strata(rng, n, 0.05, 1.95)
    # the pointwise route misses Gaussians by up to 4e-2 at sporadic
    # (delta, x), densely above delta ~ 0.7 (see probes); below 0.65 one
    # draw in 30000 still does, and that seed reports correct: false
    d_gauss = _strata(rng, n, 0.05, 0.65)
    d_cos = [0.5 + (i + 0.5) * 1.45 / n for i in range(n)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    k0_panel = [1.0 + 2.0 * ((i * golden) % 1.0) for i in range(n)]
    d_wave = _strata(rng, n, 0.05, 1.95)
    d_prop = _strata(rng, n, 0.05, 0.95)

    for i in range(n):
        # dispersion: defining integral vs closed form (AC01)
        dd, kk = d_disp[i], float(rng.uniform(0.1, 10.0))

        reqs.append(Request("dispersion_quadrature", store("dispersion_quadrature", prm, dd, kk), no_check))
        reqs.append(Request("dispersion", store("dispersion", prm, dd, kk),
                            pair_check("dispersion_quadrature", "closed form vs quadrature", 1e-6)))

        # pointwise Laplacian of a Gaussian vs the 1F1 closed form (AC02 tolerance)
        dg, xg = d_gauss[i], float(rng.uniform(-2.0, 2.0))

        def check_gauss(ctx, out, dg=dg, xg=xg):
            want = float(gaussian_laplacian(dg, xg))
            scale = -float(gaussian_laplacian(dg, 0.0))
            return [("gaussian vs 1F1", abs(out - want) / scale, 1e-4)]

        reqs.append(Request("laplacian_apply_point_gaussian",
                            lambda ctx, dg=dg, xg=xg: op.laplacian_apply_point(
                                _params(dg), lambda u: math.exp(-u * u), xg),
                            check_gauss))

        # pointwise Laplacian of cos(k0 u): the eigenvalue, Wynn-accelerated tail
        # (AC02).  This route's cost jumps by up to 2x for a change of 0.005
        # in delta (block counts are integers), so (delta, k0) is a fixed
        # panel over [0.5, 1.95) x [1, 3) rather than a draw; the seed picks
        # x among the maxima of cos(k0 x), where the integrand, and so the
        # work, is the same.  Below delta ~ 0.45 the route refuses (probes).
        dc = d_cos[i]
        k0 = k0_panel[i]
        xc = int(rng.integers(-2, 3)) * math.pi / k0

        def run_symbol(ctx, dc=dc, k0=k0, xc=xc):
            ctx["cos_closed"] = float(op.laplacian_symbol(_params(dc), k0)) * math.cos(k0 * xc)
            return ctx["cos_closed"]

        def check_cos(ctx, out, dc=dc, k0=k0):
            lam = _params(dc).a_delta * k0**dc
            return [("plane wave vs eigenvalue", abs(out - ctx["cos_closed"]) / lam, 1e-4)]

        reqs.append(Request("laplacian_symbol", run_symbol, lambda ctx, out: []))
        reqs.append(Request("laplacian_apply_point_cos",
                            lambda ctx, dc=dc, k0=k0, xc=xc: op.laplacian_apply_point(
                                _params(dc), lambda u: math.cos(k0 * u), xc),
                            check_cos))

        # wave kernels: series vs rotated-contour quadrature, Q and dQ (AC04)
        dw = d_wave[i]
        pw = _params(dw)
        xw = float(rng.uniform(0.5, 4.0))
        xi = math.exp(rng.uniform(math.log(0.05), math.log(_wave_xi_cap(dw))))
        tw = math.sqrt(xi * xw**dw / pw.a_delta)

        for series, fourier in (("wave_kernel_series", "wave_kernel_fourier"),
                                ("wave_kernel_dt_series", "wave_kernel_dt_fourier")):
            reqs.append(Request(series, store(series, dyn, dw, xw, tw), no_check))
            reqs.append(Request(fourier, store(fourier, dyn, dw, xw, tw),
                                pair_check(series, "series vs quadrature", 1e-6, WAVE_FLOOR)))

        # propagator: direct quadrature vs the delta < 1 series (AC07: absolute 1e-8)
        dp = d_prop[i]
        pp = _params(dp)
        xp = float(rng.uniform(0.5, 4.0))
        eta = math.exp(rng.uniform(math.log(0.05), math.log(_propagator_eta_cap(dp))))
        tp = eta * xp**dp / pp.a_delta

        reqs.append(Request("propagator_series", store("propagator_series", dif, dp, xp, tp), no_check))
        reqs.append(Request("propagator_quadrature", store("propagator_quadrature", dif, dp, xp, tp),
                            pair_check("propagator_series", "quadrature vs series", 1e-8, 1.0)))

    # delta = 1: quadrature vs the Lorentzian closed form (AC07)
    for _ in range(2):
        x1, t1 = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.2, 2.0))
        reqs.append(Request("propagator_cauchy", store("propagator_cauchy", dif, 1.0, x1, t1), no_check))
        reqs.append(Request("propagator_quadrature_delta1", store("propagator_quadrature", dif, 1.0, x1, t1),
                            pair_check("propagator_cauchy", "quadrature vs Lorentzian", 1e-8, 1.0)))
    return reqs


# ------------------------------------------------------------------- probes

def probes(workload: str, workdir: str) -> list[tuple[str, Callable]]:
    """Known defects, run once per run outside the measured passes.

    They are fixed inputs on which the library refuses, or answers
    wrongly, today.  Their outcome is reported beside the metrics so the
    defects stay visible; they are not part of ``attempted``/``failed``
    because the measured workloads are chosen to be ones on which no
    operation fails.
    """
    if workload == "cli":
        def out(name):
            return ["--out", os.path.join(workdir, "probe-" + name)]

        def pointwise_error():
            code, _, err = run_cli(PROBE_LAPLACIAN + out("laplacian"))
            if code:
                return f"exit {code}"
            _, t = _read_csv(os.path.join(workdir, "probe-laplacian", "laplacian_pointwise.csv"))
            worst = np.max(np.abs(t[:, 1] - gaussian_laplacian(1.484, t[:, 0])))
            return (f"pointwise relative error {worst / -gaussian_laplacian(1.484, 0.0):.2e} "
                    "against the 1F1 closed form (tolerance 1e-4)")

        def ks_distance():
            code, _, err = run_cli(PROBE_MC + out("mc"))
            if code:
                return f"exit {code}"
            res = _read_json(os.path.join(workdir, "probe-mc", "mc.json"))["results"]
            return f"KS distance {res['ks_distance']:.3g} (tolerance 0.01)"

        return [("README potentials line verbatim", lambda: run_cli(README_POTENTIALS + out("potentials"))),
                (" ".join(PROBE_LAPLACIAN), pointwise_error),
                (" ".join(PROBE_MC), ks_distance)]
    if workload == "oracles":
        p03, p18, p09 = _params(0.3), _params(1.8), _params(0.9)
        return [
            # silent wrong answers and a refusal found by this workload's
            # checks; neighbouring delta or x give errors near 1e-10
            ("gaussian delta=1.0169206842019496 x=0.24868894691607402",
             lambda: _gaussian_point_error(1.0169206842019496, 0.24868894691607402)),
            ("gaussian delta=1.1342354109418162 x=0.05361628303106425",
             lambda: _gaussian_point_error(1.1342354109418162, 0.05361628303106425)),
            ("gaussian delta=0.8560000000000008 x=1.5",
             lambda: _gaussian_point_error(0.8560000000000008, 1.5)),
            ("plane wave delta=0.3 k0=2 x=0.3",
             lambda: op.laplacian_apply_point(p03, lambda u: math.cos(2.0 * u), 0.3)),
            ("wave_kernel_series delta=1.8 x=1 t=1", lambda: dyn.wave_kernel_series(p18, 1.0, 1.0)),
            ("wave_kernel_fourier delta=1.8 x=1 t=1", lambda: dyn.wave_kernel_fourier(p18, 1.0, 1.0)),
            ("propagator_series delta=0.9 x=1 t=1", lambda: dif.propagator_series(p09, 1.0, 1.0)),
        ]
    return []


def _gaussian_point_error(delta: float, x: float) -> str:
    got = op.laplacian_apply_point(_params(delta), lambda u: math.exp(-u * u), x)
    err = abs(got - float(gaussian_laplacian(delta, x))) / -float(gaussian_laplacian(delta, 0.0))
    return f"relative error {err:.2e} against the 1F1 closed form (tolerance 1e-4)"


def tracer_calibration() -> list[tuple[str, tuple[int, int], Callable]]:
    """Four fixed calls with the (quad calls, integrand evaluations) the
    tracer counted for them when it was written (numpy 2.4, scipy 1.17).

    A change to the quadrature engines changes these legitimately; a
    change in the tracer's counts with the engines untouched means the
    tracer no longer sees every binding of ``quad``.
    """
    p05, p075 = _params(0.5), _params(0.75)
    return [
        ("laplacian_apply_point cos(2u) delta=0.5 x=0.3", (27, 209055),
         lambda: op.laplacian_apply_point(p05, lambda u: math.cos(2.0 * u), 0.3)),
        ("laplacian_apply_point exp(-u^2) delta=0.5 x=0.3", (19, 399),
         lambda: op.laplacian_apply_point(p05, lambda u: math.exp(-u * u), 0.3)),
        ("wave_kernel_fourier delta=0.75 x=2 t=1", (2, 336),
         lambda: dyn.wave_kernel_fourier(p075, 2.0, 1.0)),
        ("dispersion_quadrature delta=0.5 k=1", (1, 565),
         lambda: prm.dispersion_quadrature(p05, 1.0)),
    ]


def build(workload: str, seed: int) -> list[Request]:
    if workload == "fields":
        return fields_requests(seed)
    if workload == "cli":
        return cli_requests(seed)
    if workload == "oracles":
        return oracles_requests(seed)
    raise ValueError(f"unknown workload {workload!r}")
