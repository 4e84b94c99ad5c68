"""Command-line interface.

One subcommand per capability; every run validates its configuration
before any numeric work, writes CSV tables plus a JSON envelope (and a
gnuplot script where a plot makes sense) into --out, and exits with

    0  success
    1  validation error, including a malformed command line (no partial files)
    2  numeric failure (quadrature or series did not converge)
    3  self-test failure
    4  an output file could not be written (no torn or temporary files;
       files written before the failing one stay)

Configuration may come from --config (a single JSON document); individual
flags override scalar fields.  Unknown config keys are rejected.  Identical
configurations produce byte-identical files; wall time goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import diffusion as dif
from . import dynamics as dyn
from . import statics as sta
from .errors import IoError, NumericError, ValidationError
from .grids import Grid1D
from .io import ResultEnvelope, emit_envelope, emit_plot_script, emit_table
from .operator import laplacian_apply_point, laplacian_apply_spectral
from .params import dispersion, dispersion_quadrature, make_params
from .selftest import run_selftest

__all__ = ["main"]

def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated float list, got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors (exit 1), not argparse's exit 2,
    which this CLI reserves for numeric failure.  Subcommand parsers
    inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="selfsim", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, physics=True):
        p.add_argument("--config", default=None, help="JSON config; flags override scalars")
        p.add_argument("--out", default="out", help="output directory")
        if physics:
            p.add_argument("--delta", type=float, default=None)
            p.add_argument("--h", type=float, default=None)
            p.add_argument("--zeta", type=float, default=None)
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("dispersion", help="omega^2(k), closed form and quadrature")
    common(p)
    p.add_argument("--k", default=None, help="comma-separated wavenumbers")

    p = sub.add_parser("greens-static", help="static point-force response")
    common(p)
    p.add_argument("--x", default=None, help="comma-separated positions")

    p = sub.add_parser("laplacian", help="nonlocal Laplacian of a test field")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dx", type=float, default=None)
    p.add_argument("--function", choices=("gaussian", "cos"), default=None)
    p.add_argument("--k0", type=float, default=None)
    p.add_argument("--pointwise", type=int, default=None,
                   help="also run the quadrature route at this many interior points")

    p = sub.add_parser("cauchy", help="evolve a Gaussian initial displacement")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dx", type=float, default=None)
    p.add_argument("--times", default=None, help="comma-separated evolution times")
    p.add_argument("--k0", type=float, default=None)

    p = sub.add_parser("kernels", help="Cauchy kernels by series and quadrature")
    common(p)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--x", default=None, help="comma-separated positions (nonzero)")

    p = sub.add_parser("helmholtz", help="frequency-domain Green's function")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dx", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("diffusion", help="heavy-tailed propagator profiles")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dx", type=float, default=None)
    p.add_argument("--times", default=None)
    p.add_argument("--tail-window", dest="tail_window", default=None,
                   help="x_lo,x_hi window for a log-log tail fit of the last profile")

    p = sub.add_parser("mc", help="stable sampling and KS comparison")
    common(p)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--n-samples", dest="n_samples", type=int, default=None)
    p.add_argument("--ks", action="store_true", default=None)

    p = sub.add_parser("potentials", help="kernel family b_alpha profiles")
    common(p)
    p.add_argument("--alphas", default=None)
    p.add_argument("--x", default=None)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    common(p, physics=False)
    p.add_argument("--cases", default=None, help="comma-separated case ids (default all)")
    return top


def _merge_config(args) -> dict:
    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ValidationError("config must be a JSON object")
    # a config key is allowed when the subcommand has a flag for it
    flags = {key: val for key, val in vars(args).items() if key not in ("command", "config")}
    unknown = set(config) - set(flags)
    if unknown:
        raise ValidationError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    config.update((key, val) for key, val in flags.items() if val is not None)
    config.setdefault("out", "out")
    return config


def _params_from(config: dict):
    return make_params(
        float(config.get("delta", 0.5)),
        float(config.get("h", 1.0)),
        float(config.get("zeta", 1.0)),
    )


def _grid_from(config: dict, n_default: int, dx_default: float) -> Grid1D:
    return Grid1D.centered(int(config.get("n", n_default)), float(config.get("dx", dx_default)))


# ------------------------------------------------------------------ commands

def _cmd_dispersion(config: dict) -> ResultEnvelope:
    p = _params_from(config)
    ks = _float_list(config.get("k", "0,0.5,1,2,5"))
    env = ResultEnvelope("dispersion", config, results={"a_delta": p.a_delta})
    rows = [(k, float(dispersion(p, k)), dispersion_quadrature(p, k)) for k in ks]
    emit_table(env, config["out"], "dispersion", ["k", "omega2", "omega2_quadrature"], rows)
    return env


def _cmd_greens_static(config: dict) -> ResultEnvelope:
    p = _params_from(config)
    xs = _float_list(config.get("x", "0.25,0.5,1,2,4,8"))
    env = ResultEnvelope("greens-static", config,
                         results={"prefactor": sta.greens_prefactor(p)})
    rows = [(x, sta.greens_static(p, x)) for x in xs]
    emit_table(env, config["out"], "greens_static", ["x", "g"], rows)
    emit_plot_script(env, config["out"], "greens_static", "greens_static.csv", ["g"], loglog=True)
    return env


def _cmd_laplacian(config: dict) -> ResultEnvelope:
    p = _params_from(config)
    grid = _grid_from(config, 4096, 0.02)
    kind = config.get("function", "gaussian")
    k0 = float(config.get("k0", 1.0))
    if kind == "cos":
        field = grid.sample(lambda x: np.cos(k0 * x))
        fn = lambda u: np.cos(k0 * u)  # noqa: E731
    else:
        field = grid.sample(lambda x: np.exp(-x * x))
        fn = lambda u: np.exp(-u * u)  # noqa: E731
    lap = laplacian_apply_spectral(p, field)
    env = ResultEnvelope("laplacian", config)
    emit_table(env, config["out"], "laplacian", ["x", "field", "laplacian"],
               np.column_stack([grid.x, field.values, lap.values]))
    n_pw = int(config.get("pointwise") or 0)
    if n_pw > 0:
        xs = np.linspace(-2.0, 2.0, n_pw)
        pw = [(x, laplacian_apply_point(p, fn, x)) for x in xs]
        emit_table(env, config["out"], "laplacian_pointwise", ["x", "laplacian"], pw)
        worst = max(abs(v - lap.value_near(x)) for x, v in pw)
        env.results["max_route_difference"] = worst
    return env


def _cmd_cauchy(config: dict) -> ResultEnvelope:
    p = _params_from(config)
    grid = _grid_from(config, 4096, 0.05)
    times = _float_list(config.get("times", "0.5,1,2"))
    k0 = float(config.get("k0", 2.0))
    u0 = grid.sample(lambda x: np.exp(-x * x) * np.cos(k0 * x))
    v0 = grid.sample(lambda x: np.zeros_like(x))
    state0 = dyn.CauchyState(u0, v0)
    env = ResultEnvelope("cauchy", config, results={"energy_t0": dyn.energy(p, state0)})
    cols = ["x", "u_t0"] + [f"u_t{t:g}" for t in times]
    data = [grid.x, u0.values]
    for t in times:
        st = dyn.cauchy_evolve(p, state0, t)
        data.append(st.u.values)
        env.results[f"energy_t{t:g}"] = dyn.energy(p, st)
    emit_table(env, config["out"], "cauchy", cols, np.column_stack(data))
    emit_plot_script(env, config["out"], "cauchy", "cauchy.csv", cols[1:])
    return env


def _cmd_kernels(config: dict) -> ResultEnvelope:
    p = _params_from(config)
    t = float(config.get("t", 1.0))
    xs = _float_list(config.get("x", "0.5,1,2,4"))
    env = ResultEnvelope("kernels", config)
    rows = []
    for x in xs:
        rows.append(
            (
                x,
                dyn.wave_kernel_series(p, x, t),
                dyn.wave_kernel_fourier(p, x, t),
                dyn.wave_kernel_dt_series(p, x, t),
                dyn.wave_kernel_dt_fourier(p, x, t),
            )
        )
    emit_table(env, config["out"], "kernels",
               ["x", "Q_series", "Q_quadrature", "dQ_series", "dQ_quadrature"], rows)
    return env


def _cmd_helmholtz(config: dict) -> ResultEnvelope:
    p = _params_from(config)
    grid = _grid_from(config, 1 << 16, 0.01)
    omega = float(config.get("omega", 0.0))
    eps = float(config.get("eps", 0.1))
    field = dyn.helmholtz_green(p, grid, omega, eps)
    env = ResultEnvelope("helmholtz", config)
    emit_table(env, config["out"], "helmholtz", ["x", "re", "im"],
               np.column_stack([grid.x, field.values.real, field.values.imag]))
    return env


def _tail_window(text) -> tuple[float, float]:
    window = _float_list(text)
    if len(window) != 2 or not 0.0 < window[0] < window[1]:
        raise ValidationError(f"tail window must be x_lo,x_hi with 0 < x_lo < x_hi, got {text!r}")
    return window[0], window[1]


def _cmd_diffusion(config: dict) -> ResultEnvelope:
    p = _params_from(config)
    grid = _grid_from(config, 1 << 16, 0.02)
    times = _float_list(config.get("times", "0.5,1,2"))
    window = _tail_window(config["tail_window"]) if config.get("tail_window") else None
    env = ResultEnvelope("diffusion", config)
    cols = ["x"] + [f"W_t{t:g}" for t in times]
    data = [grid.x]
    w = None
    for t in times:
        w = dif.propagator(p, grid, t)
        data.append(w.values)
        env.results[f"mass_t{t:g}"] = w.mass()
        env.results[f"peak_t{t:g}"] = float(w.values.max())
    # the fit can still refuse the window; it runs before any file is written
    slope = dif.fit_tail_exponent(w, *window) if window else None
    emit_table(env, config["out"], "diffusion", cols, np.column_stack(data))
    emit_plot_script(env, config["out"], "diffusion", "diffusion.csv", cols[1:])
    if window:
        env.results["tail_slope"] = slope
        env.results["tail_slope_expected"] = -(1.0 + p.delta)
        emit_plot_script(env, config["out"], "diffusion_tail", "diffusion.csv",
                         cols[1:], loglog=True,
                         annotations={"fitted_slope": slope})
    return env


def _cmd_mc(config: dict) -> ResultEnvelope:
    p = _params_from(config)
    t = float(config.get("t", 1.0))
    n = int(config.get("n_samples", 100_000))
    seed = int(config.get("seed", 20260808))
    batch = dif.sample_levy(p, t, n, seed)
    env = ResultEnvelope("mc", config, seed=seed,
                         results={"scale": batch.scale, "n_samples": n})
    csv_path = os.path.join(config["out"], "samples.csv")
    batch.to_csv(csv_path)
    env.tables.append("samples.csv")
    if config.get("ks"):
        s = np.sort(batch.samples)
        cdf = dif.numeric_cdf(p, t, s)
        env.results["ks_distance"] = dif.ks_distance(s, cdf)
    return env


def _cmd_potentials(config: dict) -> ResultEnvelope:
    alphas = _float_list(config.get("alphas", "-0.5,0.5,1.5"))
    xs = _float_list(config.get("x", "0.25,0.5,1,2,4"))
    env = ResultEnvelope("potentials", config)
    cols = ["x"] + [f"b_alpha{a:g}" for a in alphas]
    rows = [[x] + [sta.riesz_kernel(a, x) for a in alphas] for x in xs]
    emit_table(env, config["out"], "potentials", cols, rows)
    emit_plot_script(env, config["out"], "potentials", "potentials.csv", cols[1:], loglog=True)
    return env


def _cmd_selftest(config: dict) -> tuple[ResultEnvelope, bool]:
    cases = None
    if config.get("cases"):
        cases = [c.strip() for c in str(config["cases"]).split(",") if c.strip()]
    results = run_selftest(cases)
    env = ResultEnvelope("selftest", config)
    rows = [(r.case_id, "pass" if r.passed else "FAIL", r.detail) for r in results]
    env.results["n_pass"] = sum(r.passed for r in results)
    env.results["n_fail"] = sum(not r.passed for r in results)
    emit_table(env, config["out"], "selftest", ["case", "status", "detail"], rows)
    return env, all(r.passed for r in results)


_HANDLERS = {
    "dispersion": _cmd_dispersion,
    "greens-static": _cmd_greens_static,
    "laplacian": _cmd_laplacian,
    "cauchy": _cmd_cauchy,
    "kernels": _cmd_kernels,
    "helmholtz": _cmd_helmholtz,
    "diffusion": _cmd_diffusion,
    "mc": _cmd_mc,
    "potentials": _cmd_potentials,
}


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        config = _merge_config(args)
        if args.command == "selftest":
            env, ok = _cmd_selftest(config)
            emit_envelope(env, config["out"])
            code = 0 if ok else 3
        else:
            env = _HANDLERS[args.command](config)
            emit_envelope(env, config["out"])
            code = 0
    except ValidationError as exc:
        print(f"error: {{code: {type(exc).__name__}, message: {exc}}}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {{code: {type(exc).__name__}, message: {exc}}}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"error: {{code: {type(exc).__name__}, message: {exc}}}", file=sys.stderr)
        return 4
    print(f"wall_time_s: {time.monotonic() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
