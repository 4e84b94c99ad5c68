"""Command-line interface.

One subcommand per capability.  A run validates its options before any
numeric work, computes its CSV tables, JSON envelope and gnuplot scripts,
and commits them into --out as one staged set.  Exit codes:

    0  success
    1  validation error, including a malformed command line
    2  numeric failure (quadrature or series did not converge)
    3  self-test failure
    4  an output file could not be written

Exits other than 0 and 3 leave no file of the run, and no exit leaves torn
or temporary files.  Options may also come from --config (one JSON object):
flags override its values, unknown keys are rejected, and each value is
checked like its flag.  Identical options give byte-identical files; the
time of each stage (compute: parse and handler, commit: writing the files)
and the wall time go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from io import StringIO

import numpy as np

from . import diffusion as dif
from . import dynamics as dyn
from . import statics as sta
from .errors import IoError, NumericError, ValidationError
from .grids import Grid1D
from .io import ResultEnvelope, atomic_write_text, commit, plot_script, write_csv_atomic
from .operator import laplacian_apply_point, laplacian_apply_spectral
from .params import dispersion, dispersion_quadrature, make_params
from .selftest import run_selftest

__all__ = ["main"]

# ------------------------------------------------------------------ options
# A converter takes the text of a flag, or str() of a config file's JSON value,
# and returns the value the handler reads; ValueError means "refused".


def _flag(text) -> bool:
    if text not in ("True", "False"):
        raise ValueError("expected true or false")
    return text == "True"


def _names(text) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise ValueError("expected at least one value")
    return names


def _floats(text) -> tuple[float, ...]:
    return tuple(map(float, _names(text)))


def _labelled_floats(text) -> tuple[float, ...]:
    """Values that name columns or results by their %g label: two distinct
    values may not share one, or a column repeats and a result is lost.
    Exact repeats give equal columns and values, and are kept."""
    values = _floats(text)
    seen = {}
    for v in values:
        other = seen.setdefault(f"{v:g}", v)
        if repr(other) != repr(v):  # repr, not !=: a nan is refused later, as non-finite
            raise ValueError(f"{other!r} and {v!r} share the label {v:g}")
    return values


def _evolution_times(text) -> tuple[float, ...]:
    """Labelled times after the initial state, which holds the label 0."""
    values = _labelled_floats(text)
    for v in values:
        if v == 0.0:  # 0 is the initial state itself, and -0.0 is the same time
            raise ValueError(f"{v!r} is the initial state's time, labelled 0")
    return values


def _propagator_times(text) -> tuple[float, ...]:
    """Labelled times of the propagator, which exists for t > 0 only."""
    values = _labelled_floats(text)
    for v in values:
        if v <= 0.0:  # a nan is refused later, as non-finite
            raise ValueError(f"{v!r} is not a positive time")
    return values


def _tail_window(text) -> tuple[float, float]:
    window = _floats(text)
    if len(window) != 2 or not 0.0 < window[0] < window[1]:
        raise ValueError("expected x_lo,x_hi with 0 < x_lo < x_hi")
    return window


def _function(value) -> str:
    if value not in ("gaussian", "cos"):
        raise ValueError("expected gaussian or cos")
    return value


# option name: (converter, default, help); defaults are already converted
_OUT = {"out": (str, "out", "output directory")}
_PHYSICS = {
    **_OUT,
    "delta": (float, 0.5, "exponent of the coupling, 0 < delta < 2"),
    "h": (float, 1.0, "length scale h"),
    "zeta": (float, 1.0, "dimensionless parameter zeta"),
}


def _grid(n: int, dx: float) -> dict:
    return {"n": (int, n, "grid points"), "dx": (float, dx, "grid spacing")}


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
    for command, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON object of options; flags override its values")
        for name, (convert, _, help_opt) in options.items():
            flag = "--" + name.replace("_", "-")
            if convert is _flag:
                p.add_argument(flag, dest=name, action="store_true", default=None, help=help_opt)
            else:
                # argparse converts numbers, so the envelope echoes them as numbers
                p.add_argument(flag, dest=name, type=convert if convert in (float, int) else None,
                               help=help_opt)
    return top


def _check_numbers(value) -> None:
    """Refuse a value, or list of values, that holds a non-finite float or
    a negative integer: every float option is a finite physical quantity
    and every integer option a count or a seed."""
    for v in value if isinstance(value, tuple) else (value,):
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError("expected finite numbers")
        if isinstance(v, int) and v < 0:
            raise ValueError("expected a non-negative integer")


def _spec(args) -> argparse.Namespace:
    """The run's options: flags over config-file values over defaults.  A
    given value is checked as the text a flag would carry: ``str(value)``
    goes through its option's converter, and numbers must be finite and
    counts non-negative.  ``given`` keeps the values as given, for the
    envelope.  A command with physics options gets its medium as
    ``params``, and one with grid options its centered ``grid``, built
    here once so that a bad medium or grid is refused before any work."""
    given = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                given = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(given, dict):
            raise ValidationError("config must be a JSON object")
    options = _COMMANDS[args.command][2]
    unknown = set(given) - set(options)
    if unknown:
        raise ValidationError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    given.update({k: v for k, v in vars(args).items() if k in options and v is not None})
    spec = argparse.Namespace(command=args.command, given=given)
    for name, (convert, default, _) in options.items():
        value = default
        if name in given:
            try:
                value = convert(str(given[name]))
                _check_numbers(value)
            except ValueError as exc:
                raise ValidationError(f"invalid {name} {given[name]!r}: {exc}") from exc
        setattr(spec, name, value)
    if "delta" in options:
        spec.params = make_params(spec.delta, spec.h, spec.zeta)
    if "n" in options:
        spec.grid = Grid1D.centered(spec.n, spec.dx)
    return spec


# ------------------------------------------------------------------ commands
# A handler takes the spec and returns the envelope; it writes nothing.


def _table(header, columns):
    # a Grid1D column stands for its x, built only while the file is written so
    # no handler holds it across its transforms; no 2-D copy of the table is made
    return lambda path: write_csv_atomic(path, header, *(
        c.x if isinstance(c, Grid1D) else np.asarray(c, dtype=np.float64) for c in columns))


def _text(text):
    return lambda path: atomic_write_text(path, text)


def _script(*args, **kwargs):
    return _text(plot_script(*args, **kwargs))


def _cmd_dispersion(s) -> ResultEnvelope:
    omega2 = [dispersion(s.params, k) for k in s.k]
    omega2_quadrature = [dispersion_quadrature(s.params, k) for k in s.k]
    return ResultEnvelope("dispersion", s.given, results={"a_delta": s.params.a_delta}, files={
        "dispersion.csv": _table(["k", "omega2", "omega2_quadrature"],
                                 [s.k, omega2, omega2_quadrature]),
    })


def _cmd_greens_static(s) -> ResultEnvelope:
    g = [sta.greens_static(s.params, x) for x in s.x]
    return ResultEnvelope("greens-static", s.given,
                          results={"prefactor": sta.greens_prefactor(s.params)}, files={
        "greens_static.csv": _table(["x", "g"], [s.x, g]),
        "greens_static.gp": _script("greens-static", "greens_static.csv", ["g"], loglog=True),
    })


def _cmd_laplacian(s) -> ResultEnvelope:
    xs = np.linspace(-2.0, 2.0, s.pointwise)
    for x in xs:  # value_near reads the grid sample nearest each x: check them before any work
        s.grid.index_near(x)
    fn = (lambda u: np.cos(s.k0 * u)) if s.function == "cos" else (lambda u: np.exp(-u * u))
    field = s.grid.sample(fn)
    lap = laplacian_apply_spectral(s.params, field)
    table = _table(["x", "field", "laplacian"], [s.grid, field.values, lap.values])
    env = ResultEnvelope("laplacian", s.given, files={"laplacian.csv": table})
    if s.pointwise > 0:
        pw = [laplacian_apply_point(s.params, fn, x) for x in xs]
        env.files["laplacian_pointwise.csv"] = _table(["x", "laplacian"], [xs, pw])
        env.results["max_route_difference"] = max(abs(v - lap.value_near(x)) for x, v in zip(xs, pw))
    return env


def _cmd_cauchy(s) -> ResultEnvelope:
    u0 = s.grid.sample(lambda x: np.exp(-x * x) * np.cos(s.k0 * x))
    v0 = s.grid.sample(lambda x: np.zeros_like(x))
    state0 = dyn.CauchyState(u0, v0)
    env = ResultEnvelope("cauchy", s.given, results={"energy_t0": dyn.energy(s.params, state0)})
    cols = ["x", "u_t0"] + [f"u_t{t:g}" for t in s.times]
    data = [s.grid, u0.values]
    for t in s.times:
        st = dyn.cauchy_evolve(s.params, state0, t)
        data.append(st.u.values)
        env.results[f"energy_t{t:g}"] = dyn.energy(s.params, st)
    env.files["cauchy.csv"] = _table(cols, data)
    env.files["cauchy.gp"] = _script("cauchy", "cauchy.csv", cols[1:])
    return env


def _cmd_kernels(s) -> ResultEnvelope:
    kernels = (dyn.wave_kernel_series, dyn.wave_kernel_fourier,
               dyn.wave_kernel_dt_series, dyn.wave_kernel_dt_fourier)
    columns = [s.x] + [[kernel(s.params, x, s.t) for x in s.x] for kernel in kernels]
    header = ["x", "Q_series", "Q_quadrature", "dQ_series", "dQ_quadrature"]
    return ResultEnvelope("kernels", s.given, files={"kernels.csv": _table(header, columns)})


def _cmd_helmholtz(s) -> ResultEnvelope:
    field = dyn.helmholtz_green(s.params, s.grid, s.omega, s.eps)
    table = _table(["x", "re", "im"], [s.grid, field.values.real, field.values.imag])
    return ResultEnvelope("helmholtz", s.given, files={"helmholtz.csv": table})


def _cmd_diffusion(s) -> ResultEnvelope:
    env = ResultEnvelope("diffusion", s.given)
    cols = ["x"] + [f"W_t{t:g}" for t in s.times]
    data = [s.grid]
    w = None
    for t in s.times:
        w = dif.propagator(s.params, s.grid, t)
        data.append(w.values)
        env.results[f"mass_t{t:g}"] = w.mass()
        env.results[f"peak_t{t:g}"] = float(w.values.max())
    env.files["diffusion.csv"] = _table(cols, data)
    env.files["diffusion.gp"] = _script("diffusion", "diffusion.csv", cols[1:])
    if s.tail_window:
        slope = dif.fit_tail_exponent(w, *s.tail_window)
        env.results["tail_slope"] = slope
        env.results["tail_slope_expected"] = -(1.0 + s.params.delta)
        env.files["diffusion_tail.gp"] = _script("diffusion", "diffusion.csv", cols[1:],
                                                 loglog=True, annotations={"fitted_slope": slope})
    return env


def _cmd_mc(s) -> ResultEnvelope:
    batch = dif.sample_levy(s.params, s.t, s.n_samples, s.seed)
    env = ResultEnvelope("mc", s.given, seed=s.seed,
                         results={"scale": batch.scale, "n_samples": s.n_samples},
                         files={"samples.csv": batch.to_csv})
    if s.ks:
        samples = np.sort(batch.samples)
        cdf = dif.numeric_cdf(s.params, s.t, samples)
        env.results["ks_distance"] = dif.ks_distance(samples, cdf)
    return env


def _cmd_potentials(s) -> ResultEnvelope:
    cols = ["x"] + [f"b_alpha{a:g}" for a in s.alphas]
    columns = [s.x] + [[sta.riesz_kernel(a, x) for x in s.x] for a in s.alphas]
    return ResultEnvelope("potentials", s.given, files={
        "potentials.csv": _table(cols, columns),
        "potentials.gp": _script("potentials", "potentials.csv", cols[1:], loglog=True),
    })


def _cmd_selftest(s) -> ResultEnvelope:
    results = run_selftest(s.cases)
    # the only table with text: details hold commas, so quoted per RFC 4180
    table = StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["case", "status", "detail"])
    writer.writerows((r.case_id, "pass" if r.passed else "FAIL", r.detail) for r in results)
    return ResultEnvelope("selftest", s.given, results={
        "n_pass": sum(r.passed for r in results),
        "n_fail": sum(not r.passed for r in results),
    }, files={"selftest.csv": _text(table.getvalue())})


# command: (handler, help, options)
_COMMANDS = {
    "dispersion": (_cmd_dispersion, "omega^2(k), closed form and quadrature", {
        **_PHYSICS,
        "k": (_floats, (0.0, 0.5, 1.0, 2.0, 5.0), "comma-separated wavenumbers"),
    }),
    "greens-static": (_cmd_greens_static, "static point-force response", {
        **_PHYSICS,
        "x": (_floats, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0), "comma-separated positions"),
    }),
    "laplacian": (_cmd_laplacian, "nonlocal Laplacian of a test field", {
        **_PHYSICS, **_grid(4096, 0.02),
        "function": (_function, "gaussian", "test field: gaussian or cos"),
        "k0": (float, 1.0, "wavenumber of the cos field"),
        "pointwise": (int, 0, "also run the quadrature route at this many interior points"),
    }),
    "cauchy": (_cmd_cauchy, "evolve a Gaussian initial displacement", {
        **_PHYSICS, **_grid(4096, 0.05),
        "times": (_evolution_times, (0.5, 1.0, 2.0), "comma-separated nonzero evolution times"),
        "k0": (float, 2.0, "carrier wavenumber of the initial displacement"),
    }),
    "kernels": (_cmd_kernels, "Cauchy kernels by series and quadrature", {
        **_PHYSICS,
        "t": (float, 1.0, "time"),
        "x": (_floats, (0.5, 1.0, 2.0, 4.0), "comma-separated positions (nonzero)"),
    }),
    "helmholtz": (_cmd_helmholtz, "frequency-domain Green's function", {
        **_PHYSICS, **_grid(1 << 16, 0.01),
        "omega": (float, 0.0, "frequency"),
        "eps": (float, 0.1, "damping"),
    }),
    "diffusion": (_cmd_diffusion, "heavy-tailed propagator profiles", {
        **_PHYSICS, **_grid(1 << 16, 0.02),
        "times": (_propagator_times, (0.5, 1.0, 2.0), "comma-separated positive times"),
        "tail_window": (_tail_window, None,
                        "x_lo,x_hi window for a log-log tail fit of the last profile"),
    }),
    "mc": (_cmd_mc, "stable sampling and KS comparison", {
        **_PHYSICS,
        "t": (float, 1.0, "time"),
        "n_samples": (int, 100_000, "number of samples"),
        "seed": (int, 20260808, "random seed"),
        "ks": (_flag, False, "compare with the numeric CDF (KS distance)"),
    }),
    "potentials": (_cmd_potentials, "kernel family b_alpha profiles", {
        **_OUT,
        "alphas": (_labelled_floats, (-0.5, 0.5, 1.5), "comma-separated exponents alpha"),
        "x": (_floats, (0.25, 0.5, 1.0, 2.0, 4.0), "comma-separated positions"),
    }),
    "selftest": (_cmd_selftest, "run the acceptance suite", {
        **_OUT,
        "cases": (_names, None, "comma-separated case ids (default all)"),
    }),
}


# looked up by name at call time, so a caller can wrap or replace a handler
_HANDLERS = {command: handler for command, (handler, _, _) in _COMMANDS.items()}


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        spec = _spec(_build_parser().parse_args(argv))
        env = _HANDLERS[spec.command](spec)
        computed = time.monotonic()
        commit(env, spec.out)
    except (ValidationError, NumericError, IoError) as exc:
        print(f"error: {{code: {type(exc).__name__}, message: {exc}}}", file=sys.stderr)
        return 1 if isinstance(exc, ValidationError) else 2 if isinstance(exc, NumericError) else 4
    done = time.monotonic()
    print(f"stage_s: compute={computed - started:.3f} commit={done - computed:.3f}", file=sys.stderr)
    print(f"wall_time_s: {done - started:.3f}", file=sys.stderr)
    return 3 if env.results.get("n_fail") else 0


if __name__ == "__main__":
    sys.exit(main())
