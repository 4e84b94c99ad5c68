"""Span tracer installed around selfsim from the outside.

``Tracer.install()`` replaces every public function of every loaded
``selfsim`` module with a wrapper, at every binding site: a module that
did ``from .grids import apply_symbol`` holds its own reference, so each
module's namespace is searched for the original function objects and
each hit is replaced.  The same goes for

* ``scipy.integrate.quad``, bound as ``quad`` in ``selfsim.quadrature``,
  ``selfsim.params`` and ``selfsim.selftest`` (one span name,
  ``quadrature.quad``; integrand evaluations are counted by a bare
  counter closure around the integrand, not by spans);
* ``Grid1D.k``/``Grid1D.k_half`` (properties, one span name
  ``grids.Grid1D.k``) and ``SampleBatch.to_csv``;
* the CLI command handlers (``cli.<command>``) and the acceptance cases
  (``selftest.ACnn``), which live in a dict and a list;
* the FFTs of ``numpy.fft`` (``fft``, ``ifft``, ``rfft``, ``irfft``) and
  of ``scipy.fft`` (the same and their ``n``-dimensional forms, which
  ``scipy.signal.fftconvolve`` calls), wherever they are bound: counted
  (transform points and computed bytes, numpy and scipy together) but
  given no span, so FFT time stays in the caller's self time.

A span records name, start, end, parent span and request id.  Spans are
kept in memory and written out by the caller at the end of the run.  A
span's self time is its duration minus the time its children cover.
A ``NumericError`` is counted once, as a failure of the module whose span
it first left.  ``uninstall()`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.fft

_NUMPY_FFTS = ("fft", "ifft", "rfft", "irfft")
_SCIPY_FFTS = _NUMPY_FFTS + ("fftn", "ifftn", "rfftn", "irfftn")


def _fft_points(name: str, a, out, args, kwargs) -> int:
    """Points transformed: the size of the full-length signal, padding included.

    For complex and inverse-real transforms that is the output's size.  A
    forward real transform returns half a spectrum, so its size is taken
    from the input and the requested length (``n``/``s``, the second
    positional parameter in numpy and scipy alike) along the transformed
    axes (``axis``/``axes``, the third).
    """
    if not name.startswith("rfft"):
        return int(np.size(out))
    a = np.asarray(a)
    lengths = args[0] if args else kwargs.get("n", kwargs.get("s"))
    if lengths is None:
        return int(a.size)
    lengths = [int(v) for v in np.atleast_1d(lengths)]
    axes = args[1] if len(args) > 1 else kwargs.get("axis", kwargs.get("axes"))
    axes = (list(np.atleast_1d(axes)) if axes is not None
            else list(range(a.ndim - len(lengths), a.ndim)))
    rest = a.size // max(1, int(np.prod([a.shape[ax] for ax in axes])))
    return int(rest * np.prod(lengths))


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    def __init__(self):
        self.enabled = False
        self.request = None
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [name, start, span parent index, child time]
        self._restore: list = []

    # ----------------------------------------------------------- recording

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), len(self.spans), 0.0])
        self.spans.append(None)  # placeholder keeps parent indices stable

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, index, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][2] if self._stack else None
        self.spans[index] = (name, start, end, parent, self.request)
        self.counts[name + ".calls"] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def _failed(self, name: str, exc: BaseException) -> None:
        from selfsim.errors import NumericError

        if isinstance(exc, NumericError) and not getattr(exc, "_trace_origin", None):
            exc._trace_origin = name
            self.counts[name.split(".", 1)[0] + ".failures"] += 1

    def _wrap(self, name: str, fn, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._failed(name, exc)
                raise
            finally:
                tracer._exit()

        return wrapper

    # ------------------------------------------------------ special wrappers

    def _wrap_quad(self, quad):
        tracer = self

        @functools.wraps(quad)
        def traced_quad(func, *args, **kwargs):
            if not tracer.enabled:
                return quad(func, *args, **kwargs)
            if tracer._parent() == "quadrature.oscillatory_tail":
                tracer.counts["quadrature.oscillatory_tail.blocks"] += 1
            cell = [0]

            def counted(*a):
                cell[0] += 1
                return func(*a)

            tracer._enter("quadrature.quad")
            try:
                return quad(counted, *args, **kwargs)
            finally:
                tracer.counts["quadrature.quad.evals"] += cell[0]
                tracer._exit()

        return traced_quad

    def _wrap_fft(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counted_fft(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if tracer.enabled:
                tracer.counts["grids.fft_points"] += _fft_points(name, a, out, args, kwargs)
                tracer.counts["grids.bytes_computed"] += int(np.asarray(a).nbytes + out.nbytes)
            return out

        return counted_fft

    def _before_csv(self, args, kwargs) -> None:
        rows = args[2] if len(args) > 2 else kwargs.get("rows")
        if hasattr(rows, "__len__"):
            self.counts["io.write_csv_atomic.rows"] += len(rows)

    def _before_text(self, args, kwargs) -> None:
        text = args[1] if len(args) > 1 else kwargs.get("text", "")
        size = len(text.encode("utf-8"))
        self.counts["io.bytes_written"] += size
        parent = self._parent()
        if parent in ("io.write_csv_atomic", "diffusion.SampleBatch.to_csv"):
            self.counts[parent + ".bytes"] += size

    def _before_levy(self, args, kwargs) -> None:
        n = args[2] if len(args) > 2 else kwargs.get("n", 0)
        self.counts["diffusion.sample_levy.samples"] += int(n)

    # -------------------------------------------------------- installation

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, (dict, list)):
            self._restore.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._restore.append((owner, key, vars(owner)[key], False))
            setattr(owner, key, value)

    def install(self) -> None:
        if self._restore:
            return
        from scipy.integrate import quad

        import selfsim.cli
        import selfsim.selftest
        from selfsim.diffusion import SampleBatch
        from selfsim.grids import Grid1D

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "selfsim" or name.startswith("selfsim.")]
        before = {
            "io.write_csv_atomic": self._before_csv,
            "io.atomic_write_text": self._before_text,
            "diffusion.sample_levy": self._before_levy,
        }
        wrappers = {}
        # the FFT modules' own bindings, and any selfsim binding of the same functions
        fft_owners = [(np.fft, _NUMPY_FFTS), (scipy.fft, _SCIPY_FFTS)]
        for owner, names in fft_owners:
            for name in names:
                fn = getattr(owner, name)
                wrappers.setdefault(id(fn), self._wrap_fft(fn, name))
        for mod in modules:
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    name = f"{_short(mod.__name__)}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(name, value, before.get(name))
        traced_quad = self._wrap_quad(quad)
        for mod in modules + [owner for owner, _ in fft_owners]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif value is quad:
                    self._set(mod, attr, traced_quad)

        # k and k_half share one span name: both recompute the wavenumbers
        for prop in ("k", "k_half"):
            self._set(Grid1D, prop, property(self._wrap("grids.Grid1D.k", vars(Grid1D)[prop].fget)))
        self._set(SampleBatch, "to_csv",
                  self._wrap("diffusion.SampleBatch.to_csv", vars(SampleBatch)["to_csv"]))

        handlers = selfsim.cli._HANDLERS
        for command in list(handlers):
            self._set(handlers, command, self._wrap(f"cli.{command}", handlers[command]))
        self._set(selfsim.cli, "_cmd_selftest", self._wrap("cli.selftest", selfsim.cli._cmd_selftest))

        cases = selfsim.selftest.CASES
        for i, case in enumerate(cases):
            wrapped = self._wrap(f"selftest.{case.case_id}", case.fn)
            self._set(cases, i, type(case)(case.case_id, case.title, wrapped))

    def uninstall(self) -> None:
        for owner, key, original, is_container in reversed(self._restore):
            if is_container:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore = []

    # ------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Per span name: calls, self and total seconds; per module self time."""
        per_name = {name: {"calls": self.counts[name + ".calls"], "self_s": self.self_s[name],
                           "total_s": self.total_s[name]} for name in self.self_s}
        per_module = defaultdict(float)
        for name, value in self.self_s.items():
            per_module[name.split(".", 1)[0]] += value
        return {"spans": per_name, "modules": dict(per_module), "counts": dict(self.counts)}
