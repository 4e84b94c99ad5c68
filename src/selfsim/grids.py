"""Uniform grids, sampled fields, and the one spectral path.

Periodic spectral approximation of operators defined on the infinite line:
a kernel synthesized on a grid of length L is the periodic sum of its
images, sum_m K(x + m L), and the |x|^(-1-delta) tails make the images
fall off only like L^(-1-delta).  The caller chooses a grid wide enough
that this wrap-around is below tolerance where it reads (a "guard band"),
or, for the propagator, subtracts the images in closed form
(``propagator(..., line=True)``, by ``quadrature.image_series``).

Every spectral capability is one multiplication by a symbol S(k) sampled
on the nonnegative wavenumbers k_j = 2*pi*j/(n*dx), j = 0..n//2
(``Grid1D.k_half``, the rfft layout), done with real FFTs:

* apply_symbol() multiplies the transform of a field by a Hermitian symbol;
* sample_kernel() synthesizes (1/2pi) int S(k) exp(i k x) dk on the grid
  from the samples of an even symbol.

On a centered grid (x_min = -(n//2) dx) the kernel of an even symbol is
even, and its samples K[M +- j] (M = n//2) are y_j/(n dx), y the type-I
cosine transform of the M + 1 symbol samples.  sample_kernel writes
y_M..y_0 into the lower half of the output and mirrors them, on every
grid, so every kernel is exactly even.  The transform is one real FFT of
n points, except that while M is a multiple of 4 above 2^15 it is split
in two: the even y are the same transform of x_m + x_{M-m} (M/2 + 1
points, split again), the odd y a type-III cosine transform of
x_m - x_{M-m} (M/2 points), done by one real FFT of M/2 points after a
unit twiddle (Makhoul 1980; FFTW's split of REDFT00).  Split, the
transforms cover about half the points of one n-point transform.  A real
symbol costs one synthesis, a complex one two, written into the real and
imaginary parts of the one output.

Around the transforms, a spectral call spreads its elementwise work over
two cores: the caller and one helper thread, which the call starts and
joins before it returns (_beside), so no thread outlives it.  A symbol
is evaluated by halves, one half on each thread, into one preallocated
array (_by_halves); apply_symbol evaluates a symbol given as a function
on the helper while the caller takes the forward transform, and the
spectrum times the symbol by halves.  Only elementwise work is split:
every FFT and every sum runs on the caller with the inputs it would have
alone, so every output bit is the same with the helper on or off.  The
helper calls numpy only, on arrays the caller hands it, and never a
selfsim function, an FFT or Grid1D.k/k_half (a tracer that wraps those
needs no locks).  Nor does it allocate an array: every array it writes,
work arrays included, is allocated by the caller before the helper
starts, so that the caller's heap holds the same blocks in the same
places whichever thread runs first (see below).  The helper is off below
_HELPER_MIN wavenumbers (2^17; the CLI's default 2^16-point grids never
split), and where the process may run on one core only.

Importing this module sets two glibc allocator thresholds for the whole
process, once: M_MMAP_THRESHOLD to 64 MiB and M_TRIM_THRESHOLD to 128 MiB.
With glibc's adaptive defaults, the scratch of every large transform is
handed back to the kernel after the call and faulted in again, page by
page, by the next one (about 4,000 minor faults per 2^20-point irfft,
some 10 ms of a 25-30 ms transform on a 2-core x86-64 machine with
glibc 2.36).  With both set, freed blocks under 64 MiB stay in the heap,
and up to 128 MiB of free heap is kept before it is trimmed, so repeated
transforms on one grid reuse resident pages.  Both are set or neither:
either one alone switches the adaptive rule off and faults more than the
defaults do.  Where the C library has no mallopt (not glibc), nothing is
set.  A worker that io forks to format CSV rows hands the free heap it
inherits back to the kernel before it starts.  glibc gives the helper
thread an arena of its own, where only its few small allocations (ufunc
buffers, thread state) land.  M_ARENA_MAX = 1 would put those on the
caller's heap in whatever order the two threads run, and 1 to 3 in 10
runs of the fields benchmark then peaked 4 MB higher (214 against 210 MB
on that machine).
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooSmall, NonPositiveScale, ValidationError

__all__ = [
    "Grid1D",
    "RealField",
    "ComplexField",
    "apply_symbol",
    "sample_kernel",
]

MIN_POINTS = 8

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Below this many values a spectral call does all its elementwise work on
# the caller.  Starting and joining a thread costs about 0.1 ms; on a
# 2-core x86-64 machine, with every call split, propagator and
# wave_kernel_dt_spectral on 2^16 + 1 wavenumbers ran 23-25% slower than
# alone, while from 2^17 + 1 wavenumbers on, with this bound, every
# spectral route ran 3-31% faster
_HELPER_MIN = 1 << 17
# Halves split at a multiple of this many values, so that each half starts
# on a 64-byte line, as the whole array does
_HALF_ALIGN = 64


try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):  # no C library to load by name
    _LIBC = None


def _keep_fft_scratch_resident() -> None:
    """Raise glibc's mmap and trim thresholds; see the module docstring."""
    mallopt = getattr(_LIBC, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a C library that refuses the mmap threshold keeps its adaptive rule,
    # which a trim threshold alone would switch off
    if mallopt(_M_MMAP_THRESHOLD, 64 << 20):
        mallopt(_M_TRIM_THRESHOLD, 128 << 20)


_keep_fft_scratch_resident()


def _cores() -> int:
    """How many cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper_on(size: int) -> bool:
    """Whether elementwise work on ``size`` values goes half to a helper
    thread: not below _HELPER_MIN values, and not where this process may
    run on one core only."""
    return size >= _HELPER_MIN and _cores() > 1


def _beside(side, main, size: int):
    """Run side() on a helper thread while main() runs here; main()'s result.

    side calls numpy only, on arrays the caller hands it (see the module
    docstring), under the caller's floating-point error state.  The helper
    is joined before this returns, also when either function raises.  With
    the helper off (``_helper_on(size)`` false) side() runs here, first.
    """
    if not _helper_on(size):
        side()
        return main()
    errors = np.geterr()
    raised = []

    def run():
        try:
            with np.errstate(**errors):
                side()
        except BaseException as exc:  # re-raised on the caller
            raised.append(exc)

    helper = threading.Thread(target=run, name="selfsim-helper")
    try:
        helper.start()
    except RuntimeError:  # no thread to be had: all of it here
        side()
        return main()
    try:
        result = main()
    finally:
        helper.join()
    if raised:
        raise raised[0]
    return result


def _by_halves(fn, *arrays) -> None:
    """fn(*parts) on the first and the second half of equally long arrays,
    one half on the helper (see _beside); fn(*arrays) once with it off.

    fn must be elementwise: each output value depends on the input values
    at its own index only, so every value is the same either way.
    """
    size = len(arrays[0])
    if not _helper_on(size):
        fn(*arrays)
        return
    mid = size // 2 // _HALF_ALIGN * _HALF_ALIGN
    _beside(lambda: fn(*(a[mid:] for a in arrays)), lambda: fn(*(a[:mid] for a in arrays)), size)


def _sample_symbol(symbol, k: np.ndarray, *arrays, dtype=float, scratch=()) -> np.ndarray:
    """S(k) by halves (_by_halves): ``symbol(k, *arrays, out, *work)`` writes
    S(k) into out, a new array of ``dtype``, with numpy only; ``work`` are
    arrays of the dtypes ``scratch`` names, allocated here with out, which
    it may overwrite."""
    out = np.empty(k.shape, dtype=dtype)
    _by_halves(symbol, k, *arrays, out, *(np.empty(k.shape, dtype=d) for d in scratch))
    return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform sampling grid: x_j = x_min + j*dx for j = 0..n-1."""

    x_min: float
    dx: float
    n: int

    def __post_init__(self):
        if self.dx <= 0.0 or not np.isfinite(self.dx):
            raise NonPositiveScale(f"dx must be > 0, got {self.dx}")
        if not np.isfinite(self.x_min):
            raise ValidationError(f"x_min must be finite, got {self.x_min}")
        if not isinstance(self.n, (int, np.integer)):
            raise ValidationError(f"n must be an integer, got {self.n!r}")
        if self.n < MIN_POINTS:
            raise GridTooSmall(f"need at least {MIN_POINTS} points, got {self.n}")

    @classmethod
    def centered(cls, n: int, dx: float) -> "Grid1D":
        """Grid symmetric about the origin; x = 0 sits at index n//2."""
        return cls(x_min=-(n // 2) * dx, dx=dx, n=n)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        """Angular wavenumbers in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @property
    def k_half(self) -> np.ndarray:
        """Nonnegative wavenumbers (rfft layout)."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def is_centered(self) -> bool:
        return self.x_min == -(self.n // 2) * self.dx

    def index_near(self, x: float) -> int:
        """Index of the grid point closest to x."""
        offset = (x - self.x_min) / self.dx
        j = int(round(offset)) if np.isfinite(offset) else -1
        if not 0 <= j < self.n:
            raise ValidationError(f"x = {x} falls outside the grid")
        return j

    def sample(self, fn) -> "RealField":
        return RealField(self, np.asarray(fn(self.x), dtype=float))


def _check_values(grid: Grid1D, values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValidationError(f"{name} must have shape ({grid.n},), got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} contains non-finite samples")
    return values


@dataclass(frozen=True)
class RealField:
    """Real samples over a Grid1D."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(_check_values(self.grid, self.values, "values"), dtype=float))

    def mass(self) -> float:
        """Discrete integral sum(values) * dx."""
        return float(np.sum(self.values) * self.grid.dx)

    def value_near(self, x: float) -> float:
        return float(self.values[self.grid.index_near(x)])


@dataclass(frozen=True)
class ComplexField:
    """Complex samples over a Grid1D (e.g. frequency-domain Green's function)."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(_check_values(self.grid, self.values, "values"), dtype=complex))

    def value_near(self, x: float) -> complex:
        return complex(self.values[self.grid.index_near(x)])


def _check_symbol_half(grid: Grid1D, symbol_half) -> np.ndarray:
    symbol_half = np.asarray(symbol_half)
    if symbol_half.shape != (grid.n // 2 + 1,):
        raise ValidationError(
            f"symbol_half must have shape ({grid.n // 2 + 1},), got {symbol_half.shape}"
        )
    return symbol_half


def apply_symbol(f: RealField, symbol_half) -> RealField:
    """Inverse transform of S(k) * transform(f), S sampled on grid.k_half.

    S must be Hermitian (S(-k) = conj S(k)), so the output is real and the
    nonnegative half of the spectrum determines it.  The x_min phases
    cancel for diagonal multipliers.  ``symbol_half`` holds the samples,
    or is a function ``symbol(k, out)`` that writes a real S(k) into out
    with numpy only; it is then evaluated beside the forward transform, on
    the helper thread where that is on (see the module docstring).
    """
    g = f.grid
    if callable(symbol_half):
        k = g.k_half
        symbol = np.empty_like(k)
        spectrum = _beside(lambda: symbol_half(k, symbol), lambda: np.fft.rfft(f.values), k.size)
        del k
    else:
        symbol = _check_symbol_half(g, symbol_half)
        spectrum = np.fft.rfft(f.values)
    _by_halves(np.multiply, spectrum, symbol, spectrum)
    # freed before the inverse transform, whose output can then take the
    # block the wavenumbers and the symbol held
    del symbol
    return RealField(g, np.fft.irfft(spectrum, n=g.n))


def _splits(m: int) -> bool:
    """Whether the cosine transform of m + 1 points is split (see the module docstring)."""
    return m % 4 == 0 and m > 1 << 15


def _twiddles(count: int, m: int, scale: float) -> np.ndarray:
    """scale * e^{i pi k/m} for k < count, as products of a coarse and a fine table."""
    fine = np.exp((1j * np.pi / m) * np.arange(1 << (count.bit_length() // 2)))
    coarse = np.exp((1j * np.pi * fine.size / m) * np.arange(-(-count // fine.size)))
    coarse *= scale
    return np.multiply.outer(coarse, fine).ravel()[:count]


def _odd_input(x: np.ndarray, tw: np.ndarray, w: np.ndarray) -> None:
    """w_k = tw_k (z_k - i z_{M/2-k}), k = 0..M/4, with z_j = x_j - x_{M-j},
    into w: its real FFT of M/2 points holds the odd outputs of _dct1."""
    m = x.size - 1
    half, quarter = m // 2, m // 4
    np.subtract(x[: quarter + 1], x[m : m - quarter - 1 : -1], out=w.real)
    np.subtract(x[half : half + quarter + 1], x[half : quarter - 1 : -1], out=w.imag)
    w *= tw[: quarter + 1]


def _place_odd(v: np.ndarray, out: np.ndarray) -> None:
    """The outputs 4j + 1 of _dct1, held by v in order, and 4j + 3, in reverse."""
    quarter = v.size // 2
    out[1::4] = v[:quarter]
    out[3::4] = v[: quarter - 1 : -1]


def _dct1(x: np.ndarray, out: np.ndarray, tw: np.ndarray | None, scale: float) -> None:
    """out[j] = scale (x_0 + (-1)^j x_M + 2 sum_{0<m<M} x_m cos(pi m j/M)), j = 0..M.

    M = x.size - 1 and tw[k] = scale e^{i pi k/M} (None where the
    transform does not split).  Split, the even outputs are this transform
    of x_m + x_{M-m} and the odd ones one real FFT of M/2 points (see the
    module docstring); otherwise one real FFT of 2M points.  While a split
    level's real FFT runs here, the helper (_beside) places the odd outputs
    of the level before, and folds x into the next level's input and builds
    that level's FFT input from it, into arrays allocated here.
    """
    odd = None  # the level before's odd outputs, and the output they go into
    w = None
    if _splits(x.size - 1):
        w = np.empty((x.size - 1) // 4 + 1, dtype=complex)
        _odd_input(x, tw, w)
    while w is not None:
        m = x.size - 1
        half = m // 2
        even = np.empty(half + 1)
        w_next = np.empty(half // 4 + 1, dtype=complex) if _splits(half) else None

        def fold():
            if odd is not None:
                _place_odd(*odd)
            np.add(x[: half + 1], x[m : half - 1 : -1], out=even)
            if w_next is not None:
                _odd_input(even, tw[::2], w_next)

        v = _beside(fold, lambda: np.fft.irfft(w, n=half, norm="forward"), x.size)
        x, w, odd = even, w_next, (v, out)
        out, tw = out[::2], tw[::2]
    if odd is not None:
        _place_odd(*odd)
    m = x.size - 1
    np.multiply(np.fft.irfft(x, n=2 * m, norm="forward")[: m + 1], scale, out=out)


def sample_kernel(grid: Grid1D, symbol_half: np.ndarray):
    """Sample (1/2pi) int S(k) e^{ikx} dk on the grid from S(k_j), j >= 0.

    ``symbol_half`` holds the rfft-layout samples of an even symbol
    (S(-k) = S(k)); real symbols give real kernels, complex ones give
    complex kernels, whose real and imaginary parts are synthesized
    separately into the one output.  Requires a centered grid with an
    even point count; see the module docstring for the cosine transform
    and its split.  The kernel is exactly even, and the caller's array
    is not written.
    """
    if not grid.is_centered:
        raise ValidationError("kernel synthesis requires a centered grid")
    if grid.n % 2:
        # the mirror K[M + j] = K[M - j] covers the grid only for even point counts
        raise ValidationError("kernel synthesis requires an even point count")
    symbol_half = _check_symbol_half(grid, symbol_half)
    n, m = grid.n, grid.n // 2
    scale = 1.0 / (n * grid.dx)
    # the output before the twiddles: built after them, it lands above their
    # block once freed, and the heap of a 2^20 synthesis peaks 2 MB higher
    out = np.empty(n, dtype=complex if np.iscomplexobj(symbol_half) else float)
    tw = _twiddles(m // 4 + 1, m, scale) if _splits(m) else None
    parts = [(symbol_half.real, out.real)]
    if np.iscomplexobj(symbol_half):
        parts.append((symbol_half.imag, out.imag))
    for part, kernel in parts:
        # y_j is K[m - j] for j = 0..m, and K[m + j] = K[m - j]
        _dct1(np.asarray(part, dtype=float), kernel[m::-1], tw, scale)
        kernel[m + 1 :] = kernel[m - 1 : 0 : -1]
    return out
