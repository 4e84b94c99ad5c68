"""Uniform grids, sampled fields, and the one spectral path.

Periodic spectral approximation of operators defined on the infinite line:
the caller is responsible for choosing a grid wide enough that wrap-around
contamination in the region of interest is below tolerance (a "guard band").

Every spectral capability is one multiplication by a symbol S(k) sampled
on the nonnegative wavenumbers k_j = 2*pi*j/(n*dx), j = 0..n//2
(``Grid1D.k_half``, the rfft layout), done with real FFTs:

* apply_symbol() multiplies the transform of a field by a Hermitian symbol;
* sample_kernel() synthesizes (1/2pi) int S(k) exp(i k x) dk on the grid
  from the samples of an even symbol.

Centered grids (x_min = -(n//2) dx) make the kernel phase factor the real
sequence (-1)^j: sample_kernel negates the odd entries of one working copy
of the symbol in place, and a complex symbol with an all-zero imaginary
part costs one inverse transform, not two.

Importing this module sets two glibc allocator thresholds for the whole
process, once: M_MMAP_THRESHOLD to 64 MiB and M_TRIM_THRESHOLD to 128 MiB.
With glibc's adaptive defaults, the scratch of every large transform is
handed back to the kernel after the call and faulted in again, page by
page, by the next one (about 4,000 minor faults per 2^20-point irfft,
some 10 ms of a 25-30 ms transform on a 2-core x86-64 machine with
glibc 2.36).  With both set, freed blocks under
64 MiB stay in the heap, and up to 128 MiB of free heap is kept before
it is trimmed, so repeated transforms on one grid reuse resident pages.
Both are set or neither: either one alone switches the adaptive rule off
and faults more than the defaults do.  Where the C library has no
mallopt (not glibc), nothing is set.
"""

from __future__ import annotations

import ctypes
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


def _trim_free_heap() -> None:
    """Hand the free heap back to the kernel (glibc's malloc_trim(0)); where
    the C library has no malloc_trim, nothing."""
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is None:
        return
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    trim(0)


_keep_fft_scratch_resident()


@dataclass(frozen=True)
class Grid1D:
    """Uniform sampling grid: x_j = x_min + j*dx for j = 0..n-1."""

    x_min: float
    dx: float
    n: int

    def __post_init__(self):
        if self.dx <= 0.0 or not np.isfinite(self.dx):
            raise NonPositiveScale(f"dx must be > 0, got {self.dx}")
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
        j = int(round((x - self.x_min) / self.dx))
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
        object.__setattr__(self, "values", _check_values(self.grid, self.values, "values").astype(float))

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
        object.__setattr__(self, "values", _check_values(self.grid, self.values, "values").astype(complex))

    def value_near(self, x: float) -> complex:
        return complex(self.values[self.grid.index_near(x)])


def _check_symbol_half(grid: Grid1D, symbol_half) -> np.ndarray:
    symbol_half = np.asarray(symbol_half)
    if symbol_half.shape != (grid.n // 2 + 1,):
        raise ValidationError(
            f"symbol_half must have shape ({grid.n // 2 + 1},), got {symbol_half.shape}"
        )
    return symbol_half


def apply_symbol(f: RealField, symbol_half: np.ndarray) -> RealField:
    """Inverse transform of S(k) * transform(f), S sampled on grid.k_half.

    S must be Hermitian (S(-k) = conj S(k)), so the output is real and the
    nonnegative half of the spectrum determines it.  The x_min phases
    cancel for diagonal multipliers.
    """
    g = f.grid
    symbol_half = _check_symbol_half(g, symbol_half)
    return RealField(g, np.fft.irfft(np.fft.rfft(f.values) * symbol_half, n=g.n))


def _shifted_irfft(grid: Grid1D, part: np.ndarray) -> np.ndarray:
    """irfft of (-1)^j part_j, divided by dx; the caller's array is not written."""
    spec = np.array(part, dtype=float)
    spec[1::2] *= -1.0
    out = np.fft.irfft(spec, n=grid.n)
    out /= grid.dx
    return out


def sample_kernel(grid: Grid1D, symbol_half: np.ndarray):
    """Sample (1/2pi) int S(k) e^{ikx} dk on the grid from S(k_j), j >= 0.

    ``symbol_half`` holds the rfft-layout samples of an even symbol
    (S(-k) = S(k)); real symbols give real kernels, complex ones give
    complex kernels (real and imaginary parts transformed separately; a
    complex symbol whose imaginary part is all zero takes one transform
    and returns an imaginary part of +0.0).  Requires a centered grid so
    the shift phase is the real sequence (-1)^j, applied by negating the
    odd entries of a working copy.
    """
    if not grid.is_centered:
        raise ValidationError("kernel synthesis requires a centered grid")
    if grid.n % 2:
        # the (-1)^j shift phase below is exact only for even point counts
        raise ValidationError("kernel synthesis requires an even point count")
    symbol_half = _check_symbol_half(grid, symbol_half)
    if not np.iscomplexobj(symbol_half):
        return _shifted_irfft(grid, symbol_half)
    re = _shifted_irfft(grid, symbol_half.real)
    if not symbol_half.imag.any():
        return re + 0j
    return re + 1j * _shifted_irfft(grid, symbol_half.imag)
