"""selfsim: numerics for a 1D elastic continuum with power-law nonlocal coupling.

Everything rests on one operator, the nonlocal Laplacian with kernel
tau^-(1+delta), 0 < delta < 2, and its Fourier symbol -a_delta |k|^delta.
The library provides the closed forms it generates and an independent
numeric route for each:

* dispersion law and its defining integral        (params)
* operator application: quadrature and spectral   (operator)
* static Green's function, Poisson solves, and
  the regularized |k|^alpha kernel family         (statics)
* Cauchy evolution, wave kernels, causal and
  frequency-domain Green's functions              (dynamics)
* heavy-tailed diffusion, stable sampling,
  tail/moment diagnostics                         (diffusion)

``python -m selfsim.cli selftest`` runs the full acceptance suite.
"""

# the one version string: pyproject.toml and every JSON envelope read it
__version__ = "0.1.0"

from .errors import (
    AlphaOutOfRange,
    DeltaOutOfRange,
    EpsNonPositive,
    GridTooSmall,
    IoError,
    LOutOfGrid,
    NonPositiveScale,
    NonZeroMeanForce,
    NumericError,
    OriginSingular,
    PoleError,
    QuadratureNoConvergence,
    SelfsimError,
    SeriesBudgetExceeded,
    TimeNonPositive,
    ValidationError,
)
from .grids import ComplexField, Grid1D, RealField
from .params import (
    MediumParams,
    dispersion,
    dispersion_quadrature,
    factorial_ext,
    make_params,
)
from .operator import (
    flux_apply,
    frac_derivative_spectral,
    frac_kernel_y,
    laplacian_apply_point,
    laplacian_apply_spectral,
)
from .statics import (
    greens_prefactor,
    greens_static,
    laplacian_power_kernel,
    poisson_solve,
    riesz_kernel,
    riesz_tail_integral,
)
from .dynamics import (
    CauchyState,
    cauchy_evolve,
    energy,
    greens_retarded,
    helmholtz_green,
    helmholtz_symbol,
    wave_kernel_dt_fourier,
    wave_kernel_dt_series,
    wave_kernel_dt_spectral,
    wave_kernel_fourier,
    wave_kernel_series,
    wave_kernel_spectral,
)
from .diffusion import (
    SampleBatch,
    continuity_residual,
    diffuse,
    fit_tail_exponent,
    ks_distance,
    numeric_cdf,
    propagator,
    propagator_cauchy,
    propagator_quadrature,
    propagator_series,
    sample_levy,
    truncated_moment,
)
