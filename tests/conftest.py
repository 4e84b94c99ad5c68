import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from selfsim import Grid1D, make_params

# Property tests draw delta across the band 0 < delta < 2.  Examples are
# derandomized so every run checks the same exponents, and few enough that
# the suite's wall time stays flat.  The fixtures they share are immutable
# grids and fields, so reusing one across examples is safe.
settings.register_profile(
    "band",
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("band")


@pytest.fixture
def params_half():
    return make_params(0.5, 1.0, 1.0)


@pytest.fixture
def params_one():
    return make_params(1.0, 1.0, 1.0)


@pytest.fixture
def params_three_halves():
    return make_params(1.5, 1.0, 1.0)


@pytest.fixture
def small_grid():
    return Grid1D.centered(2048, 0.05)


@pytest.fixture
def gaussian_field(small_grid):
    return small_grid.sample(lambda x: np.exp(-x * x))


# numpy.fft's transforms, forward and inverse
_FFTS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2", "rfft2", "irfft2",
         "fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def fft_calls(monkeypatch):
    """The name of every numpy.fft transform called, in call order."""
    calls = []

    def counting(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for name in _FFTS:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls
