"""The vectorized float formatter against repr, byte for byte."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from selfsim._shortest import csv_bytes


def _repr_csv(table):
    """Reference: repr of every cell, "," between cells, "\\n" after rows."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def _assert_matches_repr(values, width=4):
    """csv_bytes of ``values`` (and their ±1 ulp neighbours) equals repr's
    bytes; reported as the first few differing cells."""
    x = np.asarray(values, dtype=np.float64).ravel()
    bits = x.view(np.uint64)
    x = np.concatenate([x, (bits + np.uint64(1)).view(np.float64), (bits - np.uint64(1)).view(np.float64)])
    x = np.concatenate([x, np.zeros(-len(x) % width)]).reshape(-1, width)
    got, want = csv_bytes(x.T), _repr_csv(x)
    if got != want:
        cells = zip(got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b","))
        assert got == want, [pair for pair in cells if pair[0] != pair[1]][:5]


def test_random_bit_patterns_and_neighbours():
    # 2^20 patterns counting the neighbours: repr costs about 3 us for a
    # double with a large exponent, so more would take many seconds
    bits = np.random.default_rng(20261018).integers(0, 2**64, size=(1 << 20) // 3 + 1, dtype=np.uint64)
    _assert_matches_repr(bits.view(np.float64))


def test_short_decimals_and_neighbours():
    # few significant digits: the one-digit-shorter candidates and ties
    rng = np.random.default_rng(11)
    digits = rng.integers(1, 10 ** rng.integers(1, 17, 1 << 15), dtype=np.int64)
    exps = rng.integers(-340, 320, 1 << 15)
    _assert_matches_repr([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exps.tolist())])


def test_powers_of_two():
    powers = [2.0**i for i in range(-1074, 1024)]
    _assert_matches_repr(powers + [-p for p in powers])


def test_powers_of_ten():
    _assert_matches_repr([float(f"1e{i}") for i in range(-323, 309)])


def test_smallest_subnormals():
    assert csv_bytes(np.array([[5e-324, 1e-323, 5e-323]]).T) == b"5e-324,1e-323,5e-323\n"
    _assert_matches_repr(np.arange(1, 4097, dtype=np.uint64).view(np.float64))


def test_notation_boundaries():
    # fixed notation holds for decimal exponents -4 <= E < 16
    x = np.array([[1e-05, 0.0001, 9999999999999998.0, 1e16]])
    assert csv_bytes(x.T) == b"1e-05,0.0001,9999999999999998.0,1e+16\n"
    _assert_matches_repr([1e-05, 0.0001, 9.99999e-05, 0.000123, 9999999999999998.0, 1e16,
                          123456789012345.6, 1e15, 1e100, 1e-100, 1.5e300, -2.5e-300])


def test_integers_and_specials():
    ints = [float(sign * (2**i + d)) for i in range(61) for d in (-1, 0, 1) for sign in (1, -1)]
    rng = np.random.default_rng(5)
    ints += rng.integers(-2**60, 2**60, size=4096).astype(np.float64).tolist()
    _assert_matches_repr(ints)
    specials = np.array([[0.0, -0.0, math.nan, math.inf, -math.inf, -math.nan]])
    assert csv_bytes(specials.T) == b"0.0,-0.0,nan,inf,-inf,nan\n"


def test_layout_of_rows_and_strided_blocks():
    table = np.arange(12.0).reshape(3, 4) * 0.1
    assert csv_bytes(table[:, :1].T) == b"0.0\n0.4\n0.8\n"
    assert csv_bytes(table.T[::2].T) == _repr_csv(table.T[::2])
    assert csv_bytes(np.zeros((0, 3)).T) == b""


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(patterns):
    _assert_matches_repr(np.array(patterns, dtype=np.uint64).view(np.float64), width=3)
