"""Shortest round-trip decimal text of float64 arrays, byte-identical to repr.

``csv_bytes(columns)`` turns equal-length 1-D float64 arrays into CSV lines
(``,`` between cells, ``\\n`` after each row) whose cells are exactly
``repr(float(x))``, with no Python code per value.  The digits come from
Schubfach (Giulietti, *The Schubfach way to render doubles*, 2020; the
reference implementation is Java's ``DoubleToDecimal``): the shortest
decimal inside the rounding interval of each double, the closest one (ties
to even) when several are that short, computed with 64-bit integer
arithmetic alone.  That is the decimal David Gay's ``dtoa`` gives
``repr``.  Two departures from Java make it so: no two-digit minimum (Java
skips the one-digit-shorter candidates below ``s = 100`` and rescales the
tiniest subnormals by 10, so it prints ``4.9E-324`` where ``repr`` prints
``5e-324``), and Python's layout: fixed notation for decimal exponents
``-4 <= E < 16`` with ``.0`` on integral values, ``d[.ddd]e±XX``
otherwise, and ``-0.0``, ``nan``, ``inf``, ``-inf``.

Each value's text is assembled in four little-endian 64-bit lanes (an
8-byte prefix, 18 bytes of digits with the point inserted, 6 bytes of
suffix and separator) with NUL bytes where a part is shorter, a chunk of
rows in one ``(rows, width, 4)`` array written a column at a time; the
NULs are dropped from each chunk's bytes in one pass.

Unsigned and signed integer arrays never meet in one operation: numpy
promotes a ``uint64``/``int64`` pair to float64, under the legacy
value-based rules and under NEP 50 alike.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_bytes"]

_U = np.uint64
_I = np.int64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_T_MASK = _U((1 << 52) - 1)
_C_MIN = _U(1 << 52)
_SIGN = _U(1 << 63)
_INF_BITS = _U(0x7FF << 52)
_ONE_BITS = _U(0x3FF << 52)
_K_MIN, _K_MAX = -324, 292
_FIXED_LO, _FIXED_HI = -4, 15  # repr's fixed notation: -4 <= E <= 15
_NO_DOT = 17                   # dot-position index meaning "no point"

# rows formatted per chunk, a column per vectorized pass; bounds the
# temporaries alive at once
_CHUNK = 1 << 13


def _lane_masks(covers) -> list[int]:
    """The three 64-bit lanes of a byte mask over a string of up to 24
    bytes, covering byte j where ``covers(j)``."""
    return [sum(0xFF << 8 * b for b in range(8) if covers(8 * lane + b)) for lane in range(3)]


class _Tables:
    """Read-only lookup tables, built on first use (``_tables()``)."""

    def __init__(self):
        # Schubfach's g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 for
        # K_MIN <= k <= K_MAX, split as g = g1 2^63 + g0: g1, its 32-bit limbs
        # (low, high), g0 and its limbs
        rows = []
        for k in range(_K_MIN, _K_MAX + 1):
            shift = 125 - ((-k * 913124641741) >> 38)
            if k > 0:
                g = (1 << shift) // 10 ** k + 1
            else:
                g = (10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift) + 1
            g1, g0 = g >> 63, g & ((1 << 63) - 1)
            rows.append((g1, g1 & 0xFFFFFFFF, g1 >> 32, g0, g0 & 0xFFFFFFFF, g0 >> 32))
        self.g = [np.array(col, dtype=np.uint64) for col in zip(*rows)]
        # the 4 ASCII digits of 0..9999, byte 0 the first, and their trailing zeros
        text = [f"{i:04d}" for i in range(10000)]
        self.digits4 = np.frombuffer("".join(text).encode(), dtype="<u4")
        self.trailing_zeros4 = np.array([len(t) - len(t.rstrip("0")) for t in text], dtype=np.int64)
        self.pow10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
        # the prefix lane by 5 neg + lead: nothing, or "0." and lead - 1 zeros
        self.prefix = np.array([int.from_bytes((sign + lead).encode(), "little")
                                for sign in ("", "-")
                                for lead in ("", "0.", "0.0", "0.00", "0.000")], dtype=np.uint64)
        # by lane, for m = 0..17: the first m digits; and for a point after
        # digit a (a = 1..16, or none at _NO_DOT) the bytes before it, the
        # bytes after it and the point itself
        span = range(_NO_DOT + 1)
        self.keep = np.array([_lane_masks(lambda j: j < m) for m in span], dtype=np.uint64).T
        self.before = np.array([_lane_masks(lambda j: j < a) for a in span], dtype=np.uint64).T
        self.after = np.array([_lane_masks(lambda j: j > a) for a in span], dtype=np.uint64).T
        self.point = np.array([_lane_masks(lambda j: j == a < _NO_DOT) for a in span],
                              dtype=np.uint64).T & _U(int.from_bytes(b"." * 8, "little"))
        for table in [*self.g, self.digits4, self.trailing_zeros4, self.pow10, self.prefix,
                      self.keep, self.before, self.after, self.point]:
            table.flags.writeable = False


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _mul(a, a0, a1, b0, b1):
    """(high, low) 64-bit halves of a b for a < 2^63 with 32-bit limbs
    a0, a1 and b < 2^63 with limbs b0, b1 (Hacker's Delight's mulhu)."""
    t = ((a0 * b0) >> _U(32)) + a1 * b0
    u = (t & _M32) + a0 * b1
    return a1 * b1 + (t >> _U(32)) + (u >> _U(32)), a * (b0 | b1 << _U(32))


def _sub_shifted(hi, lo, a, s):
    """(high, low) of the 128-bit hi 2^64 + lo minus a 2^s, for a < 2^63
    and 1 <= s <= 63."""
    a_lo = a << s
    return hi - (a >> (_U(64) - s)) - (lo < a_lo), lo - a_lo


def _add_shifted(hi, lo, a, s):
    """(high, low) of hi 2^64 + lo plus a 2^s."""
    a_lo = a << s
    lo = lo + a_lo
    return hi + (a >> (_U(64) - s)) + (lo < a_lo), lo


def _rop(y1, y0, x1):
    """Schubfach's r_o'(cp g 2^-127) from y = g1 cp = y1 2^64 + y0 and the
    high half x1 of g0 cp, as Java's DoubleToDecimal.rop: the integer part,
    made odd when the fraction's bits down to 2^-63 are not all zero."""
    z = (y0 >> _U(1)) + x1
    vbp = y1 + (z >> _U(63))
    z &= _M63
    z += _M63
    return vbp | (z >> _U(63))


def _decimals(mag, tables):
    """(f, k) with f 10^k the shortest decimal in the rounding interval of
    each positive finite double (bits in ``mag``), the closest one if
    several are that short; f is uint64 and k int64."""
    bq = (mag >> _U(52)).astype(np.int64)
    t = mag & _T_MASK
    c = t | _C_MIN * (bq != 0)
    q = np.maximum(bq, 1) - 1075
    irregular = (t == _U(0)) & (bq > 1)           # the next double down is closer
    # floor(q log10 2), or floor(log10(3/4 2^q)) for irregular spacing
    k = (q * _I(661971961083) - irregular * _I(274743187321)) >> _I(41)
    # h = q + floor(-k log2 10) + 2, in 2..5
    h = (q + ((-k * _I(913124641741)) >> _I(38)) + _I(2)).astype(np.uint64)
    index = k - _K_MIN
    g1, g1lo, g1hi, g0, g0lo, g0hi = (col[index] for col in tables.g)
    # v = c 2^q and its interval ends scaled by 4 10^-k: rop of g cp 2^-127
    # for cp = 4c 2^h (vb), (4c - 2) 2^h or (4c - 1) 2^h (vbl), (4c + 2) 2^h
    # (vbr); the products for the ends are the centre's minus or plus g 2^s
    cp = c << (h + _U(2))
    c0, c1 = cp & _M32, cp >> _U(32)
    y1, y0 = _mul(g1, g1lo, g1hi, c0, c1)
    x1, x0 = _mul(g0, g0lo, g0hi, c0, c1)
    vb = _rop(y1, y0, x1)
    s_r = h + _U(1)
    s_l = s_r - irregular
    vbl = _rop(*_sub_shifted(y1, y0, g1, s_l), _sub_shifted(x1, x0, g0, s_l)[0])
    vbr = _rop(*_add_shifted(y1, y0, g1, s_r), _add_shifted(x1, x0, g0, s_r)[0])
    out = c & _U(1)
    vbl += out
    vbr -= out
    s = vb >> _U(2)
    # one digit shorter: u' = sp10 10^k or w' = (sp10 + 10) 10^k, if one alone
    # is in the interval; else u = s 10^k or w = (s + 1) 10^k, the closer if
    # both are, ties to even
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    closer_s = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))
    pick_s = np.where(uin ^ win, uin, closer_s)
    f = np.where(upin ^ wpin, sp10 + _U(10) * wpin, s + ~pick_s)
    return f, k


def _lanes(x, sep, tables, lanes) -> None:
    """Into ``lanes``, ``(len(x), 4)`` little-endian uint64: repr's text of
    each value of the 1-D float64 array x and the separator byte ``sep``
    after it, with NUL bytes where a part of the text is shorter than its
    lanes."""
    bits = x.view(np.uint64)
    neg = (bits >> _U(63)).astype(np.intp)
    mag = bits & ~_SIGN
    nonfinite = mag >= _INF_BITS
    zero = mag == _U(0)
    special = nonfinite | zero
    if special.any():
        mag[special] = _ONE_BITS                   # laid out as 1.0, patched below
    f, k = _decimals(mag, tables)

    # the 17 digits of f scaled to start with a nonzero one, as three lanes
    n_len = np.searchsorted(tables.pow10, f, side="right")
    exp10 = k + (n_len - 1)                        # of the first digit
    f *= tables.pow10[17 - n_len]
    top = f // _U(10 ** 16)
    f -= top * _U(10 ** 16)
    hi8 = f // _U(10 ** 8)
    lo8 = f - hi8 * _U(10 ** 8)
    groups = [hi8 // _U(10 ** 4), None, lo8 // _U(10 ** 4), None]
    groups[1] = hi8 - groups[0] * _U(10 ** 4)
    groups[3] = lo8 - groups[2] * _U(10 ** 4)
    groups = [g.astype(np.intp) for g in groups]
    v0, v1, v2, v3 = (tables.digits4[g].astype(np.uint64) for g in groups)
    d0 = (top + _U(ord("0"))) | (v0 << _U(8)) | (v1 << _U(40))
    d1 = (v1 >> _U(24)) | (v2 << _U(8)) | (v3 << _U(40))
    d2 = v3 >> _U(24)
    tz4 = [tables.trailing_zeros4[g] for g in groups]
    tz = tz4[3] + (groups[3] == 0) * (tz4[2] + (groups[2] == 0) * (
        tz4[1] + (groups[1] == 0) * tz4[0]))
    ndig = 17 - tz
    if special.any():
        d0[zero] = ord("0")

    # repr's layout: fixed notation for -4 <= E <= 15, else scientific
    fixed = (exp10 >= _FIXED_LO) & (exp10 <= _FIXED_HI)
    integral = fixed & (ndig <= exp10 + 1)
    shown = np.where(integral, exp10 + 1, ndig)
    dot = np.where(fixed, exp10 + 1, 1)
    dot[(dot <= 0) | (dot >= ndig)] = _NO_DOT
    lead = (fixed & (exp10 < 0)) * -exp10
    abs_exp = np.abs(exp10)
    wide = (abs_exp >= 100) * _U(8)                # a 3-digit exponent
    suffix = (tables.digits4[abs_exp].astype(np.uint64) >> (_U(16) - wide)) << _U(16)
    suffix |= np.where(exp10 < 0, _U(ord("e") | ord("-") << 8), _U(ord("e") | ord("+") << 8))
    suffix[fixed] = integral[fixed] * _U(ord(".") | ord("0") << 8)
    suffix |= sep << np.where(fixed, integral * _U(16), wide + _U(32))

    # the digits shown, then the point inserted: bytes after it move up one
    d0 &= tables.keep[0][shown]
    d1 &= tables.keep[1][shown]
    d2 &= tables.keep[2][shown]
    before, after, point = tables.before, tables.after, tables.point
    lanes[:, 0] = tables.prefix[neg * 5 + lead]
    lanes[:, 1] = (d0 & before[0][dot]) | ((d0 << _U(8)) & after[0][dot]) | point[0][dot]
    lanes[:, 2] = ((d1 & before[1][dot]) | (((d1 << _U(8)) | (d0 >> _U(56))) & after[1][dot])
                   | point[1][dot])
    lanes[:, 3] = ((d2 & before[2][dot]) | (((d2 << _U(8)) | (d1 >> _U(56))) & after[2][dot])
                   | point[2][dot] | (suffix << _U(16)))
    if nonfinite.any():
        rows = np.flatnonzero(nonfinite)
        is_nan = x[rows] != x[rows]
        lanes[rows, 0] = np.where(is_nan | (neg[rows] == 0), _U(0), _U(ord("-")))
        lanes[rows, 1] = np.where(is_nan, _U(int.from_bytes(b"nan", "little")),
                                  _U(int.from_bytes(b"inf", "little")))
        lanes[rows, 2] = _U(0)
        lanes[rows, 3] = sep << _U(16)


def csv_bytes(columns) -> bytes:
    """CSV lines of equal-length 1-D float64 arrays, one per column (strided
    views too): each cell as repr gives it, ``,`` between cells and ``\\n``
    after each row, the last row included."""
    tables = _tables()
    width, n_rows = len(columns), len(columns[0])
    parts = []
    for lo in range(0, n_rows, _CHUNK):
        hi = min(lo + _CHUNK, n_rows)
        lanes = np.empty((hi - lo, width, 4), dtype="<u8")
        for j, column in enumerate(columns):
            _lanes(column[lo:hi], _U(ord("\n" if j == width - 1 else ",")), tables, lanes[:, j])
        parts.append(lanes.tobytes().translate(None, b"\0"))
    return b"".join(parts)
