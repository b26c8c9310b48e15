"""Exact vectorised rendering of float64 arrays as "%.17g" text.

Every report and CSV file writes floats at 17 significant digits, the
shortest width that round-trips every double. CPython's "%.17g" takes
0.6-1.0 us per value (dtoa's bignum path); this module renders whole arrays
at a time and gives the same bytes.

Digits. Write |x| = m 2^E with m in [0.5, 1) and take k = 16 - floor(log10|x|),
so V = |x| 10^k lies in [1e16, 1e17) and the digits are rint(V). 10^k is
held as a double-double (H_k + L_k) 2^B_k, and Dekker's TwoProduct forms
m H_k exactly, so V = P + r with P an even integer >= 2^53 and r small; a
cached power of ten scales the value as in Grisu (Loitsch, PLDI 2010) and
Ryu printf (Adams, OOPSLA 2019). For k in [0, 22] 10^k is a double, L_k = 0,
V is exact and rint(r) breaks ties half-even as "%.17g" does. For other k
the error in V is below 1e-14. A value whose r lies within 1e-12 of a
half-integer, or whose V lies within 1e-12 of 1e16 or 1e17, is uncertified:
only such a value is formatted by "%.17g" itself.

Layout. Each value fills 32 bytes, four little-endian 64-bit words, in
"%g" order: the sign, "0." and leading zeros below 1, the 17 digits, the
exponent and two bytes of separator. Unused bytes are 0. The point is put in
by moving the digits after it up one byte. The rows of several columns sit
side by side, _CHUNK values at a time, with the separator bytes left at 0.
ORing "," and the line end into them and dropping the zeros with
bytes.translate gives whole CSV rows; ORing ", " into a copy of one
column's slots gives that column as a JSON array's text. csv yields the rows
and returns the joined text of the columns asked for, so one rendering of a
column feeds both its CSV rows and its JSON text; join is csv of one column
with ", " for the line end.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

__all__ = ["csv", "join"]

_CHUNK = 16384
# error allowance of the double-double product outside the exact range
_TOL = 1e-12
# k = 16 - floor(log10|x|) for finite nonzero doubles, with one step of
# correction either way: |x| spans 10^-324 .. 10^308
_KMIN, _KMAX = -293, 341
_XMIN, _XMAX = -324, 308
_E16, _E17 = 10**16, 10**17
_U64 = np.dtype("<u8")
_8, _32, _56 = (np.uint64(s) for s in (8, 32, 56))


class _Tables(NamedTuple):
    Hh: np.ndarray      # 10^k = (H + L) 2^B, k = _KMIN.., with H = Hh + Hl
    Hl: np.ndarray
    H: np.ndarray
    L: np.ndarray
    B: np.ndarray
    pow2: np.ndarray    # 2.0^s
    digits: np.ndarray  # the four ASCII digits of 0..9999, first in the low byte
    tz: np.ndarray      # their trailing zeros (4 for 0)
    first: np.ndarray   # first digit 0..9 at byte 7
    lead: np.ndarray    # per decimal exponent X - _XMIN: "0." and zeros below 1
    expo: np.ndarray    # per X - _XMIN: "e+XX" of scientific form at byte 25
    keep1: np.ndarray   # per count of digits kept: the bytes of word 1, word 2
    keep2: np.ndarray
    low1: np.ndarray    # per point byte p: the bytes of word 1, word 2 below p
    low2: np.ndarray
    dot1: np.ndarray    # per p: the point, if it falls in word 1, word 2
    dot2: np.ndarray


def _at(text: bytes, byte: int) -> int:
    """text placed from byte `byte` of a little-endian word."""
    return int.from_bytes(text, "little") << 8 * byte


def _split(a: np.ndarray) -> tuple:
    """Veltkamp's split of a into two halves of at most 26 bits each."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


def _low(c: int) -> int:
    """The low c bytes of a word, c clipped to 0..8."""
    return (1 << 8 * min(max(c, 0), 8)) - 1


@functools.cache
def _tables() -> _Tables:
    """The scaling and layout tables, built on first use."""
    H, L, B = [], [], []
    for k in range(_KMIN, _KMAX + 1):
        p = Fraction(10) ** k
        b = p.numerator.bit_length() - p.denominator.bit_length() + 1
        v = p / Fraction(2) ** b
        if v < 0.5:
            b, v = b - 1, v * 2
        H.append(float(v))
        L.append(float(v - Fraction(H[-1])))
        B.append(b)
    n = np.arange(10000)
    tz = (n % 10 == 0).astype(np.int64) + (n % 100 == 0) + (n % 1000 == 0)
    tz[0] = 4
    X = range(_XMIN, _XMAX + 1)
    P = range(33)
    words = {
        "digits": sum((48 + n // 10 ** (3 - j) % 10) << 8 * j for j in range(4)),
        "first": [_at(b"%d" % d, 7) for d in range(10)],
        "lead": [_at(b"0." + b"0" * (-x - 1), 1) if -4 <= x < 0 else 0 for x in X],
        "expo": [0 if -4 <= x < 17 else _at(b"e%+03d" % x, 1) for x in X],
        "keep1": [_low(c - 1) for c in range(18)],
        "keep2": [_low(c - 9) for c in range(18)],
        "low1": [_low(p - 8) for p in P],
        "low2": [_low(p - 16) for p in P],
        "dot1": [_at(b".", p - 8) if 8 <= p < 16 else 0 for p in P],
        "dot2": [_at(b".", p - 16) if 16 <= p < 24 else 0 for p in P],
    }
    H = np.array(H)
    return _Tables(*_split(H), H, np.array(L), np.array(B), 2.0 ** np.arange(128), tz=tz,
                   **{k: np.array(v, dtype=_U64) for k, v in words.items()})


def _scaled(m, e, k) -> tuple:
    """m 2^e 10^k as P + r, P an even integer when it is at least 2^53."""
    t = _tables()
    i = k - _KMIN
    Hh, Hl = t.Hh[i], t.Hl[i]
    mh, ml = _split(m)
    p = m * t.H[i]
    err = ((mh * Hh - p) + mh * Hl + ml * Hh) + ml * Hl
    # p is at least 1/4 and p 2^s at most 1e18, so s < 64: 2^s is a double
    # and both products are exact
    scale = t.pow2[e + t.B[i]]
    return p * scale, (err + m * t.L[i]) * scale


def _decimal(a: np.ndarray) -> tuple:
    """The 17 significant digits D (1e16 <= D < 1e17) and decimal exponent X
    of each positive finite double in a, a = D 10^(X - 16) rounded
    half-even, and a mask of the values whose digits are certified."""
    m, e = np.frexp(a)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    P, r = _scaled(m, e, k)
    rr = np.rint(r)
    # log10 can round across a power of ten: where V < 1e16 or rint(V) > 1e17
    # move k by one and scale again
    low = (P - 1e16) + r < 0
    fix = low | ((P - 1e17) + rr > 0)
    if fix.any():
        k[fix] += np.where(low[fix], 1, -1)
        P[fix], r[fix] = _scaled(m[fix], e[fix], k[fix])
        rr[fix] = np.rint(r[fix])
    D = P.astype(np.int64) + rr.astype(np.int64)
    certified = (k >= 0) & (k <= 22)
    if not certified.all():
        certified |= ~((np.abs(r - rr) > 0.5 - _TOL)
                       | (np.abs((P - 1e16) + r) < _TOL)
                       | (np.abs((P - 1e17) + r) < _TOL))
    carry = D == _E17
    D[carry] = _E16
    return D, 16 - k + carry, certified


def _words(x: np.ndarray, out: np.ndarray) -> None:
    """Write the "%.17g" text of each value of x into its row of out, four
    little-endian words. Bytes: 0 the sign, 1-5 "0." and leading zeros, 7
    the first digit, 8-23 the other sixteen, 25-29 the exponent, 30-31 left
    for a separator; a point at byte p moves the bytes from p up by one."""
    t = _tables()
    regular = np.isfinite(x) & (x != 0)
    every = regular.all()
    # 0 and the non-finite values are laid out as 1.0, then rewritten
    D, X, certified = _decimal(np.abs(x) if every else np.where(regular, np.abs(x), 1.0))
    d0, rest = np.divmod(D, _E16)
    g12, g34 = np.divmod(rest, 10**8)
    g1, g2 = np.divmod(g12, 10**4)
    g3, g4 = np.divmod(g34, 10**4)
    # significant digits: 17 less the trailing zeros of D
    tz = t.tz
    nd = 17 - (tz[g4] + (g4 == 0) * (tz[g3] + (g3 == 0) * (tz[g2] + (g2 == 0) * tz[g1])))
    # fixed form with an integer part keeps every integer digit, and puts the
    # point after digit X; scientific form puts it after the first digit;
    # below 1 the point is in the lead
    whole = (X >= 0) & (X < 17)
    below1 = (X < 0) & (X >= -4)
    at = X * whole
    p = 32 - ((nd > at + 1) & ~below1) * (24 - at)
    keep = np.maximum(nd, (X + 1) * whole)
    w1 = (t.digits[g1] | t.digits[g2] << _32) & t.keep1[keep]
    w2 = (t.digits[g3] | t.digits[g4] << _32) & t.keep2[keep]
    up1, up2 = w1 & ~t.low1[p], w2 & ~t.low2[p]
    sign = np.signbit(x) * np.uint64(45)
    ix = X - _XMIN
    out[:, 0] = t.lead[ix] | t.first[d0] | sign
    out[:, 1] = (w1 ^ up1) | up1 << _8 | t.dot1[p]
    out[:, 2] = (w2 ^ up2) | up2 << _8 | up1 >> _56 | t.dot2[p]
    out[:, 3] = up2 >> _56 | t.expo[ix]
    if not every:
        for rows, word in ((x == 0, _at(b"0", 7)), (np.isinf(x), _at(b"inf", 1))):
            out[rows, 0] = sign[rows] | np.uint64(word)
        out[np.isnan(x), 0] = _at(b"nan", 1)
    for i in np.flatnonzero(regular & ~certified).tolist():
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i].view(np.uint8)[:len(text)] = np.frombuffer(text, dtype=np.uint8)


def _rows(words: np.ndarray, seps: np.ndarray) -> bytes:
    """The text of slot words (rows, columns, 4), each value followed by its
    column's separator word in seps, ORed into words in place."""
    words[:, :, 3] |= seps
    return words.tobytes().translate(None, b"\0")


_JOIN = np.array([_at(b", ", 6)], dtype=_U64)


def csv(columns, end=b"\n", joined=None):
    """CSV rows of equal-length float64 columns, one chunk of at most _CHUNK
    values at a time: the values of a row joined by ",", each row followed
    by end (at most two bytes). joined lists column indices; once the last
    chunk is out the generator returns the ", "-joined text of each, taken
    from the same rendering (an empty list when joined is None)."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    step = max(1, _CHUNK // len(cols))
    words = np.empty((min(step, cols[0].size), len(cols), 4), dtype=_U64)
    seps = np.array([_at(b",", 6)] * (len(cols) - 1) + [_at(end, 6)], dtype=_U64)
    parts = [(j, []) for j in joined or ()]
    for i in range(0, cols[0].size, step):
        # row-major values, so the rows of words are the rows of text
        x = np.stack([c[i:i + step] for c in cols], axis=1).ravel()
        out = words[:x.size // len(cols)]
        _words(x, out.reshape(-1, 4))
        for j, texts in parts:
            # indexing by [j] copies the column, so the CSV separators stay out
            texts.append(_rows(out[:, [j]], _JOIN))
        yield _rows(out, seps)
    return [b"".join(texts)[:-2] for _, texts in parts]


def join(values: np.ndarray) -> bytes:
    """The "%.17g" text of each value of a float64 array, joined by ", "."""
    return b"".join(csv([values], end=b", "))[:-2]
