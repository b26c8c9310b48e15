"""Uniform-grid scalar functions on an interval, quadrature, and Lp norms.

Nodal (vertex) sampling on a uniform partition is the single carrier used
everywhere: coefficients a, sources f, primitives F, solutions u and their
derivatives u' are all GridFunction1D instances. Quadrature is composite
trapezoid, which is exact on the piecewise-linear interpolants that serve as
ground truth throughout.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import text

__all__ = [
    "Interval",
    "GridFunction1D",
    "CoefficientBounds",
    "quadrature",
    "lp_norm",
    "derivative",
    "indicator_values",
    "fmt_float",
]

def fmt_float(x: float) -> str:
    """Render a float at 17 significant digits (lossless decimal round-trip)."""
    return f"{float(x):.17g}"


def json_fields(d, keys: tuple) -> list:
    """The values of keys in a decoded JSON object, in order. Anything but an
    object, or an object missing a key, raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"JSON object lacks {', '.join(map(repr, missing))}")
    return [d[k] for k in keys]


def json_count(v, name: str) -> int:
    """A JSON number that must be a whole number: 2 and 2.0 pass, 2.7 is
    rejected rather than truncated."""
    whole = isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not whole:
        raise ValueError(f"{name} must be a whole number, got {v!r}")
    return int(v)


def read_json(path, from_dict):
    """from_dict of the JSON value in path. A malformed file raises ValueError
    naming it: a TypeError there means a field of the wrong JSON type, an
    OverflowError an integer beyond float range, a RecursionError nesting
    too deep to decode."""
    p = Path(path)
    try:
        return from_dict(json.loads(p.read_text()))
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{p}: {exc}") from None


@dataclass(frozen=True)
class Interval:
    """A nonempty bounded interval (lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi}]")


UNIT = Interval(0.0, 1.0)


@dataclass(frozen=True)
class CoefficientBounds:
    """Admissibility box: coefficients must satisfy 0 < lam <= a <= Lam."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam < self.Lam < math.inf):
            raise ValueError(f"need 0 < lam < Lam, got ({self.lam}, {self.Lam})")

    def admits(self, values) -> bool:
        """True iff every value lies in [lam, Lam]."""
        v = np.asarray(values)
        return bool(np.all((v >= self.lam) & (v <= self.Lam)))


@dataclass(frozen=True, eq=False)
class GridFunction1D:
    """Scalar function sampled at the n+1 nodes of a uniform partition.

    values[i] is the sample at x_i = lo + i*h, h = (hi - lo)/n. The array is
    copied on construction and frozen, so instances are immutable and safe to
    share across threads.
    """

    interval: Interval
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-d array with at least 2 entries")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_callable(cls, fn, interval: Interval, n: int) -> "GridFunction1D":
        x = np.linspace(interval.lo, interval.hi, n + 1)
        return cls(interval, np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape))

    @classmethod
    def const(cls, c: float, interval: Interval = UNIT, n: int = 64) -> "GridFunction1D":
        return cls(interval, np.full(n + 1, float(c)))

    def with_values(self, values) -> "GridFunction1D":
        return GridFunction1D(self.interval, values)

    # -- grid geometry ------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of cells."""
        return self.values.size - 1

    @property
    def h(self) -> float:
        return (self.interval.hi - self.interval.lo) / self.n

    @property
    def x(self) -> np.ndarray:
        """np.linspace's nodes, bit for bit: node i is i*h + lo, node n is hi.
        In place, as a second array of n nodes costs more than the arithmetic."""
        x = np.arange(self.n + 1, dtype=float)
        x *= self.h
        x += self.interval.lo
        x[-1] = self.interval.hi
        return x

    def nodes(self, idx: np.ndarray) -> np.ndarray:
        """x[idx] for an index array, by the rule of x, without forming x."""
        return np.where(idx == self.n, self.interval.hi, idx * self.h + self.interval.lo)

    def same_grid(self, other: "GridFunction1D") -> bool:
        return self.interval == other.interval and self.n == other.n

    # -- pointwise algebra --------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, GridFunction1D):
            require_same_grid(self, other)
            return self.with_values(op(self.values, other.values))
        return self.with_values(op(self.values, float(other)))

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __abs__(self):
        return self.with_values(np.abs(self.values))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "interval": [self.interval.lo, self.interval.hi],
            "n": self.n,
            "values": self.values,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridFunction1D":
        (lo, hi), n, values = json_fields(d, ("interval", "n", "values"))
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) != json_count(n, "n") + 1:
            raise ValueError("values length does not match n + 1")
        return cls(Interval(float(lo), float(hi)), vals)

    def to_csv(self, path) -> None:
        """Write an 'x,value' header and one row per node at 17 significant
        digits, in the bytes csv.writer gives (CRLF line ends), rendered by
        coeffid.text one chunk of rows per write."""
        with open(path, "wb") as fh:
            fh.write(b"x,value\r\n")
            fh.writelines(text.csv((self.x, self.values), end=b"\r\n"))

    @classmethod
    def from_csv(cls, path) -> "GridFunction1D":
        """Read what to_csv writes: an 'x,value' header, then an 'x,value' row
        per node of a uniform grid, parsed by np.loadtxt. Quoted fields, blank
        lines and CRLF line ends are accepted. Anything else (comment lines,
        trailing commas, rows of one or three fields, text that is not a
        number) raises ValueError naming the file and, where the parser
        points at a row, its line."""
        try:
            with open(path, newline="") as fh:
                if [c.strip(' \t\r\n"') for c in fh.readline().split(",")] != ["x", "value"]:
                    raise ValueError("expected 'x,value' header")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # loadtxt warns when no row follows
                    rows = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                      ndmin=2)
        except ValueError as exc:
            raise ValueError(_csv_error(path, exc)) from None
        if len(rows) < 2:
            raise ValueError(f"not enough rows in {path}")
        if rows.shape[1] != 2:
            raise ValueError(f"{path}: expected 2 fields (x,value) per row, got {rows.shape[1]}")
        # the grid is uniform, so x must match its nodes to rounding
        x = rows[:, 0]
        n = x.size - 1
        dev = float(np.abs(x - np.linspace(x[0], x[-1], n + 1)).max())
        if not dev <= 4 * n * np.spacing(max(abs(x[0]), abs(x[-1]))):
            raise ValueError(f"x column in {path} is not uniformly spaced "
                             f"(deviates by {dev:.3g} from a uniform grid)")
        try:
            return cls(Interval(float(x[0]), float(x[-1])), rows[:, 1])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# np.loadtxt's pointer to a data row: 0-based in conversion errors (which name
# a column), 1-based in column-count errors; blank lines are not rows
_LOADTXT_ROW = re.compile(r" at row (\d+)(, column \d+)?")


def _row_starts(fh):
    """The 1-based line on which each data row after the header starts.
    csv.reader splits rows as np.loadtxt does, a quoted field spanning lines
    included, and reads a blank line as an empty row."""
    reader = csv.reader(fh)
    start = 2
    for fields in reader:
        if fields:
            yield start
        start = reader.line_num + 2


def _csv_error(path, exc: ValueError) -> str:
    """exc, raised reading the CSV file path, as one line naming the file
    and the 1-based line on which the data row np.loadtxt points at starts,
    or "line ?" where csv.reader cannot split the file."""
    msg = str(exc)
    at = _LOADTXT_ROW.search(msg)
    if at is None:
        return f"{path}: {msg}"
    row = int(at[1]) - (at[2] is None)
    with open(path, newline="", errors="replace") as fh:
        next(fh, None)  # the header
        try:
            line = next(itertools.islice(_row_starts(fh), row, None), "?")
        except csv.Error:  # e.g. a field over csv.field_size_limit
            line = "?"
    return f"{path} line {line}: {msg[:at.start()]}"


def require_same_grid(a: GridFunction1D, b: GridFunction1D) -> None:
    if not a.same_grid(b):
        raise ValueError(
            f"grid mismatch: [{a.interval.lo},{a.interval.hi}] n={a.n} vs "
            f"[{b.interval.lo},{b.interval.hi}] n={b.n}"
        )


def quadrature(g: GridFunction1D) -> float:
    """Integral of g over its interval by the composite trapezoid rule, exact
    for the piecewise-linear nodal interpolant."""
    v = g.values
    return float(g.h * (0.5 * (v[0] + v[-1]) + v[1:-1].sum()))


def lp_norm(g: GridFunction1D, p: float) -> float:
    """Lp norm of g for p in [1, inf]; math.inf gives the max norm."""
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    if math.isinf(p):
        return float(np.abs(g.values).max())
    if p == 1.0:
        return quadrature(abs(g))
    return quadrature(g.with_values(np.abs(g.values) ** p)) ** (1.0 / p)


def derivative(g: GridFunction1D) -> GridFunction1D:
    """Nodal derivative: central differences inside, one-sided second order at
    the endpoints. Stencils are evaluated in difference form so constants map
    to exactly zero."""
    if g.n < 2:
        raise ValueError("grid too coarse")
    v = g.values
    two_h = 2.0 * g.h
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / two_h
    d[0] = (4.0 * (v[1] - v[0]) - (v[2] - v[0])) / two_h
    d[-1] = (4.0 * (v[-1] - v[-2]) - (v[-1] - v[-3])) / two_h
    return g.with_values(d)


def indicator_values(x: np.ndarray, lo: float, hi: float, ends=None) -> np.ndarray:
    """Nodal sampling of the indicator of the interval (lo, hi) on the grid x.

    Nodes strictly inside get 1, nodes exactly on the boundary get 1/2, so the
    trapezoid rule reproduces the interval's measure exactly whenever lo and hi
    land on grid nodes. An edge on the grid's end nodes x[0] or x[-1] counts
    as interior, so those nodes get 1 (the indicator is an almost-everywhere
    object; the half-value convention only matters at genuine internal jumps).
    The edge tolerance is 1e-13 of the grid's span. ends, (x[0], x[-1]) by
    default, are the grid's end nodes when x is a window of a larger grid.
    lo and hi may also be arrays of x's shape: one interval per node.
    """
    first, last = (x[0], x[-1]) if ends is None else ends
    v = np.where((x > lo) & (x < hi), 1.0, 0.0)
    tol = (last - first) * 1e-13
    for edge in (lo, hi):
        near = np.flatnonzero(np.abs(x - edge) <= tol)
        e = np.broadcast_to(edge, x.shape)[near]
        v[near] = np.where((np.abs(e - first) <= tol) | (np.abs(e - last) <= tol), 1.0, 0.5)
    return v
