"""Machine-readable experiment reports with byte-reproducible serialization.

Every verification routine returns an ExperimentReport. Serialization is
canonical: keys keep insertion order, floats are rendered at 17 significant
digits, and no timestamps or environment data are embedded, so identical
inputs produce identical bytes.

Float columns are rendered by coeffid.text, which gives the bytes of
"%.17g" for a whole array at a time. A 1-D float64 array renders once per
memo as its ", "-joined text, keyed by the array's identity, so the JSON
report and the extra files of one CLI run share it: a curve written to
three files is formatted twice, once here and once as CSV rows, which
coeffid.text renders straight from the columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import text
from .grids import fmt_float

__all__ = ["ExperimentReport", "canonical_json"]

def _float_column(arr: np.ndarray, memo: dict) -> str:
    """The values of a 1-D float64 array as "%.17g" text joined by ", ",
    rendered once per memo. The memo holds the array as well, so its id is
    not reused while the memo lives."""
    hit = memo.get(id(arr))
    if hit is None:
        hit = memo[id(arr)] = (arr, text.join(arr).decode())
    return hit[1]


def _is_float_column(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64


def _render(obj, out: list, memo: dict) -> None:
    if _is_float_column(obj) and np.isfinite(obj).all():
        out += ("[", _float_column(obj, memo), "]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iu":
        out += ("[", ", ".join(map(str, obj.tolist())), "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            out.append(fmt_float(x))
        else:
            out.append(f'"{x!r}"')
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _render(v, out, memo)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _render(v, out, memo)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj, memo: dict | None = None) -> str:
    """Canonical JSON text of obj. Pass one memo to every call that renders
    the same arrays so each float column is formatted once."""
    out: list = []
    _render(obj, out, {} if memo is None else memo)
    return "".join(out)


@dataclass
class ExperimentReport:
    """Record of one verification run: inputs, scalar metrics, tabular curves,
    and an overall pass/fail verdict."""

    name: str
    inputs: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    passed: bool = True
    notes: str = ""

    def to_json(self, memo: dict | None = None) -> str:
        return canonical_json(
            {
                "name": self.name,
                "inputs": self.inputs,
                "metrics": self.metrics,
                "curves": self.curves,
                "passed": self.passed,
                "notes": self.notes,
            },
            memo,
        )

    def curves_csv(self) -> str:
        """The curves as CSV: a header of curve names, then one row per index
        with every value at 17 significant digits (bools as 1/0, non-finite
        values as inf/nan). The rows are rendered straight from the columns,
        which costs less than splitting memoised JSON text."""
        if not self.curves:
            return ""
        cols = [np.asarray(c, dtype=float).ravel() for c in self.curves.values()]
        if any(c.size != cols[0].size for c in cols):
            raise ValueError("curve columns must have equal length")
        return "".join([",".join(self.curves), "\n",
                        *(rows.decode() for rows in text.iter_rows(cols))])
