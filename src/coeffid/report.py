"""Machine-readable experiment reports with byte-reproducible serialization.

Every verification routine returns an ExperimentReport. Serialization is
canonical: keys keep insertion order, floats are rendered at 17 significant
digits, and no timestamps or environment data are embedded, so identical
inputs produce identical bytes.

Rendered JSON is ASCII bytes throughout: json_chunks returns it as a list of
byte strings, which the CLI writes and hashes one at a time, and only
canonical_json and to_json join and decode it to str. Float columns are
rendered by coeffid.text, which gives the bytes of "%.17g" for a whole array
at a time. A 1-D float64 array renders once per memo as its ", "-joined
bytes, keyed by the array's identity, so the JSON report and the extra files
of one CLI run share one bytes object. The CSV curves are rendered from the
same slot words: csv_chunks puts the joined bytes of each finite float64
curve that a JSON file of the run prints into the memo as it writes the
rows, so a curve written to three files is formatted once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import text
from .grids import fmt_float

__all__ = ["ExperimentReport", "canonical_json", "json_chunks"]

def _float_column(arr: np.ndarray, memo: dict) -> bytes:
    """The values of a 1-D float64 array as "%.17g" text joined by ", ",
    rendered once per memo. The memo holds the array as well, so its id is
    not reused while the memo lives."""
    hit = memo.get(id(arr))
    if hit is None:
        hit = memo[id(arr)] = (arr, text.join(arr))
    return hit[1]


def _is_float_column(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64


def _render(obj, out: list, memo: dict) -> None:
    if _is_float_column(obj) and np.isfinite(obj).all():
        out += (b"[", _float_column(obj, memo), b"]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iu":
        out += (b"[", ", ".join(map(str, obj.tolist())).encode(), b"]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append(b"true" if obj else b"false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append((fmt_float(x) if math.isfinite(x) else f'"{x!r}"').encode())
    elif isinstance(obj, str):
        # json.dumps escapes every non-ASCII character
        out.append(json.dumps(obj).encode())
    elif obj is None:
        out.append(b"null")
    elif isinstance(obj, dict):
        out.append(b"{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(b", ")
            out += (json.dumps(str(k)).encode(), b": ")
            _render(v, out, memo)
        out.append(b"}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append(b"[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(seq):
            if i:
                out.append(b", ")
            _render(v, out, memo)
        out.append(b"]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def json_chunks(obj, memo: dict) -> list:
    """The canonical JSON of obj as a list of ASCII byte strings, each float
    column's text the memo's own bytes. Pass one memo to every call that
    renders the same arrays so each float column is formatted once."""
    out: list = []
    _render(obj, out, memo)
    return out


def canonical_json(obj, memo: dict | None = None) -> str:
    """Canonical JSON text of obj: json_chunks joined."""
    return b"".join(json_chunks(obj, {} if memo is None else memo)).decode()


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

    def json_dict(self) -> dict:
        """The object to_json renders: every field, in declaration order."""
        return {"name": self.name, "inputs": self.inputs, "metrics": self.metrics,
                "curves": self.curves, "passed": self.passed, "notes": self.notes}

    def to_json(self, memo: dict | None = None) -> str:
        return canonical_json(self.json_dict(), memo)

    def csv_chunks(self, memo: dict | None = None, printed=()):
        """The curves as CSV bytes, a header of curve names and then one row
        per index with every value at 17 significant digits (bools as 1/0,
        non-finite values as inf/nan), one chunk of rows at a time. printed
        holds the ids of the arrays a JSON text rendered with memo will
        print: each finite 1-D float64 curve among them that the memo lacks
        gets its ", "-joined text from the same rendering once the last chunk
        is out, so to_json and canonical_json with that memo format it no
        more. Curves no JSON text prints are not joined."""
        if not self.curves:
            return
        cols = [np.asarray(c, dtype=float).ravel() for c in self.curves.values()]
        if any(c.size != cols[0].size for c in cols):
            raise ValueError("curve columns must have equal length")
        joined = {id(c): (c, j, []) for j, c in enumerate(self.curves.values())
                  if id(c) in printed and id(c) not in memo and _is_float_column(c)
                  and np.isfinite(c).all()}
        yield ",".join(self.curves).encode() + b"\n"
        for words in text.iter_words(cols):
            # each JSON text copies its column before rows ORs in the CSV separators
            for _, j, parts in joined.values():
                parts.append(text.join_words(words[:, j]))
            yield text.rows(words)
        for key, (c, _, parts) in joined.items():
            memo[key] = (c, b", ".join(parts))
            parts.clear()

    def curves_csv(self) -> str:
        """The curves as CSV text, csv_chunks joined. The CLI writes the
        chunks of csv_chunks instead, one at a time."""
        return b"".join(self.csv_chunks()).decode()
