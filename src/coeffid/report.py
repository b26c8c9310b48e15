"""Machine-readable experiment reports with byte-reproducible serialization.

Every verification routine (verify_holder, verify_pw_bound, sweep_pw_bound,
coarea_check, dyadic_rate) returns an ExperimentReport, verdict included.
Serialization is canonical: keys keep insertion order, floats are rendered
at 17 significant digits, and no timestamps or environment data are
embedded, so identical inputs produce identical bytes.

Rendered JSON is ASCII bytes throughout: json_chunks returns it as a list of
byte strings, which the CLI writes and hashes one at a time, and only
to_json joins and decodes it to str. Float columns are rendered by
coeffid.text, which gives the bytes of "%.17g" for a whole array at a time.
A 1-D float64 array renders once per memo as its ", "-joined bytes, keyed
by the array's identity. csv_chunks writes the CSV curves with text.csv
and puts the joined bytes of each finite float64 curve, taken from the same
rendering, into the memo. ExperimentReport.files yields the files of one
CLI run from one memo, the CSV first, so a curve written to three files is
formatted once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import text
from .grids import fmt_float

__all__ = ["ExperimentReport", "json_chunks"]

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

    def to_json(self) -> str:
        """The canonical JSON text of json_dict."""
        return b"".join(json_chunks(self.json_dict(), {})).decode()

    def csv_chunks(self, memo: dict):
        """The curves as CSV bytes, a header of curve names and then one row
        per index with every value at 17 significant digits (bools as 1/0,
        non-finite values as inf/nan), one chunk of rows at a time. Each
        finite 1-D float64 curve that the memo lacks gets its ", "-joined
        text from the same rendering once the last chunk is out, so
        json_chunks with that memo formats it no more."""
        if not self.curves:
            return
        curves = list(self.curves.values())
        cols = [np.asarray(c, dtype=float).ravel() for c in curves]
        if any(c.size != cols[0].size for c in cols):
            raise ValueError("curve columns must have equal length")
        wanted = [j for j, c in enumerate(curves)
                  if id(c) not in memo and _is_float_column(c) and np.isfinite(c).all()]
        yield ",".join(self.curves).encode() + b"\n"
        joined = yield from text.csv(cols, joined=wanted)
        for j, t in zip(wanted, joined):
            memo[id(curves[j])] = (curves[j], t)

    def files(self, stem: str, fmt: str, extra: dict):
        """(name, chunks) for each file of a run in format fmt ("json", "csv"
        or "both"): the curves as stem.csv, the report as stem.json, then
        each {name: object} of extra as canonical JSON. The files share one
        memo and the CSV comes first, so its rows give every finite float
        curve its JSON text once its chunks are consumed, before the next
        file is asked for."""
        memo: dict = {}
        if fmt in ("csv", "both") and self.curves:
            yield f"{stem}.csv", self.csv_chunks(memo)
        if fmt in ("json", "both"):
            yield f"{stem}.json", json_chunks(self.json_dict(), memo)
        for name, obj in extra.items():
            yield name, json_chunks(obj, memo)
