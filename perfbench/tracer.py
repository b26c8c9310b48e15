"""In-memory span tracing of the coeffid package, installed from outside it.

`Tracer.install` wraps every public name of the package, meaning each
function in a module's `__all__` and each public method of a class in it,
wherever a `coeffid` module binds that name. Calls between package functions
go through module globals, so nested calls become child spans. `uninstall`
puts every original object back. The package source is never edited, and a
run without a tracer calls the package unmodified.

A span is `[name, start, end, parent index, item id]`. Spans stay in a list
until the run ends; `self_times` turns them into per-name call counts,
inclusive times and self times (duration minus the time child spans cover).
"""

from __future__ import annotations

import functools
import json
import types
from collections import defaultdict
from time import perf_counter

# `grids.fmt_float` formats one float and runs once per rendered number, about
# a million times per cli_io item. A span per call would cost more than the
# work it measures and hold ~1e6 spans per item in memory; its time is charged
# to the self time of the report and grids functions that call it.
SKIP = frozenset({"grids.fmt_float"})

WRAPPED = "__perfbench_span__"


class Tracer:
    """Records spans for the package modules it is installed on.

    observe maps a span name to a function of the call's return value that
    gives a dict of numbers; they are summed per (span name, key) in
    `observed`, so counters are taken where the work happens.
    """

    def __init__(self, observe: dict | None = None):
        self.spans: list = []
        self.item = -1
        self.observe = observe or {}
        self.observed: dict = defaultdict(float)
        self._stack: list = []
        self._restore: list = []
        self._names: dict = {}

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        hook = self.observe.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                for key, value in hook(result).items():
                    self.observed[(name, key)] += value
            return result

        setattr(wrapper, WRAPPED, name)
        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, modules) -> None:
        """Wrap the public names of `modules` (the coeffid package and its
        submodules) in every one of them that binds them."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            public = [
                (mod.__name__.rpartition(".")[2], attr, getattr(mod, attr))
                for mod in modules
                for attr in getattr(mod, "__all__", ())
                if getattr(getattr(mod, attr), "__module__", None) == mod.__name__
            ]
            # functions first, so a method sharing a function's name is the
            # one that gets the longer, class-qualified span name
            wrappers = {}
            for short, attr, obj in public:
                name = f"{short}.{attr}"
                if isinstance(obj, types.FunctionType) and name not in SKIP:
                    self._names[name] = obj
                    wrappers[obj] = self._wrap(name, obj)
            for short, attr, obj in public:
                if isinstance(obj, type):
                    self._install_class(obj, short)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if isinstance(val, types.FunctionType) and val in wrappers:
                        self._set(mod, attr, wrappers[val])
        except BaseException:
            self.uninstall()
            raise

    def _install_class(self, cls: type, short: str) -> None:
        for attr, raw in list(vars(cls).items()):
            fn = getattr(raw, "__func__", raw)  # unwrap class and static methods
            if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            name = f"{short}.{attr}"
            if self._names.setdefault(name, fn) is not fn:
                name = f"{short}.{cls.__name__}.{attr}"
            wrapper = self._wrap(name, fn)
            self._set(cls, attr, wrapper if fn is raw else type(raw)(wrapper))

    def uninstall(self) -> None:
        """Restore every wrapped name, last wrapped first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._names.clear()


def write_spans(spans, path) -> None:
    """Write spans as JSON lines."""
    with open(path, "w") as fh:
        for name, t0, t1, parent, item in spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                 "parent": parent, "item": item}) + "\n")


def self_times(spans) -> dict:
    """Per span name: {"calls", "total_s", "self_s"} summed over all spans.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, t0, t1, _, _) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += t1 - t0
        rec["self_s"] += t1 - t0 - child[i]
    return dict(out)


def is_wrapped(obj) -> bool:
    """True for a tracer wrapper, or a class/static method holding one."""
    return hasattr(getattr(obj, "__func__", obj), WRAPPED)
