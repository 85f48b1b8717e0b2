"""In-memory span recorder that wraps the package's public functions from
outside, so the package itself carries no tracing code.

``install(package)`` replaces every public function, and every public method
of a public class, defined in the package's modules by a wrapper that records
a span (name, start, end, parent).  Every module attribute that referred to
an original (``from .x import f`` bindings included) is rebound, so calls
between modules and inside a module are both seen.  The layer of a span is
the module that defines the function.
"""

from __future__ import annotations

import functools
import inspect
import pkgutil
import threading
import time
from importlib import import_module


class Recorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


def _package_modules(package_name: str) -> list:
    package = import_module(package_name)
    names = [m.name for m in pkgutil.iter_modules(package.__path__)]
    return [package] + [import_module(f"{package_name}.{name}") for name in names]


def install(package_name: str = "friedman_bounds") -> Recorder:
    """Wrap the package's public callables; return the recorder of their spans."""
    rec = Recorder()
    modules = _package_modules(package_name)
    wrapped: dict[int, object] = {}
    for mod in modules[1:]:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, rec.wrap(f"{layer}.{name}.{meth}", fn))
            elif callable(obj):
                wrapped[id(obj)] = rec.wrap(f"{layer}.{name}", obj)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
    return rec


def self_times(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds (total minus the
    time covered by its direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Self seconds summed per layer (the module part of each span name)."""
    out: dict[str, float] = {}
    for name, row in self_times(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out
