"""Spans around convrefine's functions, recorded from outside the package.

``Tracer.install`` replaces every module attribute that resolves to a
convrefine function (``featio.write_tensor_file`` and the
``evalkit.write_tensor_file`` it is imported as are one function, one
wrapper) plus the ``NetworkIR`` lookup methods.  A span is
``[name, start, end, parent]``; spans stay in memory as long as the tracer.
Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import tracemalloc
from time import perf_counter

# Arithmetic leaves called per block per lambda step; their time stays in the
# caller's self time rather than adding a span each.
LEAVES = {"psi", "phi", "xi", "block_params", "_round_half_up", "_parse_uint", "_read_exact"}
METHODS = ("block", "predecessors", "consumers")

MODULES = ("convrefine", "convrefine.cli", "convrefine.featio", "convrefine.netir",
           "convrefine.sepstats", "convrefine.planner", "convrefine.rewriter",
           "convrefine.evalkit")


def short_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}  # span index -> bytes / peak memory
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-side span around a command or the set-up."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def _wrap(self, fn):
        name = short_name(fn)
        tracer = self
        if name == "featio.read_tensor_file":
            @functools.wraps(fn)
            def traced(path, *args, **kwargs):
                idx = tracer._open(name)
                tracemalloc.start()
                try:
                    return fn(path, *args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer._close(idx)
                    tracer.attrs[idx] = {"bytes": os.path.getsize(path), "peak": peak}
        elif name == "featio.write_tensor_file":
            @functools.wraps(fn)
            def traced(path, *args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(path, *args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer.attrs[idx] = {"bytes": os.path.getsize(path)}
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        return traced

    def install(self):
        wrappers = {}
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and val.__module__.startswith("convrefine.")
                        and val.__name__ not in LEAVES):
                    if val not in wrappers:
                        wrappers[val] = self._wrap(val)
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        netir = importlib.import_module("convrefine.netir")
        for attr in METHODS:
            fn = getattr(netir.NetworkIR, attr)
            self._patched.append((netir.NetworkIR, attr, fn))
            setattr(netir.NetworkIR, attr, self._wrap(fn))

    def uninstall(self):
        for obj, attr, val in reversed(self._patched):
            setattr(obj, attr, val)
        self._patched.clear()

    def self_times_and_roots(self) -> tuple[list[float], list[int]]:
        """Self seconds of every span, and the index of its outermost span."""
        n = len(self.spans)
        child = [0.0] * n
        roots = list(range(n))
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                roots[i] = roots[parent]
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)], roots
