"""Outside-in tracer: wraps the functions of already-imported modules,
records one span per call, and turns spans into self times.

Nothing in the traced program changes on disk. `install` replaces each
chosen function with a wrapper in every module namespace that holds the
same function object, so names bound with `from .x import y` are traced
too, and replaces chosen methods on their classes.

A span is (name, start, end, parent); the parent is the span that was open
when the call began, -1 at the root. A span's self time is its duration
minus the durations of its direct children (calls run on one thread, so
children never overlap).
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, groups: dict | None = None):
        """groups: metric name -> function names. A group's time is the
        inclusive time of its calls that run under no other call of the
        group, so nested members are not counted twice."""
        self.names: list = []
        self._index: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list = []
        self.group_names = list(groups or {})
        self.group_time = [0.0] * len(self.group_names)
        self._group_open = [0] * len(self.group_names)
        self._member = {
            fn: tuple(g for g, gname in enumerate(self.group_names) if fn in groups[gname])
            for gname in self.group_names
            for fn in groups[gname]
        }
        self.results: dict = {}

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, result_count=None):
        """A wrapper of fn that records a span named `name`. result_count,
        if given, is (counter name, result -> int) added after each call."""
        ix = self._name_index(name)
        groups = self._member.get(name, ())
        stack, starts, ends = self._stack, self.start, self.end
        names, parents = self.name, self.parent
        open_, gtime = self._group_open, self.group_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(ix)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            if groups:
                outer = [g for g in groups if not open_[g]]
                for g in groups:
                    open_[g] += 1
            stack.append(sid)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                stack.pop()
                if groups:
                    for g in groups:
                        open_[g] -= 1
                    for g in outer:
                        gtime[g] += t1 - t0
            if result_count is not None:
                key, count = result_count
                self.results[key] = self.results.get(key, 0) + count(result)
            return result

        traced.__traced__ = fn
        return traced

    def spans(self):
        """(names, name index, start, end, parent) as arrays."""
        return (
            list(self.names),
            np.array(self.name, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int32),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Per span: duration minus the durations of its direct children."""
    start, end, parent = (np.asarray(v) for v in (start, end, parent))
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def summarize(names, name_ix, start, end, parent) -> dict:
    """name -> {"calls", "self_s"} over all spans."""
    name_ix = np.asarray(name_ix)
    own = self_times(start, end, parent)
    calls = np.bincount(name_ix, minlength=len(names))
    self_s = np.bincount(name_ix, weights=own, minlength=len(names))
    return {nm: {"calls": int(calls[i]), "self_s": float(self_s[i])} for i, nm in enumerate(names)}


def public_functions(module) -> dict:
    """Public functions defined in `module` (not re-exports). Generator
    functions are left out: a wrapper would time only their creation, so
    their work stays in the caller's self time."""
    return {
        attr: fn
        for attr, fn in vars(module).items()
        if inspect.isfunction(fn)
        and not attr.startswith("_")
        and fn.__module__ == module.__name__
        and not inspect.isgeneratorfunction(fn)
    }


def install(tracer: Tracer, layers: dict, namespaces, methods=(), skip=(), result_counts=None):
    """Wrap every public function of each layer module and each listed
    method, and rebind every alias found in `namespaces`.

    layers: layer name -> module; methods: "layer.Class.method" strings;
    skip: "layer.function" names left unwrapped; result_counts: span name
    -> (counter, result -> int). Returns the list of wrapped span names."""
    result_counts = result_counts or {}
    replaced = {}
    for layer, module in layers.items():
        for attr, fn in public_functions(module).items():
            name = f"{layer}.{attr}"
            if name not in skip:
                replaced[id(fn)] = (fn, tracer.wrap(name, fn, result_counts.get(name)))
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
    for spec in methods:
        layer, cls_name, meth = spec.split(".")
        cls = getattr(layers[layer], cls_name)
        setattr(cls, meth, tracer.wrap(spec, getattr(cls, meth), result_counts.get(spec)))
    return sorted(tracer.names)
