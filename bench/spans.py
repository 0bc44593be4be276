"""Span recorder for the traced run, installed from outside the program.

``install`` wraps every function named in the ``__all__`` of each framelab
module and rebinds the wrapper under every name any framelab module holds it
by, so calls across layers are caught as well as calls from the benchmark.
It also wraps the ``numpy.linalg`` entry points framelab uses.  Each span
records its name, start, end, parent span and job id, in flat arrays kept in
memory and aggregated once the traced pass ends.  A layer's self time is its
spans' durations minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "documents", "model", "numerics", "frame_ops", "transforms",
          "duality", "perturbation", "oracle")
LINALG = ("svd", "eigvalsh", "eigh", "pinv", "qr", "norm")
ROOT = "job"


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.layer_of = [None]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.active = False
        self.job_id = -1
        self._stack = []

    def _open(self, nid):
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, layer, fn):
        tracer = self
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)
        return traced

    def run_job(self, job_id, call):
        """Run one job under a root span; tracing is on only inside it."""
        self.job_id = job_id
        index = self._open(0)
        self.active = True
        try:
            return call()
        finally:
            self.active = False
            self._close(index)


def install(tracer: Tracer) -> list:
    """Wrap the public functions and linalg entry points; returns the undo list."""
    modules = [importlib.import_module("framelab")]
    modules += [importlib.import_module(f"framelab.{layer}") for layer in LAYERS]
    patches = []
    for module in modules[1:]:
        layer = module.__name__.rsplit(".", 1)[1]
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{name}", layer, fn)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
    for name in LINALG:
        fn = getattr(np.linalg, name)
        patches.append((np.linalg, name, fn))
        setattr(np.linalg, name, tracer.wrap(f"linalg.{name}", "linalg", fn))
    return patches


def uninstall(patches: list) -> None:
    for holder, attr, fn in reversed(patches):
        setattr(holder, attr, fn)


class Summary:
    """Self times and name-level totals of one traced pass."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        t = tracer
        n = len(t.start)
        covered = [0.0] * n
        self.by_name = {}
        for i in range(n):
            if t.parent[i] >= 0:
                covered[t.parent[i]] += t.end[i] - t.start[i]
            self.by_name.setdefault(t.names[t.name_id[i]], []).append(i)
        self.self_time = [t.end[i] - t.start[i] - covered[i] for i in range(n)]

    def _has_ancestor(self, index, names) -> bool:
        t = self.tracer
        parent = t.parent[index]
        while parent >= 0:
            if t.names[t.name_id[parent]] in names:
                return True
            parent = t.parent[parent]
        return False

    def calls(self, name) -> int:
        return len(self.by_name.get(name, ()))

    def inclusive_s(self, name) -> float:
        """Time inside ``name``, counting nested calls of it once."""
        t = self.tracer
        return sum(t.end[i] - t.start[i] for i in self.by_name.get(name, ())
                   if not self._has_ancestor(i, {name}))

    def self_s(self, name) -> float:
        return sum(self.self_time[i] for i in self.by_name.get(name, ()))

    def calls_within(self, name, ancestors) -> int:
        return sum(1 for i in self.by_name.get(name, ()) if self._has_ancestor(i, ancestors))

    def layers(self) -> dict:
        """Calls and self time per layer, plus the job roots' own time."""
        t = self.tracer
        out = {layer: [0, 0.0] for layer in LAYERS + ("linalg",)}
        for name, indices in self.by_name.items():
            layer = t.layer_of[t.names.index(name)]
            if layer is not None:
                out[layer][0] += len(indices)
                out[layer][1] += sum(self.self_time[i] for i in indices)
        roots = self.by_name.get(ROOT, ())
        return {"layers": out, "unattributed_s": sum(self.self_time[i] for i in roots)}
