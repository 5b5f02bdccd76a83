"""Span tracing of the package from outside it.

`Tracer.install()` replaces every function of the package's modules, in
every namespace that binds it, with a wrapper that records a span
(name, parent, request, start, end).  Calls inside the package look up
module globals, so patching module attributes catches them too.  Three
bindings need separate handling:

- the entries of `forms.FORM_EVALUATORS`, a dict that `cli` holds;
- scipy's `quad`, bound in `transform` and `verification` and imported
  from `scipy.integrate` inside `hydrogenic.expectation_p2`;
- the integrand passed to `quad`, which is counted, not spanned.

Spans stay in compact arrays until the run ends; `save()` writes them
out, `by_name()` derives calls, self and inclusive times per span name,
and `layer_entries()` counts calls that enter a layer from another.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("specfun", "hydrogenic", "forms", "transform", "verification", "cli")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_request = -1
        self.integrand_evals = 0
        self._undo: list = []
        self._request = self.wrap(lambda fn: fn(), "bench.request")

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """fn wrapped so that every call records a span called `name`."""
        nid = self._name_id(name)
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(tracer.current_request)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _counting_quad(self, quad):
        tracer = self

        def quad_counted(func, *args, **kwargs):
            def integrand(*x):
                tracer.integrand_evals += 1
                return func(*x)

            return quad(integrand, *args, **kwargs)

        return functools.update_wrapper(quad_counted, quad)

    def _set(self, owner, key, value, item: bool) -> None:
        old = owner[key] if item else getattr(owner, key)
        self._undo.append((owner, key, old, item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        import scipy.integrate

        package = sys.modules["hmomentum"]
        modules = [sys.modules[f"hmomentum.{layer}"] for layer in LAYERS]
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and obj.__name__ != "<lambda>":
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("__")
                                                       or meth == "__call__"):
                            self._set(obj, meth, self.wrap(fn, f"{layer}.{name}.{meth}"),
                                      item=False)
        quad = scipy.integrate.quad
        wrapped[id(quad)] = (quad, self.wrap(self._counting_quad(quad), "transform.quad"))
        for ns in [package, scipy.integrate, *modules]:
            for name, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(ns, name, hit[1], item=False)
        evaluators = sys.modules["hmomentum.forms"].FORM_EVALUATORS
        for key, fn in list(evaluators.items()):
            hit = wrapped.get(id(fn))
            new = hit[1] if hit is not None else self.wrap(fn, f"forms.FORM_EVALUATORS.{key}")
            self._set(evaluators, key, new, item=True)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old, item = self._undo.pop()
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)

    def call_request(self, index: int, fn):
        """fn() under a root span `bench.request` that tags its descendants."""
        self.current_request = index
        return self._request(fn)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def by_name(self) -> dict:
        """name -> (calls, self seconds, inclusive seconds)."""
        a = self.arrays()
        n_names = len(self.names)
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(a["name_id"], minlength=n_names)
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
        incl_s = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        return {name: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
                for i, name in enumerate(self.names)}

    def layer_entries(self) -> dict:
        """layer -> number of spans whose parent lies in another layer."""
        a = self.arrays()
        layer_of = np.array([n.split(".", 1)[0] for n in self.names] + [""])
        span_layer = layer_of[a["name_id"]]
        parent_layer = layer_of[np.where(a["parent"] >= 0, a["name_id"][a["parent"]], -1)]
        entries = span_layer[span_layer != parent_layer]
        layers, counts = np.unique(entries, return_counts=True)
        return dict(zip(layers.tolist(), counts.tolist()))
