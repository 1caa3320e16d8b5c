"""Outside-in tracing of the fraccert package.

Every public (not underscore-prefixed) module-level function of the
traced modules is replaced, at every module attribute through which the
package (or the benchmark) looks it up, by a wrapper that records one
span per call: name, start, end and parent.
``Problem.build`` is wrapped on its class.  Nothing inside the package
changes; ``uninstall`` puts every original object back.

Spans are kept in memory in flat integer arrays and written out as JSONL
once the run ends.  Self time is derived from them afterwards: a span's
duration minus the durations of its direct children.  Per-function
observers add counts (points evaluated, samples, iterations, ...) that a
span alone cannot carry.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# Traced layers, in the order the report lists them.  ``specialfn.gamma``
# is left out on purpose: it runs once per kernel evaluation and would
# double the span count while its cost belongs to the kernel layer.
LAYERS = ("cli", "problem", "kernel", "quadrature", "certify", "exprlang", "solver")


class Tracer:
    """Records spans for wrapped package functions and for benchmark roots."""

    def __init__(self):
        # the package itself re-exports most functions, so it is a lookup site too
        self._modules = {name: importlib.import_module(f"fraccert.{name}") for name in LAYERS}
        self._modules["fraccert"] = importlib.import_module("fraccert")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.active = False
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A benchmark-level span (set-up or one job) that parents package calls."""
        if not self.active:
            yield
            return
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run correctness checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, span_name: str, observer):
        name_id = self._name_id(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observer is not None:
                observer(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of each traced layer at every lookup site."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = self._modules[layer]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    span = f"{layer}.{attr}"
                    wrappers[id(fn)] = self._wrap(fn, span, OBSERVERS.get(span))
        for mod in self._modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        problem_cls = self._modules["problem"].Problem
        original = problem_cls.__dict__["build"]
        self._restore.append((problem_cls, "build", original))
        problem_cls.build = classmethod(self._wrap(original.__func__, "problem.build", None))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[str, np.ndarray]:
        """Per-span arrays: name id, root id, duration and self time (ns),
        and whether the span is the outermost of its layer on its path."""
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.int32, count=n).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.end, dtype=np.int64, count=n)
               - np.frombuffer(self.start, dtype=np.int64, count=n))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        layer_bit = [1 << LAYERS.index(nm.split(".")[0]) if nm.split(".")[0] in LAYERS else 0
                     for nm in self.names]
        root = np.arange(n)
        layers_above = [0] * n
        outer = np.ones(n, dtype=bool)
        # parents always precede their children, so one forward sweep
        # resolves every span's root and the layers on its path
        for i in np.nonzero(has_parent)[0]:
            p = parent[i]
            root[i] = root[p]
            above = layers_above[p] | layer_bit[self.name[p]]
            layers_above[i] = above
            outer[i] = not above & layer_bit[self.name[i]]
        return {"name": name, "root": root, "dur": dur, "self": dur - child, "outer": outer}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            names = self.names
            for i in range(len(self.start)):
                fh.write(json.dumps({"id": i, "name": names[self.name[i]],
                                     "start_ns": self.start[i], "end_ns": self.end[i],
                                     "parent": self.parent[i]}))
                fh.write("\n")


# ---------------------------------------------------------------- observers
# Each observer sees the result of a wrapped call that returned (a call that
# raised is only a span) and adds the counts that name a layer's work or its
# useful share.


def _points(key):
    def observe(tr, result):
        tr.count(key, np.size(result))
    return observe


def _box(tr, result):
    tr.count("certify.samples", result.samples)


def _conditions(tr, result):
    results = result if isinstance(result, tuple) else (result,)
    tr.count("certify.conditions", len(results))
    tr.count("certify.held", sum(1 for r in results if r.holds))


def _search(tr, result):
    if result is not None:
        tr.count("certify.search_certificate.hits")


def _build_model(tr, result):
    tr.count("kernel.build_model.accepted")


def _build_grid(tr, result):
    tr.count("solver.build_grid.nodes", result.nodes.size)


def _picard(tr, result):
    tr.count("solver.picard_iterations", result.iterations)
    tr.count("solver.converged", int(result.converged))


OBSERVERS = {
    "kernel.kernel_values": _points("kernel.kernel_values.points"),
    "exprlang.eval_expr_array": _points("exprlang.eval_expr_array.points"),
    "certify.box_sup": _box,
    "certify.box_inf": _box,
    "certify.check_I1": _conditions,
    "certify.check_I0": _conditions,
    "certify.check_I0_star": _conditions,
    "certify.search_certificate": _search,
    "kernel.build_model": _build_model,
    "solver.build_grid": _build_grid,
    "solver.solve_picard": _picard,
}
