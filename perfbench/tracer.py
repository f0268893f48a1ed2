"""Outside-in tracer for the layers of ``dsm``.

The layers are the modules under ``src/dsm``.  While a :class:`Tracer` is
active, every public function of a layer (a function named in the
module's ``__all__`` and defined there) is replaced by a timing wrapper at
every module-level binding in ``dsm.*`` that holds it, found by identity.
That covers the package re-exports and the private copies modules bind
with ``from .linsolve import reg_solve``.  ``numpy.linalg.solve`` is
wrapped too and counted as ``linsolve`` work, because the dense LU inside
it is what the shifted solve costs.  Every binding is restored on exit.

Spans are kept in memory as ``(parent, function, start, end, extra)``
tuples and turned into per-layer metrics by :meth:`Tracer.summary`;
``extra`` holds the fields of a result the metrics need.  A layer's self
time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy

LAYERS = ("cli", "corpus", "problem", "linsolve", "regroot", "flow", "iterate", "recursion")
LU = "linsolve.numpy.linalg.solve"


def _flow_extra(result, args, kwargs):
    return tuple(getattr(result, k, None) for k in ("rhs_evals", "accepted", "rejected"))


def _root_extra(result, args, kwargs):
    return (getattr(result, "newton_iters", None), getattr(result, "converged", None))


def _iteration_extra(result, args, kwargs):
    steps = getattr(result, "steps", None)
    return None if steps is None else len(steps) - 1


def _lu_extra(result, args, kwargs):
    return numpy.shape(args[0])[-1]


def _terms_extra(result, args, kwargs):
    # length of the first sequence argument: the recursion's horizon
    for value in (*args, *kwargs.values()):
        if numpy.ndim(value) == 1:
            return len(value)
    return 0


_EXTRAS = {
    "flow.integrate_flow": _flow_extra,
    "regroot.solve_regularized": _root_extra,
    "iterate.run_iteration": _iteration_extra,
    LU: _lu_extra,
}


def _result_fields(module: str, cls: str) -> set:
    """Field names of a result dataclass, empty when the class is gone."""
    obj = getattr(importlib.import_module(f"dsm.{module}"), cls, None)
    return {f.name for f in fields(obj)} if is_dataclass(obj) else set()


class Tracer:
    """Context manager that wraps the layers' public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []
        self.caught: list = []
        self._stack = [-1]
        self._saved: list = []
        self._originals: dict = {}
        self._files: dict = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dsm.{layer}")
            self._files[os.path.realpath(module.__file__)] = layer
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._originals[id(fn)] = (fn, self._add(layer, f"{layer}.{name}"))
        self._lu = self._add("linsolve", LU)

    def _add(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, index: int):
        spans, stack = self.spans, self._stack
        extra = _EXTRAS.get(self.names[index])
        if extra is None and self.layer_of[index] == "recursion":
            extra = _terms_extra
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = None
                if extra is not None and result is not None:
                    info = extra(result, args, kwargs)
                spans[sid] = (parent, index, start, end, info)

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        wrappers = {key: self._wrap(fn, idx) for key, (fn, idx) in self._originals.items()}
        modules = [importlib.import_module("dsm")] + [
            importlib.import_module(f"dsm.{layer}") for layer in LAYERS
        ]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and value is self._originals[id(value)][0]:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
        self._saved.append((numpy.linalg, "solve", numpy.linalg.solve))
        numpy.linalg.solve = self._wrap(numpy.linalg.solve, self._lu)
        self._warnings = warnings.catch_warnings(record=True)
        self.caught = self._warnings.__enter__()
        warnings.simplefilter("always")  # count every occurrence, not the first
        return self

    def __exit__(self, *exc):
        self._warnings.__exit__(*exc)
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()
        return False

    def write_spans(self, path: Path) -> None:
        """Write the spans as JSON: function names plus one row per span."""
        rows = [list(span[:4]) for span in self.spans]
        path.write_text(json.dumps({"functions": self.names, "spans": rows}))

    def summary(self) -> tuple[dict, list[str]]:
        """Per-layer metrics of the recorded spans, and self-check mismatches.

        A metric whose function or result field no longer exists in
        ``dsm`` is left out rather than reported as zero.
        """
        spans, names, layer_of = self.spans, self.names, self.layer_of
        child = [0.0] * len(spans)
        for parent, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = Counter()
        under_layer = Counter()
        under_fn = Counter()
        busy = Counter()
        extras = defaultdict(list)
        for sid, (parent, idx, start, end, info) in enumerate(spans):
            name = names[idx]
            self_s[layer_of[idx]] += (end - start) - child[sid]
            calls[name] += 1
            busy[name] += end - start
            parent_fn = names[spans[parent][1]] if parent >= 0 else None
            parent_layer = layer_of[spans[parent][1]] if parent >= 0 else None
            under_layer[name, parent_layer] += 1
            under_fn[name, parent_fn] += 1
            if info is not None:
                extras[name].append((parent_layer, info))

        known = set(names)
        flow_fields = _result_fields("flow", "FlowResult")
        root_fields = _result_fields("regroot", "RegRoot")
        m: dict = {}
        mismatches: list[str] = []

        def count(name, key, parent=None):
            if name in known:
                m[key] = calls[name] if parent is None else under_layer[name, parent]

        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        count("corpus.problem_from_dict", "corpus.builds")
        count("problem.apply_operator", "problem.operator_evals")
        count("problem.jacobian", "problem.jacobian_evals")
        count("linsolve.reg_solve", "linsolve.calls")
        m["linsolve.lu_solves"] = under_layer[LU, "linsolve"]
        m["linsolve.flops_computed"] = sum(
            2.0 / 3.0 * n**3 for parent, n in extras[LU] if parent == "linsolve"
        )

        count("regroot.solve_regularized", "regroot.root_solves")
        roots = [info for _, info in extras["regroot.solve_regularized"]]
        if "regroot.solve_regularized" in known and "newton_iters" in root_fields:
            newton = sum(info[0] for info in roots)
            trials = (
                under_fn["problem.apply_operator", "regroot.solve_regularized"]
                - calls["regroot.solve_regularized"]
            )
            m["regroot.newton_iters"] = newton
            m["regroot.trial_evals"] = trials
            m["regroot.accept_ratio"] = newton / trials if trials else 0.0
            solves = under_layer["linsolve.reg_solve", "regroot"]
            if solves != newton:
                mismatches.append(
                    f"linsolve calls under regroot {solves} != sum newton_iters {newton}"
                )
        if "regroot.solve_regularized" in known and "converged" in root_fields:
            m["regroot.unconverged"] = sum(1 for info in roots if not info[1])

        count("flow.integrate_flow", "flow.runs")
        count("linsolve.reg_solve", "flow.shifted_solves", parent="flow")
        if "flow.integrate_flow" in known:
            runs = [info for _, info in extras["flow.integrate_flow"]]
            for pos, key in enumerate(("rhs_evals", "accepted", "rejected")):
                if key in flow_fields:
                    m[f"flow.{key}"] = sum(info[pos] for info in runs)
            if {"accepted", "rejected"} <= flow_fields:
                steps = m["flow.accepted"] + m["flow.rejected"]
                m["flow.accept_ratio"] = m["flow.accepted"] / steps if steps else 0.0
            if "rhs_evals" in flow_fields:
                solves = under_layer["linsolve.reg_solve", "flow"]
                if solves != m["flow.rhs_evals"]:
                    mismatches.append(
                        f"linsolve calls under flow {solves} != sum rhs_evals "
                        f"{m['flow.rhs_evals']}"
                    )

        if "iterate.run_iteration" in known:
            steps = sum(info for _, info in extras["iterate.run_iteration"])
            m["iterate.steps"] = steps
            roots_in_iterate = under_layer["regroot.solve_regularized", "iterate"]
            m["iterate.root_solves_per_step"] = roots_in_iterate / steps if steps else 0.0
            solves = under_layer["linsolve.reg_solve", "iterate"]
            if solves != steps:
                mismatches.append(f"linsolve calls under iterate {solves} != steps {steps}")
        if "iterate.verify_step_recursion" in known:
            m["iterate.verify_s"] = busy["iterate.verify_step_recursion"]

        m["recursion.terms"] = sum(
            info
            for name in known
            if name.startswith("recursion.")
            for parent, info in extras[name]
            if parent != "recursion"
        )

        by_layer = Counter(self._files.get(os.path.realpath(w.filename)) for w in self.caught)
        for layer in LAYERS:
            m[f"{layer}.warnings"] = by_layer[layer]
        return m, mismatches
