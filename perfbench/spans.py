"""Spans around calls into nervecheck's layers, installed from outside src/.

A traced function is replaced wherever its name is looked up: in every
loaded ``nervecheck.*`` module namespace that holds it (``suites`` imports
names with ``from .x import y``; ``homotopy`` calls ``collapse`` through
its own globals).  Constructors are traced through ``__init__``, methods
and cached properties on their class.  Spans stay in memory; self time
is a span's duration minus the durations of its direct children, and
total time the whole duration (``mapping.to_complex.total_s`` includes the
``homotopy.Complex`` it builds).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path); a class traces __init__.  The metric prefix is
# the module and the last path part, e.g. "mapping.to_complex".
TARGETS = [
    ("oriental", "build_d"),
    ("poset", "Poset.covers"),
    ("poset", "nerve_chains"),
    ("horn", "l_complex"),
    ("mapping", "flag_model"),
    ("mapping", "FlagModel.to_complex"),
    ("homotopy", "Complex"),
    ("homotopy", "collapse"),
    ("homotopy", "homology"),
    ("homotopy", "pi1_trivial"),
    ("homotopy", "contractibility_verdict"),
    ("groth", "grothendieck_poset"),
    ("nerves", "relative_nerve_1"),
    ("nerves", "relative_nerve_2"),
    ("nerves", "pi_star_check"),
    ("nerves", "chi_groth_comparison"),
    ("nerves", "base_change_check"),
    ("simplicial", "SimplexTable"),
    ("simplicial", "horn_fill_check"),
    ("lifting", "reduced_lifting_check"),
    ("suites", "run_suite"),
]

VERDICT_METHODS = ["collapse", "homology", "acyclic-simply-connected",
                   "pi1-unresolved", "empty", "other"]


def target_name(idx: int) -> str:
    module, path = TARGETS[idx]
    return f"{module}.{path.rpartition('.')[2]}"


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def rebind(orig, new) -> list:
    """Point every nervecheck module global bound to orig at new; return undo."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if name == "nervecheck" or name.startswith("nervecheck."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    undo.append((mod, key, orig))
    return undo


def _restore(undo: list) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


class Tracer:
    """Records (target, start, end, parent span, phase) per traced call."""

    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        self.counts = {"mapping.simplices": 0, "homotopy.collapse.success": 0}
        self.counts.update({f"homotopy.verdict.{m}": 0 for m in VERDICT_METHODS})
        self._stack: list[int] = []
        self._undo: list = []

    def _on_result(self, name: str, result) -> None:
        if name == "mapping.to_complex":
            self.counts["mapping.simplices"] += len(result)
        elif name == "homotopy.collapse":
            self.counts["homotopy.collapse.success"] += bool(result.success)
        elif name == "homotopy.contractibility_verdict":
            method = result.method if result.method in VERDICT_METHODS else "other"
            self.counts[f"homotopy.verdict.{method}"] += 1

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name = target_name(idx)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, self.phase)
            self._on_result(name, result)
            return result
        return traced

    def install(self) -> None:
        for idx, (module, path) in enumerate(TARGETS):
            mod = importlib.import_module(f"nervecheck.{module}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:  # method or cached property
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, functools.cached_property):
                    self._undo.append((raw, "func", raw.func))
                    raw.func = self._wrap(idx, raw.func)
                else:
                    self._undo.append((owner, attr, raw))
                    setattr(owner, attr, self._wrap(idx, raw))
                continue
            obj = getattr(mod, attr)
            if isinstance(obj, type):
                init = obj.__dict__["__init__"]
                self._undo.append((obj, "__init__", init))
                obj.__init__ = self._wrap(idx, init)
            else:
                self._undo += rebind(obj, self._wrap(idx, obj))

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    def totals(self) -> dict[str, float]:
        """Per-target self time, inclusive time and calls over all spans."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx in range(len(TARGETS)):
            name = target_name(idx)
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.calls"] = 0
        for k, (idx, start, end, _, _) in enumerate(self.spans):
            name = target_name(idx)
            out[f"{name}.self_s"] += end - start - child[k]
            out[f"{name}.total_s"] += end - start
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        success, calls = out.pop("homotopy.collapse.success"), out["homotopy.collapse.calls"]
        out["homotopy.collapse.success_ratio"] = success / calls if calls else 0.0
        return out

    def dump(self) -> dict:
        return {"targets": [target_name(idx) for idx in range(len(TARGETS))],
                "columns": ["target", "start", "end", "parent", "phase"],
                "spans": self.spans}
