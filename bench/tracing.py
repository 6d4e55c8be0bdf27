"""Benchmark-side spans around the public functions of each module.

`install` replaces every traced function by a wrapper in every
namespace that binds it (the defining module, the modules that import
it by name, and the package), so calls between modules are seen too.
A span is (name, start, end, parent), kept in flat arrays while the
worker runs and written out when it ends.  Self time is a span's
duration minus the durations of its child spans; total time sums the
outermost span of each recursion, so a function that calls itself
through another is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# Modules of the package and the public functions timed in each.
# `linalg` has no caller in the package, so it is not traced.
TRACED = {
    "cli": ("main",),
    "formula_io": ("parse_formula", "export_formula"),
    "presets": ("preset", "affine"),
    "formula": ("validate_spec", "extend_product"),
    "defects": ("skew_defect", "commutator_defect", "defect_sweep",
                "injectivity_verdict", "conformal_validate"),
    "local_algebra": ("bracket", "lie_D", "reduce_generator", "jacobi_window_verify"),
    "verma": ("act", "act_lie", "act_word", "apply_D_module", "specialize_level",
              "monomial_basis", "graded_dimension", "field_coefficient",
              "axiom_spotcheck"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Outcome counters taken from return values: name -> {counter: fn(result)}.
OUTCOMES = {
    "defects.skew_defect": {"nonzero": bool},
    "defects.commutator_defect": {"nonzero": bool},
    "local_algebra.bracket": {"zero": lambda r: not r},
    "verma.act": {"zero": lambda r: not r, "terms_out": len},
    "verma.monomial_basis": {"monomials": lambda r: sum(len(m) for m in r.values())},
}


class Tracer:
    """Span store shared by all wrappers of one worker process."""

    def __init__(self):
        self.name = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.outcomes = {name: dict.fromkeys(counters, 0)
                         for name, counters in OUTCOMES.items()}

    def wrap(self, fn, nid: int):
        name_append, parent_append = self.name.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        ends, stack = self.end, self.stack
        counters = OUTCOMES.get(NAMES[nid], {})
        totals = self.outcomes.get(NAMES[nid])

        def wrapper(*args, **kwargs):
            idx = len(ends)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(idx)
            start_append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            for counter, measure in counters.items():
                totals[counter] += measure(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def summary(self) -> dict:
        """Per traced name: calls, self_s, total_s and outcome counters."""
        n = len(self.name)
        child = [0.0] * n
        # bit i set: some ancestor span has name number i
        above = [0] * n
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        total_s = [0.0] * len(NAMES)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(n):
            nid, p = name[i], parent[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            if p >= 0:
                child[p] += dur
                above[i] = above[p] | (1 << name[p])
            if not (above[i] >> nid) & 1:
                total_s[nid] += dur
        for i in range(n):
            self_s[name[i]] += end[i] - start[i] - child[i]
        out = {}
        for nid, full in enumerate(NAMES):
            row = {"calls": calls[nid], "self_s": self_s[nid], "total_s": total_s[nid]}
            row.update(self.outcomes.get(full, {}))
            out[full] = row
        return out

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        with open(path, "wb") as handle:
            header = {"names": NAMES, "spans": len(self.name),
                      "arrays": ["name:h", "parent:l", "start:d", "end:d"]}
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)


def install(package: str = "vertexlie") -> Tracer:
    """Wrap every traced function wherever the package binds it."""
    tracer = Tracer()
    for mod in TRACED:
        importlib.import_module(f"{package}.{mod}")
    namespaces = [m for key, m in sys.modules.items()
                  if key == package or key.startswith(package + ".")]
    for nid, full in enumerate(NAMES):
        mod, fn_name = full.split(".")
        original = getattr(sys.modules[f"{package}.{mod}"], fn_name)
        wrapper = tracer.wrap(original, nid)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
    return tracer
