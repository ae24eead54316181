"""Per-layer tracing of ``epwcalc``.

``Tracer.install`` wraps the public functions of every module in each
``epwcalc`` namespace that binds them (``from .hodge_ring import multiply``
copies the binding, so patching the defining module alone would miss
calls), and the ``ParametricScalar`` and ``Report`` methods on their
classes.  Each call records a span (name, start, end, parent) in memory;
``aggregate`` turns the spans into call counts and self time (a span's
duration minus that of its direct children).

Run as a script, this module is the traced child of the ``cold-cli``
workload: ``python layers.py <fd> <epwcalc argv...>`` runs one CLI request
under the tracer and writes the aggregated spans as JSON to file
descriptor ``fd``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import re
import sys
import time

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__pow__", "__neg__")

#: span name -> (module, attribute) pairs it covers; "*" is every public
#: function the module defines
SPANS: dict[str, list[tuple[str, str]]] = {
    "cli.build_parser": [("cli", "build_parser")],
    "cli.Report.to_json": [("cli", "Report.to_json")],
    "cli.Report.to_text": [("cli", "Report.to_text")],
    "qfield.ParametricScalar.new": [("qfield", "ParametricScalar.__init__")],
    "qfield.ParametricScalar.arith": [("qfield", f"ParametricScalar.{m}") for m in _ARITH],
    "qfield.ParametricScalar.evaluate": [("qfield", "ParametricScalar.evaluate")],
    "fujiki.fujiki_constant": [("fujiki", "fujiki_constant")],
    "hodge_ring.multiply": [("hodge_ring", "multiply")],
    "hodge_ring.integrate": [("hodge_ring", "integrate")],
    "hodge_ring.derive_relations": [("hodge_ring", "derive_degree8_relation"),
                                    ("hodge_ring", "derive_degree10_relations")],
    "hodge_ring.chern_numbers_from_ring": [("hodge_ring", "chern_numbers_from_ring")],
    "hodge_ring.verify_independence_degree6": [("hodge_ring", "verify_independence_degree6")],
    "lagrangian.disambiguate_involution_case": [("lagrangian", "disambiguate_involution_case")],
    "lagrangian.fixed_locus_invariants": [("lagrangian", "fixed_locus_invariants")],
    "lagrangian.self_intersection": [("lagrangian", "self_intersection")],
    "degeneration.jacobian_class_of_E": [("degeneration", "jacobian_class_of_E")],
    "degeneration.kuranishi_identity_check": [("degeneration", "kuranishi_identity_check")],
    "degeneration.pell_spherical_classes": [("degeneration", "pell_spherical_classes")],
    "degeneration.sym_prod_eval": [("degeneration", "sym_prod_eval")],
    "degeneration.f3_hodge_relations": [("degeneration", "f3_hodge_relations")],
    "llv": [("llv", "*")],
    "mukai": [("mukai", "*")],
}

#: the epwcalc modules whose import self time is reported one by one
MODULES = ("epwcalc", "qfield", "fujiki", "hodge_ring", "llv", "lagrangian",
           "mukai", "degeneration", "cli")


class Tracer:
    """Spans kept in memory; patches undone by ``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every function in ``SPANS``; ``epwcalc.cli`` must be imported."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "epwcalc" or n.startswith("epwcalc.")]
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                module = sys.modules[f"epwcalc.{module_name}"]
                if attr == "*":
                    functions = [f for n, f in vars(module).items()
                                 if inspect.isfunction(f) and not n.startswith("_")
                                 and f.__module__ == module.__name__]
                elif "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                else:
                    functions = [getattr(module, attr)]
                for fn in functions:
                    wrapped = self._wrap(name, fn)
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is fn:
                                self._patch(namespace, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def aggregate(spans) -> dict[str, list[int]]:
    """Span name -> [calls, self time in ns]."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list[int]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns[index]
    return totals


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self times in ms from ``-X importtime`` of ``import epwcalc.cli``.

    Only the import trees whose root is an epwcalc module count: the lines
    the interpreter's own start-up prints come before them."""
    out = {f"import.{m}.self_ms": 0.0 for m in MODULES}
    out["import.stdlib.self_ms"] = out["import.total_ms"] = 0.0
    group: list[tuple[int, str]] = []
    for match in _IMPORT_LINE.finditer(stderr):
        self_us, cum_us, indent, name = match.groups()
        group.append((int(self_us), name))
        if len(indent) > 1:
            continue
        if name == "epwcalc" or name.startswith("epwcalc."):
            out["import.total_ms"] += int(cum_us) / 1000
            for us, module in group:
                if module == "epwcalc" or module.startswith("epwcalc."):
                    out[f"import.{module.rpartition('.')[2]}.self_ms"] += us / 1000
                else:
                    out["import.stdlib.self_ms"] += us / 1000
        group = []
    return out


def _traced_child() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    from epwcalc import cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("request", cli.run, argv)
    finally:
        with os.fdopen(fd, "w") as sink:
            json.dump(aggregate(tracer.spans), sink)


if __name__ == "__main__":
    sys.exit(_traced_child())
