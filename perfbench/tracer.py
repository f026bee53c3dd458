"""Outside-in span tracer for the gtmodules layers.

Nothing in ``src/`` is edited: ``install()`` rebinds each traced function,
under every name any ``gtmodules`` module bound it to (``from .action import
act_e`` makes a second binding that patching the defining module alone
would miss), to a wrapper that records one span per call.  ``uninstall()``
puts the originals back, so untraced ops in the same process run the
unwrapped code.

A span is (op, name, start_ns, end_ns, parent span).  Spans stay in memory
and are written out once, at the end of the run, by ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

SPAN_FIELDS = ("op", "name", "start_ns", "end_ns", "parent")

# Layer -> predicate on the names of functions defined in gtmodules.<layer>.
TRACED = {
    "ratcalc": lambda name: name.startswith("rf_"),
    "tableau": lambda name: name in {"canonicalize", "classify", "is_standard"},
    "action": lambda name: name.startswith("gamma_") or name in {
        "act_e", "coeff_e", "_singular_emissions", "_classical_terms",
        "apply_e", "act_gamma", "apply_casimir_pbw",
    },
    "structure": lambda name: name.startswith(("reach_", "omega_"))
    or name in {"irreducibility_verdict", "separator"},
    "checks": lambda name: name.startswith("check_"),
    "cli": lambda name: name.startswith("cmd_"),
}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "gtmodules" or name.startswith("gtmodules.")]


def distinct_caches() -> list:
    """Every functools cache in gtmodules, once each: the same cached
    ``classify`` is bound in several modules."""
    caches = {}
    for module in package_modules():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_info", None)) and callable(getattr(obj, "cache_clear", None)):
                caches[id(obj)] = obj
    return list(caches.values())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # SPAN_FIELDS, flattened
        self.op = 0
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._targets: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        self._collect_targets()

    def _collect_targets(self):
        modules = package_modules()
        for layer, wanted in TRACED.items():
            home = sys.modules[f"gtmodules.{layer}"]
            for attr, fn in vars(home).items():
                if isinstance(fn, type) or not callable(fn) or not wanted(attr):
                    continue
                if getattr(fn, "__module__", None) != home.__name__:
                    continue  # imported into this module, traced where it is defined
                wrapper = self.wrap(f"{layer}.{attr}", fn, self._observer(attr))
                self._targets += [
                    (module, bound, fn, wrapper)
                    for module in modules
                    for bound, value in vars(module).items()
                    if value is fn
                ]
        window = sys.modules["gtmodules.structure"].Window
        self._targets.append((window, "shifts", window.shifts, self.wrap("structure.Window.shifts", window.shifts)))

    def _observer(self, attr: str):
        counters = self.counters
        if attr == "act_e":

            def diag(args, result):
                if args[1] == args[2]:
                    counters["action.act_e.diag"] += 1

            return diag
        if attr == "omega_drop_audit":

            def scanned(args, result):
                counters["structure.edges_scanned"] += result.edges_scanned

            return scanned
        return None

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped so that each call appends a span named ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            me = len(spans) // 5
            spans.extend((tracer.op, name_id, 0, 0, stack[-1]))
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[5 * me + 2] = start
                spans[5 * me + 3] = end
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self):
        for owner, attr, original, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, wrapper in self._targets:
            setattr(owner, attr, original)

    def profile(self, first: int) -> tuple[Counter, Counter, Counter]:
        """Calls, inclusive ns and self ns per span name, over the spans from
        index ``first`` on.  Self time is a span's duration minus the time its
        child spans cover."""
        s = self.spans
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        exclusive: Counter = Counter()
        names = [self.names[s[5 * idx + 1]] for idx in range(first, len(s) // 5)]
        for idx in range(first, len(s) // 5):
            name, start, end, parent = names[idx - first], s[5 * idx + 2], s[5 * idx + 3], s[5 * idx + 4]
            calls[name] += 1
            inclusive[name] += end - start
            exclusive[name] += end - start
            if parent >= first:
                exclusive[names[parent - first]] -= end - start
        return calls, inclusive, exclusive

    def dump(self, path: Path, meta: dict):
        """Write the spans as native int64 rows plus a JSON header that names
        the fields, the span names and the byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            **meta, "fields": list(SPAN_FIELDS), "names": self.names,
            "spans": len(self.spans) // 5, "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as fh:
            self.spans.tofile(fh)
