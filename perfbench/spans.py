"""In-memory span tracing around seprkit's public functions.

Wrappers are installed from the benchmark's side, at the layer boundaries
the per-layer metrics name; seprkit itself is not edited.  Modules bind
one another's functions with ``from .x import f``, so a function is
replaced on every seprkit module that holds it, and methods are replaced
on the class.  A span is ``(name, start, end, parent, run)``: ``parent``
is the index of the enclosing span (-1 for none) and ``run`` the CLI call
it belongs to.  Calls are single-threaded, so child spans nest inside their
parent and a span's self time is its duration minus its children's.

Scalar arithmetic is counted, not spanned: it runs millions of times.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module, attribute) of the seprkit function it wraps
FUNCTIONS = {
    "cli.main": ("seprkit.cli", "main"),
    "exact.parse": ("seprkit.matrix", "matrix_from_json"),
    "matrix.grid_rank": ("seprkit.matrix", "grid_rank"),
    "sepr.compute_sepr": ("seprkit.sepr", "compute_sepr"),
    "sepr.compute_epr": ("seprkit.sepr", "compute_epr"),
    "classify.scan": ("seprkit.classify", "scan_for_forbidden"),
    "catalog.build_witness": ("seprkit.catalog", "build_witness"),
    "properties.run_suite": ("seprkit.properties", "run_suite"),
    "search.random_matrix": ("seprkit.search", "random_matrix"),
    "search.sweep": ("seprkit.search", "full_sequence_sweep"),
}

# span name -> HermitianMatrix methods it wraps
METHODS = {
    "matrix.construct": ("__init__",),
    "matrix.rank": ("rank",),
    "matrix.inverse": ("inverse",),
    "matrix.transform": ("negate", "__neg__", "permute", "direct_sum", "duplicate_last"),
}

# binary + - * / on each scalar class; __rsub__ and __rtruediv__ call the
# forward operator, so wrapping them too would count those operations twice
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__")
SCALAR_COUNTERS = {"GaussianRational": "exact.gaussian_ops", "Sqrt5Rational": "exact.sqrt5_ops"}


def check_function(name: str) -> str:
    """Suite check name (as in properties.SUITE_CHECKS) -> function name."""
    return "check_" + name.lower().replace("-", "_")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.counters = {}
        self.run = -1
        self._stack = []

    def count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent, self.run)
                stack.pop()

        return traced

    def wrap_generator(self, name: str, fn):
        """Span each step of a generator; one span per yielded item."""
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                self.count(name + ".items")
                yield item

        return traced

    def counted(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counting(*args):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args)

        return counting

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every layer boundary of the imported seprkit package."""
        from seprkit import exact, matrix, properties, search

        modules = [m for key, m in sys.modules.items() if key == "seprkit" or key.startswith("seprkit.")]

        def replace_everywhere(original, wrapped):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is not None:
                replace_everywhere(original, self.wrap(name, original))
        completions = getattr(search, "singular_completions", None)
        if completions is not None:
            replace_everywhere(completions, self.wrap_generator("search.completions", completions))
        for check in properties.SUITE_CHECKS:
            original = getattr(properties, check_function(check), None)
            if original is not None:
                replace_everywhere(original, self.wrap(f"properties.check.{check}", original))

        cls = matrix.HermitianMatrix
        for name, methods in METHODS.items():
            for method in methods:
                if method in vars(cls):
                    setattr(cls, method, self.wrap(name, vars(cls)[method]))
        signs = getattr(cls, "minor_signs_by_order", None)
        if signs is not None:
            cls.minor_signs_by_order = self.wrap("matrix.minor_signs", self._observe_minor_table(signs))

        for cls_name, key in SCALAR_COUNTERS.items():
            scalar = getattr(exact, cls_name)
            for op in SCALAR_OPS:
                if op in vars(scalar):
                    setattr(scalar, op, self.counted(key, vars(scalar)[op]))

    def _observe_minor_table(self, fn):
        """Count table hits (a matrix whose minors were already cached),
        minors computed, and zero minors among them."""

        @functools.wraps(fn)
        def observed(matrix):
            hit = getattr(matrix, "_minor_cache", None) is not None
            signs = fn(matrix)
            self.count("matrix.minor_table.calls")
            if hit:
                self.count("matrix.minor_table.hits")
            else:
                self.count("matrix.minors.count", sum(len(row) for row in signs))
                self.count("matrix.minors.zero", sum(1 for row in signs for s in row if s == 0))
            return signs

        return observed

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write the raw spans, name table and counters as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, fh)

    def summary(self):
        """Per span name: calls, total seconds and self seconds, plus the
        count of spans whose parent has each name (``children``)."""
        child_time = [0.0] * len(self.spans)
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": {}} for name in self.names}
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name_id, start, end, parent, _) in enumerate(self.spans):
            entry = stats[self.names[name_id]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            if parent >= 0:
                parent_name = self.names[self.spans[parent][0]]
                kids = stats[parent_name]["children"]
                kids[self.names[name_id]] = kids.get(self.names[name_id], 0) + 1
        return stats

    def sweep_calls(self):
        """(sweep calls, sweep calls that enumerated no matrix)."""
        if "search.sweep" not in self._name_ids:
            return 0, 0
        sweep_id = self._name_ids["search.sweep"]
        busy = set()
        for _, _, _, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == sweep_id:
                busy.add(parent)
        calls = sum(1 for span in self.spans if span[0] == sweep_id)
        return calls, calls - len(busy)
