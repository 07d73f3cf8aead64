"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of the six working modules of
``epicube`` from the outside.  A function is usually bound under several
module-level names (``build_Z`` lives in ``degeneracy`` and is imported
into ``estimators``; the samplers are imported into ``simulate``), so each
wrapper is bound in place of *every* name in every loaded ``epicube``
module that refers to the original.  ``uninstall`` puts the originals back.

Each call becomes one span ``(name, start, end, parent, error)`` kept in
memory; a span's entry holds its name from the start of the call, so a
running parent can be named.  A span's self time is its duration minus the
durations of its direct children.  A few wrapped functions also feed counters from their
return values, so that accept ratios are counted where the work happens.
"""

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("simulate", "degeneracy", "exact", "estimators", "quadrics", "projective")


def _observe_classify(qc, counts, parent):
    counts[f"quadrics.classify.nonruled<{parent}"] += qc.tag == "NONRULED_NONDEGENERATE"


def _observe_pencil(sol, counts, parent):
    counts["estimators.pencil_solve.candidates"] += len(sol.candidates)


def _observe_region(cells, counts, parent):
    counts["quadrics.region_grid.cells"] += len(cells)
    counts["quadrics.region_grid.degenerate"] += sum(
        qc.tag == "DEGENERATE" for _, _, qc in cells
    )


OBSERVERS = {
    "quadrics.classify": _observe_classify,
    "estimators.pencil_solve": _observe_pencil,
    "quadrics.region_grid": _observe_region,
}


def layer_functions():
    """{qualified name: function} for the public functions of each layer."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"epicube.{layer}"]
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[f"{layer}.{attr}"] = obj
    return out


class Tracer:
    """Collects spans while installed; use as a context manager."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in layer_functions().items():
            self.names.append(name)
            wrappers[id(fn)] = (fn, self._wrap(len(self.names) - 1, fn, OBSERVERS.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "epicube" and not modname.startswith("epicube."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    def _wrap(self, name_id, fn, observe):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        names = self.names
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name_id, 0.0, 0.0, parent, None))
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, error)
            if observe is not None:
                observe(result, counts, names[spans[parent][0]] if parent >= 0 else None)
            return result

        return traced

    def summary(self):
        """Per-function calls, errors, inclusive and self seconds.

        Also returns the summed duration of the root spans.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: {"calls": 0, "errors": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        root_s = 0.0
        for i, (name_id, start, end, parent, error) in enumerate(self.spans):
            st = stats[self.names[name_id]]
            dur = end - start
            st["calls"] += 1
            st["errors"] += error is not None
            st["incl_s"] += dur
            st["self_s"] += dur - child[i]
            if parent < 0:
                root_s += dur
        return stats, root_s

    def errors_of(self, name):
        """Error type (or None) of each call of ``name``, in call order."""
        name_id = self.names.index(name)
        return [s[4] for s in self.spans if s[0] == name_id]

    def child_time(self, parent_name, child_names):
        """Summed inclusive seconds of direct ``child_names`` calls under ``parent_name``."""
        parent_id = self.names.index(parent_name)
        ids = {self.names.index(n) for n in child_names}
        total = 0.0
        for name_id, start, end, parent, _ in self.spans:
            if name_id in ids and parent >= 0 and self.spans[parent][0] == parent_id:
                total += end - start
        return total

    def calls_under(self, name, parent_name):
        """Number of ``name`` calls whose direct parent is ``parent_name``."""
        name_id = self.names.index(name)
        parent_id = self.names.index(parent_name)
        return sum(
            1 for s in self.spans if s[0] == name_id and s[3] >= 0 and self.spans[s[3]][0] == parent_id
        )
