"""Span tracing of the library's layers, from outside the library.

`Tracer.install()` replaces each traced function by a wrapper that records
a span (name, start, end, parent span, op id).  Modules bind each other's
functions at import (`decorated` does `from .minkowski import act, ...`),
so a module-level function is replaced under every name that holds it in
every `superteich` module; methods are replaced on their class.  Spans are
kept in memory, recorded only while an op is open, and written out at the
end.
"""

import functools
import json
import sys
import time

import numpy as np

from superteich import _kernels, decorated, fatgraph_spin, minkowski, superlinalg
from superteich.grassmann import GrassmannNumber

# layer name -> (owner, attribute) pairs wrapped under that name
LAYERS = {
    "kernel.product": [(_kernels, "multiply_coeffs")],
    "grassmann.series": [(GrassmannNumber, "inverse"), (GrassmannNumber, "sqrt")],
    "superlinalg.smul": [(superlinalg, "smul")],
    "minkowski.act": [(minkowski, "act")],
    "minkowski.normalize_triple": [(minkowski, "normalize_triple")],
    "minkowski.mu_invariant": [(minkowski, "mu_invariant")],
    "minkowski.basic_calculation": [(minkowski, "basic_calculation")],
    "decorated.lift": [(decorated, "lift")],
    "fatgraph_spin.flip": [(fatgraph_spin, "flip")],
    "fatgraph_spin.orientation_classes": [(fatgraph_spin, "orientation_classes")],
    "fatgraph_spin.quadratic_form": [
        (fatgraph_spin.QuadraticForm, "__init__"),
        (fatgraph_spin.QuadraticForm, "value"),
    ],
}

OP_SPAN = "op"


def _bindings(fn):
    """(module, name) for every superteich module global bound to fn."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "superteich" or mod_name.startswith("superteich.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.nonzero_pairs = 0
        self._stack = []
        self._op = None
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)

        return traced

    def _wrap_product(self, fn):
        inner = self._wrap("kernel.product", fn)

        @functools.wraps(fn)
        def counted(a, b, rank):
            if self._op is not None:
                self.nonzero_pairs += np.count_nonzero(a) * np.count_nonzero(b)
            return inner(a, b, rank)

        return counted

    def install(self):
        for name, targets in LAYERS.items():
            for owner, attr in targets:
                fn = getattr(owner, attr)
                if name == "kernel.product":
                    wrapped = self._wrap_product(fn)
                else:
                    wrapped = self._wrap(name, fn)
                if isinstance(owner, type):
                    places = [(owner, attr)]
                else:
                    places = _bindings(fn)
                for place, key in places:
                    self._undo.append((place, key, fn))
                    setattr(place, key, wrapped)

    def uninstall(self):
        for place, key, fn in reversed(self._undo):
            setattr(place, key, fn)
        self._undo.clear()

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run one op inside a root span; returns (result, seconds)."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - start
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (OP_SPAN, start, end, -1, op_id)
            self._op = None

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """name -> [calls, self seconds]; self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0] for name in LAYERS}
        totals[OP_SPAN] = [0, 0.0]
        for k, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += end - start - child[k]
        return totals

    def write(self, path, meta):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - t0, 9), round(end - t0, 9), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(dict(meta, fields=["name", "start_s", "end_s", "parent", "op"], spans=rows), fh)
