"""Spans and counters around the library's public functions, for the traced run.

``Tracer.install()`` replaces each traced function, wherever a module of the
package holds it by name, with a wrapper that records a span (layer, start,
end, parent, operation, r), and wraps the jet methods with plain call
counters.  ``uninstall()`` puts every original back.  Spans are kept in
memory and written out when the run ends; a layer's self time is its span
time minus the time of the spans directly inside it.

Jet arithmetic is counted, never timed: the calls are many and small, and a
timer around each would distort the times of every layer above them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from unrolled_sl2 import (
    cli, deform, jets, qnum, rep, ribbon, singlet, tangle,
)

MODULES = (jets, qnum, rep, ribbon, tangle, deform, singlet, cli, sys.modules["unrolled_sl2"])

# layer -> functions whose spans it owns, as (module, name)
SPAN_LAYERS = {
    "ribbon.calibrate": [(ribbon, "calibrate")],
    "rep.module": [(rep, "make_module"), (rep, "dual")],
    "ribbon.braiding": [(ribbon, "braiding_matrix")],
    "ribbon.twist": [(ribbon, "twist_matrix")],
    "ribbon.duality": [(ribbon, n) for n in ("ev_left", "ev_right", "coev_left", "coev_right")],
    "ribbon.trace": [(ribbon, n) for n in ("modified_dim", "scalar_of", "modified_trace")],
    "tangle.contract": [(tangle, "eval_tangle")],
    "deform.limit": [(deform, "log_tangle_invariant")],
    "singlet.compare": [(singlet, "compare_hopf_qdim")],
}

# counter -> Jet methods it counts
JET_COUNTERS = {
    "jets.product_calls": ("__mul__", "__rmul__", "__matmul__", "__rmatmul__", "kron", "combine"),
    "jets.inverse_calls": ("inv", "reciprocal"),
    "jets.analytic_calls": ("exp", "sin"),
    "jets.limit_calls": ("limit", "derivative"),
}


class Tracer:
    """In-memory spans and counts, attributed to the operation and r set by the caller."""

    def __init__(self):
        self.spans = []          # [layer, name, t0, t1, parent, op, r]
        self.stack = []
        self.counts = Counter()  # (counter, r) -> calls
        self.op = None
        self.r = None
        self._undo = []

    # -- installing -----------------------------------------------------

    def install(self):
        for layer, targets in SPAN_LAYERS.items():
            for mod, name in targets:
                orig = getattr(mod, name)
                self._replace(orig, self._span_wrapper(layer, name, orig))
        for counter, names in JET_COUNTERS.items():
            for name in names:
                orig = jets.Jet.__dict__[name]
                self._undo.append((jets.Jet, name, orig))
                setattr(jets.Jet, name, self._count_wrapper(counter, orig))

    def _replace(self, orig, wrapper):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _span_wrapper(self, layer, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else None, self.op, self.r]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
        return traced

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(counter, self.r)] += 1
            return fn(*args, **kwargs)
        return counted

    def count(self, counter, n=1):
        self.counts[(counter, self.r)] += n

    # -- reading ----------------------------------------------------------

    def self_times(self):
        """(layer, r) -> (self seconds, calls), over every recorded span."""
        child = defaultdict(float)
        for layer, _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0])
        for idx, (layer, _, t0, t1, _, _, r) in enumerate(self.spans):
            acc = out[(layer, r)]
            acc[0] += t1 - t0 - child[idx]
            acc[1] += 1
        return out

    def inclusive_times(self, layer):
        """r -> total span seconds of a layer's outermost spans."""
        out = defaultdict(float)
        for lay, _, t0, t1, parent, _, r in self.spans:
            if lay == layer and (parent is None or self.spans[parent][0] != layer):
                out[r] += t1 - t0
        return out

    def dump(self):
        return [{"layer": s[0], "fn": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "op": s[5], "r": s[6]} for s in self.spans]
