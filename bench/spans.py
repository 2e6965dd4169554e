"""Per-layer spans recorded from outside the package.

``Tracer.install(lib)`` replaces each measured public function with a
wrapper in every liccilab module that binds it (the defining module, the
modules that import it and the package namespace), and wraps the
measured ``MonomialIdeal`` methods on the class.  Spans nest through a
stack; a span's self time is its duration minus the durations of its
direct children.  Spans are kept in memory and written out by
``write``; per-layer figures are aggregated as spans close.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# span name -> (defining module, function name) for module-level functions
FUNCTIONS = {
    "exact.rank": ("exact", "rank_rows"),
    "squarefree.faces_avoiding": ("squarefree", "faces_avoiding"),
    "squarefree.homology": ("squarefree", "homology_dims_of_faces"),
    "squarefree.dual": ("squarefree", "alexander_dual"),
    "polarization.polarize": ("polarization", "polarize"),
    "betti.hochster": ("betti", "betti_table"),
    "betti.taylor": ("betti", "taylor_oracle"),
    "monomial.minimalize": ("monomial", "minimalize"),
    "licci.classify": ("licci", "classify"),
    "licci.hu_decide": ("licci", "hu_decide"),
    "linkage.direct_link": ("linkage", "verify_direct_link"),
    "linkage.chain": ("linkage", "verify_suspension_chain"),
}

# graph constructors, all recorded under one span name
GRAPH_BUILDERS = (
    "cycle", "complete", "path", "star", "from_edges", "build",
    "suspension", "t_path_ideal", "edge_ideal", "complementary_edge_ideal",
)

# span name -> MonomialIdeal method
METHODS = {
    "monomial.height": "height",
    "monomial.colon": "colon",
    "monomial.intersect": "intersect",
    "monomial.standard_form": "standard_form",
    "monomial.socle": "socle_monomials",
}

RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7")

# (metric name, unit, better) in report order
LAYER_METRICS = (
    [("exact.rank.calls", "count", "lower"), ("exact.rank.self_s", "s", "lower"),
     ("exact.rank.rows", "count", "lower"), ("exact.rank.nnz", "count", "lower"),
     ("squarefree.faces_avoiding.calls", "count", "lower"),
     ("squarefree.faces_avoiding.self_s", "s", "lower"),
     ("squarefree.faces_avoiding.faces", "count", "lower"),
     ("squarefree.homology.calls", "count", "lower"),
     ("squarefree.homology.self_s", "s", "lower"),
     ("squarefree.homology.cells", "count", "lower"),
     ("squarefree.homology.nonzero_ratio", "ratio", "higher"),
     ("squarefree.dual.calls", "count", "lower"), ("squarefree.dual.self_s", "s", "lower"),
     ("polarization.polarize.calls", "count", "lower"),
     ("polarization.polarize.self_s", "s", "lower"),
     ("betti.hochster.calls", "count", "lower"), ("betti.hochster.self_s", "s", "lower"),
     ("betti.hochster.unions", "count", "lower"),
     ("betti.hochster.cache_hit_ratio", "ratio", "higher"),
     ("betti.taylor.calls", "count", "lower"), ("betti.taylor.self_s", "s", "lower"),
     ("betti.taylor.subsets", "count", "lower")]
    + [(f"{span}.{k}", unit, "lower")
       for span in ("monomial.minimalize", "monomial.height", "monomial.colon",
                    "monomial.intersect", "monomial.standard_form")
       for k, unit in (("calls", "count"), ("self_s", "s"))]
    + [("monomial.socle.calls", "count", "lower"), ("monomial.socle.self_s", "s", "lower"),
       ("monomial.socle.box", "count", "lower"),
       ("licci.classify.calls", "count", "lower"), ("licci.classify.self_s", "s", "lower")]
    + [(f"licci.rule.{r}", "count", "higher") for r in RULES]
    + [("licci.rule.none", "count", "lower"),
       ("licci.hu_decide.calls", "count", "lower"), ("licci.hu_decide.self_s", "s", "lower"),
       ("licci.hu_decide.steps", "count", "lower"),
       ("linkage.direct_link.calls", "count", "lower"),
       ("linkage.direct_link.self_s", "s", "lower"),
       ("linkage.chain.calls", "count", "lower"), ("linkage.chain.self_s", "s", "lower"),
       ("linkage.chain.checks", "count", "lower"),
       ("graphs.build.calls", "count", "lower"), ("graphs.build.self_s", "s", "lower")]
)

# spans kept for the trace file; aggregation goes on past the cap
MAX_KEPT_SPANS = 200_000


def _size(rows):
    return len(rows), sum(len(r) for r in rows.values())


class _Frame:
    __slots__ = ("name", "id", "child_s", "children")

    def __init__(self, name, id_):
        self.name = name
        self.id = id_
        self.child_s = 0.0
        self.children = {}


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.phase = ""
        self.op = -1
        self.totals: dict = {}
        self.phase_self: dict = {}

    # -- installation --------------------------------------------------

    def install(self, lib):
        """Wrap the measured functions of a freshly imported package."""
        modules = [m for name, m in sys.modules.items()
                   if name == lib.__name__ or name.startswith(lib.__name__ + ".")]
        targets = {}
        for span, (mod, fn) in FUNCTIONS.items():
            targets[span] = [getattr(sys.modules[f"{lib.__name__}.{mod}"], fn)]
        graphs = sys.modules[f"{lib.__name__}.graphs"]
        targets["graphs.build"] = [getattr(graphs, fn) for fn in GRAPH_BUILDERS]
        for span, originals in targets.items():
            for original in originals:
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        cls = lib.MonomialIdeal
        for span, method in METHODS.items():
            setattr(cls, method, self._wrap(span, getattr(cls, method)))

    def _wrap(self, span, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            pre = _size(args[0]) if span == "exact.rank" else None
            frame = _Frame(span, tracer.next_id)
            tracer.next_id += 1
            stack = tracer.stack
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            dur = end - start
            if parent is not None:
                parent.child_s += dur
                parent.children[span] = parent.children.get(span, 0) + 1
            tracer._close(frame, start, end, parent, args, result, pre)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    # -- recording -----------------------------------------------------

    def _add(self, key, value):
        self.totals[key] = self.totals.get(key, 0) + value

    def _close(self, frame, start, end, parent, args, result, pre):
        span = frame.name
        self_s = end - start - frame.child_s
        self._add(span + ".calls", 1)
        self._add(span + ".self_s", self_s)
        layer = span.split(".")[0]
        key = (self.phase, layer)
        self.phase_self[key] = self.phase_self.get(key, 0.0) + self_s
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((frame.id, parent.id if parent else -1, self.op,
                               span, self.phase, start, end))
        else:
            self.dropped += 1
        kids = frame.children
        if span == "exact.rank":
            self._add("exact.rank.rows", pre[0])
            self._add("exact.rank.nnz", pre[1])
        elif span == "squarefree.faces_avoiding":
            self._add(span + ".faces", len(result))
        elif span == "squarefree.homology":
            self._add(span + ".cells", len(args[0]))
            self._add(span + ".nonzero", 1 if any(result) else 0)
        elif span == "betti.hochster":
            self._add(span + ".unions", kids.get("squarefree.homology", 0))
            self._add(span + ".hits", 0 if "polarization.polarize" in kids else 1)
        elif span == "betti.taylor":
            if "exact.rank" in kids:
                self._add(span + ".subsets", 1 << len(args[0].gens))
        elif span == "monomial.socle":
            box = 1
            for g in args[0].gens:
                if len(g.support) == 1:
                    box *= g.degree
            self._add(span + ".box", box)
        elif span == "licci.classify":
            self._add("licci.rule." + (result.fired_rule or "none"), 1)
        elif span == "licci.hu_decide":
            self._add(span + ".steps", len(result.hu_trace))
        elif span == "linkage.chain":
            self._add(span + ".checks", len(result.checks))

    def reset_totals(self):
        self.totals = {}
        self.phase_self = {}

    def layer_metrics(self) -> dict:
        """The per-layer figures of everything recorded since the last reset."""
        t = self.totals
        out = {}
        for name, _, _ in LAYER_METRICS:
            out[name] = t.get(name, 0)
        calls = t.get("squarefree.homology.calls", 0)
        out["squarefree.homology.nonzero_ratio"] = (
            t.get("squarefree.homology.nonzero", 0) / calls if calls else 0.0)
        calls = t.get("betti.hochster.calls", 0)
        out["betti.hochster.cache_hit_ratio"] = (
            t.get("betti.hochster.hits", 0) / calls if calls else 0.0)
        return out

    def write(self, path, summary: dict):
        """One summary line, then one JSON line per kept span.  ``op`` is the
        benchmark operation the span belongs to; times are seconds from the
        first kept span."""
        t0 = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(summary, kept_spans=len(self.spans),
                                     dropped_spans=self.dropped)) + "\n")
            for id_, parent, op, span, phase, start, end in self.spans:
                fh.write(json.dumps({"id": id_, "parent": parent, "op": op,
                                     "span": span, "phase": phase,
                                     "start_s": round(start - t0, 7),
                                     "end_s": round(end - t0, 7)}) + "\n")
