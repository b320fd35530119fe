"""Out-of-program tracer: wraps strandhopf's public functions from outside.

A span is recorded when a call enters a layer from another layer or from
the benchmark itself: (function, start, end, parent span).  Calls inside
one layer pass straight through, except for the functions in
``ALWAYS_SPAN``, whose spans the series counters need.  Spans stay in
arrays in memory; ``Tracer.write`` stores them when the round ends and
``summarize`` derives the per-layer metrics from them.

Every module namespace that holds a wrapped function gets the wrapper,
since modules bind each other's functions with ``from .x import f``.
Generator functions are left unwrapped: a span around one would end before
its work is done.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("graphs", "iso.two", "iso.one", "rewrite", "series", "hopf",
          "models", "io", "cli")

# 1-graph / boundary canonization; the rest of iso works on 2-graphs.
ISO_ONE = {"one_graph_canonical_form", "one_graph_code",
           "one_graph_automorphism_count", "one_graphs_isomorphic",
           "boundary_multiset_code", "boundary_multiset_aut_count",
           "enumerate_one_graph_isos"}

METHODS = (("rewrite", "Subgraph", "contract"),
           ("rewrite", "Subgraph", "materialize"),
           ("models", "Theory", "vertex_weight"),
           ("hopf", "Renormalization", "counterterm_connected"))

ALWAYS_SPAN = {"series.connected_classes", "series.closed_universe"}

# Functions whose result is a canonical code, or (code, representative).
CODE_RESULT = {"iso.canonical_code", "iso.canonical_form",
               "iso.one_graph_code", "iso.one_graph_canonical_form",
               "iso.boundary_multiset_code"}

COPRODUCT = ("hopf.coproduct", "hopf.coproduct_of_monomial",
             "hopf.coproduct_of_element")
ANTIPODE = ("hopf.antipode", "hopf.antipode_of_element")

def layer_of(module, name):
    if module == "iso":
        return "iso.one" if name in ISO_ONE else "iso.two"
    return module


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit and
    which direction is better."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out += [("series.candidates", "count", "lower"),
            ("series.classes", "count", "higher"),
            ("series.accept_ratio", "ratio", "higher"),
            ("series.universe_rounds", "count", "lower"),
            ("iso.two.distinct_ratio", "ratio", "higher"),
            ("iso.one.distinct_ratio", "ratio", "higher"),
            ("rewrite.subgraphs_yielded", "count", "lower"),
            ("hopf.coproduct.calls", "count", "lower"),
            ("hopf.antipode.calls", "count", "lower"),
            ("models.vertex_weight.calls", "count", "lower"),
            ("io.bytes_out", "bytes", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("unattributed_s", "s", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.names = []          # function name per function id
        self.layers = []         # layer index per function id
        self.fn_calls = []       # every call per function id
        self.results = {}        # function id -> list of result summaries
        self.span_fid = array("i")
        self.span_parent = array("l")
        self.span_entry = array("b")   # 1: entered from another layer
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]       # open span ids; -1 is the benchmark
        self._lstack = [-1]      # layer of each open span
        self._patched = []       # (namespace, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self, package_modules):
        """Wrap the public functions of ``package_modules`` (a dict of
        short module name -> module) and the methods in ``METHODS``."""
        namespaces = [sys.modules[n] for n in list(sys.modules)
                      if n == "strandhopf" or n.startswith("strandhopf.")]
        for short, mod in package_modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap(fn, f"{short}.{name}",
                                     layer_of(short, name))
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._patched.append((ns, name, fn))
                        setattr(ns, name, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(package_modules[short], cls_name)
            fn = vars(cls)[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}",
                                          short))

    def uninstall(self):
        for ns, name, fn in reversed(self._patched):
            setattr(ns, name, fn)
        self._patched.clear()

    def _wrap(self, fn, qual, layer_name):
        fid = len(self.names)
        layer = LAYERS.index(layer_name)
        self.names.append(qual)
        self.layers.append(layer)
        self.fn_calls.append(0)
        always = qual in ALWAYS_SPAN
        observe = None
        if qual in CODE_RESULT:
            codes = self.results.setdefault(fid, [])
            observe = (lambda r: codes.append(hash(r[0]))) \
                if qual.endswith("_form") else \
                (lambda r: codes.append(hash(r)))
        elif qual in ("series.connected_classes", "rewrite.subgraphs"):
            sizes = self.results.setdefault(fid, [])
            observe = lambda r: sizes.append(len(r))
        fn_calls = self.fn_calls
        stack, lstack = self._stack, self._lstack
        s_fid, s_parent, s_entry = self.span_fid, self.span_parent, \
            self.span_entry
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            fn_calls[fid] += 1
            inner = lstack[-1] == layer
            if inner and not always:
                return fn(*args, **kwargs)
            sid = len(s_fid)
            s_fid.append(fid)
            s_parent.append(stack[-1])
            s_entry.append(0 if inner else 1)
            s_end.append(0.0)
            stack.append(sid)
            lstack.append(layer)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[sid] = clock()
                stack.pop()
                lstack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tname\tlayer\tentry\tstart\tend\tparent\n")
            for i in range(len(self.span_fid)):
                fid = self.span_fid[i]
                f.write(f"{i}\t{self.names[fid]}\t"
                        f"{LAYERS[self.layers[fid]]}\t{self.span_entry[i]}\t"
                        f"{self.span_start[i]!r}\t{self.span_end[i]!r}\t"
                        f"{self.span_parent[i]}\n")

    def summarize(self, wall_s):
        """Per-layer metrics for a traced section that took ``wall_s``."""
        layer_of_span = [self.layers[f] for f in self.span_fid]
        self_s = self_times(self.span_start, self.span_end, self.span_parent)
        out = {}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = sum(
                1 for i, L in enumerate(layer_of_span)
                if L == li and self.span_entry[i])
            out[f"{layer}.self_s"] = sum(
                s for s, L in zip(self_s, layer_of_span) if L == li)
        top = sum(self.span_end[i] - self.span_start[i]
                  for i, p in enumerate(self.span_parent) if p == -1)
        out["unattributed_s"] = wall_s - top
        out["trace.wall_s"] = wall_s

        fid = {n: i for i, n in enumerate(self.names)}
        cc, cu = fid.get("series.connected_classes"), \
            fid.get("series.closed_universe")
        two = LAYERS.index("iso.two")
        cand = sum(1 for i, p in enumerate(self.span_parent)
                   if p >= 0 and self.span_fid[p] == cc
                   and layer_of_span[i] == two)
        classes = sum(self.results.get(cc, []))
        out["series.candidates"] = cand
        out["series.classes"] = classes
        out["series.accept_ratio"] = classes / cand if cand else 0.0
        out["series.universe_rounds"] = sum(
            1 for i, p in enumerate(self.span_parent)
            if self.span_fid[i] == cc and p >= 0 and self.span_fid[p] == cu)
        for layer in ("iso.two", "iso.one"):
            codes = [h for f, hs in self.results.items()
                     if self.names[f] in CODE_RESULT
                     and LAYERS[self.layers[f]] == layer for h in hs]
            out[f"{layer}.distinct_ratio"] = \
                len(set(codes)) / len(codes) if codes else 0.0
        out["rewrite.subgraphs_yielded"] = sum(
            self.results.get(fid.get("rewrite.subgraphs"), []))
        calls = lambda names: sum(self.fn_calls[fid[n]] for n in names
                                  if n in fid)
        out["hopf.coproduct.calls"] = calls(COPRODUCT)
        out["hopf.antipode.calls"] = calls(ANTIPODE)
        out["models.vertex_weight.calls"] = \
            calls(["models.Theory.vertex_weight"])
        return out


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus the time its child spans
    cover.  Spans come from one thread, so children nest inside their
    parent and never overlap each other."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own
