"""JSON documents for graphs and theories, and DOT export.

A graph document is a JSON object

    {vertices: [id], half_edges: [{id, vertex}], strands: [{id, half_edge}],
     iota: [[h, h], ...], sigma1: [[s, s], ...], sigma2: [[s, s], ...]}

whose pair lists omit involution fixed points.  Serialization sorts keys
and all label lists, so parse then serialize is byte-identical on its own
output.  Labels are JSON strings or numbers other than NaN and the
infinities.  Labels of different types may mix within one list: lists
sort by type name first (floats, then integers, then strings) and by
value within a type, so a mixed document round-trips byte for byte too.
``graph_fragments`` writes a graph's lists from its integer view, each
label encoded once; ``document_line`` joins a union's document from them.

Theory documents carry the enumeration class, dimension, the propagator
graphs with weights, and the dressed vertex types.  A vertex type may
carry a non-negative integer ``cost`` and ``colour``, ``parity`` and
``orient`` marks: lists of [label, integer] pairs with one pair per
half-edge (``colour``, ``orient``) or per vertex (``parity``) of its
1-graph.  Every vertex type of a ``map`` theory carries ``orient`` and
every one of a ``coloured`` theory ``colour``; ``parity`` is on all
types of a ``coloured`` theory or on none.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .graphs import GraphError, OneGraph, TwoGraph, _sorted_labels
from .series import DressedType
from .models import Theory


class DocumentError(GraphError):
    """A JSON document does not have the expected shape."""


_GRAPH_KEYS = ("vertices", "half_edges", "strands", "iota", "sigma1",
               "sigma2")


def graph_to_document(G):
    return {
        "vertices": list(G.vertices),
        "half_edges": [{"id": h, "vertex": G.nu[h]} for h in G.half_edges],
        "strands": [{"id": s, "half_edge": G.mu[s]} for s in G.strands],
        "iota": [list(p) for p in G.edge_pairs()],
        "sigma1": [list(p) for p in G.vertex_strand_pairs()],
        "sigma2": [list(p) for p in G.edge_strand_pairs()],
    }


def graph_fragments(G):
    """The JSON texts between the brackets of the lists of
    ``graph_to_document(G)``, in key order, with "\\x80" (which no ASCII
    JSON text holds) for each label's opening quote; labels are strings."""
    view = G.view()
    v, h, s = ([f"\x80{encode_basestring_ascii(x)[1:]}" for x in xs]
               for xs in (G.vertices, G.half_edges, G.strands))
    pairs = ([f"[{names[i]}, {names[j]}]" for i, j in enumerate(m) if i < j]
             for m, names in ((view.iota, h), (view.sigma1, s),
                              (view.sigma2, s)))
    return [", ".join(xs) for xs in (
        [f'{{"id": {x}, "vertex": {v[p]}}}' for x, p in zip(h, view.nu)],
        *pairs,
        [f'{{"half_edge": {h[p]}, "id": {x}}}' for x, p in zip(s, view.mu)],
        v)]


def document_line(fields, members):
    """``json.dumps(doc, sort_keys=True) + "\\n"``, ``doc`` the ``fields``
    (non-empty, keys before "half_edges") and the document of a graph G,
    from ``[("", graph_fragments(G))]``, or of a ``disjoint_union``, from
    ``(f"{i}:", graph_fragments(g))`` for its i-th graph g."""
    members = sorted(members, key=lambda m: m[0])    # "10:" before "1:"
    items = [json.dumps(fields, sort_keys=True)[1:-1]]
    for j, key in enumerate(sorted(_GRAPH_KEYS)):
        body = ", ".join([f[j].replace("\x80", '"' + p)
                          for p, f in members if f[j]])
        items.append(f'"{key}": [{body}]')
    return "{" + ", ".join(items) + "}\n"


def _is_label(x):
    """Strings, integers and finite floats.  JSON true and false are not
    labels, although Python's bool is a kind of int (true would clash
    with 1); NaN equals nothing, not even itself, so it cannot name
    anything."""
    if isinstance(x, bool):
        return False
    return isinstance(x, (str, int)) or \
        (isinstance(x, float) and math.isfinite(x))


def _list(doc, key, what):
    value = doc[key]
    if not isinstance(value, list):
        raise DocumentError(f"{key} must be a list of {what}")
    return value


def _checked(key, labels):
    if not all(map(_is_label, labels)):
        raise DocumentError(f"{key} labels must be strings or numbers "
                            "other than NaN and infinities")
    return labels


def _labels(doc, key):
    return _checked(key, _list(doc, key, "labels"))


def _entries(doc, key, fields):
    """The ``key`` list of ``{fields}`` objects as tuples of labels."""
    out = []
    for entry in _list(doc, key, "objects"):
        if not isinstance(entry, dict) or set(entry) != set(fields):
            raise DocumentError(f"{key} entries must be "
                                f"{{{', '.join(fields)}}}")
        out.append(_checked(key, tuple(entry[f] for f in fields)))
    return out


def _pair_list(doc, key, known):
    out = []
    for p in _list(doc, key, "pairs"):
        if not isinstance(p, list) or len(p) != 2:
            raise DocumentError(f"{key} entries must be two-element lists")
        if not all(_is_label(x) and x in known for x in p):
            raise DocumentError(f"{key} pair {p} uses unknown labels")
        out.append(tuple(p))
    return out


def document_to_graph(doc):
    if not isinstance(doc, dict):
        raise DocumentError("graph document must be a JSON object")
    missing = [k for k in _GRAPH_KEYS if k not in doc]
    if missing:
        raise DocumentError("missing keys: " + ", ".join(missing))
    vertices = _labels(doc, "vertices")
    nu = _entries(doc, "half_edges", ("id", "vertex"))
    mu = _entries(doc, "strands", ("id", "half_edge"))
    half_edges = [h for h, _ in nu]
    strands = [s for s, _ in mu]
    iota = _pair_list(doc, "iota", set(half_edges))
    s1 = _pair_list(doc, "sigma1", set(strands))
    s2 = _pair_list(doc, "sigma2", set(strands))
    return TwoGraph.make(vertices, half_edges, strands, dict(nu), dict(mu),
                         iota, s1, s2)


def dumps_graph(G):
    return json.dumps(graph_to_document(G), indent=2, sort_keys=True) + "\n"


def loads_graph(text):
    return document_to_graph(_loads(text))


def loads_one_graph(text):
    return document_to_one_graph(_loads(text))


def read_graph(path):
    with open(path, encoding="utf-8") as f:
        return loads_graph(f.read())


def write_graph(path, G):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_graph(G))


def _loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# 1-graphs and theories


def one_graph_to_document(g):
    return {
        "vertices": list(g.vertices),
        "half_edges": [{"id": h, "vertex": g.attach[h]} for h in g.half_edges],
        "pairing": [list(p) for p in g.edge_pairs()],
    }


def document_to_one_graph(doc):
    if not isinstance(doc, dict):
        raise DocumentError("1-graph document must be a JSON object")
    missing = [k for k in ("vertices", "half_edges", "pairing")
               if k not in doc]
    if missing:
        raise DocumentError("missing keys: " + ", ".join(missing))
    vertices = _labels(doc, "vertices")
    attach = _entries(doc, "half_edges", ("id", "vertex"))
    half_edges = [h for h, _ in attach]
    pairing = _pair_list(doc, "pairing", set(half_edges))
    try:
        return OneGraph.make(vertices, half_edges, dict(attach), pairing)
    except GraphError as exc:
        raise DocumentError(str(exc)) from None


def _num(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


def _fraction(v, what):
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise DocumentError(f"{what} must be a rational number") from None


def _integer(v, what):
    x = _fraction(v, what)
    if x.denominator != 1:
        raise DocumentError(f"{what} must be an integer")
    return int(x)


def _marks_out(marks):
    if marks is None:
        return None
    marks = dict(marks)
    return [[k, marks[k]] for k in _sorted_labels(marks)]


def _marks_in(entry, key, labels):
    value = entry.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_label, p))
            for p in value):
        raise DocumentError(f"{key} must be a list of [label, value] pairs")
    if {k for k, _ in value} != set(labels):
        raise DocumentError(f"{key} labels must match the vertex graph")
    if not all(type(v) is int for _, v in value):
        raise DocumentError(f"{key} values must be integers")
    return tuple((k, v) for k, v in value)


def _dipole(degree):
    hs = [f"e{i}" for i in range(degree)] + [f"f{i}" for i in range(degree)]
    at = {h: ("a" if h[0] == "e" else "b") for h in hs}
    return OneGraph.make(("a", "b"), hs, at,
                         [(f"e{i}", f"f{i}") for i in range(degree)])


def theory_to_document(T):
    return {
        "name": T.name,
        "class": T.klass,
        "dimension": _num(T.dimension),
        "zeta": None if T.zeta is None else _num(T.zeta),
        "rank": T.rank,
        "propagators": [{"graph": one_graph_to_document(_dipole(k)),
                         "weight": _num(w)} for k, w in T.edge_weights],
        "vertices": [{
            "name": dt.name,
            "graph": one_graph_to_document(dt.graph),
            "weight": _num(dt.weight),
            "cost": dt.cost,
            "colour": _marks_out(dt.colour),
            "parity": _marks_out(dt.parity),
            "orient": _marks_out(dt.orient),
        } for dt in T.types],
    }


def document_to_theory(doc):
    if not isinstance(doc, dict):
        raise DocumentError("theory document must be a JSON object")
    missing = [k for k in ("class", "dimension", "propagators", "vertices")
               if k not in doc]
    if missing:
        raise DocumentError("missing keys: " + ", ".join(missing))
    if doc["class"] not in ("map", "coloured", "generic"):
        raise DocumentError("class must be map, coloured or generic")
    edge_weights = []
    for entry in _list(doc, "propagators", "objects"):
        if not isinstance(entry, dict) or "graph" not in entry \
                or "weight" not in entry:
            raise DocumentError("propagator entries need graph and weight")
        g = document_to_one_graph(entry["graph"])
        if len(g.vertices) != 2 or g.external():
            raise DocumentError("propagator graphs have two vertices and "
                                "no external legs")
        edge_weights.append((g.n_edges(),
                             _fraction(entry["weight"], "propagator weight")))
    types = []
    for entry in _list(doc, "vertices", "objects"):
        if not isinstance(entry, dict) or "graph" not in entry \
                or "weight" not in entry:
            raise DocumentError("vertex entries need graph and weight")
        g = document_to_one_graph(entry["graph"])
        cost = _integer(entry.get("cost", 0), "cost")
        if cost < 0:
            raise DocumentError("cost must be at least 0")
        types.append(DressedType(
            graph=g,
            weight=_fraction(entry["weight"], "vertex weight"),
            cost=cost,
            colour=_marks_in(entry, "colour", g.half_edges),
            parity=_marks_in(entry, "parity", g.vertices),
            orient=_marks_in(entry, "orient", g.half_edges),
            name=str(entry.get("name", "")),
        ))
    mark = {"map": "orient", "coloured": "colour"}.get(doc["class"])
    if mark is not None and any(getattr(dt, mark) is None for dt in types):
        raise DocumentError(f"every {doc['class']} vertex type needs {mark}")
    if doc["class"] == "coloured" and \
            len({dt.parity is None for dt in types}) > 1:
        raise DocumentError("parity must be on all coloured vertex types "
                            "or on none")
    rank = doc.get("rank")
    zeta = doc.get("zeta")
    return Theory(name=str(doc.get("name", "theory")),
                  klass=doc["class"],
                  dimension=_fraction(doc["dimension"], "dimension"),
                  types=tuple(types),
                  edge_weights=tuple(edge_weights),
                  rank=None if rank is None else _integer(rank, "rank"),
                  zeta=None if zeta is None else _fraction(zeta, "zeta"))


def dumps_theory(T):
    return json.dumps(theory_to_document(T), indent=2, sort_keys=True) + "\n"


def loads_theory(text):
    return document_to_theory(_loads(text))


def read_theory(path):
    with open(path, encoding="utf-8") as f:
        return loads_theory(f.read())


# ---------------------------------------------------------------------------
# DOT export


def _q(label):
    return '"' + str(label).replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(G, mode="stranded"):
    """DOT text; ``stranded`` draws every strand section, ``vertexgraph``
    draws half-edges with their through-strand pairings per vertex."""
    if mode not in ("stranded", "vertexgraph"):
        raise GraphError(f"unknown export mode {mode!r}")
    out = ["graph {"]
    ext = set(G.external_half_edges())
    for i, v in enumerate(G.vertices):
        out.append(f"  subgraph cluster_{i} {{")
        out.append(f"    label={_q(v)};")
        for h in G.half_edges_at(v):
            shape = "circle" if h in ext else "box"
            out.append(f"    {_q(h)} [shape={shape}];")
            if mode == "stranded":
                for s in G.strands_at(h):
                    out.append(f"    {_q(s)} [shape=point];")
                    out.append(f"    {_q(h)} -- {_q(s)} [style=dotted];")
        out.append("  }")
    if mode == "stranded":
        for a, b in G.vertex_strand_pairs():
            out.append(f"  {_q(a)} -- {_q(b)} [style=dashed];")
        for a, b in G.edge_strand_pairs():
            out.append(f"  {_q(a)} -- {_q(b)};")
    else:
        for a, b in G.vertex_strand_pairs():
            out.append(f"  {_q(G.mu[a])} -- {_q(G.mu[b])} [style=dashed];")
    for a, b in G.edge_pairs():
        out.append(f"  {_q(a)} -- {_q(b)} [style=bold];")
    out.append("}")
    return "\n".join(out) + "\n"
