"""Diagram enumeration and the coproduct identity on diagram series.

Connected diagram classes of a theory are generated by edge growth: all
multisets of dressed vertex types are instantiated, then edges are added
one at a time between external half-edges, deduplicating each level by a
dressing-aware canonical code.  The dressing (strand colours, half-edge
parities, strand orientations) restricts which edge pairings are allowed:

* ``map`` theories glue oriented polygon vertices crosswise (out to in),
  which produces every orientable gluing exactly once up to isomorphism;
* ``coloured`` theories glue colour to colour between opposite parities,
  the unique proper pairing;
* ``generic`` theories allow every bijection of the two strand corollas.

The central identity check enumerates a contraction-closed universe of
bounded-cost diagrams and compares both sides of the coproduct formula
for diagram series coefficient by coefficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (GraphError, OneGraph, TwoGraph, boundary,
                     connected_components, disjoint_union, is_bridgeless,
                     is_connected, vertex_graph, _label_key)
from . import iso
from .rewrite import (instantiate_vertex_type, subgraphs, _glue_options,
                      _with_edges)


# ---------------------------------------------------------------------------
# dressed vertex types


@dataclass(frozen=True)
class DressedType:
    """Vertex type: a 1-graph of through-strands plus enumeration data.

    ``graph`` has the future half-edges as vertices (slots) and the future
    strand sections as half-edges.  ``colour`` maps strand slots to
    colours, ``parity`` maps slots to 0/1, ``orient`` maps strand slots to
    0 (incoming) / 1 (outgoing); each may be None when unused.  ``weight``
    feeds power counting; ``cost`` is the creation cost used by bounded
    closure universes (0 for the types a theory starts with).
    """

    graph: OneGraph
    weight: Fraction = Fraction(0)
    cost: int = 0
    colour: tuple = None
    parity: tuple = None
    orient: tuple = None
    name: str = ""

    def plain_code(self):
        return iso.one_graph_code(self.graph)

    def dressed_code(self):
        if self not in _DT_CODES:
            inst, col, par, ori = instantiate_dressed(self, "t")
            _DT_CODES[self] = iso.canonical_code(
                inst, strand_colour=_merge_marks(col, ori), half_mark=par)
        return _DT_CODES[self]


_DT_CODES = {}


def _merge_marks(colour, orient):
    """Fold the two strand decorations into one mark dict (or None)."""
    if colour is None and orient is None:
        return None
    keys = set()
    if colour:
        keys |= set(colour)
    if orient:
        keys |= set(orient)
    return {k: ((colour or {}).get(k, 0), (orient or {}).get(k, 0))
            for k in keys}


def instantiate_dressed(dt, tag):
    """Single-vertex 2-graph for ``dt`` plus its dressing dicts, with the
    same label scheme as ``instantiate_vertex_type``."""
    G = instantiate_vertex_type(dt.graph, tag)
    gamma = dt.graph
    smap = {h: f"{tag}.{gamma.attach[h]}.{h}" for h in gamma.half_edges}
    hmap = {v: f"{tag}.{v}" for v in gamma.vertices}
    col = par = ori = None
    if dt.colour is not None:
        src = dict(dt.colour)
        col = {smap[h]: src[h] for h in gamma.half_edges}
    if dt.parity is not None:
        src = dict(dt.parity)
        par = {hmap[v]: src[v] for v in gamma.vertices}
    if dt.orient is not None:
        src = dict(dt.orient)
        ori = {smap[h]: src[h] for h in gamma.half_edges}
    return G, col, par, ori


# ---------------------------------------------------------------------------
# edge growth engine


def _edge_options(klass, G, dressing, h1, h2):
    """sigma2 choices for joining ``h1`` and ``h2``, or [] if incompatible."""
    if klass == "generic":
        return _glue_options(G, (h1, h2))
    col, par, ori = dressing
    s1 = G.strands_at(h1)
    s2 = G.strands_at(h2)
    if len(s1) != len(s2):
        return []
    if klass == "coloured":
        if par is not None and par[h1] == par[h2]:
            return []
        by = {}
        for s in s2:
            if col[s] in by:
                return []
            by[col[s]] = s
        pairs = []
        for s in s1:
            t = by.get(col[s])
            if t is None:
                return []
            pairs.append((s, t))
        return [tuple(pairs)]
    if klass == "map":
        # polygons carry a fixed orientation; the untwisted gluing joins
        # outgoing to incoming sections on both sides
        out1 = [s for s in s1 if ori[s] == 1]
        in1 = [s for s in s1 if ori[s] == 0]
        out2 = [s for s in s2 if ori[s] == 1]
        in2 = [s for s in s2 if ori[s] == 0]
        if len(out1) != 1 or len(in1) != 1 or len(out2) != 1 \
                or len(in2) != 1:
            raise GraphError("map vertex types need exactly two sections "
                             "per slot")
        return [((out1[0], in2[0]), (in1[0], out2[0]))]
    raise GraphError(f"unknown theory class {klass!r}")


def _dedup_code(klass, G, dressing):
    col, par, _ = dressing
    if klass == "coloured":
        return iso.canonical_code(G, strand_colour=col, half_mark=par)
    return iso.canonical_code(G)


@dataclass
class ConnectedClass:
    graph: TwoGraph
    code: str
    automorphisms: int
    n_edges: int
    degree: int
    boundary_code: str


def _merge_dicts(ds):
    ds = [d for d in ds if d is not None]
    if not ds:
        return None
    out = {}
    for d in ds:
        out.update(d)
    return out


def _record(raw, g, n_edges, degree):
    code = iso.canonical_code(g)
    prev = raw.get(code)
    if prev is not None and degree >= prev.degree:
        return
    raw[code] = ConnectedClass(g, code, iso.automorphism_count(g), n_edges,
                               degree, iso.one_graph_code(boundary(g)))


def connected_classes(dtypes, klass, budget):
    """All connected diagram classes with creation cost within ``budget``.

    The cost (*degree*) of a diagram is its edge count plus the costs of
    its vertex types; for theory types the costs are zero, so the budget
    caps the edge count.  Returns a dict keyed by plain canonical code.
    """
    raw = {}
    order = sorted(range(len(dtypes)),
                   key=lambda i: (dtypes[i].cost, dtypes[i].dressed_code()))
    dtypes = [dtypes[i] for i in order]
    for npieces in range(1, budget + 2):
        for multi in itertools.combinations_with_replacement(
                range(len(dtypes)), npieces):
            cost_sum = sum(dtypes[i].cost for i in multi)
            if cost_sum + max(0, npieces - 1) > budget:
                continue
            insts = []
            for k in range(npieces):
                insts.append(instantiate_dressed(dtypes[multi[k]], f"{k}"))
            seed = disjoint_union([t[0] for t in insts], prefix=False)
            dressing = (_merge_dicts([t[1] for t in insts]),
                        _merge_dicts([t[2] for t in insts]),
                        _merge_dicts([t[3] for t in insts]))
            if npieces == 1:
                _record(raw, seed, 0, cost_sum)
            level = {0: seed}
            for e in range(1, budget - cost_sum + 1):
                nxt = {}
                for g in level.values():
                    ncomp = len(connected_components(g))
                    if ncomp - 1 > budget - cost_sum - (e - 1):
                        continue
                    ext = sorted(g.external_half_edges(), key=_label_key)
                    for i1 in range(len(ext)):
                        for i2 in range(i1 + 1, len(ext)):
                            for opt in _edge_options(klass, g, dressing,
                                                     ext[i1], ext[i2]):
                                g2 = _with_edges(g, [(ext[i1], ext[i2])],
                                                 opt)
                                dc = _dedup_code(klass, g2, dressing)
                                if dc not in nxt:
                                    nxt[dc] = g2
                level = nxt
                for g in level.values():
                    if is_connected(g):
                        _record(raw, g, e, cost_sum + e)
    return raw


# ---------------------------------------------------------------------------
# public enumeration


@dataclass
class SeriesTerm:
    graph: TwoGraph
    code: str
    automorphisms: int
    n_edges: int
    coefficient: Fraction


@dataclass
class TruncatedSeries:
    """Diagram series truncated by edge count: one term per isomorphism
    class, with coefficient 1/|Aut|."""

    max_edges: int
    connected: bool
    terms: list

    def coefficient(self, G):
        code = iso.canonical_code(G)
        for t in self.terms:
            if t.code == code:
                return t.coefficient
        return Fraction(0)


def enumerate_diagrams(theory, max_edges, connected=True, boundary_graph=None,
                       max_vertices=None):
    """Isomorphism classes of the diagrams of ``theory`` with at most
    ``max_edges`` edges, as a TruncatedSeries.

    With ``connected=False`` the classes are disjoint unions; since bare
    vertices are diagrams, the vertex count is capped by ``max_vertices``
    (default ``max_edges + 1``) to keep the list finite.
    ``boundary_graph`` filters by boundary isomorphism class.
    """
    classes = connected_classes(theory.dressed_types(), theory.klass,
                                max_edges)
    conn = sorted(classes.values(), key=lambda c: (c.n_edges, c.code))
    want = None if boundary_graph is None else iso.one_graph_code(
        boundary_graph)
    terms = []
    if connected:
        for c in conn:
            if want is not None and c.boundary_code != want:
                continue
            terms.append(SeriesTerm(c.graph, c.code, c.automorphisms,
                                    c.n_edges,
                                    Fraction(1, c.automorphisms)))
        return TruncatedSeries(max_edges, True, terms)

    if max_vertices is None:
        max_vertices = max_edges + 1
    sizes = [len(c.graph.vertices) for c in conn]
    edges = [c.n_edges for c in conn]

    def build(start, used_v, used_e, chosen):
        if chosen:
            yield list(chosen)
        for i in range(start, len(conn)):
            if used_v + sizes[i] <= max_vertices and \
                    used_e + edges[i] <= max_edges:
                chosen.append(i)
                yield from build(i, used_v + sizes[i], used_e + edges[i],
                                 chosen)
                chosen.pop()

    for combo in build(0, 0, 0, []):
        parts = [conn[i] for i in combo]
        union = disjoint_union([p.graph for p in parts])
        if want is not None and iso.one_graph_code(boundary(union)) != want:
            continue
        aut = iso._wreath([(p.code, p.automorphisms) for p in parts])
        terms.append(SeriesTerm(union, iso.canonical_code(union), aut,
                                union.n_edges(), Fraction(1, aut)))
    terms.sort(key=lambda t: (t.n_edges, t.code))
    return TruncatedSeries(max_edges, False, terms)


# ---------------------------------------------------------------------------
# central identity


@dataclass
class CentralIdentityReport:
    passed: bool
    max_edges: int
    universe_size: int
    pairs_checked: int
    mismatches: list
    multi_trace_vertex_classes: int
    bridgeless_only: bool


def closed_universe(theory, max_edges):
    """Contraction-closed bounded universe of unrestricted gluings.

    The identity holds for the full stranded class over a vertex type set,
    so the universe is built from the theory's plain vertex shapes with
    arbitrary edge-strand pairings, saturated with boundary-derived types.
    A type derived as the boundary of a diagram of degree d gets creation
    cost d; the degree of a diagram is its edge count plus its vertex
    costs, which makes degrees exactly additive under insertion.

    Returns (types, classes); classes is keyed by canonical code, and the
    component classes of subgraphs of members, their contraction classes,
    and their bounded-degree insertions are again members.
    """
    types = {}
    for dt in theory.dressed_types():
        types.setdefault(dt.plain_code(), DressedType(dt.graph, cost=0))
    while True:
        classes = connected_classes(list(types.values()), "generic",
                                    max_edges)
        changed = False
        for cls in classes.values():
            b = boundary(cls.graph)
            code = iso.one_graph_code(b)
            old = types.get(code)
            if old is None:
                types[code] = DressedType(b, cost=cls.degree)
                changed = True
            elif cls.degree < old.cost:
                types[code] = DressedType(old.graph, cost=cls.degree)
                changed = True
        if not changed:
            return list(types.values()), classes


def check_central_identity(theory, max_edges, bridgeless_only=False):
    """Verify the coproduct identity on diagram series over the bounded,
    contraction-closed universe of the theory.

    Both sides are tables keyed by (left component classes, right class):
    the left side expands the coproduct of every universe member weighted
    by 1/|Aut|, the right side counts boundary-matched assignments of
    universe members to the right factor's vertices.  With
    ``bridgeless_only`` both tensor legs are projected to bridgeless
    classes.
    """
    _, classes = closed_universe(theory, max_edges)
    if bridgeless_only:
        keep = {c: cls for c, cls in classes.items()
                if is_bridgeless(cls.graph)}
    else:
        keep = classes

    lhs = {}
    for code, cls in keep.items():
        aut = cls.automorphisms
        for sub in subgraphs(cls.graph):
            comps = connected_components(sub.materialize())
            if bridgeless_only and any(not is_bridgeless(c) for c in comps):
                continue
            left = tuple(sorted(iso.canonical_code(c) for c in comps))
            right = iso.canonical_code(sub.contract())
            key = (left, right)
            lhs[key] = lhs.get(key, Fraction(0)) + Fraction(1, aut)

    by_boundary = {}
    for cls in keep.values():
        by_boundary.setdefault(cls.boundary_code, []).append(cls)

    rhs = {}
    for code, cls in keep.items():
        g = cls.graph
        budget = max_edges - cls.n_edges
        pools = []
        gamma_auts = []
        ok = True
        for v in g.vertices:
            vg = vertex_graph(g, v)
            pool = by_boundary.get(iso.one_graph_code(vg), [])
            if not pool:
                ok = False
                break
            pools.append(pool)
            gamma_auts.append(iso.one_graph_automorphism_count(vg))
        if not ok:
            continue
        for assign in itertools.product(*pools):
            if sum(a.degree for a in assign) > budget:
                continue
            left = tuple(sorted(a.code for a in assign))
            key = (left, code)
            coeff = Fraction(1, cls.automorphisms)
            for ga, a in zip(gamma_auts, assign):
                coeff *= Fraction(ga, a.automorphisms)
            rhs[key] = rhs.get(key, Fraction(0)) + coeff

    mismatches = []
    for key in sorted(set(lhs) | set(rhs)):
        if lhs.get(key, Fraction(0)) != rhs.get(key, Fraction(0)):
            mismatches.append((key, lhs.get(key, Fraction(0)),
                               rhs.get(key, Fraction(0))))
    multi_trace = sum(1 for cls in classes.values()
                      if any(len(vertex_graph(cls.graph, v).components()) > 1
                             for v in cls.graph.vertices))
    return CentralIdentityReport(not mismatches, max_edges, len(classes),
                                 len(set(lhs) | set(rhs)), mismatches,
                                 multi_trace, bridgeless_only)
