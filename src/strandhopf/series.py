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

Growth is orbit-reduced.  An automorphism g of a parent that keeps
everything ``_edge_options`` reads maps the gluings at a pair of external
half-edges onto those at its image, so the children at the image are
isomorphic to children at the pair.  Each parent is therefore extended
only at the first pair of each orbit of pairs under its group, whose
generators ``iso.automorphism_generators`` reads from the search memo.
A skipped pair's children are images of children of an earlier pair of
the same parent, so every dedup code is first met where it was met
before: the per-level dicts, their order and their graphs are those of
extending every pair.  The group each class uses:

* ``generic``: the plain group, since every strand bijection is allowed;
* ``coloured``: the group keeping strand colours and half-edge parities;
* ``map``: the group keeping strand orientations (with any colour) and
  parities.  The crosswise gluing reads the orientation, and a plain
  automorphism that reverses it would map it onto a twisted gluing the
  theory does not make.

A ``map`` theory still dedups by the plain code, as ``generic`` does, and
``coloured`` by the code with colours and parities.  The group only
decides which children are built; the dedup code decides which are the
same class, and the output classes of ``enumerate_diagrams`` are plain
classes weighted by plain |Aut|, so the plain code is the key they need.
(Dedup by the orientation-dressed code gives the same connected classes
of gw4 up to four edges.)

Coefficients are 1/|Aut| of the plain stranded graph, whatever the
class's dressing: mq3's lone dipole vertex gets 1/12, although no
non-trivial automorphism keeps its colours and parities.

The central identity check enumerates a contraction-closed universe of
bounded-cost diagrams and compares both sides of the coproduct formula
for diagram series coefficient by coefficient.  The one
contraction-closure routine, ``closed_universe``, builds that universe.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (GraphError, OneGraph, TwoGraph, boundary,
                     disjoint_union, is_bridgeless, is_connected,
                     vertex_graph, _connected_groups, _groups, _label_key,
                     _positions)
from . import hopf, iso
from .rewrite import instantiate_vertex_type, _glue_options, _with_edges


# ---------------------------------------------------------------------------
# dressed vertex types


def _memo_on_type(method):
    """Cache a no-argument method of a type in the instance ``__dict__``,
    so that the value lives exactly as long as the type (a frozen
    dataclass allows this write; ``functools.cache`` would keep every type
    it has seen alive)."""
    name = "_" + method.__name__

    @functools.wraps(method)
    def cached(self):
        found = self.__dict__.get(name)
        if found is None:
            found = self.__dict__[name] = method(self)
        return found
    return cached


@dataclass(frozen=True)
class DressedType:
    """Vertex type: a 1-graph of through-strands plus enumeration data.

    ``graph`` has the future half-edges as vertices (slots) and the future
    strand sections as half-edges.  ``colour`` maps strand slots to
    colours, ``parity`` maps slots to 0/1, ``orient`` maps strand slots to
    0 (incoming) / 1 (outgoing); each may be None when unused.  ``weight``
    feeds power counting; ``cost`` is the creation cost used by bounded
    closure universes (0 for the types a theory starts with).
    ``plain_code`` and ``dressed_code`` are memoized on the type object
    and die with it.
    """

    graph: OneGraph
    weight: Fraction = Fraction(0)
    cost: int = 0
    colour: tuple = None
    parity: tuple = None
    orient: tuple = None
    name: str = ""

    @_memo_on_type
    def plain_code(self):
        return iso.one_graph_code(self.graph)

    @_memo_on_type
    def dressed_code(self):
        inst, col, par, ori = instantiate_dressed(self, "t")
        return iso.canonical_code(inst, strand_colour=_merge_marks(col, ori),
                                  half_mark=par)


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


def _group_dressing(klass, dressing):
    """The decorations an automorphism must keep to map the ``_edge_options``
    of every pair onto those of its image: none for ``generic``, colour and
    parity for ``coloured``, and for ``map`` the orientation (merged with
    any colour) and parity."""
    col, par, ori = dressing
    if klass == "generic":
        return None, None
    if klass == "coloured":
        return col, par
    return _merge_marks(col, ori), par


def _pair_orbit_leaders(ext, gens):
    """The first pair of each orbit of the pairs of ``ext`` (in
    ``itertools.combinations`` order) under the half-edge maps ``gens``."""
    pairs = list(itertools.combinations(ext, 2))
    pos = _positions(ext)
    links = []
    for m in gens:
        for a, b in pairs:
            x, y = m.get(a, a), m.get(b, b)
            links.append(((a, b), (x, y) if pos[x] < pos[y] else (y, x)))
    return [orbit[0] for orbit in _connected_groups(pairs, links)]


def _extend(parents, klass, dressing):
    """One growth level: the graphs made from ``parents`` by one more edge
    between two external half-edges, one per dedup code, each the first
    found in parent, pair and option order.  A parent is extended only at
    the first pair of each orbit of its group (see the module
    docstring)."""
    group = _group_dressing(klass, dressing)
    nxt = {}
    for g in parents:
        ext = sorted(g.external_half_edges(), key=_label_key)
        for h1, h2 in _pair_orbit_leaders(
                ext, iso.automorphism_generators(g, *group)):
            for opt in _edge_options(klass, g, dressing, h1, h2):
                g2 = _with_edges(g, [(h1, h2)], opt)
                dc = _dedup_code(klass, g2, dressing)
                if dc not in nxt:
                    nxt[dc] = g2
    return nxt


@dataclass
class ConnectedClass:
    graph: TwoGraph
    code: str
    automorphisms: int
    n_edges: int
    degree: int

    @functools.cached_property
    def boundary_code(self):
        """Plain code of the boundary, computed on first access."""
        return iso.one_graph_code(boundary(self.graph))


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
                               degree)


def connected_classes(dtypes, klass, budget, frontier=None):
    """All connected diagram classes with creation cost within ``budget``.

    The cost (*degree*) of a diagram is its edge count plus the costs of
    its vertex types; for theory types the costs are zero, so the budget
    caps the edge count.  With a ``frontier`` (a set of types), only the
    classes using at least one frontier type are built.  Returns a dict
    keyed by plain canonical code.
    """
    raw = {}
    order = sorted(range(len(dtypes)),
                   key=lambda i: (dtypes[i].cost, dtypes[i].dressed_code()))
    dtypes = [dtypes[i] for i in order]
    in_frontier = [frontier is None or dt in frontier for dt in dtypes]
    for npieces in range(1, budget + 2):
        for multi in itertools.combinations_with_replacement(
                range(len(dtypes)), npieces):
            if not any(in_frontier[i] for i in multi):
                continue
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
                spare = budget - cost_sum - (e - 1)
                level = _extend([g for g in level.values()
                                 if len(_groups(g)) - 1 <= spare],
                                klass, dressing)
                for g in level.values():
                    if is_connected(g):
                        _record(raw, g, e, cost_sum + e)
    return raw


# ---------------------------------------------------------------------------
# public enumeration


@dataclass
class SeriesTerm:
    """One class of a series: the ConnectedClass of each component in
    ``parts``, and the class's code, |Aut| (``iso._combine`` of the parts'),
    edge count and coefficient.  ``graph`` is the one part's graph in a
    connected series and the ``disjoint_union`` of the parts' graphs in a
    disconnected one, built on first access."""

    parts: tuple
    union: bool
    code: str
    automorphisms: int
    n_edges: int
    coefficient: Fraction

    @functools.cached_property
    def graph(self):
        if not self.union:
            return self.parts[0].graph
        return disjoint_union([p.graph for p in self.parts])


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


def enumerate_diagrams(theory, max_edges, connected=True, boundary_graph=None):
    """Isomorphism classes of the diagrams of ``theory`` with at most
    ``max_edges`` edges, as a TruncatedSeries.

    With ``connected=False`` the classes are disjoint unions; since bare
    vertices are diagrams, the vertex count is capped at ``max_edges + 1``
    to keep the list finite.  Such a term holds its connected parts and
    builds its union graph only when it is read.  Terms are in (edges,
    code) order.
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
            terms.append(SeriesTerm((c,), False, c.code, c.automorphisms,
                                    c.n_edges,
                                    Fraction(1, c.automorphisms)))
        return TruncatedSeries(max_edges, True, terms)

    sizes = [len(c.graph.vertices) for c in conn]
    edges = [c.n_edges for c in conn]

    def build(start, used_v, used_e, chosen):
        if chosen:
            yield list(chosen)
        for i in range(start, len(conn)):
            if used_v + sizes[i] <= max_edges + 1 and \
                    used_e + edges[i] <= max_edges:
                chosen.append(i)
                yield from build(i, used_v + sizes[i], used_e + edges[i],
                                 chosen)
                chosen.pop()

    if want is not None:
        # the boundary of a union is the union of the parts' boundaries
        bparts = [iso._one_parts(boundary(c.graph)) for c in conn]
    for combo in build(0, 0, 0, []):
        if want is not None and iso._combine(
                [p for i in combo for p in bparts[i]])[0] != want:
            continue
        parts = tuple(conn[i] for i in combo)
        code, aut = iso._combine([(p.code, p.automorphisms) for p in parts])
        terms.append(SeriesTerm(parts, True, code, aut,
                                sum(p.n_edges for p in parts),
                                Fraction(1, aut)))
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

    Each round builds only the classes that use a type the previous round
    created or made cheaper (all types in the first round); a class
    without such a type is unchanged since it was last built, and so is
    its boundary.  The saturation ends when a round changes no type.

    Returns (types, classes); classes is keyed by canonical code, and the
    component classes of subgraphs of members, their contraction classes,
    and their bounded-degree insertions are again members.
    """
    types = {}
    for dt in theory.dressed_types():
        types.setdefault(dt.plain_code(), DressedType(dt.graph, cost=0))
    classes = {}
    changed = set(types)
    while changed:
        fresh = connected_classes(list(types.values()), "generic", max_edges,
                                  {types[code] for code in changed})
        classes.update(fresh)
        changed = set()
        for cls in fresh.values():
            code = cls.boundary_code
            old = types.get(code)
            if old is None or cls.degree < old.cost:
                types[code] = DressedType(
                    boundary(cls.graph) if old is None else old.graph,
                    cost=cls.degree)
                changed.add(code)
    return list(types.values()), classes


def _within_budget(pools, budget):
    """Every tuple of one class per pool, in pool order, whose degrees sum
    to at most ``budget``.

    Each pool is walked in degree order, and its loop stops at the first
    class whose degree plus the least degrees of the later pools is over
    the budget left, so no tuple over the budget is ever built.
    """
    pools = [sorted(pool, key=lambda a: a.degree) for pool in pools]
    least = [0] * (len(pools) + 1)  # least degree sum of pools[k:]
    for k in range(len(pools) - 1, -1, -1):
        least[k] = least[k + 1] + pools[k][0].degree

    def extend(k, left):
        if k == len(pools):
            if left >= 0:
                yield ()
            return
        for a in pools[k]:
            if a.degree + least[k + 1] > left:
                break
            for tail in extend(k + 1, left - a.degree):
                yield (a,) + tail
    return extend(0, budget)


def check_central_identity(theory, max_edges, bridgeless_only=False):
    """Verify the coproduct identity on diagram series over the bounded,
    contraction-closed universe of the theory.

    Both sides are tables keyed by (left component classes, right class):
    the left side reads the coproduct table of every universe member
    weighted by 1/|Aut|, the right side counts boundary-matched
    assignments of universe members to the right factor's vertices.  With
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
        weight = Fraction(1, cls.automorphisms)
        for (lm, rm), c in hopf.coproduct(cls.graph).items():
            if bridgeless_only and any(
                    not is_bridgeless(hopf.graph_of_code(k)) for k, _ in lm):
                continue
            left = tuple(k for k, e in lm for _ in range(e))
            (right, _), = rm
            key = (left, right)
            lhs[key] = lhs.get(key, Fraction(0)) + c * weight

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
            vg_code, vg_aut = iso._canon_one(vertex_graph(g, v))
            pool = by_boundary.get(vg_code, [])
            if not pool:
                ok = False
                break
            pools.append(pool)
            gamma_auts.append(vg_aut)
        if not ok:
            continue
        for assign in _within_budget(pools, budget):
            left = tuple(sorted(a.code for a in assign))
            key = (left, code)
            coeff = Fraction(1, cls.automorphisms)
            for ga, a in zip(gamma_auts, assign):
                coeff *= Fraction(ga, a.automorphisms)
            rhs[key] = rhs.get(key, Fraction(0)) + coeff

    mismatches = [(key, lhs.get(key, Fraction(0)), rhs.get(key, Fraction(0)))
                  for key in sorted(hopf.el_add(lhs, hopf.el_scale(rhs, -1)))]
    multi_trace = sum(1 for cls in classes.values()
                      if any(len(vertex_graph(cls.graph, v).components()) > 1
                             for v in cls.graph.vertices))
    return CentralIdentityReport(not mismatches, max_edges, len(classes),
                                 len(set(lhs) | set(rhs)), mismatches,
                                 multi_trace, bridgeless_only)
