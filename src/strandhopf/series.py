"""Diagram enumeration and the coproduct identity on diagram series.

Connected diagram classes of a theory are grown from one vertex, the
usual recursive build of connected Feynman graphs (Kajantie, Laine and
Schroeder 2002; McKay 1998).  Growth starts from one instance of each
dressed vertex type (of each frontier type in a closure round); a child
joins two external half-edges of its parent, or one of them to a slot
of a new instance of a type.  Every graph built is connected, each edge
level is deduplicated by a dressing-aware canonical code, and no child
over the cost budget (edges plus vertex costs) is built.  This is
complete: a connected class with a frontier vertex v and an edge loses
an edge that is not a bridge or, if it is a tree, a leaf other than v
with its edge, and stays connected with v, so it is a child of a
cheaper class grown from v.

The dressing (strand colours, half-edge parities, strand orientations)
restricts which edge pairings are allowed:

* ``map`` theories glue oriented polygon vertices crosswise (out to in),
  which produces every orientable gluing exactly once up to isomorphism;
* ``coloured`` theories glue colour to colour between opposite parities,
  the unique proper pairing;
* ``generic`` theories allow every bijection of the two strand corollas.

Growth is orbit-reduced.  An automorphism g of a parent that keeps
everything ``_edge_options`` reads maps the gluings at a pair of external
half-edges onto those at its image, so the children at the image are
isomorphic to children at the pair; with an automorphism k of a new
instance that keeps its dressing, g and k map the gluings of half-edge h
to slot s onto those of g(h) to k(s).  Each parent is therefore joined
only at the first pair of each orbit of pairs under its group, whose
generators ``iso.automorphism_generators`` reads from the search memo,
and to a new vertex only at the first half-edge of each orbit times the
first slot of each orbit of the type's slots.  A skipped join's children
are images of children of an earlier join of the same parent, so every
dedup code is first met where it was met before: the per-level dicts,
their order and their graphs are those of making every join.  The group
each class uses:

* ``generic``: the plain group, since every strand bijection is allowed;
* ``coloured``: the group keeping strand colours and half-edge parities;
* ``map``: the group keeping strand orientations (with any colour) and
  parities.  The crosswise gluing reads the orientation, and a map that
  reverses it on one side of a join only would make a twisted gluing.
  With polygon types only, the plain group (``_group_class``): a plain
  automorphism of a connected graph then reverses every vertex or none,
  and a polygon has a reflection through each slot.

A ``map`` theory still dedups by the plain code, as ``generic`` does, and
``coloured`` by the code with colours and parities; a child never grown
(cost at the budget) by the plain code ``_record`` keys it by, searched
once (a coloured section's colour keeps the codes apart).  The group only
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
from fractions import Fraction

from .graphs import (GraphError, boundary, disjoint_union, is_bridgeless,
                     _connected_groups, _label_key, _positions, _Frozen,
                     _Value)
from . import hopf, iso
from .rewrite import instantiate_vertex_type, _glue_options, _with_edges


# ---------------------------------------------------------------------------
# dressed vertex types


def _memo_on_type(method):
    """Cache a no-argument method of a vertex type or a theory in the
    instance ``__dict__``, so that the value lives exactly as long as the
    object (the write skips a frozen record's ``__setattr__``;
    ``functools.cache`` would keep every object it has seen alive)."""
    name = "_" + method.__name__

    @functools.wraps(method)
    def cached(self):
        found = self.__dict__.get(name)
        if found is None:
            found = self.__dict__[name] = method(self)
        return found
    return cached


class DressedType(_Frozen):
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

    _fields = ("graph", "weight", "cost", "colour", "parity", "orient",
               "name")

    def __init__(self, graph, weight=Fraction(0), cost=0, colour=None,
                 parity=None, orient=None, name=""):
        self.__dict__.update(graph=graph, weight=weight, cost=cost,
                             colour=colour, parity=parity, orient=orient,
                             name=name)

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


def _dedup_code(klass, G, dressing, grown=True):
    col, par, _ = dressing
    if klass == "coloured" and grown:
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


def _group_class(klass, dtypes):
    """``generic`` (the plain group) if every type of a ``map`` theory is
    one polygon: connected, no colour or parity, strands from in to out."""
    return "generic" if klass == "map" and all(
        len(dt.graph.components()) == 1 and not (dt.colour or dt.parity) and
        {o + dict(dt.orient)[dt.graph.pairing[h]] for h, o in dt.orient}
        == {1} for dt in dtypes) else klass


def _orbit_leaders(items, gens):
    """The first item of each orbit of ``items`` (in their order) under
    the maps ``gens``; an item a map leaves out is fixed."""
    links = [(x, m.get(x, x)) for m in gens for x in items]
    return [orbit[0] for orbit in _connected_groups(items, links)]


def _pair_orbit_leaders(ext, gens):
    """The first pair of each orbit of the pairs of ``ext`` (in
    ``itertools.combinations`` order) under the half-edge maps ``gens``."""
    pairs = list(itertools.combinations(ext, 2))
    pos = _positions(ext)
    return _orbit_leaders(pairs, [
        {(a, b): tuple(sorted((m.get(a, a), m.get(b, b)), key=pos.get))
         for a, b in pairs} for m in gens])


def _merge_dicts(ds):
    ds = [d for d in ds if d is not None]
    return {k: v for d in ds for k, v in d.items()} if ds else None


def _slot_leaders(klass, dt):
    """The positions among the slots of an instance of ``dt``, in label
    order (whatever the tag), of the first of each orbit of its group."""
    inst, *dressing = instantiate_dressed(dt, "0")
    gens = iso.automorphism_generators(inst, *_group_dressing(klass,
                                                              dressing))
    pos = _positions(inst.half_edges)
    return [pos[h] for h in _orbit_leaders(inst.half_edges, gens)]


def _with_vertex(g, dressing, dt):
    """``g`` beside a new instance of ``dt`` (tagged with the vertex count
    of ``g``), their merged dressing, and the instance's slots."""
    inst, *extra = instantiate_dressed(dt, str(len(g.vertices)))
    return (disjoint_union([g, inst], prefix=False),
            tuple(map(_merge_dicts, zip(dressing, extra))), inst.half_edges)


def _grow(level, dtypes, slots, klass, budget):
    """One growth level: the children within ``budget`` of the (graph,
    dressing, cost) triples of ``level``, one per dedup code, each the
    first found.  A parent is joined at its pair orbit leaders, then, per
    type of ``dtypes``, at its half-edge orbit leaders times the type's
    ``slots`` leaders, each in label order (see the module docstring)."""
    nxt, group = {}, _group_class(klass, dtypes)
    for g, dressing, cost in level.values():
        if cost >= budget:
            continue
        ext = sorted(g.external_half_edges(), key=_label_key)
        gens = iso.automorphism_generators(g, *_group_dressing(group,
                                                               dressing))
        joins = [(g, dressing, cost + 1, _pair_orbit_leaders(ext, gens))]
        ends = _orbit_leaders(ext, gens)
        for dt, leaders in zip(dtypes, slots):
            if cost + 1 + dt.cost <= budget:
                u, merged, new = _with_vertex(g, dressing, dt)
                joins.append((u, merged, cost + 1 + dt.cost,
                              [(h, new[k]) for h in ends for k in leaders]))
        for base, dr, c, pairs in joins:
            for h1, h2 in pairs:
                for opt in _edge_options(klass, base, dr, h1, h2):
                    child = _with_edges(base, [(h1, h2)], opt)
                    nxt.setdefault(_dedup_code(klass, child, dr,
                                               c < budget), (child, dr, c))
    return nxt


class ConnectedClass(_Value):
    _fields = ("graph", "code", "automorphisms", "n_edges", "degree")

    def __init__(self, graph, code, automorphisms, n_edges, degree):
        self.graph, self.code, self.automorphisms = graph, code, automorphisms
        self.n_edges, self.degree = n_edges, degree

    @functools.cached_property
    def boundary_code(self):
        """Plain code of the boundary, computed on first access."""
        return iso.one_graph_code(boundary(self.graph))


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
    classes using at least one frontier type are built, grown from those
    types.  Returns a dict keyed by plain canonical code.
    """
    dtypes = sorted(dtypes, key=lambda dt: (dt.cost, dt.dressed_code()))
    group = _group_class(klass, dtypes)
    slots = [_slot_leaders(group, dt) for dt in dtypes]
    level = {}
    for dt in dtypes:
        if dt.cost <= budget and (frontier is None or dt in frontier):
            g, *dressing = instantiate_dressed(dt, "0")
            key = _dedup_code(klass, g, dressing, dt.cost < budget)
            level.setdefault(key, (g, tuple(dressing), dt.cost))
    raw, e = {}, 0
    while level:
        for g, _, cost in level.values():
            _record(raw, g, e, cost)
        level, e = _grow(level, dtypes, slots, klass, budget), e + 1
    return raw


# ---------------------------------------------------------------------------
# public enumeration


class SeriesTerm(_Value):
    """One class of a series: the ConnectedClass of each component in
    ``parts``, |Aut| (``iso._wreath`` of theirs), edge count, coefficient
    (1/|Aut|, on read), and, built on first access, ``code`` (``iso._combine``
    of theirs) and ``graph`` (the one part's, or the parts' union)."""

    _fields = ("parts", "union", "automorphisms", "n_edges")

    def __init__(self, parts, union, automorphisms, n_edges):
        self.parts, self.union = parts, union
        self.automorphisms, self.n_edges = automorphisms, n_edges

    @property
    def coefficient(self):
        return Fraction(1, self.automorphisms)

    @functools.cached_property
    def code(self):
        return iso._combine([(p.code, p.automorphisms) for p in self.parts])[0]

    @functools.cached_property
    def graph(self):
        if not self.union:
            return self.parts[0].graph
        return disjoint_union([p.graph for p in self.parts])


class TruncatedSeries(_Value):
    """Diagram series truncated by edge count: one term per isomorphism
    class, with coefficient 1/|Aut|."""

    _fields = ("max_edges", "connected", "terms")

    def __init__(self, max_edges, connected, terms):
        self.max_edges, self.connected = max_edges, connected
        self.terms = terms

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
    to keep the list finite.  Such a term builds its union graph and code
    when read.  Terms are in (edges, code) order, sorted by (edges, parts >
    1, part codes): codes start with "(", before "U(", and none is a prefix
    of another.  ``boundary_graph`` filters by boundary isomorphism class.
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
            terms.append(SeriesTerm((c,), False, c.automorphisms, c.n_edges))
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
        bparts = [iso._one_entries(boundary(c.graph)) for c in conn]
    for combo in build(0, 0, 0, []):
        if want is not None and iso._one_class(
                [p for i in combo for p in bparts[i]])[0] != want:
            continue
        parts = tuple(conn[i] for i in combo)
        aut = iso._wreath([(p.code, p.automorphisms) for p in parts])
        terms.append(SeriesTerm(parts, True, aut,
                                sum(p.n_edges for p in parts)))
    terms.sort(key=lambda t: (t.n_edges, len(t.parts) > 1,
                              sorted(p.code for p in t.parts)))
    return TruncatedSeries(max_edges, False, terms)


# ---------------------------------------------------------------------------
# central identity


class CentralIdentityReport(_Value):
    _fields = ("passed", "max_edges", "universe_size", "pairs_checked",
               "mismatches", "multi_trace_vertex_classes", "bridgeless_only")

    def __init__(self, passed, max_edges, universe_size, pairs_checked,
                 mismatches, multi_trace_vertex_classes, bridgeless_only):
        self.passed, self.max_edges = passed, max_edges
        self.universe_size, self.pairs_checked = universe_size, pairs_checked
        self.mismatches = mismatches
        self.multi_trace_vertex_classes = multi_trace_vertex_classes
        self.bridgeless_only = bridgeless_only


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
        for vg_code, vg_aut in iso.vertex_classes(g):
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
                      if any(code.startswith("U(")
                             for code, _ in iso.vertex_classes(cls.graph)))
    return CentralIdentityReport(not mismatches, max_edges, len(classes),
                                 len(set(lhs) | set(rhs)), mismatches,
                                 multi_trace, bridgeless_only)
