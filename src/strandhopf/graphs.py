"""Stranded graphs: half-edge multigraphs and their strand refinements.

A *1-graph* is a multigraph presented by half-edges: vertices, half-edges,
an attachment map, and an involution pairing half-edges into edges.  Fixed
points of the involution are external legs.

A *2-graph* refines each half-edge into parallel *strand sections*.  Two
involutions act on the sections: ``sigma1`` joins sections at a common
vertex into through-strands (fixed-point free and vertex-local), and
``sigma2`` joins sections across an edge (it lies over the half-edge
pairing and fixes exactly the sections on external half-edges).  Edges,
faces, vertex graphs, boundaries and contractions are all derived from
these involutions; nothing else is stored.

Labels are opaque strings (or any sortable hashables of one type).  All
value types are treated as immutable once built; operations return new
graphs.

What a 2-graph derives from its maps and keeps lives in one place, its
``derived`` record (``Derived``), each value computed at most once.  Its
component partition comes from the one union-find of ``_groups``, or is
one group, set by ``rewrite._with_edges`` (growth children), ``_piece``
and ``_contract_edges`` on graphs connected by construction.  Its
integer view (``View``, from ``TwoGraph.view``) holds the five
structure maps over positions; the face walk, ``iso``'s keys and
encodings read it instead of the label dicts.  The label-to-position
maps it is built from are not kept.  Its vertex classes
(``iso.vertex_classes``) are the (code, |Aut|) pairs of its vertex
graphs in vertex order, split from the view by the one 1-graph split of
``iso``; power counting and the central check weigh and match vertices
by them.  The record holds no other graph and no other record.

A growth child (``rewrite._with_edges``) is built without sorting or
copying what it shares with its parent: the label tuples, the ``nu``,
``mu`` and ``sigma1`` dicts, the ``nu``, ``mu`` and ``sigma1`` arrays
of the view, and the ``half_edges_at`` and ``strands_at`` maps are the
parent's own objects.  So nothing may write into a graph's label tuples,
structure dicts, view or derived maps in place; no code in the package
does (every write goes to a dict or list that the writing function
built).
"""

from __future__ import annotations

from collections import namedtuple


class GraphError(ValueError):
    """Raised for structurally invalid inputs or unsatisfied preconditions."""


# ---------------------------------------------------------------------------
# records, written out: ``dataclasses`` would import ``inspect`` and build
# each class's code at import time


class _Value:
    """A record of the fields in ``_fields``, shown by ``repr``, equal to
    one of its class with equal fields, unhashable as they may change."""

    __hash__ = None

    def __repr__(self):
        items = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({items})"

    def _key(self):
        return tuple(getattr(self, k) for k in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented


class _Frozen(_Value):
    """A record that hashes by its fields and refuses assignment.  Its
    ``__init__`` uses ``object.__setattr__``, or ``__dict__`` where memos
    write there anyway (a used ``__dict__`` slows attribute reads)."""

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _label_key(x):
    return (x.__class__.__name__, x)


def _sorted_labels(xs):
    return tuple(sorted(xs, key=_label_key))


def _pairs_of_involution(m):
    """Size-2 orbits of an involution dict, as sorted tuples, sorted."""
    seen = set()
    out = []
    for a, b in m.items():
        if a == b or a in seen or b in seen:
            continue
        seen.add(a)
        seen.add(b)
        out.append(tuple(sorted((a, b), key=_label_key)))
    return tuple(sorted(out, key=lambda p: (_label_key(p[0]), _label_key(p[1]))))


def _involution_of_pairs(domain, pairs):
    m = {x: x for x in domain}
    for a, b in pairs:
        m[a] = b
        m[b] = a
    return m


# ---------------------------------------------------------------------------
# 1-graphs


class OneGraph:
    """Multigraph with half-edge presentation; legs = pairing fixed points."""

    def __init__(self, vertices, half_edges, attach, pairing):
        self.vertices = _sorted_labels(vertices)
        self.half_edges = _sorted_labels(half_edges)
        self.attach, self.pairing = dict(attach), dict(pairing)

    @classmethod
    def make(cls, vertices, half_edges, attach, pairing_pairs=()):
        """Build and check a 1-graph; ``pairing_pairs`` lists the edges."""
        g = cls(vertices, half_edges, dict(attach),
                _involution_of_pairs(half_edges, pairing_pairs))
        g.check()
        return g

    def check(self):
        hs = set(self.half_edges)
        vs = set(self.vertices)
        if len(hs) != len(self.half_edges):
            raise GraphError("duplicate half-edge labels")
        if len(vs) != len(self.vertices):
            raise GraphError("duplicate vertex labels")
        if set(self.attach) != hs or not set(self.attach.values()) <= vs:
            raise GraphError("attach map is not total into the vertex set")
        if set(self.pairing) != hs:
            raise GraphError("pairing is not total")
        for h, k in self.pairing.items():
            if k not in hs or self.pairing[k] != h:
                raise GraphError("pairing is not an involution")

    # derived views ---------------------------------------------------

    def edge_pairs(self):
        return _pairs_of_involution(self.pairing)

    def external(self):
        return tuple(h for h in self.half_edges if self.pairing[h] == h)

    def corolla(self, v):
        return tuple(h for h in self.half_edges if self.attach[h] == v)

    def degree(self, v):
        return len(self.corolla(v))

    def n_edges(self):
        return len(self.edge_pairs())

    def components(self):
        """Vertex sets of connected components (isolated vertices included),
        in the order of their least vertices."""
        pairs = ((self.attach[a], self.attach[b])
                 for a, b in self.pairing.items())
        return tuple(frozenset(g) for g in _connected_groups(self.vertices,
                                                             pairs))

    def induced(self, vs):
        vs = set(vs)
        hs = [h for h in self.half_edges if self.attach[h] in vs]
        return OneGraph(tuple(sorted(vs, key=_label_key)), hs,
                        {h: self.attach[h] for h in hs},
                        {h: self.pairing[h] for h in hs})


# ---------------------------------------------------------------------------
# 2-graphs


class Derived:
    """The derived data of one 2-graph, each field None until computed.

    ``edge_pairs`` is ``TwoGraph.edge_pairs()``, ``half_edges_at`` and
    ``strands_at`` map each vertex to its half-edges and each half-edge to
    its sections, ``faces`` is ``faces(G)`` and ``canon`` the (code,
    |Aut|) pair of ``iso``.  ``groups`` is the component partition of
    ``_groups``, ``view`` is ``TwoGraph.view()``, and ``vertex_classes``
    the (code, |Aut|) pair of each vertex graph, in vertex order
    (``iso.vertex_classes``).
    """

    __slots__ = ("edge_pairs", "half_edges_at", "strands_at", "faces",
                 "canon", "groups", "view", "vertex_classes")

    def __init__(self):
        self.edge_pairs = self.half_edges_at = self.strands_at = None
        self.faces = self.canon = self.groups = self.view = None
        self.vertex_classes = None


View = namedtuple("View", "nu iota mu sigma1 sigma2")
View.__doc__ = """The integer view of a 2-graph: ``nu``, ``iota``, ``mu``,
``sigma1`` and ``sigma2`` are lists over half-edge or section positions
(in ``G.half_edges`` or ``G.strands``) of the positions their maps send
them to (in ``G.vertices``, ``G.half_edges`` or ``G.strands``)."""


def _positions(labels):
    """Each label of a sorted label tuple mapped to its position."""
    return {x: k for k, x in enumerate(labels)}


class TwoGraph:
    """Stranded graph.

    ``nu`` attaches half-edges to vertices, ``mu`` attaches strand sections
    to half-edges.  ``iota`` pairs half-edges into edges (fixed points are
    external), ``sigma1`` pairs sections at a vertex (fixed-point free,
    vertex-local), ``sigma2`` pairs sections across edges (compatible with
    ``iota``; fixes exactly the sections of external half-edges).  Every
    value derived from these maps and kept is in ``derived`` (see the
    module docstring).  Equal only to itself.
    """

    def __init__(self, vertices, half_edges, strands, nu, mu, iota, sigma1,
                 sigma2):
        self.vertices = _sorted_labels(vertices)
        self.half_edges = _sorted_labels(half_edges)
        self.strands = _sorted_labels(strands)
        self.nu, self.mu, self.iota = dict(nu), dict(mu), dict(iota)
        self.sigma1, self.sigma2 = dict(sigma1), dict(sigma2)
        self.derived = Derived()

    @classmethod
    def make(cls, vertices, half_edges, strands, nu, mu,
             iota_pairs=(), sigma1_pairs=(), sigma2_pairs=()):
        """Build from pair lists (fixed points implicit) and validate."""
        g = cls(vertices, half_edges, strands, dict(nu), dict(mu),
                _involution_of_pairs(half_edges, iota_pairs),
                _involution_of_pairs(strands, sigma1_pairs),
                _involution_of_pairs(strands, sigma2_pairs))
        rep = validate(g)
        if not rep.valid:
            raise GraphError("; ".join(rep.violations))
        return g

    # derived views ---------------------------------------------------

    def half_edges_at(self, v):
        d = self.derived
        if d.half_edges_at is None:
            d.half_edges_at = _fibres(self.vertices, self.half_edges, self.nu)
        return d.half_edges_at[v]

    def strands_at(self, h):
        d = self.derived
        if d.strands_at is None:
            d.strands_at = _fibres(self.half_edges, self.strands, self.mu)
        return d.strands_at[h]

    def edge_pairs(self):
        d = self.derived
        if d.edge_pairs is None:
            d.edge_pairs = _pairs_of_involution(self.iota)
        return d.edge_pairs

    def view(self):
        """The integer view (``View``) of this graph, kept in ``derived``."""
        d = self.derived
        if d.view is None:
            vpos, hpos, spos = map(_positions, (self.vertices,
                                                self.half_edges,
                                                self.strands))
            hs, ss = self.half_edges, self.strands
            d.view = View([vpos[self.nu[h]] for h in hs],
                          [hpos[self.iota[h]] for h in hs],
                          [hpos[self.mu[s]] for s in ss],
                          [spos[self.sigma1[s]] for s in ss],
                          [spos[self.sigma2[s]] for s in ss])
        return d.view

    def n_edges(self):
        return len(self.edge_pairs())

    def external_half_edges(self):
        return tuple(h for h in self.half_edges if self.iota[h] == h)

    def external_strands(self):
        return tuple(s for s in self.strands if self.sigma2[s] == s)

    def vertex_strand_pairs(self):
        return _pairs_of_involution(self.sigma1)

    def edge_strand_pairs(self):
        return _pairs_of_involution(self.sigma2)

    def strand_degree(self, h):
        return len(self.strands_at(h))


def _assembled(vertices, half_edges, strands, nu, mu, iota, sigma1,
               sigma2):
    """The 2-graph with exactly these fields: label tuples already in
    label order (such as subsequences of another graph's) and structure
    dicts that become its own, neither sorted, copied nor checked."""
    out = TwoGraph.__new__(TwoGraph)
    out.vertices, out.half_edges, out.strands = vertices, half_edges, strands
    out.nu, out.mu, out.iota, out.sigma1, out.sigma2 = \
        nu, mu, iota, sigma1, sigma2
    out.derived = Derived()
    return out


def _fibres(base, items, f):
    """Each element of ``base`` mapped to the tuple of ``items`` that ``f``
    sends to it, in ``items`` order."""
    d = {b: [] for b in base}
    for x in items:
        d[f[x]].append(x)
    return {b: tuple(xs) for b, xs in d.items()}


def _mapped_fields(G, fv, fh, fs):
    """Constructor arguments of ``G`` (a 2-graph or a 1-graph) with its
    vertex, half-edge and strand labels sent through ``fv``, ``fh``,
    ``fs``; label lists become lists, structure maps dicts."""
    vs = [fv(v) for v in G.vertices]
    hs = [fh(h) for h in G.half_edges]
    if isinstance(G, OneGraph):
        return (vs, hs, {fh(h): fv(v) for h, v in G.attach.items()},
                {fh(h): fh(k) for h, k in G.pairing.items()})
    return (vs, hs, [fs(s) for s in G.strands],
            {fh(h): fv(v) for h, v in G.nu.items()},
            {fs(s): fh(h) for s, h in G.mu.items()},
            {fh(h): fh(k) for h, k in G.iota.items()},
            {fs(s): fs(t) for s, t in G.sigma1.items()},
            {fs(s): fs(t) for s, t in G.sigma2.items()})


def relabel(G, vmap=None, hmap=None, smap=None):
    """Copy of a 2-graph or 1-graph with labels renamed through the maps;
    labels missing from a map are kept."""
    vmap = vmap or {}
    hmap = hmap or {}
    smap = smap or {}
    return type(G)(*_mapped_fields(G, lambda v: vmap.get(v, v),
                                   lambda h: hmap.get(h, h),
                                   lambda s: smap.get(s, s)))


def disjoint_union(graphs, prefix=True):
    """Disjoint union of 2-graphs, or of 1-graphs.  By default a label x of
    the i-th graph becomes ``f"{i}:{x}"`` if it is a string and
    ``f"{i}#{x}"`` otherwise, so that labels 1 and "1" stay apart.  A
    non-negative int is zero-padded to the width of the largest in the
    union ("0#02" before "0#10"), so the labels of each graph keep their
    order (``_label_key``) unless it mixes floats or negative ints in,
    and a component of the union has the positional structure it had in
    its graph."""
    graphs = list(graphs)
    maps = _union_labels(graphs) if prefix else [lambda x: x] * len(graphs)
    kind, acc = TwoGraph, ([], [], [], {}, {}, {}, {}, {})
    for i, (g, f) in enumerate(zip(graphs, maps)):
        parts = _mapped_fields(g, f, f, f)
        if i == 0:
            kind, acc = type(g), parts
            continue
        for a, p in zip(acc, parts):
            if isinstance(a, dict):
                a.update(p)
            else:
                a.extend(p)
    return kind(*acc)


def _union_labels(graphs):
    """The label map of each graph of a prefixed ``disjoint_union``."""
    width = max((len(str(x)) for g in graphs
                 for x in (*g.vertices, *g.half_edges,
                           *getattr(g, "strands", ()))
                 if type(x) is int and x >= 0), default=1)

    def labels(i):
        def f(x):
            if isinstance(x, str):
                return f"{i}:{x}"
            if type(x) is int and x >= 0:
                return f"{i}#{x:0{width}d}"
            return f"{i}#{x}"
        return f
    return [labels(i) for i in range(len(graphs))]


# ---------------------------------------------------------------------------
# validation


class ValidationReport(_Value):
    _fields = ("valid", "violations")

    def __init__(self, valid, violations):
        self.valid, self.violations = valid, violations


def validate(G):
    """Check the 2-graph axioms; violations are reported, not raised."""
    bad = []
    hs, vs, ss = set(G.half_edges), set(G.vertices), set(G.strands)
    if len(hs) != len(G.half_edges) or len(vs) != len(G.vertices) \
            or len(ss) != len(G.strands):
        bad.append("duplicate labels")
    if set(G.nu) != hs or not set(G.nu.values()) <= vs:
        bad.append("nu is not a total map into the vertex set")
    if set(G.mu) != ss or not set(G.mu.values()) <= hs:
        bad.append("mu is not a total map into the half-edge set")

    def inv_ok(m, dom):
        if set(m) != dom:
            return False
        return all(m.get(m.get(x)) == x and m[x] in dom for x in dom)

    if not inv_ok(G.iota, hs):
        bad.append("iota is not an involution on the half-edges")
    if not inv_ok(G.sigma1, ss):
        bad.append("sigma1 is not an involution on the strand sections")
    if not inv_ok(G.sigma2, ss):
        bad.append("sigma2 is not an involution on the strand sections")
    if bad:
        return ValidationReport(False, bad)

    for s in G.strands:
        if G.sigma1[s] == s:
            bad.append(f"sigma1 fixed point at {s!r}")
            break
    for s in G.strands:
        if G.nu[G.mu[G.sigma1[s]]] != G.nu[G.mu[s]]:
            bad.append(f"sigma1 is not vertex-local at {s!r}")
            break
    for s in G.strands:
        if G.mu[G.sigma2[s]] != G.iota[G.mu[s]]:
            bad.append("sigma2/iota incompatible")
            break
    for s in G.strands:
        fixed_s = G.sigma2[s] == s
        fixed_h = G.iota[G.mu[s]] == G.mu[s]
        if fixed_s != fixed_h:
            bad.append("sigma2 fixed points do not match external half-edges")
            break
    return ValidationReport(not bad, bad)


# ---------------------------------------------------------------------------
# vertex graphs


def vertex_graph(G, v):
    """The 1-graph of through-strands at ``v``; its vertices are the
    half-edges of ``G`` at ``v`` and its edges the local sigma1 pairs: the
    part of ``vertex_graphs_union`` induced on those half-edges."""
    try:
        hs = G.half_edges_at(v)
    except KeyError:
        raise GraphError(f"unknown vertex {v!r}") from None
    return vertex_graphs_union(G).induced(hs)


def vertex_graphs_multiset(G):
    return tuple(vertex_graph(G, v) for v in G.vertices)


def vertex_graphs_union(G):
    """Lossy projection: the disjoint union of all vertex graphs (labels are
    shared with ``G`` so no prefixing is needed)."""
    return OneGraph(G.half_edges, G.strands, dict(G.mu), dict(G.sigma1))


# ---------------------------------------------------------------------------
# faces


class Face(_Frozen):
    """Maximal alternating chain of strand sections.

    ``sections`` alternate sigma1/sigma2 steps starting with sigma1.  For
    ``kind == "internal"`` the chain closes up (sigma2 of the last section
    is the first) and the representative is the lexicographically least
    tuple over shifts by two and reversal; for ``kind == "external"`` both
    end sections are sigma2-fixed and the smaller endpoint comes first.
    """

    _fields = ("kind", "sections")

    def __init__(self, kind, sections):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sections", sections)


def faces(G):
    """All faces of ``G`` as ``(internal, external)`` tuples of Face, the
    chains of ``_walk_faces`` with their positions read as labels."""
    if G.derived.faces is None:
        ss = G.strands
        out = {"external": [], "internal": []}
        for kind, chain in _walk_faces(G.view()):
            out[kind].append(Face(kind, tuple(map(ss.__getitem__, chain))))
        G.derived.faces = tuple(out["internal"]), tuple(out["external"])
    return G.derived.faces


def _walk_faces(view):
    """The faces of an integer view, walked in strand order, as (kind,
    chain) pairs: a chain lists section positions whose steps alternate
    sigma1 and sigma2, starting with sigma1.  The external faces come
    first, walked from their sigma2-fixed sections to the other end, then
    the internal ones.  Each walk starts at the least section not yet
    visited, which is the least of its chain (for an external chain, less
    than the other end), so the chain is already its Face representative
    and the faces come out sorted."""
    s1, s2 = view.sigma1, view.sigma2
    visited = set()
    for kind, starts in (("external",
                          [a for a, b in enumerate(s2) if a == b]),
                         ("internal", range(len(s2)))):
        for a in starts:
            if a in visited:
                continue
            chain = [a, s1[a]]
            while s2[chain[-1]] not in (chain[-1], a):
                chain.append(s2[chain[-1]])
                chain.append(s1[chain[-1]])
            visited.update(chain)
            yield kind, chain


def internal_face_count(G):
    return len(faces(G)[0])


# ---------------------------------------------------------------------------
# contraction core, residue, skeleton, boundary


def subgraph_with_edges(G, kept):
    """The wide subgraph of ``G`` keeping exactly the edges in ``kept``
    (all vertices, half-edges and strands are retained)."""
    kept = {tuple(sorted(p, key=_label_key)) for p in kept}
    all_edges = set(G.edge_pairs())
    if not kept <= all_edges:
        raise GraphError("edges to keep are not edges of the graph")
    in_h = {h for p in kept for h in p}
    iota = {h: (G.iota[h] if h in in_h else h) for h in G.half_edges}
    sigma2 = {s: (G.sigma2[s] if G.mu[s] in in_h else s) for s in G.strands}
    return TwoGraph(G.vertices, G.half_edges, G.strands,
                    dict(G.nu), dict(G.mu), iota, dict(G.sigma1), sigma2)


def _contract_edges(G, edges):
    """Contract the wide subgraph spanned by ``edges``.

    The contracted graph keeps one vertex per connected component of the
    subgraph, keeps the subgraph-external half-edges and sections, removes
    the contracted pairings, and closes the through-strand structure by
    pairing the two endpoints of every external face of the subgraph.
    Those faces are walked on ``G`` itself, and no subgraph is built: from
    a section off the contracted half-edges, sigma1 leads to the next
    section, and while that lies on a contracted half-edge, sigma2 then
    sigma1 lead on, until a section off them ends the face.  A pair may
    be given in either order; a pair that is not an edge of ``G`` (an
    external half-edge with itself included) raises ``GraphError``.  The
    contraction of a graph known to be connected is known to be so.
    """
    edges = tuple(edges)
    in_h = set()
    for a, b in edges:
        if a == b or G.iota.get(a) != b:
            raise GraphError("edges to contract are not edges of the graph")
        in_h.update((a, b))

    comp_of = {}
    for vs in _component_vertex_sets(G, edges):
        tag = min(vs, key=_label_key)
        for v in vs:
            comp_of[v] = tag
    new_vertices = sorted(set(comp_of.values()), key=_label_key)

    mu, s1, s2 = G.mu, G.sigma1, G.sigma2
    new_h = [h for h in G.half_edges if h not in in_h]
    new_s = [s for s in G.strands if mu[s] not in in_h]
    nu = {h: comp_of[G.nu[h]] for h in new_h}
    # contracted pairs are gone entirely, so iota restricts cleanly
    iota = {h: G.iota[h] for h in new_h}
    sigma2 = {s: s2[s] for s in new_s}
    sigma1 = {}
    for a in new_s:
        if a not in sigma1:
            b = s1[a]
            while mu[b] in in_h:
                b = s1[s2[b]]
            sigma1[a] = b
            sigma1[b] = a
    out = _assembled(tuple(new_vertices), tuple(new_h), tuple(new_s), nu,
                     {s: mu[s] for s in new_s}, iota, sigma1, sigma2)
    if _known_connected(G):
        out.derived.groups = (out.vertices,)
    return out


def _connected_groups(nodes, pairs):
    """Union-find: the classes of ``nodes`` joined by ``pairs``, each a
    list in ``nodes`` order, listed in the order of their first members."""
    parent = {u: u for u in nodes}
    # find, with path halving, is written out where it is used: a call
    # per lookup cost more than the lookup
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
    groups = {}
    for u in nodes:
        r = u
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        groups.setdefault(r, []).append(u)
    return list(groups.values())


def _component_vertex_sets(G, edge_pairs):
    """Vertex sets of the components of ``G`` restricted to
    ``edge_pairs``, in the order of their least vertices."""
    pairs = ((G.nu[a], G.nu[b]) for a, b in edge_pairs)
    return [frozenset(g) for g in _connected_groups(G.vertices, pairs)]


def residue(G):
    """Contract everything: one vertex per connected component, external
    structure only.  An edgeless graph is its own residue."""
    edges = G.edge_pairs()
    return _contract_edges(G, edges) if edges else G


def skeleton(G):
    """Forget all edges and edge-strand pairs, keep everything else."""
    return TwoGraph(G.vertices, G.half_edges, G.strands, dict(G.nu),
                    dict(G.mu), {h: h for h in G.half_edges},
                    dict(G.sigma1), {s: s for s in G.strands})


def boundary(G):
    """The 1-graph of external half-edges with external-face endpoint
    pairs as edges (the vertex-graph union of the residue)."""
    return vertex_graphs_union(residue(G))


def boundary_components(G):
    """Boundary of each connected component of ``G`` (refines ``boundary``)."""
    return tuple(boundary(c) for c in connected_components(G))


# ---------------------------------------------------------------------------
# connectivity, Euler characteristic


def connected_components(G):
    """The connected components of ``G`` in the order of their least
    vertices; a connected ``G`` is its own only component (the same
    object, with its derived data), and the components built for a
    disconnected one are known to be connected."""
    groups = _groups(G)
    if len(groups) == 1:
        return (G,)
    return tuple(_piece(G, vs, inside)
                 for vs, inside in _split(G, groups, G.edge_pairs()))


def _groups(G):
    """The component partition of ``G``, kept in ``derived``: the vertex
    tuples of its connected components, each in vertex order, in the
    order of their least vertices."""
    d = G.derived
    if d.groups is None:
        nu = G.nu
        d.groups = tuple(map(tuple, _connected_groups(
            G.vertices, ((nu[a], nu[b]) for a, b in G.edge_pairs()))))
    return d.groups


def _known_connected(G):
    """True when ``G``'s kept partition has one group; runs no
    union-find."""
    groups = G.derived.groups
    return groups is not None and len(groups) == 1


def _pieces(G, edge_pairs):
    """The connected components of ``G`` restricted to ``edge_pairs`` as
    (vertices, edges inside) pairs of tuples, in the order of their least
    vertices; vertices and edges keep their order in ``G.vertices`` and
    ``edge_pairs``."""
    nu = G.nu
    groups = _connected_groups(G.vertices,
                               ((nu[a], nu[b]) for a, b in edge_pairs))
    return _split(G, groups, edge_pairs)


def _split(G, groups, edge_pairs):
    """Each vertex group of ``groups`` with the pairs of ``edge_pairs``
    inside it, as (vertices, edges inside) pairs of tuples."""
    nu = G.nu
    where = {v: k for k, vs in enumerate(groups) for v in vs}
    inside = [[] for _ in groups]
    for p in edge_pairs:
        inside[where[nu[p[0]]]].append(p)
    return [(tuple(vs), tuple(es)) for vs, es in zip(groups, inside)]


def _piece(G, vs, edge_pairs):
    """The 2-graph of one of the ``_pieces`` (vs, edge_pairs) of ``G``: the
    vertices ``vs`` with all their half-edges and sections, paired across
    exactly ``edge_pairs``, every other half-edge at ``vs`` external.  It
    is connected, and its partition says so."""
    iota = {}
    for a, b in edge_pairs:
        iota[a], iota[b] = b, a
    vset = set(vs)
    hs = tuple(h for h in G.half_edges if G.nu[h] in vset)
    hset = set(hs)
    ss = tuple(s for s in G.strands if G.mu[s] in hset)
    out = _assembled(tuple(vs), hs, ss,
                     {h: G.nu[h] for h in hs},
                     {s: G.mu[s] for s in ss},
                     {h: iota.get(h, h) for h in hs},
                     {s: G.sigma1[s] for s in ss},
                     {s: (G.sigma2[s] if G.mu[s] in iota else s) for s in ss})
    out.derived.groups = (out.vertices,)
    return out


def is_connected(G):
    """At most one connected component (the empty graph has none)."""
    return len(_groups(G)) <= 1


def is_bridgeless(G):
    """True when no single edge disconnects its component (1PI)."""
    edges = G.edge_pairs()
    before = len(_groups(G))
    for e in edges:
        a, b = e
        if G.nu[a] == G.nu[b]:
            continue
        rest = [p for p in edges if p != e]
        if len(_component_vertex_sets(G, rest)) > before:
            return False
    return True


def euler_characteristic(G):
    """V - E + F with F the number of internal faces."""
    return len(G.vertices) - G.n_edges() + internal_face_count(G)


# ---------------------------------------------------------------------------
# cell complex view


class CellComplexReport(_Value):
    _fields = ("cells", "covers", "pure", "two_dimensional")

    def __init__(self, cells, covers, pure, two_dimensional):
        self.cells, self.covers = cells, covers
        self.pure, self.two_dimensional = pure, two_dimensional


def to_complex(G):
    """Graded cells (vertices; edges and external half-edges; faces) with
    the covering relation, plus purity and 2-dimensionality flags."""
    cells0 = tuple(("v", v) for v in G.vertices)
    one = [("e", p) for p in G.edge_pairs()]
    one += [("x", (h,)) for h in G.external_half_edges()]
    cells1 = tuple(one)
    internal, external = faces(G)
    cells2 = tuple(("f", f.sections) for f in internal + external)
    covers = []
    h_to_1 = {}
    for c in cells1:
        for h in c[1]:
            h_to_1[h] = c
    for c in cells1:
        for h in c[1]:
            covers.append((("v", G.nu[h]), c))
    for c in cells2:
        for s in c[1]:
            covers.append((h_to_1[G.mu[s]], c))
    covers = tuple(sorted(set(covers), key=repr))
    pure = all(any(cov[1] == c for cov in covers) for c in cells1) or not cells1
    pure = pure and (all(any(cov[1] == c for cov in covers) for c in cells2)
                     or not cells2)
    # a complex of 2-graph type is 2-dimensional iff both attachment maps
    # are surjective (no bare vertices, no strandless half-edges)
    nu_onto = set(G.nu.values()) == set(G.vertices)
    mu_onto = set(G.mu.values()) == set(G.half_edges)
    return CellComplexReport({0: cells0, 1: cells1, 2: cells2}, covers,
                             True if pure else False, nu_onto and mu_onto)


# ---------------------------------------------------------------------------
# constructors


def from_combinatorial_map(half_edges, sigma, iota):
    """2-graph of a combinatorial map ``(H, sigma, iota)``.

    ``sigma`` may be a dict permutation or an iterable of cycles.  Each
    half-edge receives two strand sections labelled ``"{h}:0"`` (toward the
    sigma-predecessor) and ``"{h}:1"`` (toward the successor); the vertex
    pairing joins the out-section of ``h`` to the in-section of
    ``sigma(h)``, the edge pairing joins sections crosswise, realizing the
    orientable gluing.
    """
    hs = _sorted_labels(half_edges)
    hset = set(hs)
    if not isinstance(sigma, dict):
        perm = {}
        for cyc in sigma:
            cyc = list(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a] = b
        sigma = perm
    sigma = {h: sigma.get(h, h) for h in hs}
    if set(sigma) != hset or set(sigma.values()) != hset:
        raise GraphError("sigma is not a permutation of the half-edges")
    if not isinstance(iota, dict):
        iota = _involution_of_pairs(hs, iota)
    iota = {h: iota.get(h, h) for h in hs}
    for h in hs:
        if iota[h] not in hset or iota[iota[h]] != h:
            raise GraphError("iota is not an involution on the half-edges")

    # vertices = sigma-cycles
    vlabel = {}
    seen = set()
    for h in hs:
        if h in seen:
            continue
        cyc = [h]
        seen.add(h)
        cur = sigma[h]
        while cur != h:
            cyc.append(cur)
            seen.add(cur)
            cur = sigma[cur]
        tag = f"v:{min(cyc, key=_label_key)}"
        for k in cyc:
            vlabel[k] = tag

    sin = {h: f"{h}:0" for h in hs}
    sout = {h: f"{h}:1" for h in hs}
    strands = [sin[h] for h in hs] + [sout[h] for h in hs]
    nu = {h: vlabel[h] for h in hs}
    mu = {}
    for h in hs:
        mu[sin[h]] = h
        mu[sout[h]] = h
    s1 = {}
    for h in hs:
        a, b = sout[h], sin[sigma[h]]
        s1[a] = b
        s1[b] = a
    s2 = {s: s for s in strands}
    for h in hs:
        k = iota[h]
        if k != h:
            s2[sout[h]] = sin[k]
            s2[sin[k]] = sout[h]
            s2[sin[h]] = sout[k]
            s2[sout[k]] = sin[h]
    G = TwoGraph(sorted(set(vlabel.values())), hs, strands, nu, mu, iota,
                 s1, s2)
    rep = validate(G)
    if not rep.valid:
        raise GraphError("; ".join(rep.violations))
    return G


def from_coloured_graph(nodes, coloured_edges, external_nodes=()):
    """2-graph of a properly edge-coloured graph with colours ``0..r``.

    ``coloured_edges`` lists ``(a, b, colour)``; colour-0 edges become the
    stranded edges, the other colours become through-strands.  Every node
    needs exactly one edge of each colour 1..r and exactly one colour-0
    incidence, either an edge or a listed external leg.  Deleting the
    colour-0 edges leaves the components that become the vertices.
    """
    nodes = _sorted_labels(nodes)
    nset = set(nodes)
    external_nodes = set(external_nodes)
    by_node = {u: {} for u in nodes}
    zero = []
    rest = []
    colours = set()
    for a, b, c in coloured_edges:
        if a not in nset or b not in nset or a == b:
            raise GraphError("not properly coloured: bad edge endpoint")
        if c == 0:
            zero.append((a, b))
        else:
            rest.append((a, b, c))
            colours.add(c)
        for u in (a, b):
            if c in by_node[u]:
                raise GraphError("not properly coloured: repeated colour "
                                 f"{c} at {u!r}")
            by_node[u][c] = (a, b)
    if not colours:
        raise GraphError("not properly coloured: no strand colours")
    r = max(colours)
    if colours != set(range(1, r + 1)):
        raise GraphError("not properly coloured: colour gap")
    for u in nodes:
        have = set(by_node[u])
        if have - {0} != set(range(1, r + 1)):
            raise GraphError(f"not properly coloured: missing colour at {u!r}")
        if (0 in have) == (u in external_nodes):
            raise GraphError(f"not properly coloured: colour-0 clash at {u!r}")

    # vertices = components after deleting colour-0 edges
    vlabel = {}
    for members in _connected_groups(nodes, ((a, b) for a, b, c in rest)):
        tag = f"v:{members[0]}"
        for u in members:
            vlabel[u] = tag

    strands = [f"{u}:{c}" for u in nodes for c in range(1, r + 1)]
    nu = {u: vlabel[u] for u in nodes}
    mu = {f"{u}:{c}": u for u in nodes for c in range(1, r + 1)}
    s1 = {}
    for a, b, c in rest:
        s1[f"{a}:{c}"] = f"{b}:{c}"
        s1[f"{b}:{c}"] = f"{a}:{c}"
    iota = {u: u for u in nodes}
    s2 = {s: s for s in strands}
    for a, b in zero:
        iota[a] = b
        iota[b] = a
        for c in range(1, r + 1):
            s2[f"{a}:{c}"] = f"{b}:{c}"
            s2[f"{b}:{c}"] = f"{a}:{c}"
    G = TwoGraph(sorted(set(vlabel.values())), nodes, strands, nu, mu,
                 iota, s1, s2)
    rep = validate(G)
    if not rep.valid:
        raise GraphError("; ".join(rep.violations))
    return G
