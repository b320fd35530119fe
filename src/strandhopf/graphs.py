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

A 2-graph stores its sorted label tuples and one structure, its integer
view (``View``): the two attachment maps and the three involutions as
lists over positions.  Everything else, the label maps ``G.nu`` to
``G.sigma2`` too, is derived from the view when first read and kept in
its ``derived`` record (``Derived``).  The public constructor's label
dicts become those kept maps and the view is built from them on first
use, so ``validate`` sees a malformed input as it was given.  Every
builder of the package writes a view and no label dict (``_joined``
moves positions into label order where a relabelling changes it); only
the I/O writers, ``validate``, ``to_complex``, the ``from_*``
constructors and the public accessors read label dicts.  The coproduct
canonizes the views of the piece and contraction builders
(``_piece_view``, ``_contracted_view``) as they are, and only the
materializer (``_materialized``) attaches the parent's labels to one.

A growth child (``rewrite._with_edges``) shares its label tuples, its
fibre maps and all its view lists but ``iota`` and ``sigma2`` with its
parent, and has no label dict.  So nothing may write into a graph's
label tuples, view or derived maps in place; no code in the package
does (every write goes to a list or dict that the writing function
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
    ``__init__`` sets the fields with ``object.__setattr__``, never
    through ``__dict__`` (on CPython 3.11 a used ``__dict__`` slows every
    later attribute read)."""

    def _set_fields(self, *values):
        """Set the fields, given in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

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
        hpos = _positions(self.half_edges)
        return _label_pairs(self.half_edges,
                            [hpos[self.pairing[h]] for h in self.half_edges])

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
    """The view of one 2-graph and its derived data, None until computed.

    ``view`` is ``TwoGraph.view()``, ``maps`` the label maps in ``View``
    order (each None until read), ``edge_pairs`` ``TwoGraph.edge_pairs()``;
    ``half_edges_at`` and ``strands_at`` map each vertex to its half-edges
    and each half-edge to its sections, ``faces`` is ``faces(G)``,
    ``canon`` the (code, |Aut|) pair of ``iso``, ``groups`` the component
    partition (``_groups``, or one group, set on graphs connected by
    construction) and ``vertex_classes`` the (code, |Aut|) pair of each
    vertex graph, in vertex order (``iso.vertex_classes``).
    """

    __slots__ = ("edge_pairs", "half_edges_at", "strands_at", "faces",
                 "canon", "groups", "view", "maps", "vertex_classes")

    def __init__(self, view=None, maps=None):
        self.edge_pairs = self.half_edges_at = self.strands_at = None
        self.faces = self.canon = self.groups = None
        self.view, self.maps, self.vertex_classes = view, maps, None


View = namedtuple("View", "nu iota mu sigma1 sigma2")
View.__doc__ = """The integer view of a 2-graph: ``nu``, ``iota``, ``mu``,
``sigma1`` and ``sigma2`` are lists over half-edge or section positions
(in ``G.half_edges`` or ``G.strands``) of the positions their maps send
them to (in ``G.vertices``, ``G.half_edges`` or ``G.strands``)."""

# (domain, codomain) of each View map: 0 vertices, 1 half-edges, 2 sections
_CARRIERS = ((1, 0), (1, 1), (2, 1), (2, 2), (2, 2))


def _positions(labels):
    """Each label of a sorted label tuple mapped to its position."""
    return {x: k for k, x in enumerate(labels)}


def _label_map(k):
    """The ``View`` map ``k`` as a label dict, built when first read."""
    def read(G):
        maps = G.derived.maps
        if maps is None:
            maps = G.derived.maps = [None] * 5
        if maps[k] is None:
            labels = G.vertices, G.half_edges, G.strands
            dom, cod = _CARRIERS[k]
            maps[k] = dict(zip(labels[dom], map(labels[cod].__getitem__,
                                                G.view()[k])))
        return maps[k]
    return property(read)


class TwoGraph:
    """Stranded graph.

    ``nu`` attaches half-edges to vertices, ``mu`` attaches strand sections
    to half-edges.  ``iota`` pairs half-edges into edges (fixed points are
    external), ``sigma1`` pairs sections at a vertex (fixed-point free,
    vertex-local), ``sigma2`` pairs sections across edges (compatible with
    ``iota``; fixes exactly the sections of external half-edges).  The
    maps are stored once, as the integer view; as label dicts they are
    read-only properties (see the module docstring).  Every value derived
    and kept is in ``derived``.  Equal only to itself.
    """

    nu, iota, mu, sigma1, sigma2 = map(_label_map, range(5))

    def __init__(self, vertices, half_edges, strands, nu, mu, iota, sigma1,
                 sigma2):
        self.vertices = _sorted_labels(vertices)
        self.half_edges = _sorted_labels(half_edges)
        self.strands = _sorted_labels(strands)
        self.derived = Derived(maps=[dict(nu), dict(iota), dict(mu),
                                     dict(sigma1), dict(sigma2)])

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
            d.half_edges_at = _fibres(self.vertices, self.half_edges,
                                      self.view().nu)
        return d.half_edges_at[v]

    def strands_at(self, h):
        d = self.derived
        if d.strands_at is None:
            d.strands_at = _fibres(self.half_edges, self.strands,
                                   self.view().mu)
        return d.strands_at[h]

    def edge_pairs(self):
        d = self.derived
        if d.edge_pairs is None:
            d.edge_pairs = _label_pairs(self.half_edges, self.view().iota)
        return d.edge_pairs

    def view(self):
        """The integer view (``View``) of this graph, kept in ``derived``;
        built from the constructor's label dicts on first use."""
        d = self.derived
        if d.view is None:
            labels = self.vertices, self.half_edges, self.strands
            pos = [_positions(xs) for xs in labels]
            d.view = View(*([pos[cod][m[x]] for x in labels[dom]]
                            for m, (dom, cod) in zip(d.maps, _CARRIERS)))
        return d.view

    def n_edges(self):
        return len(self.edge_pairs())

    def external_half_edges(self):
        hs = self.half_edges
        return tuple(hs[i] for i, j in enumerate(self.view().iota) if i == j)

    def external_strands(self):
        ss = self.strands
        return tuple(ss[i] for i, j in enumerate(self.view().sigma2) if i == j)

    def vertex_strand_pairs(self):
        return _label_pairs(self.strands, self.view().sigma1)

    def edge_strand_pairs(self):
        return _label_pairs(self.strands, self.view().sigma2)

    def strand_degree(self, h):
        return len(self.strands_at(h))


def _assembled(vertices, half_edges, strands, view):
    """The 2-graph with exactly these label tuples, already in label order
    (such as subsequences of another graph's), and this integer view,
    neither sorted, copied nor checked."""
    out = TwoGraph.__new__(TwoGraph)
    out.vertices, out.half_edges, out.strands = vertices, half_edges, strands
    out.derived = Derived(view)
    return out


def _label_pairs(labels, inv):
    """The pairs of an involution on the positions of ``labels``, sorted."""
    return tuple((labels[i], labels[j]) for i, j in enumerate(inv) if i < j)


def _fibres(base, items, at):
    """Each of ``base`` mapped to the ``items`` that ``at`` sends to it."""
    d = [[] for _ in base]
    for x, p in zip(items, at):
        d[p].append(x)
    return dict(zip(base, map(tuple, d)))


def _joined(parts):
    """The 2-graph of the ``parts`` (G, fv, fh, fs) side by side, labels
    sent through fv, fh and fs and positions shifted past the graphs
    before, then moved to the places of their labels in label order."""
    labels, maps = ([], [], []), ([], [], [], [], [])
    for G, *fs in parts:
        shift = [len(xs) for xs in labels]
        for xs, f, own in zip(labels, fs, (G.vertices, G.half_edges,
                                           G.strands)):
            xs += map(f, own)
        for m, own, (_, cod) in zip(maps, G.view(), _CARRIERS):
            m += [p + shift[cod] for p in own]
    orders = [sorted(range(len(xs)), key=list(map(_label_key, xs)).__getitem__)
              for xs in labels]
    if any(o != list(range(len(o))) for o in orders):
        where = [_new_positions(o, len(o)) for o in orders]
        labels = [[xs[i] for i in o] for xs, o in zip(labels, orders)]
        maps = [[where[cod][m[i]] for i in orders[dom]]
                for m, (dom, cod) in zip(maps, _CARRIERS)]
    return _assembled(*map(tuple, labels), View(*maps))


def _mapped_one(g, fv, fh):
    """Constructor arguments of the 1-graph ``g`` relabelled by fv, fh."""
    return ([fv(v) for v in g.vertices], [fh(h) for h in g.half_edges],
            {fh(h): fv(v) for h, v in g.attach.items()},
            {fh(h): fh(k) for h, k in g.pairing.items()})


def relabel(G, vmap=None, hmap=None, smap=None):
    """Copy of a 2-graph or 1-graph with labels renamed through the maps;
    labels missing from a map are kept."""
    fv, fh, fs = (lambda x, m=m or {}: m.get(x, x)
                  for m in (vmap, hmap, smap))
    if isinstance(G, OneGraph):
        return OneGraph(*_mapped_one(G, fv, fh))
    return _joined([(G, fv, fh, fs)])


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
    if not graphs or not isinstance(graphs[0], OneGraph):
        return _joined([(g, f, f, f) for g, f in zip(graphs, maps)])
    parts = [_mapped_one(g, f, f) for g, f in zip(graphs, maps)]
    return OneGraph([v for p in parts for v in p[0]],
                    [h for p in parts for h in p[1]],
                    {h: v for p in parts for h, v in p[2].items()},
                    {h: k for p in parts for h, k in p[3].items()})


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
    nu, mu, iota, sigma1, sigma2 = G.nu, G.mu, G.iota, G.sigma1, G.sigma2
    hs, vs, ss = set(G.half_edges), set(G.vertices), set(G.strands)
    if len(hs) != len(G.half_edges) or len(vs) != len(G.vertices) \
            or len(ss) != len(G.strands):
        bad.append("duplicate labels")
    if set(nu) != hs or not set(nu.values()) <= vs:
        bad.append("nu is not a total map into the vertex set")
    if set(mu) != ss or not set(mu.values()) <= hs:
        bad.append("mu is not a total map into the half-edge set")

    def inv_ok(m, dom):
        if set(m) != dom:
            return False
        return all(m.get(m.get(x)) == x and m[x] in dom for x in dom)

    if not inv_ok(iota, hs):
        bad.append("iota is not an involution on the half-edges")
    if not inv_ok(sigma1, ss):
        bad.append("sigma1 is not an involution on the strand sections")
    if not inv_ok(sigma2, ss):
        bad.append("sigma2 is not an involution on the strand sections")
    if bad:
        return ValidationReport(False, bad)

    for s in G.strands:
        if sigma1[s] == s:
            bad.append(f"sigma1 fixed point at {s!r}")
            break
    for s in G.strands:
        if nu[mu[sigma1[s]]] != nu[mu[s]]:
            bad.append(f"sigma1 is not vertex-local at {s!r}")
            break
    for s in G.strands:
        if mu[sigma2[s]] != iota[mu[s]]:
            bad.append("sigma2/iota incompatible")
            break
    for s in G.strands:
        fixed_s = sigma2[s] == s
        fixed_h = iota[mu[s]] == mu[s]
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
    return _vertex_union(G.half_edges, G.strands, G.view())


def _vertex_union(hs, ss, view):
    """The vertex-graph union of ``view`` on the labels ``hs`` and ``ss``."""
    return OneGraph(hs, ss, {s: hs[p] for s, p in zip(ss, view.mu)},
                    {s: ss[p] for s, p in zip(ss, view.sigma1)})


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
    if not kept <= set(G.edge_pairs()):
        raise GraphError("edges to keep are not edges of the graph")
    hpos, view = _positions(G.half_edges), G.view()
    in_h = {hpos[h] for p in kept for h in p}
    return _assembled(G.vertices, G.half_edges, G.strands, view._replace(
        iota=[j if i in in_h else i for i, j in enumerate(view.iota)],
        sigma2=[t if view.mu[s] in in_h else s
                for s, t in enumerate(view.sigma2)]))


def _contract_edges(G, edges):
    """Contract the wide subgraph spanned by ``edges``: the contraction
    builder (``_contracted_view``) on their positions, then the
    materializer.  A pair may be given in either order; a pair that is
    not an edge of ``G`` (an external half-edge with itself included)
    raises ``GraphError``.  The contraction of a graph known to be
    connected is known to be so."""
    hpos, view = _positions(G.half_edges), G.view()
    pairs = []
    for a, b in edges:
        i, j = hpos.get(a), hpos.get(b)
        if a == b or i is None or view.iota[i] != j:
            raise GraphError("edges to contract are not edges of the graph")
        pairs.append((i, j))
    return _materialized(G, *_contracted_view(len(G.vertices), view, pairs),
                         _known_connected(G))


def _contracted_view(nv, view, edges):
    """The contraction builder: the kept positions and the ``View`` of the
    contraction of the wide subgraph spanned by ``edges`` (half-edge
    position pairs) of a graph with ``nv`` vertices and view ``view``.

    The contraction keeps one vertex per connected component of the
    subgraph, the least, keeps the subgraph-external half-edges and
    sections, removes the contracted pairings, and closes the
    through-strand structure by pairing the two endpoints of every
    external face of the subgraph.  Those faces are walked on the view
    itself, and no subgraph is built: from a section off the contracted
    half-edges, sigma1 leads to the next section, and while that lies on
    a contracted half-edge, sigma2 then sigma1 lead on, until a section
    off them ends the face.  Kept positions are (vertices, half-edges,
    sections), each increasing, so the labels of a materialized
    contraction keep their order and each vertex is named by the least
    vertex of its component."""
    nu, iota, mu, s1, s2 = view
    gone = [False] * len(nu)
    for a, b in edges:
        gone[a] = gone[b] = True
    groups = _connected_groups(range(nv), [(nu[a], nu[b]) for a, b in edges])
    comp = [0] * nv
    for k, vs in enumerate(groups):
        for v in vs:
            comp[v] = k
    hs = [h for h, out in enumerate(gone) if not out]
    ss = [s for s, h in enumerate(mu) if not gone[h]]
    hnew, snew = _new_positions(hs, len(nu)), _new_positions(ss, len(mu))
    # contracted pairs are gone entirely, so iota restricts cleanly
    sigma1 = [None] * len(ss)
    for k, a in enumerate(ss):
        if sigma1[k] is None:
            b = s1[a]
            while gone[mu[b]]:
                b = s1[s2[b]]
            sigma1[k] = j = snew[b]
            sigma1[j] = k
    return ([vs[0] for vs in groups], hs, ss), View(
        [comp[nu[h]] for h in hs], [hnew[iota[h]] for h in hs],
        [hnew[mu[s]] for s in ss], sigma1, [snew[s2[s]] for s in ss])


def _piece_view(view, vs, edges):
    """The piece builder: the kept positions and the ``View`` of one of
    the ``_pieces`` (vs, edges) of a view, the vertex positions ``vs``
    (increasing) with all their half-edges and sections, paired across
    exactly ``edges``, every other half-edge at ``vs`` external."""
    nu, _, mu, s1, s2 = view
    vnew = _positions(vs)
    paired = {}
    for a, b in edges:
        paired[a], paired[b] = b, a
    hs = [h for h, v in enumerate(nu) if v in vnew]
    hnew = _new_positions(hs, len(nu))
    ss = [s for s, h in enumerate(mu) if hnew[h] is not None]
    snew = _new_positions(ss, len(mu))
    return (vs, hs, ss), View(
        [vnew[nu[h]] for h in hs],
        [hnew[paired[h]] if h in paired else k for k, h in enumerate(hs)],
        [hnew[mu[s]] for s in ss], [snew[s1[s]] for s in ss],
        [snew[s2[s]] if mu[s] in paired else k for k, s in enumerate(ss)])


def _new_positions(kept, n):
    """A list over range(n) of each kept position's place in ``kept``,
    None for the others."""
    out = [None] * n
    for k, i in enumerate(kept):
        out[i] = k
    return out


def _materialized(G, kept, view, connected):
    """The materializer: the 2-graph on the positions ``kept`` (vertices,
    half-edges, sections, each increasing) of ``G``, with the labels
    there and the structure maps of ``view``, which becomes its integer
    view.  Marked connected when ``connected`` is true."""
    out = _assembled(*(tuple([labels[i] for i in ks]) for labels, ks in
                       zip((G.vertices, G.half_edges, G.strands), kept)),
                     view)
    if connected:
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


def residue(G):
    """Contract everything: one vertex per connected component, external
    structure only.  An edgeless graph is its own residue."""
    edges = G.edge_pairs()
    return _contract_edges(G, edges) if edges else G


def _residue_view(G):
    """The kept positions and the ``View`` of the residue of ``G``, whose
    vertex-graph union is the boundary, with no graph built."""
    view = G.view()
    return _contracted_view(len(G.vertices), view, _edge_positions(view))


def skeleton(G):
    """Forget all edges and edge-strand pairs, keep everything else."""
    return subgraph_with_edges(G, ())


def boundary(G):
    """The 1-graph of external half-edges with external-face endpoint
    pairs as edges (the vertex-graph union of ``_residue_view``)."""
    (_, hs, ss), view = _residue_view(G)
    return _vertex_union([G.half_edges[i] for i in hs],
                         [G.strands[i] for i in ss], view)


def boundary_components(G):
    """Boundary of each connected component of ``G`` (refines ``boundary``)."""
    return tuple(boundary(c) for c in connected_components(G))


# ---------------------------------------------------------------------------
# connectivity, Euler characteristic


def connected_components(G):
    """The connected components of ``G`` in the order of their least
    vertices; a connected ``G`` is its own only component (the same
    object, with its derived data), and the components materialized from
    the view split of a disconnected one are known to be connected."""
    if len(_groups(G)) == 1:
        return (G,)
    return tuple(_materialized(G, kept, view, True)
                 for kept, view in _split_view(G))


def _groups(G):
    """The component partition of ``G``, kept in ``derived``: the vertex
    tuples of its connected components, each in vertex order, in the
    order of their least vertices."""
    d = G.derived
    if d.groups is None:
        vs, (nu, iota, *_) = G.vertices, G.view()
        d.groups = tuple(tuple([vs[i] for i in group]) for group in
                         _connected_groups(range(len(vs)), (
                             (nu[a], nu[b]) for a, b in enumerate(iota)
                             if a < b)))
    return d.groups


def _known_connected(G):
    """True when ``G``'s kept partition has one group; runs no
    union-find."""
    groups = G.derived.groups
    return groups is not None and len(groups) == 1


def _edge_positions(view):
    """The edges of a view as half-edge position pairs (i, j), i < j, in
    increasing order, which is the order of ``TwoGraph.edge_pairs``."""
    return [(h, k) for h, k in enumerate(view.iota) if h < k]


def _pieces(nv, view, edges):
    """The connected components of a view with ``nv`` vertices restricted
    to ``edges`` (half-edge position pairs) as (vertex positions, edges
    inside) pairs of tuples, in the order of their least vertices; both
    keep their order in range(nv) and ``edges``."""
    nu = view.nu
    groups = _connected_groups(range(nv), ((nu[a], nu[b]) for a, b in edges))
    where = [0] * nv
    for k, vs in enumerate(groups):
        for v in vs:
            where[v] = k
    inside = [[] for _ in groups]
    for p in edges:
        inside[where[nu[p[0]]]].append(p)
    return [(tuple(vs), tuple(es)) for vs, es in zip(groups, inside)]


def _split_view(G, kept=None, view=None):
    """The view split: (kept positions, view) of each connected component
    of ``G``, or of the graph with view ``view`` on the positions ``kept``
    of ``G`` (such as a contraction), with positions in ``G``.  A graph
    of one component gives its own view and kept positions; a graph
    known to be connected runs no union-find."""
    if view is None:
        view = G.view()
        kept = (range(len(G.vertices)), range(len(view.nu)),
                range(len(view.mu)))
        if len(_groups(G)) == 1:
            return [(kept, view)]
    pieces = _pieces(len(kept[0]), view, _edge_positions(view))
    if len(pieces) == 1:
        return [(kept, view)]
    out = []
    for piece in pieces:
        inner, part = _piece_view(view, *piece)
        out.append((tuple([outer[i] for i in ks]
                          for outer, ks in zip(kept, inner)), part))
    return out


def is_connected(G):
    """At most one connected component (the empty graph has none)."""
    return len(_groups(G)) <= 1


def is_bridgeless(G):
    """True when no single edge disconnects its component (1PI): one
    union-find over vertex positions per edge, on the other edges."""
    view = G.view()
    ends = [(view.nu[a], view.nu[b]) for a, b in _edge_positions(view)]
    before, nodes = len(_groups(G)), range(len(G.vertices))
    return all(a == b or len(_connected_groups(
        nodes, ends[:k] + ends[k + 1:])) == before
        for k, (a, b) in enumerate(ends))


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
    covers, nu, mu = [], G.nu, G.mu
    h_to_1 = {}
    for c in cells1:
        for h in c[1]:
            h_to_1[h] = c
    for c in cells1:
        for h in c[1]:
            covers.append((("v", nu[h]), c))
    for c in cells2:
        for s in c[1]:
            covers.append((h_to_1[mu[s]], c))
    covers = tuple(sorted(set(covers), key=repr))
    pure = all(any(cov[1] == c for cov in covers) for c in cells1) or not cells1
    pure = pure and (all(any(cov[1] == c for cov in covers) for c in cells2)
                     or not cells2)
    # a complex of 2-graph type is 2-dimensional iff both attachment maps
    # are surjective (no bare vertices, no strandless half-edges)
    nu_onto = set(nu.values()) == set(G.vertices)
    mu_onto = set(mu.values()) == set(G.half_edges)
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
