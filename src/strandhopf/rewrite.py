"""Subgraphs, contraction, insertion and the gluing of vertex types.

Subgraphs are *wide*: a subgraph is a subset of the edge set, keeping
every vertex, half-edge and strand section of the parent.  Contraction
of a subgraph shrinks each of its connected components to a point and
closes the surviving strand structure along the subgraph's external
faces.  Insertion is the converse: a graph is planted into the vertices
of another whose vertex graphs match its boundary components.  A vertex
type (a 1-graph) is instantiated as a single-vertex 2-graph, and edges
with their strand pairings are glued between half-edges; the edge growth
of ``series`` builds its diagrams and its contraction closure from these.
"""

from __future__ import annotations

import itertools

from .graphs import (GraphError, TwoGraph, boundary, connected_components,
                     subgraph_with_edges, validate, vertex_graphs_union,
                     _assembled, _contract_edges, _Frozen)
from . import iso


# ---------------------------------------------------------------------------
# subgraphs and contraction


class Subgraph(_Frozen):
    """Edge subset of a parent graph (wide subgraph)."""

    _fields = ("parent", "edges")

    def __init__(self, parent, edges):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "edges", edges)

    def materialize(self):
        """The subgraph as a 2-graph on the full carrier sets."""
        return subgraph_with_edges(self.parent, self.edges)

    def contract(self):
        return _contract_edges(self.parent, self.edges)

    @property
    def is_skeleton(self):
        return not self.edges

    @property
    def is_full(self):
        return len(self.edges) == self.parent.n_edges()


def subgraphs(G):
    """All wide subgraphs of ``G`` in a deterministic order (by edge count,
    then lexicographically on the sorted edge list)."""
    all_edges = G.edge_pairs()
    out = []
    for k in range(len(all_edges) + 1):
        for chosen in itertools.combinations(all_edges, k):
            out.append(Subgraph(G, chosen))
    return out


def contract(G, edges):
    """Contract the wide subgraph spanned by ``edges``; each connected
    component of the subgraph becomes a single vertex."""
    return _contract_edges(G, edges)


# ---------------------------------------------------------------------------
# insertion


class InsertionMap(_Frozen):
    """Component-sensitive identification of the boundary of ``source``
    with the vertex-graph union of ``target``.

    ``on_half_edges`` sends external half-edges of the source (vertices of
    its boundary) to half-edges of the target; ``on_strands`` sends
    external sections of the source to strand sections of the target.
    """

    _fields = ("source", "target", "on_half_edges", "on_strands")

    def __init__(self, source, target, on_half_edges, on_strands):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "on_half_edges", on_half_edges)
        object.__setattr__(self, "on_strands", on_strands)

    def half_edge_map(self):
        return dict(self.on_half_edges)

    def strand_map(self):
        return dict(self.on_strands)


def insertions(H, G2):
    """All insertion maps of ``H`` into ``G2``: bijections of the boundary
    components of ``H`` with the vertices of ``G2`` together with
    1-graph isomorphisms (``iso._union_isos``) of the matched pieces, the
    vertex graphs of ``G2`` split once from their union.  The maps come
    bijection by bijection, and within one in the order of the pieces'
    isomorphisms; each lists the external half-edges and strands of ``H``
    in label order."""
    bds = [boundary(c) for c in connected_components(H)]
    sources = [iso._one_entries(b) for b in bds]
    union, targets = vertex_graphs_union(G2), iso._vertex_components(G2)

    def items(i, j):
        """The isomorphisms of boundary i onto the vertex graph of vertex
        j as maps of each half-edge and strand to its (label, image)
        item, which every insertion map that uses it shares."""
        for vm, hm in iso._union_isos(bds[i], sources[i], union, targets[j]):
            yield ({h: (h, k) for h, k in vm.items()},
                   {s: (s, t) for s, t in hm.items()})

    codes = [[iso._one_class(p)[0] for p in side]
             for side in (sources, targets)]
    hs, ss = H.external_half_edges(), H.external_strands()
    return [InsertionMap(H, G2, tuple(map(hitems.get, hs)),
                         tuple(map(sitems.get, ss)))
            for hitems, sitems in iso._matched_unions(*codes, items)]


def insert(G2, H, ins):
    """Insert ``H`` into ``G2`` along ``ins``: the edges and edge-strand
    pairs of ``G2`` are pulled back through the insertion map and added to
    ``H``.  The result lives on the carrier sets of ``H``."""
    hmap = ins.half_edge_map()
    smap = ins.strand_map()
    if set(hmap.values()) != set(G2.half_edges):
        raise GraphError("insertion map does not cover the target half-edges")
    if set(smap.values()) != set(G2.strands):
        raise GraphError("insertion map does not cover the target strands")
    if set(hmap) != set(H.external_half_edges()):
        raise GraphError("insertion map domain is not the source boundary")
    inv_h = {b: a for a, b in hmap.items()}
    inv_s = {b: a for a, b in smap.items()}
    iota, sigma2 = dict(H.iota), dict(H.sigma2)
    iota.update((inv_h[a], inv_h[b]) for a, b in G2.iota.items() if a != b)
    sigma2.update((inv_s[a], inv_s[b]) for a, b in G2.sigma2.items()
                  if a != b)
    out = TwoGraph(H.vertices, H.half_edges, H.strands, dict(H.nu),
                   dict(H.mu), iota, dict(H.sigma1), sigma2)
    rep = validate(out)
    if not rep.valid:
        raise GraphError("insertion produced an invalid graph: "
                         + "; ".join(rep.violations))
    return out


# ---------------------------------------------------------------------------
# gluing vertex types


def instantiate_vertex_type(gamma, tag):
    """Single-vertex 2-graph whose vertex graph is ``gamma`` (no edges).

    Slots of ``gamma`` become half-edges ``"{tag}.{slot}"``; its half-edges
    become strand sections.
    """
    hmap = {v: f"{tag}.{v}" for v in gamma.vertices}
    smap = {h: f"{tag}.{gamma.attach[h]}.{h}" for h in gamma.half_edges}
    vtx = f"{tag}"
    hs = [hmap[v] for v in gamma.vertices]
    ss = [smap[h] for h in gamma.half_edges]
    return TwoGraph([vtx], hs, ss,
                    {h: vtx for h in hs},
                    {smap[h]: hmap[gamma.attach[h]] for h in gamma.half_edges},
                    {h: h for h in hs},
                    {smap[h]: smap[gamma.pairing[h]]
                     for h in gamma.half_edges},
                    {s: s for s in ss})


def _glue_options(G, pair):
    """sigma2 choices (tuples of strand pairs) for joining ``pair``."""
    a, b = pair
    sa, sb = G.strands_at(a), G.strands_at(b)
    if len(sa) != len(sb):
        return []
    return [tuple(zip(sa, perm)) for perm in itertools.permutations(sb)]


def _with_edges(G, matched, sigma2_pairs):
    """``G`` with the half-edge pairs ``matched`` joined into edges and the
    sections ``sigma2_pairs`` paired across them.

    The child is built from ``G`` without sorting or copying what they
    share (see the ``graphs`` docstring): its label tuples, its ``nu``,
    ``mu`` and ``sigma1`` dicts, the ``nu``, ``mu`` and ``sigma1`` arrays
    of its view, and the ``half_edges_at`` and ``strands_at`` maps, if
    built, are those of ``G``; only ``iota`` and ``sigma2`` are copied,
    dicts and arrays, with the joined entries patched.  No position map
    is kept or shared: the few positions patched are found by searching
    the label tuples.  The child must be connected, as every growth child
    is; its component partition is the one group of its vertices.
    """
    view, d = G.view(), G.derived
    hpos, spos = G.half_edges.index, G.strands.index
    iota, s2 = dict(G.iota), dict(G.sigma2)
    viota, vs2 = list(view.iota), list(view.sigma2)
    for a, b in matched:
        iota[a], iota[b] = b, a
        i, j = hpos(a), hpos(b)
        viota[i], viota[j] = j, i
    for x, y in sigma2_pairs:
        s2[x], s2[y] = y, x
        i, j = spos(x), spos(y)
        vs2[i], vs2[j] = j, i
    out = _assembled(G.vertices, G.half_edges, G.strands, G.nu, G.mu, iota,
                     G.sigma1, s2)
    new = out.derived
    new.view = view._replace(iota=viota, sigma2=vs2)
    new.half_edges_at, new.strands_at = d.half_edges_at, d.strands_at
    new.groups = (out.vertices,)
    return out
