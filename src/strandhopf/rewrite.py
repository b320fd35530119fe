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
from dataclasses import dataclass

from .graphs import (GraphError, TwoGraph, boundary, connected_components,
                     subgraph_with_edges, validate, vertex_graph,
                     _contract_edges, _label_key)
from . import iso


# ---------------------------------------------------------------------------
# subgraphs and contraction


@dataclass(frozen=True)
class Subgraph:
    """Edge subset of a parent graph (wide subgraph)."""

    parent: TwoGraph
    edges: tuple

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


@dataclass(frozen=True)
class InsertionMap:
    """Component-sensitive identification of the boundary of ``source``
    with the vertex-graph union of ``target``.

    ``on_half_edges`` sends external half-edges of the source (vertices of
    its boundary) to half-edges of the target; ``on_strands`` sends
    external sections of the source to strand sections of the target.
    """

    source: TwoGraph
    target: TwoGraph
    on_half_edges: tuple
    on_strands: tuple

    def half_edge_map(self):
        return dict(self.on_half_edges)

    def strand_map(self):
        return dict(self.on_strands)


def insertions(H, G2):
    """All insertion maps of ``H`` into ``G2``: bijections of the boundary
    components of ``H`` with the vertices of ``G2`` together with
    1-graph isomorphisms of the matched pieces."""
    comps = connected_components(H)
    bds = [boundary(c) for c in comps]
    verts = list(G2.vertices)
    if len(bds) != len(verts):
        return []
    vgs = {v: vertex_graph(G2, v) for v in verts}

    by_code = {}
    for i, b in enumerate(bds):
        by_code.setdefault(iso.one_graph_code(b), [[], []])[0].append(i)
    for v in verts:
        by_code.setdefault(iso.one_graph_code(vgs[v]), [[], []])[1].append(v)
    for code, (bi, vv) in by_code.items():
        if len(bi) != len(vv):
            return []

    out = []
    codes = sorted(by_code)
    pieces = []
    for code in codes:
        bi, vv = by_code[code]
        choices = []
        for assign in itertools.permutations(vv):
            per_pair = []
            for i, v in zip(bi, assign):
                isos = list(iso.enumerate_one_graph_isos(bds[i], vgs[v]))
                if not isos:
                    per_pair = None
                    break
                per_pair.append(isos)
            if per_pair is None:
                continue
            for combo in itertools.product(*per_pair):
                hmap, smap = {}, {}
                for vm, hm in combo:
                    hmap.update(vm)
                    smap.update(hm)
                choices.append((hmap, smap))
        pieces.append(choices)
    for combo in itertools.product(*pieces):
        hmap, smap = {}, {}
        for hm, sm in combo:
            hmap.update(hm)
            smap.update(sm)
        out.append(InsertionMap(H, G2,
                                tuple(sorted(hmap.items(),
                                             key=lambda kv: _label_key(kv[0]))),
                                tuple(sorted(smap.items(),
                                             key=lambda kv: _label_key(kv[0])))))
    return out


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
    if sorted(hmap, key=_label_key) != sorted(H.external_half_edges(),
                                              key=_label_key):
        raise GraphError("insertion map domain is not the source boundary")
    inv_h = {b: a for a, b in hmap.items()}
    inv_s = {b: a for a, b in smap.items()}
    iota = dict(H.iota)
    for a, b in G2.edge_pairs():
        x, y = inv_h[a], inv_h[b]
        iota[x] = y
        iota[y] = x
    sigma2 = dict(H.sigma2)
    for a, b in G2.edge_strand_pairs():
        x, y = inv_s[a], inv_s[b]
        sigma2[x] = y
        sigma2[y] = x
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
    iota = dict(G.iota)
    for a, b in matched:
        iota[a] = b
        iota[b] = a
    s2 = dict(G.sigma2)
    for x, y in sigma2_pairs:
        s2[x] = y
        s2[y] = x
    return TwoGraph(G.vertices, G.half_edges, G.strands, dict(G.nu),
                    dict(G.mu), iota, dict(G.sigma1), s2)
