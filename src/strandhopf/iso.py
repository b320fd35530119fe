"""Canonical forms, isomorphism and automorphism counts.

Stranded graphs are canonized through a face-collapsed quotient.  Faces
sharing one itinerary (the same half-edge and colour sequence up to the
step-preserving alignments) are interchangeable wholesale, so only one
representative chain per parallel class enters the encoded structure; a
class of m faces with a self-alignments contributes a closed-form factor
m! * a^(m-1) to the automorphism order.  The quotient is encoded as a
node-classed simple graph: one node per vertex, half-edge and kept
section, plus one relation node per sigma2 step (sigma1 steps and
attachment maps become direct edges; sigma2 needs relation nodes because
a section pair can be joined by both involutions at once).  A partition
refinement with individualization search over that encoding yields a
canonical labelling; the number of leaves attaining the minimal code
equals the quotient automorphism order, since the group acts freely and
transitively on them.

1-graphs (boundaries, vertex graphs) are canonized through a
multiplicity quotient in the same spirit.  The legs at one vertex, the
loops at one vertex and the parallel edges between one pair of distinct
vertices are interchangeable wholesale, so each such class becomes a
single node carrying its kind and multiplicity m, adjacent to its one or
two vertices; the encoding has one node per vertex and one per class.
The leaf count of the search is then the order of the vertex action
alone, and the automorphism order is that count times m! per leg class,
m! per parallel-edge class and m! * 2^m per loop class (the loops
permute and each can be reversed).

Graphs of both kinds are canonized per connected component, and one
combine step assembles the result: the code of a disconnected graph is
"U(...)" over the sorted component codes, its representative the
disjoint union of the component representatives in that order, and its
automorphism order the wreath product of the component orders (m! per
repeated factor).  A 2-graph caches the resulting (code,
representative, order) triple on itself.
"""

from __future__ import annotations

import itertools
from math import factorial

from .graphs import (GraphError, OneGraph, TwoGraph, connected_components,
                     disjoint_union, faces, relabel, _label_key,
                     _pairs_of_involution)


# ---------------------------------------------------------------------------
# refinement + individualization on node-classed simple graphs


def _refine(n, adj, colors):
    while True:
        sigs = []
        for i in range(n):
            ns = sorted(colors[j] for j in adj[i])
            sigs.append((colors[i], tuple(ns)))
        order = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _canon_search(descs, adj):
    """Minimal leaf code, one minimal labelling, and the leaf count.

    Every member of the first non-singleton cell is individualized in
    turn, with no pruning, so the minimal-code leaves are exactly the
    automorphism orbit of the canonical labelling.
    """
    n = len(descs)
    order = {d: k for k, d in enumerate(sorted(set(descs)))}
    init = [order[d] for d in descs]
    best_code = [None]
    best_perm = [None]
    count = [0]

    def leaf(colors):
        pos = sorted(range(n), key=lambda i: colors[i])
        rank = [0] * n
        for p, i in enumerate(pos):
            rank[i] = p
        edges = []
        for i in range(n):
            ri = rank[i]
            for j in adj[i]:
                if rank[j] > ri:
                    edges.append((ri, rank[j]))
        edges.sort()
        code = (tuple(descs[i] for i in pos), tuple(edges))
        if best_code[0] is None or code < best_code[0]:
            best_code[0] = code
            best_perm[0] = pos
            count[0] = 1
        elif code == best_code[0]:
            count[0] += 1

    def rec(colors):
        colors = _refine(n, adj, colors)
        sizes = {}
        for c in colors:
            sizes[c] = sizes.get(c, 0) + 1
        target = None
        for c in sorted(sizes):
            if sizes[c] > 1:
                target = c
                break
        if target is None:
            leaf(colors)
            return
        for i in range(n):
            if colors[i] == target:
                child = [(colors[j], 0 if j == i else 1) for j in range(n)]
                order2 = {s: k for k, s in enumerate(sorted(set(child)))}
                rec([order2[s] for s in child])

    rec(init)
    return best_code[0], best_perm[0], count[0]


# ---------------------------------------------------------------------------
# encodings


def _alignments(kind, n):
    """Index maps of a face chain onto itself that keep sigma1 steps at
    even positions: even rotations and odd reflections for cycles, the
    identity and the reversal for open chains."""
    if kind == "external":
        yield tuple(range(n))
        yield tuple(range(n - 1, -1, -1))
    else:
        for d in range(0, n, 2):
            yield tuple((i + d) % n for i in range(n))
        for d in range(1, n, 2):
            yield tuple((d - i) % n for i in range(n))


def _face_classes(G, strand_colour=None):
    """Group the faces of a connected 2-graph into parallel classes.

    Two faces are parallel when some alignment matches their itineraries
    (per-position half-edge plus decoration colour) exactly.  Returns a
    list of (kind, m, a, members) sorted deterministically, where members
    are the aligned section tuples, lex-least first, and a is the number
    of self-alignments of the shared itinerary.
    """
    internal, external = faces(G)
    groups = {}
    for f in internal + external:
        seq = f.sections
        n = len(seq)
        itin = tuple((_label_key(G.mu[s]),
                      None if strand_colour is None else strand_colour[s])
                     for s in seq)
        best = None
        best_seq = None
        a = 0
        for t in _alignments(f.kind, n):
            cand = tuple(itin[i] for i in t)
            if cand == itin:
                a += 1
            key = (cand, tuple(_label_key(seq[i]) for i in t))
            if best is None or key < best:
                best = key
                best_seq = tuple(seq[i] for i in t)
        groups.setdefault((f.kind, best[0]), []).append((a, best_seq))
    out = []
    for (kind, itin), members in groups.items():
        members.sort(key=lambda t: tuple(_label_key(s) for s in t[1]))
        a = members[0][0]
        out.append((kind, len(members), a, [m[1] for m in members]))
    out.sort(key=lambda c: (c[0], c[1],
                            [[_label_key(s) for s in m] for m in c[3]]))
    return out


def _encode_two_graph(G, strand_colour=None, half_mark=None):
    """Node-classed simple graph for a connected 2-graph, with parallel
    faces collapsed to one representative chain each.

    Optional decorations refine the node classes: ``strand_colour`` maps
    strands to small ints, ``half_mark`` maps half-edges to small ints.
    Returns (descs, adj, nodes, classes) where nodes lists the carrier of
    each encoded node and classes is the _face_classes output.
    """
    classes = _face_classes(G, strand_colour)
    nodes = []
    descs = []
    index = {}
    for v in G.vertices:
        index[("v", v)] = len(nodes)
        nodes.append(("v", v))
        descs.append((0,))
    for h in G.half_edges:
        index[("h", h)] = len(nodes)
        nodes.append(("h", h))
        descs.append((1,) if half_mark is None else (1, half_mark[h]))
    edges = set()
    for h in G.half_edges:
        edges.add((index[("h", h)], index[("v", G.nu[h])]))
    for a, b in G.edge_pairs():
        edges.add((index[("h", a)], index[("h", b)]))
    for kind, m, a, members in classes:
        rep = members[0]
        ids = []
        for s in rep:
            k = len(nodes)
            ids.append(k)
            nodes.append(("s", s))
            col = None if strand_colour is None else strand_colour[s]
            descs.append((2, col, m))
            edges.add((k, index[("h", G.mu[s])]))
        n = len(rep)
        last = n if kind == "internal" else n - 1
        for i in range(0, last):
            j = (i + 1) % n
            if i % 2 == 0:
                edges.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
            else:
                k = len(nodes)
                nodes.append(("p", (rep[i], rep[j])))
                descs.append((3,))
                edges.add((k, ids[i]))
                edges.add((k, ids[j]))
    adj = [[] for _ in nodes]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return tuple(descs), [tuple(sorted(s)) for s in adj], nodes, classes


def _one_graph_classes(g):
    """Group the half-edges of a 1-graph into interchangeable classes.

    Returns a list of (kind, ends, members): kind 0 for the legs at one
    vertex, 1 for the loops at one vertex, 2 for the parallel edges
    between two distinct vertices; ends are the one or two vertices the
    class touches, and members are half-edge tuples in label order: (h,)
    for a leg, (a, b) for an edge, with a at ends[0].
    """
    groups = {}
    for h in g.external():
        groups.setdefault((0, (g.attach[h],)), []).append((h,))
    for a, b in g.edge_pairs():
        u, w = g.attach[a], g.attach[b]
        if u == w:
            groups.setdefault((1, (u,)), []).append((a, b))
        elif _label_key(u) < _label_key(w):
            groups.setdefault((2, (u, w)), []).append((a, b))
        else:
            groups.setdefault((2, (w, u)), []).append((b, a))
    return [(kind, ends, members)
            for (kind, ends), members in groups.items()]


def _encode_one_graph(g):
    """Node-classed simple graph for a connected 1-graph, with each class
    of interchangeable half-edges collapsed to one node.

    One node per vertex plus one class node per _one_graph_classes entry,
    carrying its kind and multiplicity and adjacent to its end vertices.
    Returns (descs, adj, nodes, classes); nodes lists the vertex label or
    the class index of each encoded node.
    """
    classes = _one_graph_classes(g)
    nodes = [("v", v) for v in g.vertices]
    descs = [(0,)] * len(nodes)
    index = {v: k for k, v in enumerate(g.vertices)}
    adj = [[] for _ in nodes]
    for idx, (kind, ends, members) in enumerate(classes):
        k = len(nodes)
        nodes.append(("c", idx))
        descs.append((1, kind, len(members)))
        adj.append([index[v] for v in ends])
        for v in ends:
            adj[index[v]].append(k)
    return tuple(descs), [tuple(sorted(a)) for a in adj], nodes, classes


def _serial_one(g):
    vi = {v: k for k, v in enumerate(g.vertices)}
    hi = {h: k for k, h in enumerate(g.half_edges)}
    at = tuple(vi[g.attach[h]] for h in g.half_edges)
    pr = tuple(sorted((hi[a], hi[b]) for a, b in g.edge_pairs()))
    return repr((len(g.vertices), len(g.half_edges), at, pr))


# ---------------------------------------------------------------------------
# 2-graph canonical forms


def _canon_connected_two(G, strand_colour=None, half_mark=None):
    """(code, relabelled graph, aut order) for a connected 2-graph.

    The relabelled graph puts vertices and half-edges in canonical
    positions; strand numbering is canonical up to the exchange of
    parallel faces (which is an automorphism, so the result is a valid
    deterministic representative).
    """
    descs, adj, nodes, classes = _encode_two_graph(G, strand_colour,
                                                   half_mark)
    code, perm, nleaves = _canon_search(descs, adj)
    naut = nleaves
    for kind, m, a, members in classes:
        naut *= factorial(m) * a ** (m - 1)
    rank = {p: k for k, p in enumerate(perm)}
    vmap, hmap = {}, {}
    for p in perm:
        knd, lbl = nodes[p]
        if knd == "v":
            vmap[lbl] = f"v{len(vmap)}"
        elif knd == "h":
            hmap[lbl] = f"h{len(hmap)}"
    sec_class = {}
    for idx, (kind, m, a, members) in enumerate(classes):
        for s in members[0]:
            sec_class[s] = idx
    min_rank = {}
    for k, (knd, lbl) in enumerate(nodes):
        if knd != "s":
            continue
        c = sec_class[lbl]
        if c not in min_rank or rank[k] < min_rank[c]:
            min_rank[c] = rank[k]
    smap = {}
    for idx in sorted(range(len(classes)), key=lambda i: min_rank[i]):
        for mem in classes[idx][3]:
            for s in mem:
                smap[s] = f"s{len(smap)}"
    R = relabel(G, vmap, hmap, smap)
    return repr(code), R, naut


def _combine(parts, empty):
    """(code, representative, |Aut|) of a graph of either kind from those
    of its connected components; ``empty`` represents the graph with no
    components.  Several components combine into "U(...)" over the sorted
    codes, the disjoint union of the representatives in that order, and
    the wreath product order."""
    if not parts:
        return "empty", empty, 1
    if len(parts) == 1:
        return parts[0]
    parts.sort(key=lambda t: t[0])
    return ("U(" + ",".join(p[0] for p in parts) + ")",
            disjoint_union([p[1] for p in parts]),
            _wreath([(p[0], p[2]) for p in parts]))


def _canon_two(G):
    """The (code, representative, |Aut|) triple of a 2-graph, cached on
    ``G``."""
    if G._canon is None:
        G._canon = _combine([_canon_connected_two(c)
                             for c in connected_components(G)], G)
    return G._canon


def canonical_form(G):
    """Canonical code string plus an isomorphic relabelled graph.

    Two 2-graphs are isomorphic exactly when their codes coincide.  The
    representative's vertex and half-edge labels are canonical positions;
    its strand labels are deterministic for a given input and canonical
    up to parallel-face exchange, which is always an automorphism.
    """
    return _canon_two(G)[:2]


def canonical_code(G, strand_colour=None, half_mark=None):
    if strand_colour is None and half_mark is None:
        return _canon_two(G)[0]
    parts = []
    for c in connected_components(G):
        sc = None if strand_colour is None else \
            {s: strand_colour[s] for s in c.strands}
        hm = None if half_mark is None else \
            {h: half_mark[h] for h in c.half_edges}
        parts.append(_canon_connected_two(c, sc, hm))
    return _combine(parts, G)[0]


def _wreath(coded_auts):
    """|Aut| of a disjoint union from (component code, component |Aut|)."""
    groups = {}
    for code, a in coded_auts:
        groups.setdefault(code, []).append(a)
    total = 1
    for code, auts in groups.items():
        total *= factorial(len(auts)) * auts[0] ** len(auts)
    return total


def automorphism_count(G):
    """Order of the automorphism group (label permutations preserving all
    five structure maps)."""
    return _canon_two(G)[2]


def are_isomorphic(G1, G2):
    return canonical_code(G1) == canonical_code(G2)


# ---------------------------------------------------------------------------
# 1-graph canonical forms


def _canon_connected_one(g):
    """(code, relabelled graph, aut order) for a connected 1-graph.

    Vertices are numbered in canonical order, half-edges class by class
    in canonical class order, and every non-loop edge starts at its
    lower-ranked vertex; orders inside a class differ only by an
    automorphism, so the representative and its code are canonical.
    """
    descs, adj, nodes, classes = _encode_one_graph(g)
    code, perm, naut = _canon_search(descs, adj)
    vrank = {}
    for p in perm:
        knd, lbl = nodes[p]
        if knd == "v":
            vrank[lbl] = len(vrank)
    vmap = {v: f"v{r}" for v, r in vrank.items()}
    hmap = {}
    for p in perm:
        knd, lbl = nodes[p]
        if knd == "v":
            continue
        kind, ends, members = classes[lbl]
        m = len(members)
        naut *= factorial(m) * (2 ** m if kind == 1 else 1)
        flip = kind == 2 and vrank[ends[0]] > vrank[ends[1]]
        for mem in members:
            for h in (mem[::-1] if flip else mem):
                hmap[h] = f"h{len(hmap)}"
    R = relabel(g, vmap, hmap)
    return _serial_one(R), R, naut


def _canon_one(g):
    return _combine([_canon_connected_one(g.induced(vs))
                     for vs in g.components()], g)


def one_graph_canonical_form(g):
    return _canon_one(g)[:2]


def one_graph_code(g):
    return _canon_one(g)[0]


def one_graph_automorphism_count(g):
    return _canon_one(g)[2]


def one_graphs_isomorphic(g1, g2):
    return one_graph_code(g1) == one_graph_code(g2)


def boundary_multiset_code(entries):
    """Code of a multiset of 1-graphs (one entry per graph component)."""
    return "M[" + "|".join(sorted(one_graph_code(g) for g in entries)) + "]"


def boundary_multiset_aut_count(entries):
    """|Aut| of a multiset of 1-graphs: wreath of the entry groups."""
    return _wreath([_canon_one(g)[::2] for g in entries])


# ---------------------------------------------------------------------------
# explicit 1-graph isomorphisms (needed by the insertion enumeration)


def enumerate_one_graph_isos(g1, g2):
    """Yield all isomorphisms (vmap, hmap) from g1 onto g2."""
    if len(g1.vertices) != len(g2.vertices) or \
            len(g1.half_edges) != len(g2.half_edges):
        return
    vs1 = sorted(g1.vertices, key=_label_key)
    by_deg = {}
    for w in g2.vertices:
        by_deg.setdefault(g2.degree(w), []).append(w)

    def extend(i, vmap, hmap, used_v):
        if i == len(vs1):
            for h, p in g1.pairing.items():
                if hmap[p] != g2.pairing[hmap[h]]:
                    return
            yield dict(vmap), dict(hmap)
            return
        v = vs1[i]
        cor1 = g1.corolla(v)
        for w in by_deg.get(len(cor1), []):
            if w in used_v:
                continue
            cor2 = g2.corolla(w)
            vmap[v] = w
            used_v.add(w)
            for perm in itertools.permutations(cor2):
                ok = True
                for h, k in zip(cor1, perm):
                    p = g1.pairing[h]
                    if p == h and g2.pairing[k] != k:
                        ok = False
                        break
                    if p != h and g2.pairing[k] == k:
                        ok = False
                        break
                if not ok:
                    continue
                for h, k in zip(cor1, perm):
                    hmap[h] = k
                for h, k in zip(cor1, perm):
                    p = g1.pairing[h]
                    if p in hmap and hmap[p] != g2.pairing[hmap[h]]:
                        ok = False
                        break
                if ok:
                    yield from extend(i + 1, vmap, hmap, used_v)
                for h in cor1:
                    hmap.pop(h, None)
            used_v.discard(w)
            vmap.pop(v, None)

    yield from extend(0, {}, {}, set())
