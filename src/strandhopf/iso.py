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
canonical labelling, the first leaf of minimal code in depth-first
order, the quotient automorphism order, and generators of the
quotient's automorphism group (every automorphism it meets).  The search
prunes itself with the automorphisms it meets: two leaves of equal code
differ by one, and a child in the orbit of an explored sibling is
skipped along the first path, so the order comes from orbit-stabilizer
along that path (the product, over its nodes, of the orbit size of the
child it takes) instead of from one leaf per automorphism.

The refinement colours each node by the start of its cell in the
ordered partition, as nauty does (McKay & Piperno 2014), and carries the
cells with the colours.  Splitting a cell moves no other cell, so a
round re-signs only the cells next to a split: after individualizing a
node w, only the cells that hold a neighbour of w.  Rounds stay
synchronous, and starts are a monotone relabelling of the cell ranks a
full re-signing round would give, so every comparison, the leaves, the
code, the labelling and the order are those of that rank refinement
(``tests/oracles.py`` keeps it as the reference).  At a discrete leaf
the starts are the positions 0..n-1.

1-graphs (boundaries, vertex graphs) are canonized through a
multiplicity quotient in the same spirit.  The legs at one vertex, the
loops at one vertex and the parallel edges between one pair of distinct
vertices are interchangeable wholesale, so each such class becomes a
single node carrying its kind and multiplicity m, adjacent to its one or
two vertices; the encoding has one node per vertex and one per class.
The order the search returns is then that of the vertex action alone,
and the automorphism order is that order times m! per leg class,
m! per parallel-edge class and m! * 2^m per loop class (the loops
permute and each can be reversed).  The search's code determines the
canonical 1-graph, and the 1-graph code string serializes that graph.

Encodings number their nodes by the positions of the labels in the
graph's sorted label tuples.  One routine canonizes a connected graph of
either kind from its encoding and returns (code, |Aut|), the code of
the search and its order times the encoding's closed-form factor,
followed by the search's labelling and automorphism generators.
One combine step assembles a graph from its connected components: the
code of a disconnected graph is "U(...)" over the sorted component
codes, its automorphism order the wreath product of the component
orders (m! per repeated factor).  A 2-graph caches its (code, |Aut|)
pair on itself.  Only ``canonical_form`` builds a relabelled
representative, the disjoint union of the component representatives in
code order.

One search memo serves both kinds; it maps a tagged key to the entry
of a connected graph: its code string, its |Aut| with the closed-form
factor folded in, and the search's canonical labelling and automorphism
generators on encoding nodes.  In a 2-graph's encoding node k < nv is
vertex k of ``G.vertices`` and node nv + k half-edge k of
``G.half_edges``, so these too are positional.
``automorphism_generators`` turns them into half-edge maps only when
asked, and ``canonical_form`` reads its labellings from the memo.  A
connected 2-graph is keyed by its positional structure: its vertex
count, its five structure maps with every label replaced by its
position in ``G.vertices``, ``G.half_edges`` or ``G.strands``, and its
decorations by position.  The key is exact.  The encoding numbers its
nodes by label position, and ``faces`` orients and orders its chains by
label comparisons, which are position comparisons because the label
tuples are sorted; so faces, face classes, encoding and the whole entry
are functions of the key (the search is deterministic), and a hit needs
none of them.  A 1-graph is keyed by the ``repr`` of its encoding, which
has no faces and is cheap to build.  The encoding lists its class nodes
in sorted order, so the key depends on the vertex order only and not on
the half-edge labels: vertex graphs of one shape whose sections are
named apart share an entry.  A connected 1-graph is encoded as itself,
not as a copy of its one component.  The tags ("two", "one") keep the
kinds apart.  Keys are ``repr`` strings, not tuples, because the string
takes a fraction of their memory.  The memo holds at most 1024 entries
and evicts the least recently used; ``search_cache_info()`` reports its
hits, misses, bound and size.

1-graph isomorphisms come from the same entries.  The encoding
isomorphisms of connected 1-graphs b, g of one code are c_g^-1 o c_b o a
for a in the group that b's generators generate, c sending each node to
its canonical position (the labelling is its inverse).  Each lifts to
half-edges class by class, which gives the m! and m! * 2^m factors the
encoding hides: any bijection of a class's members onto those of its
image, each edge's ends following the vertex map, each loop in either
orientation.  Components are paired code by code in every way.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, namedtuple
from math import factorial

from .graphs import (connected_components, disjoint_union, faces, relabel,
                     _connected_groups)


# ---------------------------------------------------------------------------
# refinement + individualization on node-classed simple graphs


def _cells(colors):
    """The cells of a colouring: each colour mapped to its nodes in node
    order."""
    cells = {}
    for i, c in enumerate(colors):
        cells.setdefault(c, []).append(i)
    return cells


def _refine(adj, colors, cells, moved=None):
    """Equitable refinement of a colouring, as (colours, cells).

    A node's colour is the start of its cell in the ordered partition,
    and ``cells`` maps each start to the cell's nodes in node order; it
    is refined in place.  Rounds are synchronous: every signature of a
    round is read from the previous round's colours.  A round re-signs
    only the non-singleton cells that hold a neighbour of a node in
    ``moved``; ``moved=None`` re-signs every cell.  A node's signature is
    the sorted tuple of its neighbours' colours.  A cell whose signatures
    differ splits into parts that take consecutive starts from its own,
    in signature order, and every other cell keeps its colour.  The nodes
    of every part but the first are the next round's ``moved``.  The
    colouring is stable once no cell splits.

    This is the rank refinement (each round, every node's new colour is
    the rank of its old colour plus its sorted neighbour colours) in
    other colours.  Starts relabel ranks monotonically, so signatures
    compare alike and cells split and order alike.  Before a round the
    members of a cell have the same number of neighbours in each cell of
    the round before; so a cell none of whose members has a neighbour in
    a split cell cannot split, and as the counts into a split cell are
    equal, those into its first part follow from those into the others.
    """
    if moved is None:
        todo = [c for c, members in cells.items() if len(members) > 1]
    else:
        todo = {colors[j] for i in moved for j in adj[i]}
    while todo:
        new = list(colors)
        moved = []
        for c in todo:
            members = cells[c]
            if len(members) == 1:
                continue
            parts = {}
            for i in members:
                parts.setdefault(tuple(sorted([colors[j] for j in adj[i]])),
                                 []).append(i)
            if len(parts) == 1:
                continue
            start = c
            for sig in sorted(parts):
                part = cells[start] = parts[sig]
                if start != c:
                    for i in part:
                        new[i] = start
                    moved += part
                start += len(part)
        colors = new
        todo = {colors[j] for i in moved for j in adj[i]}
    return colors, cells


def _target_cell(cells):
    """Members of the first (lowest-start) non-singleton cell, in node
    order, or None when the colouring is discrete (every node has its
    own start, so the colours are the positions 0..n-1)."""
    target = min((c for c, members in cells.items() if len(members) > 1),
                 default=None)
    return None if target is None else cells[target]


def _individualize(colors, cells, w):
    """The colouring with node ``w`` split off in front of its cell: ``w``
    keeps the cell's start t, the rest of the cell gets t + 1, and no
    other cell moves.  The inputs are left as they are."""
    t = colors[w]
    rest = [i for i in cells[t] if i != w]
    colors = list(colors)
    for i in rest:
        colors[i] = t + 1
    cells = dict(cells)
    cells[t], cells[t + 1] = [w], rest
    return colors, cells


def _child(adj, colors, cells, w):
    """The refined colouring below (colours, cells) with node ``w``
    individualized; only the neighbours of ``w`` can split a cell."""
    return _refine(adj, *_individualize(colors, cells, w), (w,))


def _canon_search(descs, adj):
    """Minimal leaf code, the first minimal labelling in depth-first
    order, the automorphism order of the encoded graph, and generators of
    its automorphism group (as lists mapping node i to g[i]).

    Individualization-refinement search pruned by automorphisms (McKay &
    Piperno 2014).  A leaf whose code equals that of the first leaf
    zeta or of the best leaf so far gives an automorphism.  The nodes on
    zeta's path are processed deepest first, so every leaf met while a
    node is processed lies below it; since refinement keeps the order of
    cells, the node's individualized prefix sits at the same positions
    in all those leaves, and every automorphism recorded so far fixes
    the prefix pointwise.  At each such node a child in the orbit of an
    already explored child is skipped (its subtree is the image of an
    explored one), and the subtree of a child is left as soon as it
    yields a leaf equivalent to zeta (it is then the image of the first
    child's subtree).  The orbit of the first child is then complete, so
    |Aut| is the product of those orbit sizes over the path
    (orbit-stabilizer).  A leaf equivalent only to the best leaf does
    not end its subtree: a better leaf may follow.  Every skipped
    subtree is the image of an earlier explored one, so the first
    minimal leaf of the unpruned search is always visited and the result
    equals that search's.  The root colours each node by the start of
    its class in the sorted ``descs``.

    Every automorphism met is kept, and together they generate the whole
    group.  Going up the path, those recorded so far fix the node's
    prefix and reach every child in the orbit of its first child (each
    child off that orbit is explored or the image of an explored one,
    and an explored child in the orbit yields a leaf equivalent to
    zeta); with the stabilizer of the first child, generated by
    induction from below, they generate the group that fixes the prefix.
    """
    n = len(descs)
    start = {}
    for k, d in enumerate(sorted(descs)):
        start.setdefault(d, k)
    colors = [start[d] for d in descs]
    colors, cells = _refine(adj, colors, _cells(colors))
    path = []  # (colours, cells, target cell) of the nodes on zeta's path
    cell = _target_cell(cells)
    while cell is not None:
        path.append((colors, cells, cell))
        colors, cells = _child(adj, colors, cells, cell[0])
        cell = _target_cell(cells)

    def leaf_of(colors):
        """(edge code, labelling) of a discrete colouring, whose colours
        are the positions 0..n-1; the node part of the code is the same
        sorted descs at every leaf."""
        pos = [0] * n
        edges = []
        for i, ri in enumerate(colors):
            pos[ri] = i
            for j in adj[i]:
                if colors[j] > ri:
                    edges.append((ri, colors[j]))
        edges.sort()
        return edges, pos

    zeta = leaf_of(colors)
    best = zeta
    gens = []

    def visit(colors, cells):
        """Search below a node off the first path; True once a leaf
        equivalent to zeta is found."""
        nonlocal best
        cell = _target_cell(cells)
        if cell is None:
            edges, pos = leaf_of(colors)
            for ref in (zeta, best):
                if edges == ref[0]:
                    gens.append(_leaf_map(ref[1], pos))
                    return ref is zeta
            if edges < best[0]:
                best = (edges, pos)
            return False
        return any(visit(*_child(adj, colors, cells, i)) for i in cell)

    count = 1
    for colors, cells, cell in reversed(path):
        explored, seen = [cell[0]], None
        for w in cell[1:]:
            if seen != len(gens):
                seen, orbits = len(gens), _orbits(cell, gens)
            if orbits[w] in {orbits[x] for x in explored}:
                continue
            explored.append(w)
            visit(*_child(adj, colors, cells, w))
        orbits = _orbits(cell, gens)
        count *= sum(1 for i in cell if orbits[i] == 0)
    code = (tuple(descs[i] for i in best[1]), tuple(best[0]))
    return code, best[1], count, gens


def _orbits(cell, gens):
    """Orbit number of each member of ``cell`` under the automorphisms
    ``gens``, which map the cell onto itself; cell[0] is in orbit 0."""
    pairs = [(i, g[i]) for g in gens for i in cell]
    return {i: k for k, group in enumerate(_connected_groups(cell, pairs))
            for i in group}


def _leaf_map(ref_pos, pos):
    """The automorphism taking the leaf labelled ``ref_pos`` onto the
    leaf labelled ``pos`` with the same code."""
    g = [0] * len(pos)
    for a, b in zip(ref_pos, pos):
        g[a] = b
    return g


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
    (per-position half-edge plus decoration colour) exactly.  Sections
    and half-edges are numbered by their positions in ``G.strands`` and
    ``G.half_edges``, which are in label order.  Returns a sorted list
    of (kind, m, a, members), where members are the aligned section
    number tuples, least first, and a is the number of self-alignments
    of the shared itinerary.
    """
    spos = {s: k for k, s in enumerate(G.strands)}
    hpos = {h: k for k, h in enumerate(G.half_edges)}
    internal, external = faces(G)
    groups = {}
    for f in internal + external:
        seq = tuple(spos[s] for s in f.sections)
        itin = tuple((hpos[G.mu[s]],
                      None if strand_colour is None else strand_colour[s])
                     for s in f.sections)
        best = None
        a = 0
        for t in _alignments(f.kind, len(seq)):
            key = (tuple(itin[i] for i in t), tuple(seq[i] for i in t))
            a += key[0] == itin
            if best is None or key < best:
                best = key
        groups.setdefault((f.kind, best[0]), []).append((best[1], a))
    out = []
    for (kind, _), members in groups.items():
        members.sort()
        out.append((kind, len(members), members[0][1],
                    [seq for seq, _ in members]))
    out.sort(key=lambda c: (c[0], c[1], c[3]))
    return out


def _encode_two_graph(G, strand_colour=None, half_mark=None):
    """Node-classed simple graph for a connected 2-graph, with parallel
    faces collapsed to one representative chain each.

    The nodes are the vertices and the half-edges in label order, then,
    per face class, the sections of its first member followed by one
    relation node per sigma2 step.  Optional decorations refine the node
    classes: ``strand_colour`` maps strands to small ints, ``half_mark``
    maps half-edges to small ints.  Returns (descs, adj, factor, classes,
    owner): factor is the closed-form order of the collapsed faces,
    m! * a^(m-1) per class, classes the _face_classes output, and owner
    the class index of each section node (None for the other nodes).
    """
    classes = _face_classes(G, strand_colour)
    nv = len(G.vertices)
    vpos = {v: k for k, v in enumerate(G.vertices)}
    hpos = {h: nv + k for k, h in enumerate(G.half_edges)}
    descs = [(0,)] * nv + [(1,) if half_mark is None else (1, half_mark[h])
                           for h in G.half_edges]
    owner = [None] * len(descs)
    edges = set()
    for h in G.half_edges:
        edges.add((hpos[h], vpos[G.nu[h]]))
        if hpos[h] < hpos[G.iota[h]]:
            edges.add((hpos[h], hpos[G.iota[h]]))
    factor = 1
    for idx, (kind, m, a, members) in enumerate(classes):
        factor *= factorial(m) * a ** (m - 1)
        rep = [G.strands[i] for i in members[0]]
        ids = range(len(descs), len(descs) + len(rep))
        for s in rep:
            edges.add((len(descs), hpos[G.mu[s]]))
            col = None if strand_colour is None else strand_colour[s]
            descs.append((2, col, m))
            owner.append(idx)
        n = len(rep)
        last = n if kind == "internal" else n - 1
        for i in range(0, last):
            j = (i + 1) % n
            if i % 2 == 0:
                edges.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
            else:
                edges.add((len(descs), ids[i]))
                edges.add((len(descs), ids[j]))
                descs.append((3,))
                owner.append(None)
    adj = [[] for _ in descs]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return (tuple(descs), [tuple(sorted(s)) for s in adj], factor, classes,
            owner)


def _encode_one_graph(g):
    """Node-classed simple graph for a connected 1-graph, with each class
    of interchangeable half-edges collapsed to one node.

    The classes are the legs at one vertex (kind 0), the loops at one
    vertex (kind 1) and the parallel edges between two distinct vertices
    (kind 2).  The nodes are the vertices in label order, then one node
    per class carrying its kind and multiplicity m, adjacent to its one
    or two vertices, the classes in sorted (kind, ends) order.  So the
    encoding, and the search memo key made from it, depends on the vertex
    order only, not on the half-edge labels; ``_one_entries`` passes a
    connected 1-graph itself.  Returns (descs, adj, factor, classes),
    factor being the closed-form order of the classes: m! per leg or
    parallel-edge class and m! * 2^m per loop class (the loops permute
    and each can be reversed); classes lists ((kind, ends), members) in
    node order, a member being a leg (h, h) or an edge (h, k) with h
    before k in ``g.half_edges``.
    """
    vpos = {v: k for k, v in enumerate(g.vertices)}
    hpos = {h: k for k, h in enumerate(g.half_edges)}
    classes = {}
    for h in g.half_edges:
        k = g.pairing[h]
        if hpos[k] < hpos[h]:
            continue
        ends = tuple(sorted({vpos[g.attach[h]], vpos[g.attach[k]]}))
        kind = 0 if k == h else 1 if len(ends) == 1 else 2
        classes.setdefault((kind, ends), []).append((h, k))
    classes = sorted(classes.items())
    descs = [(0,)] * len(g.vertices)
    adj = [[] for _ in descs]
    factor = 1
    for (kind, ends), members in classes:
        m = len(members)
        factor *= factorial(m) * (2 ** m if kind == 1 else 1)
        adj.append(list(ends))
        for v in ends:
            adj[v].append(len(descs))
        descs.append((1, kind, m))
    return tuple(descs), [tuple(sorted(a)) for a in adj], factor, classes


def _one_graph_fields(code):
    """(vertices, half_edges, attach, pairs) of the canonical 1-graph
    with search code ``code`` (of an _encode_one_graph encoding).

    Vertex "v{r}" sits at canonical position r (the vertex nodes come
    first); half-edges "h{k}" are numbered class by class in canonical
    order, and every non-loop edge starts at its lower-ranked vertex.
    """
    descs, edges = code
    nv = descs.count((0,))
    ends = [[] for _ in descs]
    for i, j in edges:
        ends[j].append(i)
    attach, pairs = {}, []

    def half(r):
        h = f"h{len(attach)}"
        attach[h] = f"v{r}"
        return h

    for p in range(nv, len(descs)):
        _, kind, m = descs[p]
        for _ in range(m):
            if kind == 0:
                half(ends[p][0])
            else:
                pairs.append((half(ends[p][0]), half(ends[p][-1])))
    return [f"v{r}" for r in range(nv)], list(attach), attach, pairs


def _one_graph_serial(code):
    """Code string of a connected 1-graph from its search code: vertex and
    half-edge counts, attachment and edges of the canonical 1-graph, with
    its labels numbered in string order ("h10" before "h2")."""
    vs, hs, attach, pairs = _one_graph_fields(code)
    vi = {v: k for k, v in enumerate(sorted(vs))}
    hi = {h: k for k, h in enumerate(sorted(hs))}
    at = tuple(vi[attach[h]] for h in sorted(hs))
    pr = tuple(sorted(tuple(sorted((hi[a], hi[b]))) for a, b in pairs))
    return repr((len(vs), len(hs), at, pr))


# ---------------------------------------------------------------------------
# codes and automorphism orders of both kinds


# The search memo (see the module docstring), least recently used first.
# 1024 entries held a workload's working set at a fraction of the memory
# of an unbounded memo.
_SEARCH_MEMO_BOUND = 1024
_search_memo = OrderedDict()
_search_stats = [0, 0]  # hits, misses

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def search_cache_info():
    """Hits, misses, bound and size of the search memo, in the shape of
    ``functools`` ``cache_info()``."""
    return CacheInfo(*_search_stats, _SEARCH_MEMO_BOUND, len(_search_memo))


def search_cache_clear():
    """Empty the search memo and reset its counts."""
    _search_memo.clear()
    _search_stats[:] = [0, 0]


def _memoized(key, canon):
    """The (code, |Aut|) stored under ``key`` in the search memo, or
    ``canon()`` stored there on a miss."""
    found = _search_memo.get(key)
    if found is None:
        _search_stats[1] += 1
        found = _search_memo[key] = canon()
        if len(_search_memo) > _SEARCH_MEMO_BOUND:
            _search_memo.popitem(last=False)
    else:
        _search_stats[0] += 1
        _search_memo.move_to_end(key)
    return found


def _canon_connected(encoding, serial=repr):
    """(code, |Aut|, labelling, generators) of a connected graph from its
    encoding: ``serial`` of the search's code, the order the search finds
    times the encoding's closed-form factor, and the search's canonical
    labelling and automorphism generators as it returns them."""
    descs, adj, factor = encoding[:3]
    code, labelling, order, gens = _canon_search(descs, adj)
    return serial(code), order * factor, labelling, gens


def _combine(parts):
    """(code, |Aut|) of a graph of either kind from those of its connected
    components: "empty" for none, and for several "U(...)" over the
    sorted codes with the wreath product order."""
    if not parts:
        return "empty", 1
    if len(parts) == 1:
        return parts[0]
    parts = sorted(parts)
    return "U(" + ",".join(code for code, _ in parts) + ")", _wreath(parts)


def _wreath(coded_auts):
    """|Aut| of a disjoint union from (component code, component |Aut|)."""
    groups = {}
    for code, a in coded_auts:
        groups.setdefault(code, []).append(a)
    total = 1
    for code, auts in groups.items():
        total *= factorial(len(auts)) * auts[0] ** len(auts)
    return total


# ---------------------------------------------------------------------------
# 2-graphs


def _positional_key(G, strand_colour=None, half_mark=None):
    """Search memo key of a connected 2-graph: its five structure maps and
    its decorations with every label replaced by its position in
    ``G.vertices``, ``G.half_edges`` or ``G.strands``."""
    vpos = {v: k for k, v in enumerate(G.vertices)}
    hpos = {h: k for k, h in enumerate(G.half_edges)}
    spos = {s: k for k, s in enumerate(G.strands)}
    hs, ss = G.half_edges, G.strands
    return "two", repr((
        len(G.vertices), [vpos[G.nu[h]] for h in hs],
        [hpos[G.iota[h]] for h in hs], [hpos[G.mu[s]] for s in ss],
        [spos[G.sigma1[s]] for s in ss], [spos[G.sigma2[s]] for s in ss],
        None if strand_colour is None else [strand_colour[s] for s in ss],
        None if half_mark is None else [half_mark[h] for h in hs]))


def _search_two(c, strand_colour=None, half_mark=None):
    """The search memo entry of a connected 2-graph, by search.  The faces
    that the encoding builds are not left cached on ``c``: callers keep
    graphs (``hopf.REGISTRY`` holds one per class) that never need them
    again."""
    kept = c._faces
    encoding = _encode_two_graph(c, strand_colour, half_mark)
    c._faces = kept
    return _canon_connected(encoding)


def _two_entry(c, strand_colour=None, half_mark=None):
    """(code, |Aut|, labelling, generators) of a connected 2-graph from the
    search memo; faces, encoding and search run only on a miss."""
    return _memoized(_positional_key(c, strand_colour, half_mark),
                     lambda: _search_two(c, strand_colour, half_mark))


def _two_parts(G, strand_colour=None, half_mark=None):
    """The (code, |Aut|) pairs of the connected components of a 2-graph."""
    return [_two_entry(c, strand_colour, half_mark)[:2]
            for c in connected_components(G)]


def _canon_two(G):
    """The (code, |Aut|) pair of a 2-graph, cached on ``G``.

    This object memo sits in front of the search memo: a hit here saves
    splitting ``G`` and forming its positional keys, while the search
    memo serves the many fresh objects (components, contractions) that
    share their maps with an earlier one."""
    if G._canon is None:
        G._canon = _combine(_two_parts(G))
    return G._canon


def canonical_form(G):
    """Canonical code string plus an isomorphic relabelled graph.

    Two 2-graphs are isomorphic exactly when their codes coincide.  The
    representative's vertex and half-edge labels are canonical positions;
    its strands are numbered face class by face class, in the order in
    which the classes first occur in the canonical labelling.  They are
    deterministic for a given input and canonical up to parallel-face
    exchange, which is always an automorphism.
    """
    forms = []
    for c in connected_components(G):
        encoding = _encode_two_graph(c)
        code, _, perm, _ = _memoized(_positional_key(c),
                                     lambda: _canon_connected(encoding))
        classes, owner = encoding[3:]
        nv, nh = len(c.vertices), len(c.half_edges)
        vmap = {c.vertices[p]: f"v{k}"
                for k, p in enumerate(p for p in perm if p < nv)}
        hmap = {c.half_edges[p - nv]: f"h{k}"
                for k, p in enumerate(p for p in perm if nv <= p < nv + nh)}
        smap = {}
        for idx in dict.fromkeys(owner[p] for p in perm
                                 if owner[p] is not None):
            for member in classes[idx][3]:
                for i in member:
                    smap[c.strands[i]] = f"s{len(smap)}"
        forms.append((code, relabel(c, vmap, hmap, smap)))
    reps = [rep for _, rep in sorted(forms, key=lambda t: t[0])]
    return _canon_two(G)[0], (reps[0] if len(reps) == 1 else
                              disjoint_union(reps) if reps else G)


def canonical_code(G, strand_colour=None, half_mark=None):
    if strand_colour is None and half_mark is None:
        return _canon_two(G)[0]
    return _combine(_two_parts(G, strand_colour, half_mark))[0]


def automorphism_count(G):
    """Order of the automorphism group (label permutations preserving all
    five structure maps)."""
    return _canon_two(G)[1]


def are_isomorphic(G1, G2):
    return canonical_code(G1) == canonical_code(G2)


def automorphism_generators(G, strand_colour=None, half_mark=None):
    """Generators of the automorphism group of a 2-graph, with its
    decorations if given (as in ``canonical_code``), as maps of its
    half-edges; a half-edge a map leaves out is fixed.

    A connected component gives the half-edge action of the generators
    its search found, read from its search memo entry.  Components of one
    code are isomorphic, and their canonical labellings list their
    half-edges in corresponding order; each such component after the
    first adds the swap of its half-edges with those of the one before.
    With the components' own generators these generate the wreath
    product, which is the whole group.  Every automorphism of the
    encoding lifts to one of the graph, so the maps are the half-edge
    action of the group.
    """
    gens, last = [], {}
    for c in connected_components(G):
        code, _, labelling, found = _two_entry(c, strand_colour, half_mark)
        nv, hs = len(c.vertices), c.half_edges
        gens += [{h: hs[g[nv + k] - nv] for k, h in enumerate(hs)
                  if g[nv + k] != nv + k} for g in found]
        # the half-edge nodes come right after the vertices at every leaf
        order = [hs[p - nv] for p in labelling[nv:nv + len(hs)]]
        if code in last:
            swap = dict(zip(last[code], order))
            swap.update(zip(order, last[code]))
            gens.append(swap)
        last[code] = order
    return gens


# ---------------------------------------------------------------------------
# 1-graphs


def _one_entries(g):
    """(component, search memo entry) for each connected component of a
    1-graph; a connected 1-graph is encoded as itself."""
    comps = g.components()
    out = []
    for vs in comps:
        c = g if len(comps) == 1 else g.induced(vs)
        encoding = _encode_one_graph(c)
        out.append((c, _memoized(
            ("one", repr(encoding[:2])),
            lambda: _canon_connected(encoding, _one_graph_serial))))
    return out


def _one_parts(g):
    """The (code, |Aut|) pairs of the connected components of a 1-graph."""
    return [entry[:2] for _, entry in _one_entries(g)]


def _canon_one(g):
    """The (code, |Aut|) pair of a 1-graph."""
    return _combine(_one_parts(g))


def one_graph_code(g):
    return _canon_one(g)[0]


def one_graph_automorphism_count(g):
    return _canon_one(g)[1]


def one_graphs_isomorphic(g1, g2):
    return one_graph_code(g1) == one_graph_code(g2)


def boundary_multiset_aut_count(entries):
    """|Aut| of a multiset of 1-graphs: wreath of the entry groups."""
    return _wreath([_canon_one(g) for g in entries])


# ---------------------------------------------------------------------------
# explicit 1-graph isomorphisms (needed by the insertion enumeration)


def enumerate_one_graph_isos(g1, g2):
    """Yield all isomorphisms (vmap, hmap) from g1 onto g2: the connected
    components paired code by code in every way, and one isomorphism
    (``_connected_isos``) per pair."""
    sources, targets = _one_entries(g1), _one_entries(g2)
    yield from _matched_unions(
        [entry[0] for _, entry in sources], [entry[0] for _, entry in targets],
        lambda k, l: _connected_isos(*sources[k], *targets[l]))


def _matched_unions(codes, images, maps):
    """The unions (vmap, hmap) of one of the maps ``maps(k, l)`` per pair
    (k, l) of a bijection of the positions of ``codes`` onto those of
    ``images`` that keeps codes, for every such bijection; nothing when
    the code multisets differ.  The maps of each pair of one code are
    listed once, first."""
    by_code = {}
    for side, seq in enumerate((codes, images)):
        for k, code in enumerate(seq):
            by_code.setdefault(code, ([], []))[side].append(k)
    if any(len(ks) != len(ls) for ks, ls in by_code.values()):
        return
    found = {(k, l): list(maps(k, l))
             for ks, ls in by_code.values() for k in ks for l in ls}
    for matching in itertools.product(*(
            [list(zip(ks, perm)) for perm in itertools.permutations(ls)]
            for _, (ks, ls) in sorted(by_code.items()))):
        pairs = [p for part in matching for p in part]
        for combo in itertools.product(*(found[p] for p in pairs)):
            vmap, hmap = {}, {}
            for vm, hm in combo:
                vmap.update(vm)
                hmap.update(hm)
            yield vmap, hmap


def _connected_isos(b, b_entry, g, g_entry):
    """The isomorphisms (vmap, hmap) of a connected 1-graph ``b`` onto a
    connected ``g`` of the same code, from their search memo entries:
    each encoding isomorphism lifted class by class."""
    labelling, gens = b_entry[2:]
    phi = dict(zip(labelling, g_entry[2]))
    nv = len(b.vertices)
    b_classes, g_classes = _encode_one_graph(b)[3], _encode_one_graph(g)[3]
    for a in _group(gens, len(phi)):
        f = [phi[x] for x in a]
        vmap = {v: g.vertices[f[i]] for i, v in enumerate(b.vertices)}
        lifts = [_class_lifts(b, g, vmap, *b_classes[p - nv],
                              g_classes[f[p] - nv][1])
                 for p in range(nv, len(f))]
        for combo in itertools.product(*lifts):
            yield vmap, {h: k for part in combo for h, k in part.items()}


def _group(gens, n):
    """Every element of the permutation group on range(n) that ``gens``
    generate, as tuples, the identity first."""
    found = [tuple(range(n))]
    seen = set(found)
    for p in found:
        for q in (tuple(g[i] for i in p) for g in gens):
            if q not in seen:
                seen.add(q)
                found.append(q)
    return found


def _class_lifts(b, g, vmap, key, members, images):
    """The half-edge maps of the class (key, members) of ``b`` onto the
    members ``images`` of its image class in ``g``: every bijection of
    the members, each edge's ends following ``vmap``, each loop (kind 1)
    in either orientation."""
    out = []
    for perm in itertools.permutations(images):
        ways = [(t, t[::-1]) if key[0] == 1 else
                (t if vmap[b.attach[h]] == g.attach[t[0]] else t[::-1],)
                for (h, _), t in zip(members, perm)]
        out += [{h: k for m, t in zip(members, chosen) for h, k in zip(m, t)}
                for chosen in itertools.product(*ways)]
    return out
