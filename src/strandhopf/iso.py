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
graph's sorted label tuples, read from its integer view (``graphs.View``:
the five structure maps over positions), as are the positional keys and
the faces, which are walked on the view's involutions
(``graphs._walk_faces``, the one face walk) and never turned back into
labels here.  A growth child (``rewrite._with_edges``) shares its
parent's view but for ``iota`` and ``sigma2``, which it copies and
patches.

One routine canonizes a connected graph of either kind from its
encoding and returns (code, |Aut|), the code of the search and its
order times the encoding's closed-form factor, followed by the search's
labelling and automorphism generators.
One combine step assembles a graph from its connected components: the
code of a disconnected graph is "U(...)" over the sorted component
codes, its automorphism order the wreath product of the component
orders (m! per repeated factor).  A 2-graph keeps its (code, |Aut|)
pair, and that of each of its vertex graphs (``vertex_classes``), with
its derived data (``graphs.Derived``).  Only
``canonical_form`` builds a relabelled representative, the disjoint
union of the component representatives in code order.

One search memo serves both kinds; it maps a tagged key to the entry
of a connected graph: its code string, its |Aut| with the closed-form
factor folded in, and the search's canonical labelling and automorphism
generators on encoding nodes.  In a 2-graph's encoding node k < nv is
vertex k of ``G.vertices`` and node nv + k half-edge k of
``G.half_edges``, so these too are positional, and an entry serves every
graph with the same encoding.  ``automorphism_generators`` turns them
into half-edge maps only when asked, and ``canonical_form`` reads its
labellings from the memo.

A connected 2-graph is looked up three times at most.  The first key is
its positional structure: the ``marshal`` bytes of its vertex count, the
five structure maps of its integer view, which replace every label by its
position in ``G.vertices``, ``G.half_edges`` or ``G.strands``, and its
decorations by position.  The key is exact.  The encoding numbers its
nodes by label position, and the faces are walked on positions; so
faces, face classes, encoding and the whole entry are functions of the
key (the search is deterministic), and a hit needs none of them.  On a
miss the encoding (descs and adj) is built and looked up; it does not
depend on the strand labels (``_face_classes`` orders the classes by their
itineraries), so one shape with its strands named apart, such as a piece
or a contraction met under another labelling, is found there.  When
both miss, the search descends its first path to the first leaf zeta,
and zeta's search code is the third key (tag "code").  Codes are stored
for minimal leaves only, so on a hit zeta is minimal: the full search
would return that code, zeta's labelling and the same order, and it is
not explored.  The entry's generators are carried onto this encoding
through the two labellings; they may differ from those the full search
would find, but generate the same group, and 2-graph callers read only
its orbits.  Only when all three miss does
the search explore; it stores its entry under the encoding key, the
positional key and its code, as three keys, and a hit by encoding or
code stores the keys that missed.

A 1-graph is split into its connected components in one place,
``_one_components``: one union-find over vertex positions, then per
component its ``_encode_one`` encoding and memo entry.  It reads a
``OneGraph``'s label positions (``_one_entries``) or, for the union of
the vertex graphs of a 2-graph, the integer view (``_vertex_components``,
no ``OneGraph`` built), so both are keyed alike.  A component is looked up
twice at most: by its encoding, which has no faces and is cheap to
build, then by its first leaf's code under a code tag of its own
("one-code"), since an edgeless one-vertex 1-graph and 2-graph share a
search code.  An explored 1-graph search stores its entry under both
keys.  The encoding lists its class nodes in sorted order, so the key
depends on the vertex order only and not on the half-edge numbers:
vertex graphs of one shape whose sections are named apart share an
entry.  The tags ("two", "one", "code", "one-code") keep the kinds
apart.  Under "two" a positional key is the marshal of an 8-tuple and an
encoding key that of a 2-tuple, so the two never meet.  Keys are
``marshal`` bytes, not tuples, because those take a fraction of their
memory, and the view's maps go in as ``bytes`` where every position fits
in one (``_packed``).  The memo is a plain dict that holds at most
``_SEARCH_MEMO_BOUND`` keys: the store that takes it past the bound
empties it, and later lookups search again and refill it.  It keeps no
order or usage state.  ``search_cache_info()`` reports its hits (lookups
answered without an explored search, by any key), misses (explored
searches), bound and size in keys.

1-graph isomorphisms come from the components' entries and encodings.
The encoding isomorphisms of connected 1-graphs b, g of one code are
c_g^-1 o c_b o a for a in the group that b's generators generate, c
sending each node to its canonical position (the labelling is its
inverse), listed sorted as node maps, an order that does not depend on
which generators a code hit carried.  Each lifts to half-edges class by
class, which gives the m! and m! * 2^m factors the encoding hides: any
bijection of a class's members onto those of its image, each edge's ends
following the vertex map, each loop in either orientation.  Components
are paired code by code in every way (``_union_isos``).
"""

from __future__ import annotations

import functools
import itertools
import marshal
from collections import namedtuple
from math import factorial

from .graphs import (connected_components, disjoint_union, relabel,
                     _connected_groups, _positions, _walk_faces)


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
                parts.setdefault(tuple(sorted(map(colors.__getitem__,
                                                  adj[i]))), []).append(i)
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


def _first_path(descs, adj):
    """The first path of the search from the root: its nodes as (colours,
    cells, target cell), each with the first member of its target cell
    individualized, and its leaf zeta as ``_leaf`` gives it.  The root
    colours each node by the start of its class in the sorted ``descs``."""
    start = {}
    for k, d in enumerate(sorted(descs)):
        start.setdefault(d, k)
    colors = [start[d] for d in descs]
    colors, cells = _refine(adj, colors, _cells(colors))
    path = []
    cell = _target_cell(cells)
    while cell is not None:
        path.append((colors, cells, cell))
        colors, cells = _child(adj, colors, cells, cell[0])
        cell = _target_cell(cells)
    return path, _leaf(adj, colors)


def _leaf(adj, colors):
    """(edge code, labelling) of a discrete colouring, whose colours are
    the positions 0..n-1; the node part of the code is the same sorted
    descs at every leaf (``_leaf_code``)."""
    pos = [0] * len(colors)
    edges = []
    for i, ri in enumerate(colors):
        pos[ri] = i
        for j in adj[i]:
            if colors[j] > ri:
                edges.append((ri, colors[j]))
    edges.sort()
    return edges, pos


def _leaf_code(descs, leaf):
    """The search code of a leaf (edge code, labelling)."""
    return tuple(descs[i] for i in leaf[1]), tuple(leaf[0])


def _canon_search(descs, adj, first=None):
    """Minimal leaf code, the first minimal labelling in depth-first
    order, the automorphism order of the encoded graph, and generators of
    its automorphism group (as lists mapping node i to g[i]); ``first``
    is ``_first_path(descs, adj)`` when the caller already has it.

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
    equals that search's.

    Every automorphism met is kept, and together they generate the whole
    group.  Going up the path, those recorded so far fix the node's
    prefix and reach every child in the orbit of its first child (each
    child off that orbit is explored or the image of an explored one,
    and an explored child in the orbit yields a leaf equivalent to
    zeta); with the stabilizer of the first child, generated by
    induction from below, they generate the group that fixes the prefix.
    """
    path, zeta = first or _first_path(descs, adj)
    best = zeta
    gens = []

    def visit(colors, cells):
        """Search below a node off the first path; True once a leaf
        equivalent to zeta is found."""
        nonlocal best
        cell = _target_cell(cells)
        if cell is None:
            edges, pos = _leaf(adj, colors)
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
    return _leaf_code(descs, best), best[1], count, gens


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


def _carried(gens, src, dst):
    """Automorphisms ``gens`` of an encoding with canonical labelling
    ``src`` carried onto an encoding of the same code labelled ``dst``:
    g2[dst[k]] = dst[r[g[src[k]]]], r[i] being the position of node i in
    ``src``."""
    rank = [0] * len(src)
    for k, i in enumerate(src):
        rank[i] = k
    out = []
    for g in gens:
        g2 = [0] * len(dst)
        for a, b in zip(dst, src):
            g2[a] = dst[rank[g[b]]]
        out.append(g2)
    return out


# ---------------------------------------------------------------------------
# encodings


@functools.cache
def _alignments(kind, n):
    """Index maps of a face chain onto itself that keep sigma1 steps at
    even positions: even rotations and odd reflections for cycles, the
    identity and the reversal for open chains."""
    if kind == "external":
        return tuple(range(n)), tuple(range(n - 1, -1, -1))
    return tuple([tuple((i + d) % n for i in range(n))
                  for d in range(0, n, 2)] +
                 [tuple((d - i) % n for i in range(n))
                  for d in range(1, n, 2)])


def _face_classes(G, strand_colour=None):
    """Group the faces of a connected 2-graph into parallel classes.

    Two faces are parallel when some alignment matches their itineraries
    (per-position half-edge plus decoration colour) exactly.  Sections
    and half-edges are numbered by their positions in ``G.strands`` and
    ``G.half_edges``, which are in label order.  Returns a list of (kind,
    m, a, members), where members are the aligned section number tuples,
    least first, and a is the number of self-alignments of the shared
    itinerary.  The classes are sorted by (kind, m, itinerary), the
    itinerary aligned to its least form; (kind, itinerary) names a class,
    so the order, and with it the encoding, does not depend on the
    strand labels.  The faces are walked on the integer view; no ``Face``
    is built or kept.
    """
    view = G.view()
    if strand_colour is None:
        itinerary = view.mu
    else:
        itinerary = [(h, strand_colour[s]) for h, s in zip(view.mu, G.strands)]
    groups = {}
    for kind, chain in _walk_faces(view):
        itin = tuple(map(itinerary.__getitem__, chain))
        best = None
        a = 0
        for t in _alignments(kind, len(chain)):
            key = (tuple(map(itin.__getitem__, t)),
                   tuple(map(chain.__getitem__, t)))
            a += key[0] == itin
            if best is None or key < best:
                best = key
        groups.setdefault((kind, best[0]), []).append((best[1], a))
    out = []
    for (kind, _), members in sorted(
            groups.items(), key=lambda c: (c[0][0], len(c[1]), c[0][1])):
        members.sort()
        out.append((kind, len(members), members[0][1],
                    [seq for seq, _ in members]))
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
    The nodes are numbered from the integer view.
    """
    classes = _face_classes(G, strand_colour)
    view = G.view()
    nv = len(G.vertices)
    descs = [(0,)] * nv + [(1,) if half_mark is None else (1, half_mark[h])
                           for h in G.half_edges]
    owner = [None] * len(descs)
    # every edge of the encoding is met once, so adj needs no set
    adj = [[] for _ in range(nv)] + [[v] for v in view.nu]
    for k, (v, j) in enumerate(zip(view.nu, view.iota)):
        adj[v].append(nv + k)
        if j != k:
            adj[nv + k].append(nv + j)
    factor = 1
    for idx, (kind, m, a, members) in enumerate(classes):
        factor *= factorial(m) * a ** (m - 1)
        rep = members[0]
        base, n = len(descs), len(rep)
        for i in rep:
            h = nv + view.mu[i]
            adj[h].append(len(adj))
            adj.append([h])
            col = None if strand_colour is None else \
                strand_colour[G.strands[i]]
            descs.append((2, col, m))
            owner.append(idx)
        # chains have even length: sigma1 joins positions 2i and 2i + 1,
        # and a relation node each sigma2 step 2i + 1, 2i + 2 (mod n for
        # an internal chain, whose last step closes it)
        for i in range(base, base + n, 2):
            adj[i].append(i + 1)
            adj[i + 1].append(i)
        for i in range(1, n if kind == "internal" else n - 1, 2):
            x, y = base + i, base + (i + 1) % n
            adj[x].append(len(adj))
            adj[y].append(len(adj))
            adj.append([x, y])
            descs.append((3,))
            owner.append(None)
    return (tuple(descs), [tuple(sorted(s)) for s in adj], factor, classes,
            owner)


def _encode_one(nv, classes):
    """Node-classed simple graph for a connected 1-graph with vertices
    0..nv-1, each class of interchangeable half-edges collapsed to one
    node: ``classes`` maps each (kind, ends) to its members, as
    ``_one_components`` collects them.

    The nodes are the vertices, then one node per class carrying its kind
    and multiplicity m, adjacent to its one or two vertices, the classes
    in sorted (kind, ends) order.  So the encoding, and the search memo
    key made from it, depends on the vertex order only, not on the
    half-edge numbers.  Returns (descs, adj, factor, classes), factor
    being the closed-form order of the classes: m! per leg or
    parallel-edge class and m! * 2^m per loop class (the loops permute
    and each can be reversed); classes lists ((kind, ends), members) in
    node order.
    """
    classes = sorted(classes.items())
    descs = [(0,)] * nv
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
    with search code ``code`` (of an ``_encode_one`` encoding).

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
    vi, hi = _positions(sorted(vs)), _positions(sorted(hs))
    at = tuple(vi[attach[h]] for h in sorted(hs))
    pr = tuple(sorted(tuple(sorted((hi[a], hi[b]))) for a, b in pairs))
    return repr((len(vs), len(hs), at, pr))


# ---------------------------------------------------------------------------
# codes and automorphism orders of both kinds


# The search memo (see the module docstring): a tagged key maps to the
# entry of a connected graph.  The bound counts keys; the store that takes
# the memo past it empties the whole memo.  An explored 2-graph search
# stores three keys, an explored 1-graph search two.  Measured on mq3 <=3
# and gw4 <=4 central-check, six alternating runs each (BENCH_26.json):
# 2048 keys explored 9-12% more searches and had the slowest median time
# on both, for 0.5-1.0 MiB less peak RSS; 4096 explored 9% fewer but was
# not faster, and peaked 0.2-1.5 MiB higher (in BENCH_24.json, 7% higher
# in mq3 <=4 enumerate).
_SEARCH_MEMO_BOUND = 3072
_search_memo = {}
# the tag of each kind's first-leaf code keys
_CODE_TAGS = {"two": "code", "one": "one-code"}
_search_stats = [0, 0]  # hits, misses

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def search_cache_info():
    """Hits, misses, bound and size (in keys) of the search memo, in the
    shape of ``functools`` ``cache_info()``."""
    return CacheInfo(*_search_stats, _SEARCH_MEMO_BOUND, len(_search_memo))


def search_cache_clear():
    """Empty the search memo and reset its counts."""
    _search_memo.clear()
    _search_stats[:] = [0, 0]


def _lookup(key):
    """The entry stored under ``key``, counted as a hit, or None."""
    entry = _search_memo.get(key)
    if entry is not None:
        _search_stats[0] += 1
    return entry


def _store(key, entry):
    """Store ``entry`` under ``key``; a store that takes the memo past its
    bound empties it."""
    _search_memo[key] = entry
    if len(_search_memo) > _SEARCH_MEMO_BOUND:
        _search_memo.clear()


def _memoized(tag, encoding, serial=repr, position=None):
    """The search memo entry of a connected graph of kind ``tag`` ("two"
    or "one") with encoding ``encoding``: the entry stored under (tag,
    the ``marshal`` bytes of its descs and adj), or on a miss that of
    ``_canon_connected`` (found by its first leaf's code under the kind's
    code tag, or searched), stored under that key.  A 2-graph's
    positional key ``position`` (which missed) is then stored as a key of
    its own."""
    # marshal format 2 writes values only (later formats mark shared
    # objects), so equal keys mean equal encodings; it is many times
    # faster than repr
    key = tag, marshal.dumps(encoding[:2], 2)
    entry = _lookup(key)
    if entry is None:
        entry = _canon_connected(encoding, serial, _CODE_TAGS[tag])
        _store(key, entry)
    if position is not None:
        _store(position, entry)
    return entry


def _canon_connected(encoding, serial, code_tag):
    """(code, |Aut|, labelling, generators) of a connected graph from its
    encoding: ``serial`` of the search's code, the order the search finds
    times the encoding's closed-form factor, and the search's canonical
    labelling and automorphism generators as it returns them.

    The code of the first leaf zeta is looked up in the memo, under
    ``code_tag``, before the search explores; a full search stores the
    entry under its code.  On a hit zeta is minimal, so the search would
    return that code, zeta's labelling and that order; the entry's
    generators are carried onto this encoding (``_carried``), and nothing
    is explored."""
    descs, adj, factor = encoding[:3]
    first = _first_path(descs, adj)
    zeta = first[1]
    known = _lookup((code_tag, marshal.dumps(_leaf_code(descs, zeta), 2)))
    if known is not None:
        code, aut, labelling, gens = known
        return code, aut, zeta[1], _carried(gens, labelling, zeta[1])
    _search_stats[1] += 1
    code, labelling, order, gens = _canon_search(descs, adj, first)
    entry = serial(code), order * factor, labelling, gens
    key = code_tag, marshal.dumps(code, 2)
    if key not in _search_memo:
        _store(key, entry)
    return entry


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
    """Search memo key of a connected 2-graph: the ``marshal`` bytes of
    its vertex count, the five structure maps of its integer view (each
    ``_packed``), and its decorations by position."""
    return "two", marshal.dumps((
        len(G.vertices), *map(_packed, G.view()),
        None if strand_colour is None else [strand_colour[s]
                                            for s in G.strands],
        None if half_mark is None else [half_mark[h] for h in G.half_edges]),
        2)


def _packed(positions):
    """A list of positions as ``bytes`` when each fits in one byte, which
    takes a fifth of the marshal bytes of the list, else the list itself;
    ``marshal`` tells the two apart, so the key stays exact."""
    try:
        return bytes(positions)
    except ValueError:
        return positions


def _two_entry(c, strand_colour=None, half_mark=None, encoding=None):
    """(code, |Aut|, labelling, generators) of a connected 2-graph from the
    search memo, looked up by its positional key and, on a miss, by its
    encoding: ``encoding`` if given, else built on that miss only."""
    key = _positional_key(c, strand_colour, half_mark)
    return _lookup(key) or _memoized(
        "two", encoding or _encode_two_graph(c, strand_colour, half_mark),
        position=key)


def _two_parts(G, strand_colour=None, half_mark=None):
    """The (code, |Aut|) pairs of the connected components of a 2-graph."""
    return [_two_entry(c, strand_colour, half_mark)[:2]
            for c in connected_components(G)]


def _canon_two(G):
    """The (code, |Aut|) pair of a 2-graph, kept in ``G.derived``.

    This object memo sits in front of the search memo: a hit here saves
    splitting ``G`` and forming its positional keys, while the search
    memo serves the many fresh objects (components, contractions) that
    share their maps with an earlier one."""
    if G.derived.canon is None:
        G.derived.canon = _combine(_two_parts(G))
    return G.derived.canon


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
        code, _, perm, _ = _two_entry(c, encoding=encoding)
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


def _one_components(nv, attach, pairing):
    """The connected components, by least vertex, of the 1-graph with
    vertices 0..nv-1 and ``attach[h]`` the vertex and ``pairing[h]`` the
    partner of half-edge h: each as (its vertices in increasing order, its
    ``_encode_one`` encoding, numbering them 0.., its search memo entry).

    The classes of interchangeable half-edges are the legs at one vertex
    (kind 0), the loops at one vertex (kind 1) and the parallel edges
    between two distinct vertices (kind 2).  A member is a leg (h, h), a
    loop (h, k) with h < k or an edge (h, k) with h at ends[0], in the
    order of their least half-edges."""
    groups = _connected_groups(range(nv), ((attach[h], attach[k])
                                           for h, k in enumerate(pairing)))
    where = {v: (c, i) for c, vs in enumerate(groups)
             for i, v in enumerate(vs)}
    classes = [{} for _ in groups]
    for h, k in enumerate(pairing):
        if k < h:
            continue
        (c, a), (_, b) = where[attach[h]], where[attach[k]]
        if a > b:
            h, k, a, b = k, h, b, a
        kind = 0 if k == h else 1 if a == b else 2
        classes[c].setdefault((kind, (a,) if a == b else (a, b)),
                              []).append((h, k))
    out = []
    for vs, found in zip(groups, classes):
        encoding = _encode_one(len(vs), found)
        out.append((vs, encoding,
                    _memoized("one", encoding, _one_graph_serial)))
    return out


def _one_entries(g):
    """``_one_components`` of a 1-graph, read from its label positions."""
    vpos, hpos = _positions(g.vertices), _positions(g.half_edges)
    return _one_components(len(g.vertices),
                           [vpos[g.attach[h]] for h in g.half_edges],
                           [hpos[g.pairing[h]] for h in g.half_edges])


def _one_class(components):
    """The (code, |Aut|) pair of a 1-graph from its ``_one_components``."""
    return _combine([entry[:2] for *_, entry in components])


def _canon_one(g):
    """The (code, |Aut|) pair of a 1-graph."""
    return _one_class(_one_entries(g))


def _vertex_components(G):
    """The ``_one_components`` of the union of the vertex graphs of a
    2-graph (its sections attached by ``mu`` to its half-edges and paired
    by ``sigma1``), split from its integer view and listed per vertex of
    ``G.vertices``: since ``sigma1`` is vertex-local, each lies at the
    vertex ``nu`` of its vertices."""
    view = G.view()
    parts = [[] for _ in G.vertices]
    for piece in _one_components(len(view.nu), view.mu, view.sigma1):
        parts[view.nu[piece[0][0]]].append(piece)
    return parts


def vertex_classes(G):
    """The (code, |Aut|) pair of each vertex graph of a 2-graph, in the
    order of ``G.vertices``, kept in ``G.derived``; each equals
    ``_canon_one(vertex_graph(G, v))``, but no 1-graph is built."""
    d = G.derived
    if d.vertex_classes is None:
        d.vertex_classes = tuple(map(_one_class, _vertex_components(G)))
    return d.vertex_classes


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
    """Yield all isomorphisms (vmap, hmap) from g1 onto g2 (``_union_isos``
    of their components)."""
    yield from _union_isos(g1, _one_entries(g1), g2, _one_entries(g2))


def _union_isos(b, sources, g, targets):
    """The isomorphisms (vmap, hmap) of the ``_one_components`` ``sources``
    of ``b`` onto ``targets`` of ``g``: ``_connected_isos`` per code."""
    return _matched_unions(
        [entry[0] for _, _, entry in sources],
        [entry[0] for _, _, entry in targets],
        lambda k, l: _connected_isos(b, sources[k], g, targets[l]))


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


def _connected_isos(b, source, g, target):
    """The isomorphisms (vmap, hmap), in labels, of the component
    ``source`` of the 1-graph ``b`` onto the component ``target`` of
    ``g`` of the same code, from their encodings and search memo entries:
    each encoding isomorphism lifted class by class, the encoding
    isomorphisms sorted by node map, so that the order does not depend on
    which labellings and generators the entries hold."""
    b_vs, (*_, b_classes), (*_, labelling, gens) = source
    g_vs, (*_, g_classes), (*_, g_labelling, _) = target
    phi = dict(zip(labelling, g_labelling))
    nv = len(b_vs)
    for f in sorted([phi[x] for x in a] for a in _group(gens, len(phi))):
        vmap = {b.vertices[v]: g.vertices[g_vs[f[i]]]
                for i, v in enumerate(b_vs)}
        lifts = [_class_lifts(b.half_edges, g.half_edges, f,
                              *b_classes[p - nv], g_classes[f[p] - nv])
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


def _class_lifts(bh, gh, f, key, members, image):
    """The half-edge maps (labels ``bh`` onto ``gh``) of the class (key,
    members) onto its image class ``image`` under the encoding
    isomorphism ``f``: every bijection of the members, each edge's ends
    following ``f``, each loop (kind 1) in either orientation."""
    (kind, ends), ((_, image_ends), images) = key, image
    flip = kind == 2 and f[ends[0]] != image_ends[0]
    out = []
    for perm in itertools.permutations(images):
        ways = [(t, t[::-1]) if kind == 1 else (t[::-1] if flip else t,)
                for t in perm]
        out += [{bh[h]: gh[k] for m, t in zip(members, chosen)
                 for h, k in zip(m, t)}
                for chosen in itertools.product(*ways)]
    return out
