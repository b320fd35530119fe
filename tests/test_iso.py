"""Canonical forms and automorphism counts against brute-force oracles."""

import hashlib
import itertools
import json
import marshal
import random
from math import factorial
from pathlib import Path

import oracles
from strandhopf import fixtures, io, iso, preset
from strandhopf import (
    OneGraph,
    TwoGraph,
    are_isomorphic,
    automorphism_count,
    canonical_code,
    canonical_form,
    disjoint_union,
    one_graph_automorphism_count,
    one_graph_code,
    relabel,
    validate,
)
from strandhopf.graphs import (boundary, connected_components, faces,
                              is_connected, vertex_graph)
from strandhopf.iso import (_canon_search, _encode_two_graph,
                            _one_entries, _one_graph_fields,
                            boundary_multiset_aut_count, search_cache_clear,
                            search_cache_info)
from strandhopf.rewrite import instantiate_vertex_type, _glue_options

CORPUS = fixtures.all_fixtures()
SMALL = {name: g for name, g in CORPUS.items() if len(g.half_edges) <= 6}


def cycle_one_graph(n):
    vs = [f"v{i}" for i in range(n)]
    hs = []
    attach = {}
    pairs = []
    for i in range(n):
        a, b = f"h{i}a", f"h{i}b"
        hs += [a, b]
        attach[a] = attach[b] = vs[i]
        pairs.append((a, f"h{(i + 1) % n}b"))
    return OneGraph.make(vs, hs, attach, pairs)


def one_graph(vertices, legs=(), edges=()):
    """1-graph with one leg per entry of ``legs`` (its vertex) and one
    edge per vertex pair in ``edges``; a pair (v, v) is a loop."""
    hs, attach, pairs = [], {}, []

    def half(v):
        hs.append(f"h{len(hs)}")
        attach[hs[-1]] = v
        return hs[-1]

    for v in legs:
        half(v)
    for u, w in edges:
        pairs.append((half(u), half(w)))
    return OneGraph.make(vertices, hs, attach, pairs)


def random_one_graph(rng, max_degree=5):
    """Up to four vertices carrying random legs, loops and (often
    parallel) edges, with no vertex above ``max_degree``."""
    vs = [f"v{i}" for i in range(rng.randint(1, 4))]
    degree = dict.fromkeys(vs, 0)
    legs, edges = [], []
    for _ in range(rng.randint(0, 7)):
        u = rng.choice(vs)
        w = u if rng.random() < 0.4 else rng.choice(vs)
        if rng.random() < 0.3:
            if degree[u] < max_degree:
                legs.append(u)
                degree[u] += 1
        elif degree[u] + 1 + (u == w) <= max_degree and \
                degree[w] + 1 + (u == w) <= max_degree:
            edges.append((u, w))
            degree[u] += 1
            degree[w] += 1
    return one_graph(vs, legs, edges)


def relabelled_one_graph(g, rng):
    vs = [f"x{i}" for i in range(len(g.vertices))]
    hs = [f"y{i}" for i in range(len(g.half_edges))]
    rng.shuffle(vs)
    rng.shuffle(hs)
    return relabel(g, dict(zip(g.vertices, vs)), dict(zip(g.half_edges, hs)))


# each case collapses legs at one vertex, loops at one vertex or parallel
# edges into classes, so the m!, m!*2^m and m! factors all take part
COLLAPSED = {
    "legs": one_graph(["a"], legs="aaaa"),
    "loops": one_graph(["a"], edges=[("a", "a")] * 3),
    "parallel": one_graph(["a", "b"], edges=[("a", "b")] * 4),
    "legs_and_loops": one_graph(["a"], legs="aa", edges=[("a", "a")] * 2),
    "dipole_with_legs": one_graph(["a", "b"], legs="aabb",
                                  edges=[("a", "b")] * 2),
    "mixed": one_graph(["a", "b"], legs="ab",
                       edges=[("a", "a"), ("a", "b"), ("a", "b"),
                              ("b", "b")]),
    "lopsided": one_graph(["a", "b"], legs="aaa",
                          edges=[("a", "b"), ("b", "b"), ("b", "b")]),
    "double_triangle": one_graph(["a", "b", "c"],
                                 edges=[("a", "b"), ("a", "b"), ("b", "c"),
                                        ("b", "c"), ("c", "a"), ("c", "a")]),
    "chain": one_graph(["a", "b", "c"], legs="ac",
                       edges=[("a", "b"), ("a", "b"), ("b", "c"),
                              ("b", "c"), ("b", "b")]),
}


def test_canonical_code_invariant_under_relabelling():
    rng = random.Random(7)
    for name, g in CORPUS.items():
        code = canonical_code(g)
        for _ in range(20):
            h = oracles.random_relabelled(g, rng)
            assert validate(h).valid, name
            assert canonical_code(h) == code, name


def test_canonical_form_is_isomorphic_representative():
    for name, g in CORPUS.items():
        code, rep = canonical_form(g)
        assert validate(rep).valid, name
        assert canonical_code(rep) == code, name


def test_isomorphism_matches_brute_force_on_small_fixtures():
    names = sorted(SMALL)
    for i, a in enumerate(names):
        for b in names[i:]:
            expected = oracles.brute_two_graphs_isomorphic(SMALL[a], SMALL[b])
            assert are_isomorphic(SMALL[a], SMALL[b]) == expected, (a, b)


def test_fish_variants():
    mixed, same = fixtures.fish(1, 2), fixtures.fish(1, 1)
    assert not are_isomorphic(mixed, same)
    # only the colour names differ, not the pairing pattern
    assert are_isomorphic(mixed, fixtures.fish(3, 4))
    assert are_isomorphic(same, fixtures.fish(2, 2))
    rng = random.Random(11)
    assert are_isomorphic(mixed, oracles.random_relabelled(mixed, rng))


def test_automorphism_counts_match_brute_force():
    for name, g in SMALL.items():
        assert automorphism_count(g) == \
            oracles.brute_two_graph_automorphism_count(g), name


def test_fish_automorphism_counts():
    assert automorphism_count(fixtures.fish(1, 2)) == 288
    assert automorphism_count(fixtures.fish(1, 1)) == 864
    assert oracles.brute_two_graph_automorphism_count(
        fixtures.fish(1, 2)) == 288


def test_one_graph_cycles_have_dihedral_symmetry():
    for n in (3, 4, 5, 6):
        c = cycle_one_graph(n)
        assert one_graph_automorphism_count(c) == 2 * n
        assert oracles.brute_one_graph_automorphism_count(c) == 2 * n


def test_disjoint_union_automorphisms():
    g = fixtures.fish(1, 2)
    t = fixtures.quartic_tadpole("same")
    a_g, a_t = automorphism_count(g), automorphism_count(t)
    assert automorphism_count(disjoint_union([g, g])) == 2 * a_g * a_g
    assert not are_isomorphic(g, t)
    assert automorphism_count(disjoint_union([g, t])) == a_g * a_t
    assert automorphism_count(disjoint_union([g, g, g])) == 6 * a_g ** 3


def test_boundary_multiset_aut_counts():
    c4 = cycle_one_graph(4)
    c3 = cycle_one_graph(3)
    assert boundary_multiset_aut_count([c4]) == 8
    assert boundary_multiset_aut_count([c4, c4]) == 2 * 8 * 8
    assert boundary_multiset_aut_count([c3, c4]) == 6 * 8
    assert boundary_multiset_aut_count([]) == 1


def test_one_graph_collapsed_classes_match_brute_force():
    rng = random.Random(2014)
    cases = list(COLLAPSED.items())
    cases += [(f"random{i}", random_one_graph(rng)) for i in range(60)]
    for name, g in cases:
        assert one_graph_automorphism_count(g) == \
            oracles.brute_one_graph_automorphism_count(g), name
        code = one_graph_code(g)
        for vs, encoding, _ in _one_entries(g):
            # the search's code determines a canonical 1-graph per component
            comp = g.induced(g.vertices[i] for i in vs)
            found = _canon_search(*encoding[:2])[0]
            rep = OneGraph.make(*_one_graph_fields(found))
            assert one_graph_code(rep) == one_graph_code(comp), name
        for _ in range(5):
            assert one_graph_code(relabelled_one_graph(g, rng)) == code, name
    codes = [one_graph_code(g) for g in COLLAPSED.values()]
    assert len(set(codes)) == len(codes)
    for name, g in COLLAPSED.items():
        a = one_graph_automorphism_count(g)
        assert one_graph_automorphism_count(disjoint_union([g, g])) == \
            2 * a ** 2, name


def section_relabelled(g, rng):
    """Copy of a 1-graph with its half-edges (the sections of a vertex
    graph or a boundary) renamed at random and its vertex labels kept."""
    hs = [f"y{i}" for i in range(len(g.half_edges))]
    rng.shuffle(hs)
    return relabel(g, {v: v for v in g.vertices},
                   dict(zip(g.half_edges, hs)))


def test_section_labels_leave_the_one_graph_memo_key_alone(monkeypatch):
    # the 1-graph memo key depends on the vertex order only: copies of a
    # vertex graph or boundary that differ in their half-edge labels run
    # no search after the first, and each component is encoded as its
    # induced 1-graph would be
    rng = random.Random(1402)
    graphs = list(CORPUS.values())
    graphs += [io.document_to_graph(e["graph"])
               for e in corpus_entries()[::17]]
    shapes = [dt.graph for name in ("gw4", "mq3", "bgr")
              for dt in preset(name).dressed_types()]
    shapes += [vertex_graph(g, v) for g in graphs for v in g.vertices]
    shapes += [boundary(g) for g in graphs]
    searches = []
    counted = iso._canon_connected

    def counting(*args, **kwargs):
        searches.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(iso, "_canon_connected", counting)
    brute = {}
    for k, g in enumerate(shapes):
        copies = [section_relabelled(g, rng) for _ in range(4)]
        search_cache_clear()
        want = (one_graph_code(copies[0]),
                one_graph_automorphism_count(copies[0]))
        # isomorphic components (a multi-trace vertex) share one search
        assert bool(searches) == bool(g.vertices), k
        searches.clear()
        for h in copies[1:]:
            assert (one_graph_code(h), one_graph_automorphism_count(h)) \
                == want, k
        assert not searches, k
        assert one_graph_code(g) == want[0], k
        # up to the numbers of its half-edges, which no key reads
        assert [encoding[:3] for _, encoding, _ in _one_entries(g)] == \
            [_one_entries(g.induced(vs))[0][1][:3]
             for vs in g.components()], k
        cost = factorial(len(g.vertices))
        for v in g.vertices:
            cost *= factorial(g.degree(v))
        if cost <= 40000 and want[0] not in brute:
            brute[want[0]] = oracles.brute_one_graph_automorphism_count(g)
        assert brute.get(want[0], want[1]) == want[1], k
    assert len(brute) >= 10


def moved_one_graph(g, rng):
    """A neighbour of ``g`` with as many vertices and half-edges: one
    half-edge moved to another vertex, or on one vertex two legs paired
    or an edge split into two legs."""
    attach, pairing = dict(g.attach), dict(g.pairing)
    legs = [h for h in g.half_edges if pairing[h] == h]
    if len(g.vertices) > 1 and g.half_edges:
        h = rng.choice(g.half_edges)
        attach[h] = rng.choice([v for v in g.vertices if v != attach[h]])
    elif len(legs) >= 2:
        pairing[legs[0]], pairing[legs[1]] = legs[1], legs[0]
    elif len(legs) < len(g.half_edges):
        h = next(h for h in g.half_edges if pairing[h] != h)
        pairing[pairing[h]] = pairing[h]
        pairing[h] = h
    return OneGraph(g.vertices, g.half_edges, attach, pairing)


def iso_list(found):
    """Isomorphisms (vmap, hmap) as hashable item tuples."""
    return [(tuple(sorted(vm.items())), tuple(sorted(hm.items())))
            for vm, hm in found]


def test_one_graph_isos_match_brute_force(monkeypatch):
    # the isomorphisms read from the search memo entries are those of the
    # brute-force matcher, each once, on collapsed classes, random graphs
    # and their relabellings, unions of two, the empty 1-graph and
    # non-isomorphic neighbours
    rng = random.Random(1703)
    graphs = list(COLLAPSED.values()) + [random_one_graph(rng)
                                         for _ in range(60)]
    pairs = []
    for g in graphs:
        pairs += [(g, g), (g, relabelled_one_graph(g, rng)),
                  (g, moved_one_graph(g, rng))]
    for g, h in zip(graphs[::2], graphs[1::2]):
        pairs.append((disjoint_union([g, h]),
                      relabelled_one_graph(disjoint_union([h, g]), rng)))
    for g in graphs[-6:]:
        pairs.append((disjoint_union([g, g]),
                      relabelled_one_graph(disjoint_union([g, g]), rng)))
    pairs.append((disjoint_union([cycle_one_graph(3)] * 2),
                  cycle_one_graph(6)))
    empty = OneGraph.make([], [], {})
    pairs.append((empty, empty))
    total = 0
    for k, (g, h) in enumerate(pairs):
        got = iso_list(iso.enumerate_one_graph_isos(g, h))
        assert len(set(got)) == len(got), k
        assert set(got) == set(iso_list(oracles.brute_one_graph_isos(g, h))), k
        want = one_graph_automorphism_count(g) \
            if one_graph_code(g) == one_graph_code(h) else 0
        assert len(got) == want, k
        total += len(got)
    assert list(iso.enumerate_one_graph_isos(empty, empty)) == [({}, {})]
    assert total > 10000
    assert sum(one_graph_code(g) != one_graph_code(h) for g, h in pairs) > 50
    # a second call on the same shapes reads the memo and runs no search
    searches = []
    counted = iso._canon_connected

    def counting(*args, **kwargs):
        searches.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(iso, "_canon_connected", counting)
    for g, h in pairs[:60]:
        search_cache_clear()
        first = iso_list(iso.enumerate_one_graph_isos(g, h))
        searches.clear()
        g2, h2 = section_relabelled(g, rng), section_relabelled(h, rng)
        again = list(iso.enumerate_one_graph_isos(g2, h2))
        assert not searches
        assert len(again) == len(first)


def cycles_encoding(lengths, rng):
    """(descs, adj) of a disjoint union of cycles, nodes in random order.

    All nodes share one class, so the search has several levels below
    each child of its first node; on C6 + C3 + C3, in some node orders,
    it meets a leaf equivalent to the best one before a better leaf in
    the same subtree.
    """
    n = sum(lengths)
    place = list(range(n))
    rng.shuffle(place)
    adj = [[] for _ in range(n)]
    start = 0
    for m in lengths:
        for i in range(m):
            a, b = place[start + i], place[start + (i + 1) % m]
            adj[a].append(b)
            adj[b].append(a)
        start += m
    return ((0,),) * n, [tuple(sorted(a)) for a in adj]


def random_encoding(rng, kind):
    """(descs, adj) of a seeded random graph with 1 to 3 node classes, its
    nodes in random order: a union of one or two cycles ("cycles"), a
    circulant C_n(1, 2) on 7 to 40 nodes ("circulant"), or a random tree
    on 2 to 40 nodes plus n/2 random edges ("random").  The sizes keep
    the exhaustive search, which visits one leaf per automorphism and
    more, to a fraction of a second each."""
    if kind == "cycles":
        lengths = [rng.randint(3, 10) for _ in range(rng.randint(1, 2))]
        n, edges, s = sum(lengths), [], 0
        for m in lengths:
            edges += [(s + i, s + (i + 1) % m) for i in range(m)]
            s += m
    elif kind == "circulant":
        n = rng.randint(7, 40)
        edges = [(i, (i + d) % n) for i in range(n) for d in (1, 2)]
    else:
        n = rng.randint(2, 40)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(n // 2)]
    classes = rng.randint(1, 3)
    place = list(range(n))
    rng.shuffle(place)
    descs = [None] * n
    for i in place:
        descs[i] = (rng.randrange(classes),)
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[place[a]].add(place[b])
        adj[place[b]].add(place[a])
    return tuple(descs), [tuple(sorted(a)) for a in adj]


def search_encodings(rng):
    """(name, descs, adj) of the encoded connected components of every
    fixture, of random relabellings of it, and of its boundary, of
    unions of cycles in random node orders, and of random graphs."""
    out = [(f"C{lengths}#{k}",) + cycles_encoding(lengths, rng)
           for lengths in ((6, 3, 3), (3, 4, 5), (4, 4), (7,))
           for k in range(4)]
    for name, g in CORPUS.items():
        copies = [g] + [oracles.random_relabelled(g, rng) for _ in range(2)]
        for k, h in enumerate(copies):
            for c in connected_components(h):
                out.append((f"{name}#{k}",) + _encode_two_graph(c)[:2])
        b = boundary(g)
        for _, encoding, _ in _one_entries(b):
            out.append((f"{name}:boundary",) + encoding[:2])
    out += [(f"{kind}#{k}",) + random_encoding(rng, kind) for k in range(50)
            for kind in ("cycles", "circulant", "random")]
    return out


def generated_group(gens, n):
    """Every element of the permutation group on range(n) that ``gens``
    generate, as tuples (closure under composition from the identity)."""
    found = {tuple(range(n))}
    todo = list(found)
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in found:
                found.add(q)
                todo.append(q)
    return found


def test_pruned_search_matches_exhaustive_search():
    # the code, the first minimal labelling in depth-first order and the
    # automorphism order must all equal those of the unpruned search; the
    # generators it returns are automorphisms and, where the group is
    # small enough to list, generate all of it
    for name, descs, adj in search_encodings(random.Random(1981)):
        code, labelling, order, gens = _canon_search(descs, adj)
        assert (code, labelling, order) == \
            oracles.exhaustive_canon_search(descs, adj), name
        edges = {(i, j) for i, js in enumerate(adj) for j in js}
        for g in gens:
            assert sorted(g) == list(range(len(descs))), name
            assert all(descs[g[i]] == descs[i] for i in range(len(descs)))
            assert {(g[i], g[j]) for i, j in edges} == edges, name
        if order <= 1000:
            assert len(generated_group(gens, len(descs))) == order, name


def renumbered(descs, adj, order):
    """The encoding with node order[k] renumbered k."""
    new = {old: k for k, old in enumerate(order)}
    return (tuple(descs[old] for old in order),
            [tuple(sorted(new[j] for j in adj[old])) for old in order])


def check_first_leaf_hits(monkeypatch, kind, encodings, serial):
    """Search each encoding twice through ``iso._canon_connected`` with
    the first-leaf code tag of ``kind`` and code strings ``serial``, the
    second time renumbered so that its first path reaches a minimal leaf
    (see the tests below).  The memo is left empty."""
    tag = iso._CODE_TAGS[kind]
    calls = {"_first_path": 0, "_canon_search": 0}
    for name in calls:
        def counting(*args, real=getattr(iso, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(iso, name, counting)
    monkeypatch.setattr(iso, "_SEARCH_MEMO_BOUND", 1)
    rng = random.Random(1998)
    first_leaf = 0
    for name, descs, adj in encodings:
        n = len(descs)
        search_cache_clear()
        descs, adj = renumbered(descs, adj, rng.sample(range(n), n))
        labelling = iso._canon_connected((descs, adj, 1), serial, tag)[2]
        canon = renumbered(descs, adj, labelling)
        front = [cell[0] for _, _, cell in iso._first_path(*canon)[0]]
        rest = [i for i in range(n) if i not in front]
        rng.shuffle(rest)
        encoding = renumbered(*canon, front + rest) + (1,)
        before = dict(calls)
        code, order, labelling, gens = iso._canon_connected(encoding,
                                                            serial, tag)
        first_leaf += calls == {"_first_path": before["_first_path"] + 1,
                                "_canon_search": before["_canon_search"]}
        want = oracles.exhaustive_canon_search(*encoding[:2])
        assert (code, labelling, order) == (serial(want[0]), *want[1:]), \
            name
        descs, adj = encoding[:2]
        edges = {(i, j) for i, js in enumerate(adj) for j in js}
        for g in gens:
            assert sorted(g) == list(range(n)), name
            assert all(descs[g[i]] == descs[i] for i in range(n)), name
            assert {(g[i], g[j]) for i, j in edges} == edges, name
        if order <= 1000:
            assert len(generated_group(gens, n)) == order, name
        iso._memoized(kind, encoding, serial)
        assert not iso._search_memo, name
        searches = calls["_canon_search"]
        assert iso._canon_connected(encoding, serial, tag)[:3] == \
            (code, order, labelling), name
        assert calls["_canon_search"] == searches + 1, name
    assert first_leaf == len(encodings)
    search_cache_clear()


def test_first_leaf_hit_matches_exhaustive_search(monkeypatch):
    # a full 2-graph search stores its entry under its code; a later
    # search whose first leaf zeta has that code explores nothing.  Each
    # encoding is searched in a shuffled node order, then renumbered in
    # its canonical order with the first path's individualized nodes in
    # front of a shuffled rest, so its first path reaches a minimal leaf.
    # The second search must take the first-leaf path, and its code,
    # labelling and order must still be those of the unpruned search,
    # its carried generators automorphisms that generate the whole group.
    # With a bound of one key, storing the second encoding's key empties
    # the memo, and the same encoding is then searched in full again
    check_first_leaf_hits(monkeypatch, "two",
                          search_encodings(random.Random(1981)), repr)


def one_graph_encodings(rng):
    """(name, descs, adj) of the encoded connected components of
    collapsed and random 1-graphs, of the preset vertex types (bgr's
    double dipole has two), and of the boundary and the vertex graphs of
    every fixture."""
    graphs = dict(COLLAPSED)
    graphs.update((f"random{k}", random_one_graph(rng)) for k in range(40))
    graphs.update((f"{name}:{dt.name}", dt.graph)
                  for name in ("gw4", "mq3", "bgr")
                  for dt in preset(name).dressed_types())
    for name, g in CORPUS.items():
        graphs[f"{name}:boundary"] = boundary(g)
        graphs.update((f"{name}:{v}", vertex_graph(g, v)) for v in g.vertices)
    return [(f"{name}#{k}",) + encoding[:2]
            for name, g in graphs.items()
            for k, (_, encoding, _) in enumerate(_one_entries(g))]


def test_one_graph_first_leaf_hit_matches_exhaustive_search(monkeypatch):
    # the 1-graph counterpart of the test above, under the 1-graph code
    # tag: a search whose first leaf has the code of an explored search
    # explores nothing and returns the unpruned search's code, labelling
    # and order, with carried generators of the whole group
    check_first_leaf_hits(monkeypatch, "one",
                          one_graph_encodings(random.Random(1981)),
                          iso._one_graph_serial)


def test_refine_matches_rank_refinement():
    # a colouring by cell starts must be the oracle's colouring by cell
    # ranks, relabelled monotonically, after the first refinement and
    # after every individualization along random chains to a leaf
    rng = random.Random(2014)
    for name, descs, adj in search_encodings(rng):
        n = len(descs)
        start = {}
        for k, d in enumerate(sorted(descs)):
            start.setdefault(d, k)
        colors = [start[d] for d in descs]
        colors, cells = iso._refine(adj, colors, iso._cells(colors))
        rank = {d: k for k, d in enumerate(sorted(set(descs)))}
        ranks = oracles._exhaustive_refine(n, adj, [rank[d] for d in descs])
        while True:
            assert cells == iso._cells(colors), name
            assert all(c == sum(1 for x in colors if x < c)
                       for c in cells), name
            rank = {c: k for k, c in enumerate(sorted(cells))}
            assert [rank[c] for c in colors] == ranks, name
            targets = [c for c, members in cells.items() if len(members) > 1]
            if not targets:
                assert sorted(colors) == list(range(n)), name
                break
            w = rng.choice(cells[rng.choice(targets)])
            colors, cells = iso._child(adj, colors, cells, w)
            split = [(c, 0 if i == w else 1) for i, c in enumerate(ranks)]
            rank = {s: k for k, s in enumerate(sorted(set(split)))}
            ranks = oracles._exhaustive_refine(n, adj,
                                               [rank[s] for s in split])


def corpus_entries():
    """The 344 connected classes of gw4 <=3, mq3 <=3 and bgr <=2 edges,
    pinned by the benchmark before the search was pruned."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
        "corpus.json"
    return json.loads(path.read_text(encoding="utf-8"))["graphs"]


def test_corpus_automorphism_counts_match_pinned_values():
    entries = corpus_entries()
    assert len(entries) == 344
    for k, entry in enumerate(entries):
        g = io.document_to_graph(entry["graph"])
        assert automorphism_count(g) == entry["automorphisms"], k


def test_code_strings_are_pinned():
    # code strings are part of the output (info, classify, enumerate), so
    # any change to them must be deliberate; the boundaries include some
    # with more than ten half-edges, where "h10" sorts before "h2"
    graphs = list(CORPUS.values())
    graphs += [io.document_to_graph(e["graph"]) for e in corpus_entries()]
    names = sorted(CORPUS)
    graphs += [disjoint_union([CORPUS[a], CORPUS[b]])
               for a, b in zip(names, names[1:])]
    graphs.append(disjoint_union([CORPUS["fish_mixed"]] * 2
                                 + [CORPUS["quartic_tadpole_same"]]))
    boundaries = [boundary(g) for g in graphs]
    assert max(len(b.half_edges) for b in boundaries) >= 11
    dressed = [dt.dressed_code() for name in ("gw4", "mq3", "bgr")
               for dt in preset(name).dressed_types()]
    text = "\n".join(sorted({canonical_code(g) for g in graphs})
                     + sorted({one_graph_code(b) for b in boundaries})
                     + sorted(set(dressed)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "cbeba6bb63bee7e8f6dae26cebf3c9cfa10f60964c0bb53ed7981b8e403ac737"


def random_gluing(rng, theory):
    """A random gluing of ``theory``'s vertex types with at most three
    edges, eight half-edges and sixteen strands (so the brute-force count
    stays quick); every bijection of strand corollas may join two
    half-edges, and vertices left unjoined make it disconnected, so each
    join builds a fresh graph (``rewrite._with_edges`` makes connected
    growth children only)."""
    types = [dt.graph for dt in preset(theory).dressed_types()]
    pieces = []
    for _ in range(rng.randint(1, 3)):
        gamma = rng.choice(types)
        if sum(len(p.vertices) for p in pieces) + len(gamma.vertices) <= 8 \
                and sum(len(p.half_edges) for p in pieces) \
                + len(gamma.half_edges) <= 16:
            pieces.append(gamma)
    G = disjoint_union([instantiate_vertex_type(gamma, f"{k}")
                        for k, gamma in enumerate(pieces)], prefix=False)
    for _ in range(rng.randint(0, 3)):
        ext = G.external_half_edges()
        pairs = [(a, b) for i, a in enumerate(ext) for b in ext[i + 1:]
                 if G.strand_degree(a) == G.strand_degree(b)]
        if not pairs:
            break
        pair = rng.choice(pairs)
        G = oracles._joined(G, pair, rng.choice(_glue_options(G, pair)))
    return G


def test_random_small_gluings_match_brute_force():
    rng = random.Random(2021)
    connected = 0
    for k in range(45):
        g = random_gluing(rng, ("gw4", "mq3", "bgr")[k % 3])
        assert validate(g).valid, k
        connected += is_connected(g)
        code = canonical_code(g)
        assert automorphism_count(g) == \
            oracles.brute_two_graph_automorphism_count(g), k
        assert canonical_code(oracles.random_relabelled(g, rng)) == code, k
        rep_code, rep = canonical_form(g)
        assert rep_code == code and canonical_code(rep) == code, k
    assert 0 < connected < 45


def test_codes_and_orders_build_no_representative(monkeypatch):
    # codes and automorphism orders come from the search alone; only
    # canonical_form relabels a graph
    fresh = fixtures.all_fixtures()
    names = sorted(fresh)
    unions = [disjoint_union([fresh[a], fresh[b], fresh[a]])
              for a, b in zip(names, names[1:])]
    twos = list(fresh.values()) + unions
    ones = [boundary(g) for g in twos]

    def forbidden(*args, **kwargs):
        raise AssertionError("representative built")

    for module in ("graphs", "iso"):
        for name in ("relabel", "disjoint_union"):
            monkeypatch.setattr(f"strandhopf.{module}.{name}", forbidden)
    for g in twos:
        assert canonical_code(g) and automorphism_count(g) > 0
    for b in ones:
        assert one_graph_code(b) and one_graph_automorphism_count(b) > 0


def test_search_memo_keeps_one_and_two_graphs_apart():
    # a one-vertex edgeless 2-graph and a one-vertex 1-graph share their
    # encoding but not their code, in whichever order they are canonized
    # (each call builds a fresh graph, so only the search memo can answer);
    # each search also stores its search code, under a code tag of its kind
    code_of = {
        "two": lambda: canonical_code(TwoGraph.make(["v"], [], [], {}, {})),
        "one": lambda: one_graph_code(OneGraph.make(["v"], [], {})),
    }
    want = {"two": "(((0,),), ())", "one": "(1, 0, (), ())"}
    assert _encode_two_graph(TwoGraph.make(["v"], [], [], {}, {}))[:2] == \
        _one_entries(OneGraph.make(["v"], [], {}))[0][1][:2]
    for order in (("two", "one"), ("one", "two")):
        search_cache_clear()
        for kind in order * 2:
            assert code_of[kind]() == want[kind], order
        assert search_cache_info()[:2] == (2, 2), order
        assert sorted(tag for tag, _ in iso._search_memo) == \
            ["code", "one", "one-code", "two", "two"]


def test_positional_keys_are_exact_and_apart_from_encoding_keys():
    # a positional key is the marshal bytes of an 8-tuple that spells out
    # the vertex count, the five structure maps by label position and the
    # decorations, so equal keys mean equal graphs up to label names; an
    # encoding key, stored under the same tag, is the marshal bytes of a
    # 2-tuple, so the two kinds never meet in the memo
    from strandhopf.series import _merge_marks, instantiate_dressed
    cases = [(g, None, None) for g in fixtures.all_fixtures().values()]
    cases += [(io.document_to_graph(e["graph"]), None, None)
              for e in corpus_entries()]
    for name in ("gw4", "mq3", "bgr"):
        for dt in preset(name).dressed_types():
            inst, col, par, ori = instantiate_dressed(dt, "t")
            cases.append((inst, _merge_marks(col, ori), par))
    for k, (g, sc, hm) in enumerate(cases):
        for c in connected_components(g):
            vpos, hpos, spos = ({x: i for i, x in enumerate(labels)}
                                for labels in (c.vertices, c.half_edges,
                                               c.strands))
            hs, ss = c.half_edges, c.strands
            tag, key = iso._positional_key(c, sc, hm)
            fields = marshal.loads(key)
            assert tag == "two" and len(fields) == 8, k
            assert [fields[0]] + list(map(list, fields[1:6])) == [
                len(c.vertices), [vpos[c.nu[h]] for h in hs],
                [hpos[c.iota[h]] for h in hs], [hpos[c.mu[s]] for s in ss],
                [spos[c.sigma1[s]] for s in ss],
                [spos[c.sigma2[s]] for s in ss]], k
            assert fields[6:] == (
                None if sc is None else [sc[s] for s in ss],
                None if hm is None else [hm[h] for h in hs]), k
            encoding = marshal.dumps(_encode_two_graph(c, sc, hm)[:2], 2)
            assert len(marshal.loads(encoding)) == 2 and encoding != key, k


def memo_outputs(rng):
    """Codes and orders of fresh fixtures, corpus classes, relabellings
    and boundaries, plus the dressed codes of fresh preset types."""
    twos = list(fixtures.all_fixtures().values())
    twos += [io.document_to_graph(e["graph"]) for e in corpus_entries()]
    twos += [oracles.random_relabelled(g, rng) for g in list(twos)]
    ones = [boundary(g) for g in twos]
    ones += [relabelled_one_graph(b, rng) for b in list(ones)]
    return ([(canonical_code(g), automorphism_count(g)) for g in twos],
            [(one_graph_code(b), one_graph_automorphism_count(b))
             for b in ones],
            [dt.dressed_code() for name in ("gw4", "mq3", "bgr")
             for dt in preset(name).dressed_types()])


def test_search_memo_changes_no_code_or_order(monkeypatch):
    # every connected component canonized is one memo lookup (a 2-graph
    # forms its positional key, a 1-graph its encoding), and every miss
    # is one explored search (a 2-graph whose first leaf's code hits
    # explores nothing); a 1-graph split into components makes one
    # lookup per component
    calls = {"lookups": 0, "searches": 0}

    def counting(name, count, weight=lambda result: 1):
        counted = getattr(iso, name)

        def wrapper(*args, **kwargs):
            result = counted(*args, **kwargs)
            calls[count] += weight(result)
            return result
        monkeypatch.setattr(iso, name, wrapper)

    counting("_positional_key", "lookups")
    counting("_one_components", "lookups", len)
    counting("_canon_search", "searches")
    search_cache_clear()
    cold = memo_outputs(random.Random(3))
    info = search_cache_info()
    assert info.hits + info.misses == calls["lookups"]
    assert info.misses == calls["searches"]
    assert info.currsize <= info.maxsize == iso._SEARCH_MEMO_BOUND
    warm = memo_outputs(random.Random(3))
    assert warm == cold
    again = search_cache_info()
    assert again.hits + again.misses == calls["lookups"]
    assert again.misses == calls["searches"]
    assert again.hits > info.hits
    # a bound of 0 keeps nothing, so every search runs
    monkeypatch.setattr(iso, "_SEARCH_MEMO_BOUND", 0)
    search_cache_clear()
    assert memo_outputs(random.Random(3)) == cold
    assert search_cache_info().hits == 0


def test_search_memo_stays_within_its_bound(monkeypatch):
    # every store adds a new key; the store that takes the memo past its
    # bound empties it, so its size never exceeds the bound, and the
    # lookups after it search again and give the same codes
    bound = 40
    monkeypatch.setattr(iso, "_SEARCH_MEMO_BOUND", bound)
    sizes = []
    real = iso._store

    def recording(key, entry):
        before = len(iso._search_memo)
        assert key not in iso._search_memo
        real(key, entry)
        sizes.append((before, len(iso._search_memo)))

    monkeypatch.setattr(iso, "_store", recording)
    rng = random.Random(11)
    g = max((g for g in CORPUS.values() if is_connected(g)),
            key=lambda g: len(g.strands))
    search_cache_clear()
    keys = set()
    copies = []
    while len(keys) <= 3 * bound:
        h = oracles.random_relabelled(g, rng)
        key = iso._positional_key(h)
        if key not in keys:
            keys.add(key)
            copies.append(h)
    code = canonical_code(g)
    for h in copies:
        assert canonical_code(h) == code
        assert search_cache_info().currsize <= bound
    assert sizes == [(n, n + 1 if n < bound else 0) for n, _ in sizes]
    assert sizes.count((bound, 0)) >= 2
    # the first copy's key went with the first emptying; a fresh graph
    # with its labels misses, gets the same code and is stored again
    key = iso._positional_key(copies[0])
    assert key not in iso._search_memo
    assert canonical_code(io.document_to_graph(
        io.graph_to_document(copies[0]))) == code
    assert key in iso._search_memo


def test_search_memo_hit_reads_only_the_graph_maps(monkeypatch):
    # a fresh graph with the same labels (an io round trip) has the same
    # positional maps, so a warm lookup needs neither its faces nor its
    # encoding
    graphs = list(fixtures.all_fixtures().values())
    graphs += [io.document_to_graph(e["graph"]) for e in corpus_entries()]
    search_cache_clear()
    want = [(canonical_code(g), automorphism_count(g)) for g in graphs]
    copies = [io.document_to_graph(io.graph_to_document(g)) for g in graphs]
    components = sum(len(connected_components(h)) for h in copies)

    def forbidden(*args, **kwargs):
        raise AssertionError("faces or encoding built on a hit")

    monkeypatch.setattr("strandhopf.graphs.faces", forbidden)
    monkeypatch.setattr(iso, "_walk_faces", forbidden)
    monkeypatch.setattr(iso, "_encode_two_graph", forbidden)
    before = search_cache_info()
    assert [(canonical_code(h), automorphism_count(h))
            for h in copies] == want
    after = search_cache_info()
    assert after.hits - before.hits == components
    assert after.misses == before.misses


def test_search_miss_leaves_no_faces_on_the_graph():
    # a miss builds faces for the encoding only: the graph it canonizes,
    # which a caller may keep (hopf.REGISTRY holds one per class), must
    # not keep them, while faces built before the search stay cached
    for k, g in enumerate(CORPUS.values()):
        fresh = io.document_to_graph(io.graph_to_document(g))
        with_faces = io.document_to_graph(io.graph_to_document(g))
        built = faces(with_faces)
        search_cache_clear()
        canonical_code(fresh)
        search_cache_clear()
        canonical_code(with_faces)
        assert fresh.derived.faces is None, k
        assert with_faces.derived.faces is built, k


def strand_relabelled(g, strand_colour, rng):
    """Copy of a 2-graph, and of its strand decoration, with only its
    strand labels renamed at random (vertex and half-edge labels kept)."""
    names = [f"z{i}" for i in range(len(g.strands))]
    rng.shuffle(names)
    smap = dict(zip(g.strands, names))
    return (relabel(g, smap=smap), None if strand_colour is None else
            {smap[s]: c for s, c in strand_colour.items()})


def test_strand_labels_leave_the_two_graph_encoding_alone(monkeypatch):
    # the encoding depends on vertex and half-edge positions, the
    # structure maps and the decorations, not on the strand labels: a copy
    # with only its strands renamed is encoded alike, so canonizing it
    # after the original runs no search, and its generators are still
    # automorphisms
    from strandhopf.series import _merge_marks, instantiate_dressed
    rng = random.Random(1718)
    cases = [(g, None, None) for g in fixtures.all_fixtures().values()]
    cases += [(io.document_to_graph(e["graph"]), None, None)
              for e in corpus_entries()]
    for name in ("gw4", "mq3", "bgr", "gw4-generic"):
        for dt in preset(name).dressed_types():
            inst, col, par, ori = instantiate_dressed(dt, "t")
            cases.append((inst, _merge_marks(col, ori), par))
    assert any(sc is not None and hm is not None for _, sc, hm in cases)
    searches = []
    counted = iso._canon_connected

    def counting(*args, **kwargs):
        searches.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(iso, "_canon_connected", counting)
    moved = brute = 0
    for k, (g, sc, hm) in enumerate(cases):
        copy, copy_sc = strand_relabelled(g, sc, rng)
        for c, d in zip(connected_components(g), connected_components(copy)):
            assert _encode_two_graph(c, sc, hm)[:2] == \
                _encode_two_graph(d, copy_sc, hm)[:2], k
            moved += iso._positional_key(c, sc, hm) != \
                iso._positional_key(d, copy_sc, hm)
        search_cache_clear()
        want = (canonical_code(g, sc, hm), iso._two_parts(g, sc, hm))
        searches.clear()
        assert (canonical_code(copy, copy_sc, hm),
                iso._two_parts(copy, copy_sc, hm)) == want, k
        assert not searches, k
        if g.n_edges() <= 2 and len(g.strands) <= 24:
            brute += 1
            every = [jh for jh, _ in
                     oracles.brute_two_graph_automorphisms(copy, copy_sc, hm)]
            for gen in iso.automorphism_generators(copy, copy_sc, hm):
                assert {h: gen.get(h, h) for h in copy.half_edges} in every, k
    assert moved >= len(cases) // 2 and brute >= 90


def orbit_partition(items, maps, image):
    """The orbits of ``items`` under the group that ``maps`` generate,
    each found by closing one item under the maps."""
    orbits, seen = set(), set()
    for x in items:
        if x in seen:
            continue
        orbit, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for m in maps:
                z = image(m, y)
                if z not in orbit:
                    orbit.add(z)
                    todo.append(z)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def decorated_growth_graphs(monkeypatch):
    """(graph, strand colour, half mark) of the growth parents of gw4 (a
    map theory, orientation marks) and mq3 (coloured) up to two edges,
    with the decorations their growth group keeps, and of the gw4-generic
    parents undecorated."""
    from strandhopf import series
    found = []
    real = series._grow

    def recording(level, dtypes, slots, klass, budget):
        found.extend((g,) + series._group_dressing(klass, dressing)
                     for g, dressing, _ in level.values())
        return real(level, dtypes, slots, klass, budget)

    monkeypatch.setattr(series, "_grow", recording)
    for name in ("gw4", "mq3", "gw4-generic"):
        theory = preset(name)
        series.connected_classes(theory.dressed_types(), theory.klass, 2)
    return [case for case in found if len(case[0].half_edges) <= 8]


def test_automorphism_generators_give_brute_force_orbits(monkeypatch):
    # the half-edge orbits and the orbits of pairs of external half-edges
    # under the generators must be those under every automorphism, which
    # the oracle enumerates; the pair and half-edge orbit leaders that
    # growth joins are the first pairs and half-edges of those orbits
    from strandhopf.series import _orbit_leaders, _pair_orbit_leaders
    rng = random.Random(1998)
    small = [g for g in CORPUS.values() if len(g.half_edges) <= 8]
    melon = fixtures.all_fixtures()["rank3_melon"]
    tadpole = fixtures.all_fixtures()["quartic_tadpole_same"]
    cases = [(g, None, None) for g in small]
    cases += [(oracles.random_relabelled(g, rng), None, None) for g in small]
    cases += [(disjoint_union(parts), None, None)
              for parts in ([melon, melon], [melon, tadpole, melon],
                            [tadpole, tadpole])]
    decorated = decorated_growth_graphs(monkeypatch)
    assert any(sc is not None and hm is not None for _, sc, hm in decorated)
    cases += decorated
    point = lambda m, h: m.get(h, h)
    pair = lambda m, p: frozenset(m.get(h, h) for h in p)
    for k, (g, sc, hm) in enumerate(cases):
        gens = iso.automorphism_generators(g, sc, hm)
        every = [jh for jh, _ in
                 oracles.brute_two_graph_automorphisms(g, sc, hm)]
        assert orbit_partition(g.half_edges, gens, point) == \
            orbit_partition(g.half_edges, every, point), k
        ext = sorted(g.external_half_edges())
        pairs = [frozenset(p) for p in itertools.combinations(ext, 2)]
        want = orbit_partition(pairs, every, pair)
        assert orbit_partition(pairs, gens, pair) == want, k
        firsts = [p for p in pairs
                  if all(pairs.index(q) >= pairs.index(p)
                         for orbit in want if p in orbit for q in orbit)]
        assert [frozenset(p) for p in _pair_orbit_leaders(ext, gens)] == \
            firsts, k
        ends = orbit_partition(ext, every, point)
        assert _orbit_leaders(ext, gens) == \
            [h for h in ext if h == min(next(o for o in ends if h in o))], k


def test_vertex_classes_equal_the_vertex_graph_classes():
    # iso.vertex_classes reads the (code, |Aut|) of each vertex graph from
    # the integer view; vertex by vertex it equals the canonization of the
    # built vertex graph, on the fixtures, the corpus classes and random
    # relabellings of both (bgr's double-dipole vertices have two
    # components, and so "U(...)" codes), and on the small vertex graphs
    # |Aut| is the brute-force count
    rng = random.Random(2626)
    graphs = list(CORPUS.values())
    graphs += [io.document_to_graph(e["graph"]) for e in corpus_entries()]
    graphs += [oracles.random_relabelled(g, rng) for g in list(graphs)]
    graphs += [TwoGraph.make([], [], [], {}, {}),
               TwoGraph.make(["v"], [], [], {}, {})]
    brute, multi = {}, 0
    for k, g in enumerate(graphs):
        got = iso.vertex_classes(g)
        assert g.derived.vertex_classes is got
        want = []
        for v in g.vertices:
            vg = vertex_graph(g, v)
            want.append(iso._canon_one(vg))
            cost = factorial(len(vg.vertices))
            for u in vg.vertices:
                cost *= factorial(vg.degree(u))
            if cost <= 40000 and want[-1][0] not in brute:
                brute[want[-1][0]] = \
                    oracles.brute_one_graph_automorphism_count(vg)
            assert brute.get(want[-1][0], want[-1][1]) == want[-1][1], k
        assert list(got) == want, k
        multi += sum(code.startswith("U(") for code, _ in got)
    assert len(graphs) > 700 and len(brute) >= 5 and multi > 0
    assert iso.vertex_classes(graphs[-1]) == (("empty", 1),)


def test_vertex_graphs_share_the_keys_of_the_vertex_classes(monkeypatch):
    # vertex_classes and a built vertex graph split and encode alike, so
    # after vertex_classes(G) the code of each vertex graph of G is read
    # from the memo by its encoding keys, with no first path descended
    calls = [0]
    real = iso._first_path

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(iso, "_first_path", counting)
    search_cache_clear()
    # fresh graphs, whose vertex classes are not kept yet
    graphs = list(fixtures.all_fixtures().values())
    graphs += [io.document_to_graph(e["graph"]) for e in corpus_entries()]
    for k, g in enumerate(graphs):
        assert g.derived.vertex_classes is None, k
        codes = [code for code, _ in iso.vertex_classes(g)]
        calls[0] = 0
        assert [one_graph_code(vertex_graph(g, v)) for v in g.vertices] \
            == codes, k
        assert calls[0] == 0, k
    search_cache_clear()


def test_one_graph_iso_order_does_not_depend_on_the_memo(monkeypatch):
    # the isomorphisms are listed sorted by encoding node map, so the list
    # is the same from a cold memo, from a memo warmed by a relabelled
    # copy of the source (whose entry then answers by the 1-graph code
    # key, with carried generators, at least sometimes), and with a memo
    # of 64 keys that keeps emptying; the set is the brute-force one
    rng = random.Random(2627)
    graphs = list(COLLAPSED.values()) + [random_one_graph(rng)
                                         for _ in range(40)]
    graphs += [disjoint_union([g, h]) for g, h in zip(graphs[::7],
                                                      graphs[1::7])]
    graphs += [cycle_one_graph(n) for n in range(3, 7)]
    graphs += [dt.graph for name in ("gw4", "mq3", "bgr")
               for dt in preset(name).dressed_types()]
    pairs = [(g, relabelled_one_graph(g, rng)) for g in graphs]
    hits = []
    real = iso._lookup

    def lookup(key):
        entry = real(key)
        hits.append(key[0] == "one-code" and entry is not None)
        return entry

    monkeypatch.setattr(iso, "_lookup", lookup)
    cold = []
    for g, h in pairs:
        search_cache_clear()
        cold.append(iso_list(iso.enumerate_one_graph_isos(g, h)))
    code_hits = 0
    for k, (g, h) in enumerate(pairs):
        search_cache_clear()
        one_graph_code(relabelled_one_graph(g, rng))
        hits.clear()
        assert iso_list(iso.enumerate_one_graph_isos(g, h)) == cold[k], k
        code_hits += any(hits)
        assert set(cold[k]) == \
            set(iso_list(oracles.brute_one_graph_isos(g, h))), k
        assert len(cold[k]) == one_graph_automorphism_count(g), k
    assert code_hits >= 10
    monkeypatch.setattr(iso, "_SEARCH_MEMO_BOUND", 64)
    search_cache_clear()
    for k, (g, h) in enumerate(pairs * 3):
        assert iso_list(iso.enumerate_one_graph_isos(g, h)) == \
            cold[k % len(pairs)], k
    search_cache_clear()
