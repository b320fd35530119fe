"""Canonical forms and automorphism counts against brute-force oracles."""

import hashlib
import itertools
import json
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
from strandhopf.iso import (_canon_search, _encode_one_graph,
                            _encode_two_graph, _one_graph_fields,
                            boundary_multiset_aut_count, search_cache_clear,
                            search_cache_info)
from strandhopf.rewrite import (instantiate_vertex_type, _glue_options,
                                _with_edges)

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
        for vs in g.components():
            # the search's code determines a canonical 1-graph per component
            comp = g.induced(vs)
            found = _canon_search(*_encode_one_graph(comp)[:2])[0]
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
    # no search after the first, and a connected 1-graph is encoded as
    # itself
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
        if len(g.components()) == 1:
            assert _encode_one_graph(g) == \
                _encode_one_graph(g.induced(g.vertices)), k
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
        for vs in b.components():
            out.append((f"{name}:boundary",)
                       + _encode_one_graph(b.induced(vs))[:2])
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
    half-edges, and vertices left unjoined make it disconnected."""
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
        G = _with_edges(G, [pair], rng.choice(_glue_options(G, pair)))
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
    # (each call builds a fresh graph, so only the search memo can answer)
    code_of = {
        "two": lambda: canonical_code(TwoGraph.make(["v"], [], [], {}, {})),
        "one": lambda: one_graph_code(OneGraph.make(["v"], [], {})),
    }
    want = {"two": "(((0,),), ())", "one": "(1, 0, (), ())"}
    assert _encode_two_graph(TwoGraph.make(["v"], [], [], {}, {}))[:2] == \
        _encode_one_graph(OneGraph.make(["v"], [], {}))[:2]
    for order in (("two", "one"), ("one", "two")):
        search_cache_clear()
        for kind in order * 2:
            assert code_of[kind]() == want[kind], order
        assert search_cache_info()[:2] == (2, 2), order
        assert sorted(tag for tag, _ in iso._search_memo) == ["one", "two"]


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
    # is one search
    calls = {"lookups": 0, "searches": 0}

    def counting(name, count):
        counted = getattr(iso, name)

        def wrapper(*args, **kwargs):
            calls[count] += 1
            return counted(*args, **kwargs)
        monkeypatch.setattr(iso, name, wrapper)

    counting("_positional_key", "lookups")
    counting("_encode_one_graph", "lookups")
    counting("_canon_connected", "searches")
    search_cache_clear()
    cold = memo_outputs(random.Random(3))
    info = search_cache_info()
    assert info.hits + info.misses == calls["lookups"]
    assert info.misses == calls["searches"]
    assert info.currsize <= info.maxsize == 1024
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


def test_search_memo_stays_within_its_bound():
    rng = random.Random(11)
    g = max((g for g in CORPUS.values() if is_connected(g)),
            key=lambda g: len(g.strands))
    search_cache_clear()
    keys = set()
    copies = []
    while len(keys) <= search_cache_info().maxsize + 50:
        h = oracles.random_relabelled(g, rng)
        key = iso._positional_key(h)
        if key not in keys:
            keys.add(key)
            copies.append(h)
    code = canonical_code(g)
    for h in copies:
        assert canonical_code(h) == code
        info = search_cache_info()
        assert info.currsize <= info.maxsize
    assert info.currsize == info.maxsize
    # the least recently used entry went first, the latest one stays
    for h, hit in ((copies[-1], 1), (copies[0], 0)):
        before = search_cache_info().hits
        assert canonical_code(io.document_to_graph(
            io.graph_to_document(h))) == code
        assert search_cache_info().hits - before == hit


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
    monkeypatch.setattr("strandhopf.iso.faces", forbidden)
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
        assert fresh._faces is None, k
        assert with_faces._faces is built, k


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
    real = series._extend

    def recording(parents, klass, dressing):
        group = series._group_dressing(klass, dressing)
        found.extend((g,) + group for g in parents)
        return real(parents, klass, dressing)

    monkeypatch.setattr(series, "_extend", recording)
    for name in ("gw4", "mq3", "gw4-generic"):
        theory = preset(name)
        series.connected_classes(theory.dressed_types(), theory.klass, 2)
    return [case for case in found if len(case[0].half_edges) <= 8]


def test_automorphism_generators_give_brute_force_orbits(monkeypatch):
    # the half-edge orbits and the orbits of pairs of external half-edges
    # under the generators must be those under every automorphism, which
    # the oracle enumerates; the pair orbit leaders that growth extends
    # are the first pairs of those orbits
    from strandhopf.series import _pair_orbit_leaders
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
