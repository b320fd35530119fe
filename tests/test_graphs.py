import random

import pytest

import oracles
from strandhopf import fixtures, io, iso
from strandhopf.graphs import (GraphError, OneGraph, TwoGraph, boundary,
                               boundary_components, connected_components,
                               disjoint_union, euler_characteristic, faces,
                               from_combinatorial_map, internal_face_count,
                               is_bridgeless, is_connected, relabel, residue,
                               skeleton, subgraph_with_edges, to_complex,
                               validate, vertex_graph, vertex_graphs_multiset,
                               vertex_graphs_union)
from test_iso import corpus_entries

CORPUS = fixtures.all_fixtures()


def test_corpus_validates():
    for name, g in CORPUS.items():
        rep = validate(g)
        assert rep.valid, (name, rep.violations)


def test_make_rejects_edge_without_strand_pairing():
    # half-edges a and b form an edge, yet their sections stay fixed
    with pytest.raises(GraphError):
        TwoGraph.make(["v"], ["a", "b"], ["a.1", "b.1"],
                      {"a": "v", "b": "v"},
                      {"a.1": "a", "b.1": "b"},
                      iota_pairs=[("a", "b")],
                      sigma1_pairs=[("a.1", "b.1")],
                      sigma2_pairs=[])


def test_sigma1_must_cover_every_section():
    # a section without a vertex-local partner is rejected
    with pytest.raises(GraphError):
        TwoGraph.make(["v"], ["a", "b"], ["a.1", "b.1", "b.2"],
                      {"a": "v", "b": "v"},
                      {"a.1": "a", "b.1": "b", "b.2": "b"},
                      iota_pairs=[], sigma1_pairs=[("a.1", "b.1")],
                      sigma2_pairs=[])


def test_sigma2_requires_matching_edge():
    # pairing strands across half-edges that are not an edge
    with pytest.raises(GraphError):
        TwoGraph.make(["v", "w"], ["a", "b"], ["a.1", "a.2", "b.1", "b.2"],
                      {"a": "v", "b": "w"},
                      {"a.1": "a", "a.2": "a", "b.1": "b", "b.2": "b"},
                      iota_pairs=[],
                      sigma1_pairs=[("a.1", "a.2"), ("b.1", "b.2")],
                      sigma2_pairs=[("a.1", "b.1")])


def test_sigma1_must_stay_inside_a_vertex():
    with pytest.raises(GraphError):
        TwoGraph.make(["v", "w"], ["a", "b"], ["a.1", "a.2", "b.1", "b.2"],
                      {"a": "v", "b": "w"},
                      {"a.1": "a", "a.2": "a", "b.1": "b", "b.2": "b"},
                      iota_pairs=[("a", "b")],
                      sigma1_pairs=[("a.1", "b.1"), ("a.2", "b.2")],
                      sigma2_pairs=[("a.1", "b.1"), ("a.2", "b.2")])


# ---------------------------------------------------------------------------
# faces


def test_face_counts_match_chain_oracle_on_corpus():
    for name, g in CORPUS.items():
        internal, external = faces(g)
        oi, oe = oracles.chain_face_counts(g)
        assert (len(internal), len(external)) == (oi, oe), name


def test_fish_face_counts():
    internal, external = faces(fixtures.fish(1, 2))
    assert len(external) == 8
    assert len(internal) == 2
    internal, external = faces(fixtures.fish(1, 1))
    assert len(external) == 8
    assert len(internal) == 3


def test_fish_has_32_sections_and_4_externals():
    g = fixtures.fish(1, 2)
    assert len(g.strands) == 32
    assert len(g.external_half_edges()) == 4
    assert all(g.strand_degree(h) == 4 for h in g.half_edges)


def test_external_faces_end_on_fixed_sections():
    for g in CORPUS.values():
        internal, external = faces(g)
        for f in external:
            assert g.sigma2[f.sections[0]] == f.sections[0]
            assert g.sigma2[f.sections[-1]] == f.sections[-1]
        for f in internal:
            assert len(f.sections) % 2 == 0 and len(f.sections) >= 2


def test_faces_partition_the_sections():
    for g in CORPUS.values():
        internal, external = faces(g)
        seen = [s for f in internal + external for s in f.sections]
        assert sorted(map(repr, seen)) == sorted(map(repr, g.strands))


def mixed_labelled(g, rng):
    """Copy of ``g`` whose labels are a random mix of ints and strings,
    some of them equal as text (such as 3 and "3")."""
    def names(labels):
        out = list(range(len(labels)))
        rng.shuffle(out)
        return {x: (k if rng.random() < 0.5 else str(k))
                for x, k in zip(labels, out)}

    return relabel(g, names(g.vertices), names(g.half_edges),
                   names(g.strands))


def test_faces_walked_in_strand_order_match_the_sorting_walk():
    # each walk starts at the least unvisited section, so the chains need
    # no reorientation, rotation or sorting: the faces equal those of the
    # reference that does all three, on the corpus, random relabellings
    # and labels that mix ints and strings
    rng = random.Random(19)
    graphs = list(CORPUS.values())
    graphs += [io.document_to_graph(e["graph"]) for e in corpus_entries()]
    cases = 0
    for k, g in enumerate(graphs):
        for h in (g, oracles.random_relabelled(g, rng),
                  mixed_labelled(g, rng)):
            assert faces(h) == oracles.sorted_walk_faces(h), k
            cases += 1
    assert cases >= 3 * 344


# ---------------------------------------------------------------------------
# vertex graphs and boundary


def test_fish_vertex_graph_is_bipartite_quartic():
    g = fixtures.fish(1, 2)
    vg = vertex_graph(g, "u")
    assert sorted(vg.vertices) == ["e1", "e2", "x1", "x2"]
    assert all(vg.degree(n) == 4 for n in vg.vertices)
    # bipartition: the two whites never share an edge, nor the two blacks
    whites, blacks = {"x2", "e1"}, {"x1", "e2"}
    for h in vg.half_edges:
        a, b = vg.attach[h], vg.attach[vg.pairing[h]]
        assert not (a in whites and b in whites)
        assert not (a in blacks and b in blacks)


def test_vertex_graph_rejects_unknown_vertex():
    g = fixtures.fish(1, 2)
    vertex_graph(g, "u")     # the half-edge index is built and then read
    for v in ("nowhere", "e1"):   # "e1" is a half-edge, not a vertex
        with pytest.raises(GraphError, match="unknown vertex"):
            vertex_graph(g, v)
    with pytest.raises(GraphError, match="unknown vertex"):
        vertex_graph(fixtures.fish(1, 2), "nowhere")   # before any index


def test_fish_vertex_graphs_are_two_isomorphic_quartics():
    g = fixtures.fish(1, 2)
    entries = vertex_graphs_multiset(g)
    assert len(entries) == 2
    assert iso.one_graphs_isomorphic(entries[0], entries[1])


def test_fish_boundary_two_dipoles():
    b = fixtures.fish_boundary(1, 2)
    comps = b.components()
    assert len(comps) == 2
    for vs in comps:
        c = b.induced(vs)
        assert len(c.vertices) == 2
        assert c.n_edges() == 4


def test_boundary_of_double_fish():
    g = fixtures.fish(1, 2)
    gg = disjoint_union([g, g])
    assert len(boundary(gg).components()) == 4
    per_comp = boundary_components(gg)
    assert len(per_comp) == 2
    for b in per_comp:
        assert len(b.components()) == 2


def test_residue_of_fish():
    same = residue(fixtures.fish(1, 1))
    mixed = residue(fixtures.fish(1, 2))
    for r in (same, mixed):
        assert len(r.vertices) == 1
        assert r.n_edges() == 0
        assert len(r.half_edges) == 4
    assert len(vertex_graph(same, same.vertices[0]).components()) == 1
    assert len(vertex_graph(mixed, mixed.vertices[0]).components()) == 2


def test_residue_of_an_edgeless_graph_is_the_graph(monkeypatch):
    # contracting no edges would copy the graph: the residue is the graph
    # itself, with the boundary code of that copy, and nothing contracts
    from strandhopf import graphs
    edgeless = [skeleton(g) for g in CORPUS.values()]
    edgeless.append(disjoint_union(edgeless[:3]))
    want = [iso.one_graph_code(vertex_graphs_union(
        graphs._contract_edges(g, ()))) for g in edgeless]
    calls, real = [], graphs._contract_edges

    def contract(G, edges):
        calls.append(edges)
        return real(G, edges)

    monkeypatch.setattr(graphs, "_contract_edges", contract)
    assert all(residue(g) is g for g in edgeless)
    assert [iso.one_graph_code(boundary(g)) for g in edgeless] == want
    assert calls == []
    residue(fixtures.fish(1, 2))
    assert len(calls) == 1 and calls[0]


def test_skeleton_forgets_edges_only():
    g = fixtures.fish(1, 2)
    s = skeleton(g)
    assert s.n_edges() == 0
    assert s.vertices == g.vertices
    assert s.half_edges == g.half_edges
    assert s.sigma1 == g.sigma1


def test_subgraph_with_edges_rejects_non_edges():
    g = fixtures.fish(1, 2)
    with pytest.raises(GraphError):
        subgraph_with_edges(g, [("x1", "x2")])


# ---------------------------------------------------------------------------
# complex view, Euler characteristic, connectivity


def test_fish_complex_is_pure_and_two_dimensional():
    rep = to_complex(fixtures.fish(1, 2))
    assert rep.pure
    assert rep.two_dimensional
    assert len(rep.cells[0]) == 2
    assert len(rep.cells[1]) == 2 + 4   # two edges, four external half-edges
    assert len(rep.cells[2]) == 10


def test_euler_characteristic_closed_fixtures():
    assert euler_characteristic(fixtures.bipartite_torus()) == 0
    assert euler_characteristic(fixtures.bipartite_sphere()) == 2
    assert euler_characteristic(fixtures.crossing_tadpole()) == 0
    assert euler_characteristic(fixtures.nested_tadpole()) == 2


def test_connectivity_and_bridges():
    g = fixtures.fish(1, 2)
    assert is_connected(g)
    assert is_bridgeless(g)
    m = fixtures.melon_two_point()
    assert is_connected(m)
    assert not is_bridgeless(m)   # cutting its single edge splits the chain
    t = fixtures.quartic_tadpole("same")
    assert is_bridgeless(t)       # a self-loop never counts as a bridge
    two = disjoint_union([g, m])
    assert not is_connected(two)
    assert len(connected_components(two)) == 2
    assert not is_bridgeless(two)  # the chain's bridge next to the fish
    assert is_bridgeless(disjoint_union([g, t]))


def split_copies(G):
    """The components of ``G`` as fresh graphs, in the order of their
    least vertices: each vertex set reachable over edges, with the
    half-edges and strands on it and the five maps restricted to them."""
    out, done = [], set()
    for v in G.vertices:
        if v in done:
            continue
        vs, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for h in G.half_edges_at(u):
                w = G.nu[G.iota[h]]
                if w not in vs:
                    vs.add(w)
                    todo.append(w)
        done |= vs
        hs = [h for h in G.half_edges if G.nu[h] in vs]
        ss = [s for s in G.strands if G.mu[s] in hs]
        out.append(TwoGraph(vs, hs, ss, {h: G.nu[h] for h in hs},
                            {s: G.mu[s] for s in ss},
                            {h: G.iota[h] for h in hs},
                            {s: G.sigma1[s] for s in ss},
                            {s: G.sigma2[s] for s in ss}))
    return out


def fields(G):
    return (G.vertices, G.half_edges, G.strands, G.nu, G.mu, G.iota,
            G.sigma1, G.sigma2)


def test_connected_graph_is_its_own_component():
    # a connected graph comes back as the same object (so its cached faces
    # and code serve its component); a disconnected one splits into fresh
    # graphs as before; codes and orders do not depend on which
    graphs = list(fixtures.all_fixtures().values())
    graphs += [io.document_to_graph(e["graph"]) for e in corpus_entries()]
    names = sorted(CORPUS)
    unions = [disjoint_union([CORPUS[a], CORPUS[b], CORPUS[a]])
              for a, b in zip(names, names[1:])]
    connected = 0
    for g in graphs + unions:
        comps = connected_components(g)
        copies = split_copies(g)
        assert [fields(c) for c in comps] == [fields(c) for c in copies]
        if len(comps) == 1:
            connected += 1
            assert comps[0] is g and is_connected(g)
        else:
            assert all(c is not g and is_connected(c) for c in comps)
        for c, copy in zip(comps, copies):
            iso.search_cache_clear()
            want = iso.canonical_code(copy), iso.automorphism_count(copy)
            assert (iso.canonical_code(c), iso.automorphism_count(c)) == want
    assert connected >= 344
    assert connected_components(TwoGraph.make([], [], [], {}, {})) == ()


def test_derived_data_matches_a_fresh_computation(monkeypatch):
    # every graph materialized while splitting corpus classes and unions,
    # expanding their coproducts into an empty registry and contracting
    # their subgraphs (components, pieces, contractions) has the integer
    # view and edge pairs of a fresh graph built from its maps, and one
    # whose kept partition has one group has a single group when found
    # from scratch; a contraction of a connected graph is marked so
    from strandhopf import hopf
    from strandhopf.graphs import (_connected_groups,
                                   _known_connected as known_connected)
    from strandhopf.rewrite import subgraphs
    built = []
    real = hopf._materialized

    def materialized(*args):
        out = real(*args)
        built.append(out)
        return out

    monkeypatch.setattr("strandhopf.graphs._materialized", materialized)
    monkeypatch.setattr(hopf, "_materialized", materialized)
    monkeypatch.setattr(hopf, "REGISTRY", {})
    graphs = [io.document_to_graph(e["graph"]) for e in corpus_entries()]
    names = sorted(CORPUS)
    graphs += [disjoint_union([CORPUS[a], CORPUS[b]])
               for a, b in zip(names, names[1:])]
    contracted = 0
    for g in graphs:
        connected_components(g)
        hopf._coproduct.__wrapped__(hopf.intern_graph(g))
        for s in subgraphs(g):
            out = s.contract()
            if known_connected(g):
                contracted += 1
                assert known_connected(out)
    marked = 0
    for k, G in enumerate(built):
        fresh = TwoGraph(G.vertices, G.half_edges, G.strands, G.nu, G.mu,
                         G.iota, G.sigma1, G.sigma2)
        assert G.view() == fresh.view(), k
        assert G.edge_pairs() == oracles.involution_pairs(G.iota), k
        if known_connected(G):
            marked += 1
            nu = G.nu
            assert len(_connected_groups(G.vertices, (
                (nu[a], nu[b]) for a, b in G.edge_pairs()))) == 1, k
    assert marked > len(built) // 2
    assert contracted > 1000


def test_map_constructor_matches_face_oracle():
    rots = [(1, 2, 3, 4), (5, 7, 6, 8), (9, 10), (11, 12)]
    edges = [(1, 5), (2, 6), (3, 9), (4, 10), (7, 11), (8, 12)]
    g = from_combinatorial_map(list(range(1, 13)), {
        h: rot[(i + 1) % len(rot)] for rot in rots for i, h in enumerate(rot)
    }, edges)
    assert internal_face_count(g) == oracles.map_face_count(rots, edges)


def test_one_graph_components():
    b = fixtures.fish_boundary(1, 2)
    assert isinstance(b, OneGraph)
    assert len(b.components()) == 2
    assert b.external() == ()


# ---------------------------------------------------------------------------
# the integer view as the structure: position builders, label-map readers

MAPS = ("nu", "mu", "iota", "sigma1", "sigma2")


def _mapped(G, fv, fh, fs):
    """Constructor arguments of ``G`` with its labels sent through ``fv``,
    ``fh`` and ``fs``, built on its label dicts."""
    return ([fv(v) for v in G.vertices], [fh(h) for h in G.half_edges],
            [fs(s) for s in G.strands],
            {fh(h): fv(v) for h, v in G.nu.items()},
            {fs(s): fh(h) for s, h in G.mu.items()},
            {fh(h): fh(k) for h, k in G.iota.items()},
            {fs(s): fs(t) for s, t in G.sigma1.items()},
            {fs(s): fs(t) for s, t in G.sigma2.items()})


def _dict_union(graphs, maps):
    acc = ([], [], [], {}, {}, {}, {}, {})
    for g, f in zip(graphs, maps):
        for a, p in zip(acc, _mapped(g, f, f, f)):
            if isinstance(a, dict):
                a.update(p)
            else:
                a.extend(p)
    return TwoGraph(*acc)


def _mixed_relabelling(G, rng):
    """``G`` under random label bijections onto labels that mix negative
    ints, floats and strings, so that the label order changes."""
    def shuffled(xs, tag):
        pool = [(-k - 1, k + 0.5, f"{tag}{k}")[k % 3] for k in range(len(xs))]
        rng.shuffle(pool)
        return dict(zip(xs, pool))
    return (shuffled(G.vertices, "v"), shuffled(G.half_edges, "h"),
            shuffled(G.strands, "s"))


def _same_graph(got, want, what):
    assert (got.vertices, got.half_edges, got.strands) == \
        (want.vertices, want.half_edges, want.strands), what
    for name in MAPS:
        assert getattr(got, name) == getattr(want, name), (what, name)
    assert got.view() == want.view(), what


def test_position_builders_match_a_label_dict_build():
    # relabel, disjoint_union, skeleton, subgraph_with_edges and insert
    # build views; each equals the public constructor on label dicts
    from strandhopf.graphs import _union_labels
    from strandhopf.rewrite import insert, insertions, subgraphs
    rng = random.Random(33)
    graphs = []
    for name, g in CORPUS.items():
        maps = _mixed_relabelling(g, rng)
        want = TwoGraph(*_mapped(g, *(m.get for m in maps)))
        got = relabel(g, *maps)
        _same_graph(got, want, name)
        graphs += [(name, g), (f"{name} relabelled", got)]
    for name, g in graphs:
        want = TwoGraph(*_mapped(g, *(lambda x: x,) * 3))
        _same_graph(relabel(g), want, name)
        _same_graph(skeleton(g), TwoGraph(
            g.vertices, g.half_edges, g.strands, g.nu, g.mu,
            {h: h for h in g.half_edges}, g.sigma1,
            {s: s for s in g.strands}), name)
        for k in range(len(g.edge_pairs()) + 1):
            kept = g.edge_pairs()[k:] if k % 2 else g.edge_pairs()[:k]
            in_h = {h for p in kept for h in p}
            _same_graph(subgraph_with_edges(g, kept), TwoGraph(
                g.vertices, g.half_edges, g.strands, g.nu, g.mu,
                {h: g.iota[h] if h in in_h else h for h in g.half_edges},
                g.sigma1, {s: g.sigma2[s] if g.mu[s] in in_h else s
                           for s in g.strands}), (name, kept))
        if g.n_edges() <= 3:
            for s in subgraphs(g)[1:4]:
                H, G2 = s.materialize(), s.contract()
                for ins in insertions(H, G2)[:3]:
                    inv_h = {b: a for a, b in ins.half_edge_map().items()}
                    inv_s = {b: a for a, b in ins.strand_map().items()}
                    iota, sigma2 = dict(H.iota), dict(H.sigma2)
                    iota.update((inv_h[a], inv_h[b])
                                for a, b in G2.iota.items() if a != b)
                    sigma2.update((inv_s[a], inv_s[b])
                                  for a, b in G2.sigma2.items() if a != b)
                    _same_graph(insert(G2, H, ins), TwoGraph(
                        H.vertices, H.half_edges, H.strands, H.nu, H.mu,
                        iota, H.sigma1, sigma2), (name, s.edges))
    # more than ten graphs: "10:" sorts before "2:"; labels of every kind
    members = [g for _, g in graphs][:13]
    for sub in (members[:2], members[3:5], members):
        _same_graph(disjoint_union(sub),
                    _dict_union(sub, _union_labels(sub)), len(sub))
    fish = CORPUS["fish_mixed"]
    other = relabel(fish, *_mixed_relabelling(fish, rng))
    for pair in ([fish, other], [other, fish]):
        _same_graph(disjoint_union(pair, prefix=False),
                    _dict_union(pair, [lambda x: x] * 2), "unprefixed")
    assert disjoint_union([]).view() == TwoGraph(
        [], [], [], {}, {}, {}, {}, {}).view()


# the package functions that may read a 2-graph's label maps: validation,
# the cell complex, the document writers and the constructors from maps
MAP_READERS = {"graphs.validate", "graphs.to_complex",
               "graphs.from_combinatorial_map", "graphs.from_coloured_graph",
               "io.graph_to_document", "io.to_dot"}


def _function_names():
    """Each code object of the package, those of its comprehensions and
    nested functions included, mapped to "module.function" of the
    function or method it is written in."""
    import types
    from strandhopf import cli, graphs, hopf, models, rewrite, series
    names = {}

    def walk(code, name):
        names[code] = name
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                walk(c, name)

    for mod in (cli, fixtures, graphs, hopf, io, iso, models, rewrite,
                series):
        short = mod.__name__.rsplit(".", 1)[1]
        for obj in vars(mod).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for f in (obj, *members):
                f = getattr(f, "fget", None) or getattr(f, "__func__", None) \
                    or getattr(f, "func", None) or f
                code = getattr(f, "__code__", None)
                if code is not None and code.co_filename == mod.__file__:
                    walk(code, f"{short}.{f.__qualname__}")
    return names


def test_only_io_validation_and_constructors_read_label_maps(monkeypatch):
    import functools
    import sys
    from strandhopf import hopf, models, preset, series
    names, readers = _function_names(), set()

    def recorded(name):
        real = vars(TwoGraph).get(name)

        def get(G):
            frame = sys._getframe(1)
            module = frame.f_globals.get("__name__", "")
            if module.startswith("strandhopf"):
                readers.add(names.get(frame.f_code, f"{module}."
                                      f"{frame.f_code.co_name}"))
            return G.__dict__[name] if real is None else real.__get__(G)

        def put(G, value):
            G.__dict__[name] = value
        return property(get, put)

    for name in MAPS:
        monkeypatch.setattr(TwoGraph, name, recorded(name), raising=False)
    for memo in ("_coproduct", "_antipode"):
        monkeypatch.setattr(hopf, memo, functools.cache(
            getattr(hopf, memo).__wrapped__))
    theories = {name: preset(name) for name in ("gw4", "mq3", "bgr")}
    for name, edges in (("gw4", 2), ("mq3", 2), ("bgr", 1)):
        series.enumerate_diagrams(theories[name], edges)
    for name in ("gw4", "mq3"):
        assert series.check_central_identity(theories[name], 1).passed
    for g in fixtures.all_fixtures().values():
        hopf.coproduct(g)
        hopf.antipode(g)
        for theory in theories.values():
            try:    # a fixture's vertex types may lie outside the theory
                models.classify(theory, g)
                models.superficial_degree(theory, g)
            except GraphError:
                pass
    assert readers <= MAP_READERS, sorted(readers - MAP_READERS)
