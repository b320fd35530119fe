"""Subgraphs, contraction, insertion, and their duality."""

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

import oracles
from strandhopf import fixtures, io, iso, preset
from strandhopf import (
    GraphError,
    are_isomorphic,
    boundary,
    connected_components,
    contract,
    disjoint_union,
    insert,
    insertions,
    residue,
    subgraphs,
    validate,
    vertex_graph,
)
from strandhopf.iso import boundary_multiset_aut_count
from strandhopf.models import (Theory, dipole_type, double_dipole_type,
                               melonic_quartic_type)
from strandhopf.rewrite import InsertionMap
from strandhopf.series import closed_universe

CORPUS = fixtures.all_fixtures()


def test_subgraph_lattice_size_and_order():
    for name, g in CORPUS.items():
        subs = subgraphs(g)
        assert len(subs) == 2 ** g.n_edges(), name
        assert subs[0].is_skeleton
        assert subs[-1].is_full
        seen = {s.edges for s in subs}
        assert len(seen) == len(subs), name


def test_contract_nothing_is_identity():
    for name, g in CORPUS.items():
        h = contract(g, ())
        assert h.iota == g.iota and h.sigma1 == g.sigma1 \
            and h.sigma2 == g.sigma2, name


def test_fish_contractions():
    for c2 in (1, 2):
        g = fixtures.fish(1, c2)
        subs = subgraphs(g)
        assert len(subs) == 4
        one_edge = [s for s in subs if len(s.edges) == 1]
        cographs = [s.contract() for s in one_edge]
        for h in cographs:
            assert len(h.vertices) == 1
            assert h.n_edges() == 1
            assert len(h.half_edges) == 6
            assert len(h.external_half_edges()) == 4
        assert are_isomorphic(cographs[0], cographs[1])
        full = contract(g, g.edge_pairs())
        assert are_isomorphic(full, residue(g))
        n_comp = len(vertex_graph(full, full.vertices[0]).components())
        assert n_comp == (1 if c2 == 1 else 2)


def test_contractions_stay_valid_and_shrink():
    for name, g in CORPUS.items():
        if g.n_edges() > 3:
            continue
        for s in subgraphs(g):
            h = s.contract()
            assert validate(h).valid, (name, s.edges)
            assert h.n_edges() == g.n_edges() - len(s.edges)
            assert len(h.external_half_edges()) == \
                len(g.external_half_edges())


def test_contract_matches_materialized_contraction():
    # the contraction walks the parent's strands; it must build the graph
    # that pairing the external faces of the materialized subgraph builds,
    # field by field, on every edge subset of a corpus stride, its
    # relabellings and the fixtures
    from test_series import graph_fields   # test_series imports this file
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
        "corpus.json"
    entries = json.loads(path.read_text(encoding="utf-8"))["graphs"]
    rng = random.Random(2000)
    graphs = [io.document_to_graph(e["graph"]) for e in entries[::12]]
    graphs += [oracles.random_relabelled(g, rng) for g in graphs]
    graphs += list(CORPUS.values())
    for g in graphs:
        for s in subgraphs(g):
            assert graph_fields(contract(g, s.edges)) == graph_fields(
                oracles.materialized_contract(g, s.edges)), s.edges


def growth_children():
    """Growth children (``rewrite._with_edges``) of the connected corpus
    graphs: joining two of their external half-edges ("pair"), or one of
    them to a half-edge of a new vertex beside them ("new vertex")."""
    from strandhopf.rewrite import _glue_options, _with_edges
    names = sorted(CORPUS)
    parents = [CORPUS[n] for n in names
               if len(connected_components(CORPUS[n])) == 1]
    children = {"pair": [], "new vertex": []}
    for g, other in zip(parents, parents[1:] + parents[:1]):
        ext = g.external_half_edges()
        for pair in list(zip(ext, ext[1:]))[:3]:
            for opt in _glue_options(g, pair)[:2]:
                children["pair"].append(_with_edges(g, [pair], opt))
        u = disjoint_union([g, residue(other)])
        v = u.vertices[-1]  # the residue's one vertex, labelled "1..."
        old = [h for h in u.external_half_edges() if u.nu[h] != v]
        for pair in [(h, k) for h in old for k in u.half_edges_at(v)][:6]:
            for opt in _glue_options(u, pair)[:2]:
                children["new vertex"].append(_with_edges(u, [pair], opt))
    return children


def test_growth_child_of_a_connected_graph_is_marked_connected(monkeypatch):
    # a growth child joins two external half-edges of a connected graph,
    # or one of them to a half-edge of a new vertex beside it; either way
    # it is connected, its partition is one group, and finding its
    # components runs no union-find and builds no piece
    from strandhopf import graphs
    children = growth_children()
    assert all(len(kids) > 20 for kids in children.values())
    every = children["pair"] + children["new vertex"]
    assert [len(graphs._pieces(c, c.edge_pairs())) for c in every] == \
        [1] * len(every)
    assert all(c.derived.groups == (c.vertices,) for c in every)
    calls = []
    monkeypatch.setattr(graphs, "_pieces", lambda *a: calls.append(a))
    monkeypatch.setattr(graphs, "_piece", lambda *a: calls.append(a))
    for c in every:
        assert connected_components(c) == (c,)
    assert not calls


def test_view_holds_only_the_five_position_lists():
    # a view keeps no label-to-position map, only the five structure maps
    # as lists of positions; a growth child's view, whose iota and sigma2
    # lists are patched copies of its parent's, is that of a fresh graph
    # built from its maps
    from strandhopf.graphs import TwoGraph, View
    assert View._fields == ("nu", "iota", "mu", "sigma1", "sigma2")
    graphs = list(CORPUS.values())
    graphs += [c for kids in growth_children().values() for c in kids]
    for g in graphs:
        fresh = TwoGraph(g.vertices, g.half_edges, g.strands, g.nu, g.mu,
                         g.iota, g.sigma1, g.sigma2)
        view = g.view()
        assert type(view) is View and view == fresh.view()
        assert all(type(x) is list for x in view)
        assert list(map(len, view)) == [len(g.half_edges)] * 2 + \
            [len(g.strands)] * 3
        assert validate(g).valid


@functools.cache
def growth_check(name):
    """``oracles.inherited_view_mismatches`` of a preset up to 2 edges."""
    return oracles.inherited_view_mismatches(preset(name), 2)


@pytest.mark.parametrize("name", ["gw4", "mq3", "bgr", "gw4-generic"])
def test_growth_child_view_and_encoding_match_a_fresh_graph(name):
    # a growth child shares its parent's labels and view arrays and
    # patches iota and sigma2; its view, positional key, face classes and
    # encoding are those of a fresh graph built from its maps, also when
    # the parent is a graph beside a new vertex
    count, new_vertex, bad = growth_check(name)
    assert [b for b in bad if b[1] != "partition"] == []
    assert count > 30 and 0 < new_vertex < count


@pytest.mark.parametrize("name", ["gw4", "mq3", "bgr", "gw4-generic"])
def test_growth_child_partition_matches_a_fresh_union_find(name):
    # every growth child is connected: its partition is one group
    count, new_vertex, bad = growth_check(name)
    assert [b for b in bad if b[1] == "partition"] == []
    assert count > 30 and 0 < new_vertex < count


def test_contract_rejects_non_edges():
    from test_series import graph_fields
    g = fixtures.fish(1, 2)
    (a, b), (c, d) = g.edge_pairs()
    x = g.external_half_edges()[0]
    for bad in ([(a, c)], [(a, b), (b, d)], [(x, x)],
                [(x, g.external_half_edges()[1])], [(a, "nowhere")]):
        with pytest.raises(GraphError):
            contract(g, bad)
    assert graph_fields(contract(g, [(b, a)])) == \
        graph_fields(contract(g, [(a, b)]))


def test_insertion_count_formula_on_fixture_corpus():
    checked = 0
    for name, g in CORPUS.items():
        target = residue(g)
        got = len(insertions(g, target))
        comps = connected_components(g)
        expected = boundary_multiset_aut_count([boundary(c) for c in comps])
        assert got == expected, name
        checked += 1
    assert checked >= 10
    # disjoint unions exercise the wreath factor across components
    g = fixtures.fish(1, 2)
    t = fixtures.quartic_tadpole("same")
    for big in (disjoint_union([t, t]), disjoint_union([g, t])):
        got = len(insertions(big, residue(big)))
        expected = boundary_multiset_aut_count(
            [boundary(c) for c in connected_components(big)])
        assert got == expected


def _identity_insertion(H, G2):
    hs = sorted(H.external_half_edges(), key=str)
    ss = sorted(H.external_strands(), key=str)
    return InsertionMap(H, G2, tuple((h, h) for h in hs),
                        tuple((s, s) for s in ss))


def test_insertion_inverts_contraction():
    for name, g in CORPUS.items():
        if g.n_edges() > 3:
            continue
        for s in subgraphs(g):
            H = s.materialize()
            G2 = s.contract()
            maps = insertions(H, G2)
            comps = connected_components(H)
            assert len(maps) == boundary_multiset_aut_count(
                [boundary(c) for c in comps]), (name, s.edges)
            # contraction keeps labels, so the identity map is present
            back = insert(G2, H, _identity_insertion(H, G2))
            assert back.iota == g.iota and back.sigma2 == g.sigma2, name
            for ins in maps[:20]:
                r = insert(G2, H, ins)
                assert validate(r).valid
                assert are_isomorphic(contract(r, s.edges), G2), \
                    (name, s.edges)


def test_insertions_match_the_brute_force_matcher():
    # insertions from the canonization search's 1-graph isomorphisms are,
    # map for map, those built on the brute-force matcher: on every wide
    # subgraph of every corpus graph, each residue and the disjoint unions
    # of criterion 4
    cases = []
    for g in CORPUS.values():
        cases.append((g, residue(g)))
        cases += [(s.materialize(), s.contract()) for s in subgraphs(g)]
    t = fixtures.quartic_tadpole("same")
    for big in (disjoint_union([t, t]),
                disjoint_union([fixtures.fish(1, 2), t])):
        cases.append((big, residue(big)))
    total = 0
    for k, (H, G2) in enumerate(cases):
        got = [(m.on_half_edges, m.on_strands) for m in insertions(H, G2)]
        assert len(set(got)) == len(got), k
        assert set(got) == oracles.brute_insertions(H, G2), k
        total += len(got)
    assert total > 10000


def test_insertion_order_is_pinned(monkeypatch):
    # the insertion maps of two sources into two targets each, and of a
    # disjoint union into its residue, come in a fixed order (the sha256
    # of their reprs in order) and build no vertex graph: the boundaries
    # and the union of the target's vertex graphs are split into
    # components once
    from strandhopf import graphs, rewrite

    def forbidden(*args):
        raise AssertionError("vertex graph built")

    for module in (graphs, rewrite):
        monkeypatch.setattr(module, "vertex_graph", forbidden, raising=False)
    cases = [(H, G2) for H in (fixtures.melon_two_point(), fixtures.fish(1, 1))
             for G2 in (fixtures.fish(1, 2), fixtures.quartic_tadpole("same"))]
    union = disjoint_union([fixtures.fish(1, 2),
                            fixtures.quartic_tadpole("same")])
    cases.append((union, residue(union)))
    digest, count = hashlib.sha256(), 0
    for H, G2 in cases:
        for m in insertions(H, G2):
            digest.update(repr((m.on_half_edges, m.on_strands)).encode())
            count += 1
    assert count == 221328
    assert digest.hexdigest() == \
        "c74e5a07b9d45eda37364ab52399eacf8f1ff05bc8da792008d0d5c5c39cf64b"


def test_insert_rejects_bad_maps():
    g = fixtures.fish(1, 2)
    s = subgraphs(g)[-1]
    H, G2 = s.materialize(), s.contract()
    good = _identity_insertion(H, G2)
    with pytest.raises(GraphError):
        insert(G2, H, InsertionMap(H, G2, good.on_half_edges[1:],
                                   good.on_strands))
    with pytest.raises(GraphError):
        insert(G2, H, InsertionMap(H, G2, good.on_half_edges,
                                   good.on_strands[2:]))


def test_insertions_reject_mismatched_targets():
    g = fixtures.fish(1, 2)
    assert insertions(g, fixtures.fish(1, 1)) == []
    assert insertions(g, residue(fixtures.melon_two_point())) == []


def generic_theory(*types):
    """Generic-class theory on the given vertex types, unit edge weight."""
    return Theory("closure", "generic", 1, types, ((2, 1),))


def test_closure_reaches_dipole_and_double_dipole():
    q2, d2 = melonic_quartic_type(2), dipole_type(2)
    types, classes = closed_universe(generic_theory(q2), 2)
    codes = {t.plain_code(): t.cost for t in types}
    assert len(codes) == len(types) == 8
    assert codes[q2.plain_code()] == 0
    # both are derived from q2 alone: the dipole as the boundary of a
    # one-edge gluing, the double dipole as that of a two-edge gluing
    assert codes[d2.plain_code()] == 1
    assert codes[double_dipole_type(2).plain_code()] == 2
    # six-slot boundaries stay in the closure, nothing is cut off
    assert any(len(t.graph.vertices) == 6 for t in types)
    assert any(cls.boundary_code == d2.plain_code() and cls.n_edges == 1
               for cls in classes.values())


def test_closure_fixpoint_on_dipole_alone():
    d2 = dipole_type(2)
    types, _ = closed_universe(generic_theory(d2), 2)
    # closing the dipole on itself leaves the empty 0-slot type
    assert {t.plain_code(): t.cost for t in types} == \
        {d2.plain_code(): 0, "empty": 1}
