"""Subgraphs, contraction, insertion, and their duality."""

import json
import random
from pathlib import Path

import pytest

import oracles
from strandhopf import fixtures, io, iso
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


def test_insertions_match_the_brute_force_matcher(monkeypatch):
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
    found = [[(m.on_half_edges, m.on_strands) for m in insertions(H, G2)]
             for H, G2 in cases]
    monkeypatch.setattr(iso, "enumerate_one_graph_isos",
                        oracles.brute_one_graph_isos)
    for k, ((H, G2), got) in enumerate(zip(cases, found)):
        want = {(m.on_half_edges, m.on_strands) for m in insertions(H, G2)}
        assert len(set(got)) == len(got), k
        assert set(got) == want, k
    assert sum(map(len, found)) > 10000


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
