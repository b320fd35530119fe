"""Diagram enumeration, series coefficients, and the coproduct identity."""

import itertools
from fractions import Fraction

import oracles
from strandhopf import fixtures
from strandhopf import (
    automorphism_count,
    boundary,
    check_central_identity,
    enumerate_diagrams,
    internal_face_count,
    preset,
)
from strandhopf.iso import one_graph_code
from strandhopf.models import (Theory, melonic_quartic_type, polygon_type,
                               vertex_weight_tensorial)
from strandhopf.rewrite import _with_edges
from strandhopf.series import instantiate_dressed


def profile(series):
    out = {}
    for t in series.terms:
        key = (len(t.graph.vertices), t.n_edges)
        out[key] = out.get(key, 0) + 1
    return out


def test_gw4_one_edge_classes():
    ts = enumerate_diagrams(preset("gw4"), 1)
    assert len(ts.terms) == 8
    assert profile(ts) == {(1, 0): 2, (1, 1): 3, (2, 1): 3}
    codes = [t.code for t in ts.terms]
    assert len(set(codes)) == 8


def test_quartic_polygon_loops_match_brute_gluing():
    # every way of closing one edge on the quartic polygon, deduped by the
    # brute-force isomorphism oracle
    G, _, _, ori = instantiate_dressed(polygon_type(4), "0")
    classes, orbits = [], []
    for a, b in itertools.combinations(sorted(G.half_edges), 2):
        (o1,) = [s for s in G.strands_at(a) if ori[s] == 1]
        (i1,) = [s for s in G.strands_at(a) if ori[s] == 0]
        (o2,) = [s for s in G.strands_at(b) if ori[s] == 1]
        (i2,) = [s for s in G.strands_at(b) if ori[s] == 0]
        g2 = _with_edges(G, [(a, b)], ((o1, i2), (i1, o2)))
        for i, rep in enumerate(classes):
            if oracles.brute_two_graphs_isomorphic(g2, rep):
                orbits[i] += 1
                break
        else:
            classes.append(g2)
            orbits.append(1)
    assert sorted(orbits) == [2, 4]

    ts = enumerate_diagrams(preset("gw4"), 1)
    loops = [t for t in ts.terms if len(t.graph.vertices) == 1
             and t.n_edges == 1 and len(t.graph.half_edges) == 4]
    assert len(loops) == len(classes) == 2
    for t in loops:
        hits = [i for i, rep in enumerate(classes)
                if oracles.brute_two_graphs_isomorphic(t.graph, rep)]
        assert len(hits) == 1
    # the two classes differ by their single internal face
    assert sorted(internal_face_count(t.graph) for t in loops) == [0, 1]


def test_coefficients_are_inverse_automorphism_counts():
    for name in ("gw4", "mq3"):
        ts = enumerate_diagrams(preset(name), 1)
        for t in ts.terms:
            assert t.automorphisms == automorphism_count(t.graph)
            assert t.coefficient == Fraction(1, t.automorphisms)
            assert t.n_edges == t.graph.n_edges()


def test_enumeration_profiles_are_stable():
    assert len(enumerate_diagrams(preset("mq3"), 1).terms) == 8
    ts = enumerate_diagrams(preset("bgr"), 1)
    assert len(ts.terms) == 14
    assert profile(ts) == {(1, 0): 3, (1, 1): 5, (2, 1): 6}


def test_max_edges_zero_gives_bare_vertices():
    ts = enumerate_diagrams(preset("gw4"), 0)
    assert profile(ts) == {(1, 0): 2}
    ts = enumerate_diagrams(preset("bgr"), 0)
    assert profile(ts) == {(1, 0): 3}


def test_disconnected_enumeration_uses_wreath_weights():
    ts = enumerate_diagrams(preset("gw4"), 1, connected=False)
    assert not ts.connected
    codes = [t.code for t in ts.terms]
    assert len(set(codes)) == len(codes)
    multi = [t for t in ts.terms if len(t.graph.vertices) > 1]
    assert multi
    assert all(len(t.graph.vertices) <= 2 for t in ts.terms)   # default cap
    for t in ts.terms:
        assert t.automorphisms == automorphism_count(t.graph)
        assert t.coefficient == Fraction(1, t.automorphisms)


def test_fish_is_enumerated_with_its_boundary_filter():
    fish_same = fixtures.fish(1, 1)
    want = boundary(fish_same)
    ts = enumerate_diagrams(preset("bgr"), 2, boundary_graph=want)
    assert ts.coefficient(fish_same) == Fraction(1, 864)
    assert ts.terms
    for t in ts.terms:
        assert one_graph_code(boundary(t.graph)) == one_graph_code(want)

    # two quartic couplings with different transmitted colours produce the
    # two-colour variant
    d, r, zeta = Fraction(1), 4, Fraction(2)
    w4 = vertex_weight_tensorial(d, r, zeta, 4)
    th = Theory("q4pair", "coloured", d,
                (melonic_quartic_type(r, 1, w4),
                 melonic_quartic_type(r, 2, w4)),
                ((r, zeta),), rank=r, zeta=zeta)
    fish_mixed = fixtures.fish(1, 2)
    ts = enumerate_diagrams(th, 2, boundary_graph=boundary(fish_mixed))
    assert ts.coefficient(fish_mixed) == Fraction(1, 288)


def test_central_identity_small_bounds():
    rep = check_central_identity(preset("gw4"), 0)
    assert rep.passed and rep.mismatches == []
    assert rep.universe_size == 2 and rep.pairs_checked == 2

    rep = check_central_identity(preset("gw4"), 1)
    assert rep.passed
    assert rep.universe_size == 14
    assert rep.multi_trace_vertex_classes >= 1

    rep = check_central_identity(preset("mq3"), 1)
    assert rep.passed
    assert rep.universe_size == 21

    rep = check_central_identity(preset("gw4"), 1, bridgeless_only=True)
    assert rep.passed and rep.bridgeless_only
