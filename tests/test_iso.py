"""Canonical forms and automorphism counts against brute-force oracles."""

import random

import oracles
from strandhopf import fixtures
from strandhopf import (
    OneGraph,
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
from strandhopf.iso import (boundary_multiset_aut_count,
                            one_graph_canonical_form)

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
        code, rep = one_graph_canonical_form(g)
        assert one_graph_code(rep) == code, name
        for _ in range(5):
            assert one_graph_code(relabelled_one_graph(g, rng)) == code, name
    codes = [one_graph_code(g) for g in COLLAPSED.values()]
    assert len(set(codes)) == len(codes)
    for name, g in COLLAPSED.items():
        a = one_graph_automorphism_count(g)
        assert one_graph_automorphism_count(disjoint_union([g, g])) == \
            2 * a ** 2, name
