"""Diagram enumeration, series coefficients, and the coproduct identity."""

import gc
import itertools
import weakref
from fractions import Fraction

import oracles
from strandhopf import fixtures, iso, models, rewrite, series
from strandhopf import (
    automorphism_count,
    boundary,
    check_central_identity,
    enumerate_diagrams,
    internal_face_count,
    preset,
)
from strandhopf.graphs import OneGraph, disjoint_union, vertex_graph
from strandhopf.iso import one_graph_code
from strandhopf.models import (Theory, melonic_quartic_type, polygon_type,
                               vertex_weight_tensorial)
from strandhopf.rewrite import _with_edges
from strandhopf.series import (closed_universe, connected_classes,
                               instantiate_dressed)
from test_rewrite import generic_theory


def profile(series):
    out = {}
    for t in series.terms:
        key = (len(t.graph.vertices), t.n_edges)
        out[key] = out.get(key, 0) + 1
    return out


def test_term_order_is_the_order_of_the_code_strings():
    # terms sort by (edges, parts > 1, part codes), which forms no union
    # code; it must be the order of the codes themselves
    for name in sorted(models.PRESETS):
        for connected in (True, False):
            terms = enumerate_diagrams(preset(name), 3, connected).terms
            keys = [(t.n_edges, t.code) for t in terms]
            assert keys == sorted(set(keys)), (name, connected)
            assert any(len(t.parts) > 1 for t in terms) != connected, name


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


def test_central_check_builds_only_assignments_within_budget():
    # the right-hand side of the check walks only the assignments of
    # universe classes to vertices within the degree budget; they must be
    # exactly those that filtering itertools.product keeps
    _, classes = closed_universe(preset("gw4"), 2)
    by_boundary = {}
    for cls in classes.values():
        by_boundary.setdefault(cls.boundary_code, []).append(cls)
    built = kept = 0
    for cls in classes.values():
        pools = [by_boundary.get(one_graph_code(vertex_graph(cls.graph, v)))
                 for v in cls.graph.vertices]
        if not all(pools):
            continue
        budget = 2 - cls.n_edges
        every = list(itertools.product(*pools))
        expected = [tuple(map(id, a)) for a in every
                    if sum(c.degree for c in a) <= budget]
        found = [tuple(map(id, a))
                 for a in series._within_budget(pools, budget)]
        assert sorted(found) == sorted(expected), cls.code
        built += len(every)
        kept += len(found)
    assert (len(classes), built, kept) == (64, 31877, 158)
    assert list(series._within_budget([], 0)) == [()]
    assert list(series._within_budget([], -1)) == []


def test_central_check_keeps_no_universe_type_alive(monkeypatch):
    # the plain and dressed codes are memoized on the type object, so the
    # types of one check's closed universe die with the check
    built = []

    def recording(*args, **kwargs):
        dt = real(*args, **kwargs)
        built.append(weakref.ref(dt))
        return dt

    real = series.DressedType
    monkeypatch.setattr(series, "DressedType", recording)
    for _ in range(4):
        assert check_central_identity(preset("gw4"), 1).passed
    gc.collect()
    assert len(built) >= 4
    assert all(ref() is None for ref in built)
    dt = preset("gw4").dressed_types()[0]
    assert dt.plain_code() == one_graph_code(dt.graph)
    assert dt.dressed_code() == dt.dressed_code()


def test_closure_rounds_match_one_full_growth():
    # each round of closed_universe builds only the classes that use a new
    # or cheaper type; growing every class over the final types at once
    # must give the same classes, none stale and none missing
    def summary(classes):
        return {code: (c.degree, c.automorphisms, c.boundary_code)
                for code, c in classes.items()}

    # q2 alone derives the dipole and the double dipole in later rounds
    q2 = generic_theory(melonic_quartic_type(2))
    for theory, max_edges in ((preset("gw4"), 2), (preset("mq3"), 1),
                              (preset("bgr"), 1), (q2, 2)):
        types, classes = closed_universe(theory, max_edges)
        full = connected_classes(types, "generic", max_edges)
        assert summary(classes) == summary(full), theory.name
        assert all(code == c.code for code, c in classes.items())


def test_disconnected_boundary_filter_matches_filtering_afterwards():
    gw4 = preset("gw4")
    every = enumerate_diagrams(gw4, 2, connected=False)
    two_legs = [t.graph for t in enumerate_diagrams(gw4, 1).terms
                if t.n_edges == 1 and len(boundary(t.graph).vertices) == 2
                and len(boundary(t.graph).components()) == 1]
    wants = [boundary(two_legs[0]),
             boundary(disjoint_union([two_legs[0], two_legs[-1]]))]
    assert [len(w.components()) for w in wants] == [1, 2]
    for want in wants:
        code = one_graph_code(want)
        got = enumerate_diagrams(gw4, 2, connected=False,
                                 boundary_graph=want)
        expected = [(t.code, t.coefficient) for t in every.terms
                    if one_graph_code(boundary(t.graph)) == code]
        assert expected
        assert [(t.code, t.coefficient) for t in got.terms] == expected


def graph_fields(g):
    return (g.vertices, g.half_edges, g.strands, g.nu, g.mu, g.iota,
            g.sigma1, g.sigma2)


def level_fields(level):
    return [(code, graph_fields(g), dressing, cost)
            for code, (g, dressing, cost) in level.items()]


def test_orbit_reduced_growth_matches_unreduced_growth(monkeypatch):
    # each growth level joins a parent's external pairs only at the first
    # pair of each orbit of its group, and a new vertex only at the first
    # (half-edge, slot) of each orbit of the product of the parent's group
    # and the type's; it must give the level of making every join, in the
    # same order, under the same codes, with the same graphs, and build
    # fewer children
    levels = []
    built = {"reduced": 0, "every": 0}

    def recording(level, dtypes, slots, klass, budget):
        out = real(level, dtypes, slots, klass, budget)
        levels.append((level, dtypes, slots, klass, budget, out))
        return out

    def counting(kind, glue):
        def wrapper(*args):
            built[kind] += 1
            return glue(*args)
        return wrapper

    real = series._grow
    monkeypatch.setattr(series, "_grow", recording)
    monkeypatch.setattr(series, "_with_edges",
                        counting("reduced", series._with_edges))
    monkeypatch.setattr(rewrite, "_with_edges",
                        counting("every", rewrite._with_edges))
    for name in ("gw4", "mq3", "bgr", "gw4-generic"):
        theory = preset(name)
        levels.clear()
        connected_classes(theory.dressed_types(), theory.klass, 2)
        assert len(levels) == 3, name
        for level, dtypes, slots, klass, budget, out in levels:
            want = oracles.unreduced_grow(level, dtypes, slots, klass, budget)
            assert level_fields(out) == level_fields(want), name
        # the one-edge level holds loops and two-vertex graphs
        sizes = {len(g.vertices) for g, _, _ in levels[0][-1].values()}
        assert sizes == {1, 2}, name
    assert 0 < built["reduced"] < built["every"]


def test_orbit_reduced_closure_matches_unreduced_closure(monkeypatch):
    # the contraction-closed universe of gw4 <=2 is the same, class by
    # class and in order, with and without the orbit reduction
    def summary(types, classes):
        return ([(dt.graph.vertices, dt.graph.half_edges, dt.graph.attach,
                  dt.graph.pairing, dt.cost) for dt in types],
                [(code, graph_fields(c.graph), c.code, c.automorphisms,
                  c.n_edges, c.degree, c.boundary_code)
                 for code, c in classes.items()])

    calls = []

    def unreduced(*args):
        calls.append(args)
        return oracles.unreduced_grow(*args)

    reduced = summary(*closed_universe(preset("gw4"), 2))
    monkeypatch.setattr(series, "_grow", unreduced)
    assert summary(*closed_universe(preset("gw4"), 2)) == reduced
    assert len(calls) > 3


def test_map_growth_keeps_orientations():
    # a quartic polygon closed by a loop on two neighbouring legs: a plain
    # automorphism mirrors it, swapping its two free legs, and maps the
    # crosswise gluing of a new vertex at one leg onto a twisted one
    # unless the new vertex is mirrored too; a polygon has a mirror
    # through each slot, so growth of polygon types reduces by the plain
    # group, and the level is that of making every join
    p4 = polygon_type(4)
    g, *dressing = instantiate_dressed(p4, "0")
    dressing = tuple(dressing)
    (opt,) = series._edge_options("map", g, dressing, "0.p0", "0.p1")
    g = _with_edges(g, [("0.p0", "0.p1")], opt)
    level = {"parent": (g, dressing, 1)}
    slots = [series._slot_leaders("map", p4)]
    out = series._grow(level, [p4], slots, "map", 2)
    want = oracles.unreduced_grow(level, [p4], slots, "map", 2)
    assert level_fields(out) == level_fields(want)
    assert {len(c.vertices) for c, _, _ in out.values()} == {1, 2}
    # the plain group has fewer orbits of free legs than the orientation
    # keeping one
    ext = sorted(g.external_half_edges())
    plain = iso.automorphism_generators(g)
    dressed = iso.automorphism_generators(
        g, *series._group_dressing("map", dressing))
    assert len(series._orbit_leaders(ext, plain)) == 1
    assert len(series._orbit_leaders(ext, dressed)) == 2


def _two_trace_type(n):
    """A map vertex type of two n-gons, their labels prefixed by "a" and
    "b"."""
    vs, hs, attach, pairing, orient = [], [], {}, {}, []
    p = polygon_type(n)
    for tag in "ab":
        vs += [tag + v for v in p.graph.vertices]
        hs += [tag + h for h in p.graph.half_edges]
        attach.update({tag + h: tag + v for h, v in p.graph.attach.items()})
        pairing.update({tag + h: tag + k for h, k in p.graph.pairing.items()})
        orient += [(tag + h, o) for h, o in p.orient]
    return series.DressedType(OneGraph(vs, hs, attach, pairing),
                              orient=tuple(sorted(orient)))


def test_map_growth_of_a_two_trace_type_keeps_orientations(monkeypatch):
    # two squares in one vertex, each closed by a loop on two neighbouring
    # legs: mirroring one square alone is a plain automorphism, but it
    # maps a crosswise join of the two squares onto a twisted one, and
    # neither square can be mirrored alone through the leg it joins; so
    # a type of two traces keeps the orientation group, and the level is
    # that of making every join, where the plain group would lose a class
    tt = _two_trace_type(4)
    assert series._group_class("map", [polygon_type(4), polygon_type(1)]) \
        == "generic"
    assert series._group_class("map", [polygon_type(4), tt]) == "map"
    assert series._group_class("coloured", [polygon_type(4)]) == "coloured"
    # a polygon whose strands do not run from in to out is no polygon
    flipped = polygon_type(3)
    flipped = series.DressedType(flipped.graph, orient=tuple(
        (h, 1 - o if h.startswith("p0") else o) for h, o in flipped.orient))
    assert series._group_class("map", [flipped]) == "map"

    g, *dressing = instantiate_dressed(tt, "0")
    dressing = tuple(dressing)
    for pair in (("0.ap0", "0.ap1"), ("0.bp0", "0.bp1")):
        (opt,) = series._edge_options("map", g, dressing, *pair)
        g = _with_edges(g, [pair], opt)
    level = {"parent": (g, dressing, 2)}
    slots = [series._slot_leaders("map", tt)]
    want = oracles.unreduced_grow(level, [tt], slots, "map", 3)
    out = series._grow(level, [tt], slots, "map", 3)
    assert level_fields(out) == level_fields(want)
    assert len(want) == 4
    monkeypatch.setattr(series, "_group_class", lambda klass, dtypes:
                        "generic")
    assert len(series._grow(level, [tt], slots, "map", 3)) == 3


def test_budget_level_is_keyed_by_the_plain_code(monkeypatch):
    # a child at the budget is never grown, so growth keys it by the plain
    # code that _record keys its class by; the levels below the budget
    # of a coloured theory keep the code with colours and parities
    levels = []
    real = series._grow

    def recording(level, dtypes, slots, klass, budget):
        out = real(level, dtypes, slots, klass, budget)
        levels.append(out)
        return out

    monkeypatch.setattr(series, "_grow", recording)
    for name in ("mq3", "bgr"):
        theory = preset(name)
        levels.clear()
        connected_classes(theory.dressed_types(), theory.klass, 2)
        first, top, last = levels
        assert top and not last, name
        assert all(cost == 2 for _, _, cost in top.values())
        assert all(code == iso.canonical_code(g)
                   for code, (g, _, _) in top.items()), name
        for code, (g, (col, par, _), _) in first.items():
            assert code == iso.canonical_code(g, col, par) != \
                iso.canonical_code(g), name


def test_connected_growth_matches_multiset_growth(monkeypatch):
    # growing connected graphs from one vertex gives the classes (code,
    # |Aut|, edges, degree) of growing every vertex multiset from its
    # disjoint union, and the same contraction-closed universe
    def summary(classes):
        return {code: (c.automorphisms, c.n_edges, c.degree)
                for code, c in classes.items()}

    for name in ("gw4", "mq3", "bgr", "gw4-generic"):
        theory = preset(name)
        got = connected_classes(theory.dressed_types(), theory.klass, 2)
        want = oracles.multiset_classes(theory.dressed_types(),
                                        theory.klass, 2)
        assert summary(got) == summary(want), name
        assert all(code == c.code for code, c in got.items())

    def universe(types, classes):
        return ({dt.plain_code(): dt.cost for dt in types},
                {code: (c.automorphisms, c.n_edges, c.degree,
                        c.boundary_code) for code, c in classes.items()})

    cases = (("gw4", 2), ("mq3", 1))
    got = [universe(*closed_universe(preset(n), e)) for n, e in cases]
    monkeypatch.setattr(series, "connected_classes", oracles.multiset_classes)
    want = [universe(*closed_universe(preset(n), e)) for n, e in cases]
    assert got == want


def test_emptying_the_search_memo_during_growth_changes_nothing(monkeypatch):
    # a memo of 8 keys empties again and again while the classes grow, so
    # parents and children are searched again; the classes (code, |Aut|,
    # edges, degree), in order, are those of a run with the default bound
    def summary(name):
        theory = preset(name)
        iso.search_cache_clear()
        classes = connected_classes(theory.dressed_types(), theory.klass, 2)
        return [(code, c.automorphisms, c.n_edges, c.degree)
                for code, c in classes.items()]

    want = [summary(name) for name in ("mq3", "bgr")]
    monkeypatch.setattr(iso, "_SEARCH_MEMO_BOUND", 8)
    sizes = []
    real = iso._store

    def recording(key, entry):
        real(key, entry)
        sizes.append(len(iso._search_memo))

    monkeypatch.setattr(iso, "_store", recording)
    assert [summary(name) for name in ("mq3", "bgr")] == want
    assert max(sizes) <= 8 and sizes.count(0) > 10


def test_enumeration_matches_multiset_growth(monkeypatch):
    # enumerate_diagrams gives the same terms (code, edges, coefficient),
    # in the same order, on the classes of the multiset growth
    def terms(name, connected):
        return [(t.code, t.n_edges, t.coefficient) for t in
                enumerate_diagrams(preset(name), 2, connected).terms]

    cases = [(name, connected) for name in ("gw4", "mq3", "bgr", "gw4-generic")
             for connected in (True, False)]
    got = [terms(*case) for case in cases]
    monkeypatch.setattr(series, "connected_classes", oracles.multiset_classes)
    assert got == [terms(*case) for case in cases]


def test_class_weights_count_labelled_gluings():
    # Wick's theorem as orbit-stabilizer: per vertex multiset and edge
    # count, the weights 1/|Aut| of the gw4-generic classes sum to the
    # labelled gluings over the order of the relabelling group
    for connected, n_cells in ((True, 15), (False, 26)):
        cells = oracles.orbit_count_cells(preset("gw4-generic"), 2,
                                          connected)
        assert len(cells) == n_cells
        assert all(ours == glued for ours, glued in cells.values())


def test_disconnected_terms_build_their_union_on_first_access():
    # a disconnected term holds its connected parts; its graph is their
    # disjoint union, built when first read and kept
    gw4 = preset("gw4")
    conn = enumerate_diagrams(gw4, 2)
    for t in conn.terms:
        assert t.parts[0].code == t.code and t.graph is t.parts[0].graph
    ts = enumerate_diagrams(gw4, 2, connected=False)
    assert any(len(t.parts) > 2 for t in ts.terms)
    for t in ts.terms:
        assert "graph" not in vars(t)
        assert t.n_edges == sum(p.n_edges for p in t.parts)
        assert graph_fields(t.graph) == \
            graph_fields(disjoint_union([p.graph for p in t.parts]))
        assert t.graph is t.graph
        assert t.code == iso.canonical_code(t.graph)
        assert t.automorphisms == automorphism_count(t.graph)
    assert [(t.n_edges, t.code) for t in ts.terms] == \
        sorted((t.n_edges, t.code) for t in ts.terms)


def test_boundary_codes_are_computed_on_first_access():
    theory = preset("mq3")
    classes = connected_classes(theory.dressed_types(), theory.klass, 2)
    for c in classes.values():
        assert "boundary_code" not in vars(c)
        assert c.boundary_code == one_graph_code(boundary(c.graph))
        assert vars(c)["boundary_code"] == c.boundary_code
