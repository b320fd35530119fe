"""Coproduct, counit, antipode, and the toy renormalization calculus."""

import functools
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import oracles
from strandhopf import fixtures, hopf, io, iso, preset, rewrite
from strandhopf import (
    LaurentPoly,
    Renormalization,
    antipode,
    antipode_of_element,
    character_inverse,
    convolve,
    coproduct,
    counit,
    ms_projection,
    residue,
    toy_ms_character,
)
from strandhopf.graphs import (TwoGraph, connected_components,
                               disjoint_union, internal_face_count, relabel,
                               validate)
from strandhopf.hopf import (coproduct_of_monomial, el_add, el_eq, el_graph,
                             el_mul, el_scale, el_unit, el_zero,
                             graph_of_code, intern_graph, tens_mul)
from strandhopf.rewrite import subgraphs
from strandhopf.series import enumerate_diagrams
from test_iso import corpus_entries
from test_series import graph_fields

CORPUS = fixtures.all_fixtures()
SMALL = {n: g for n, g in CORPUS.items() if g.n_edges() <= 3}


def n_edges_of_mono(mono):
    return sum(graph_of_code(code).n_edges() * e for code, e in mono)


def test_fish_coproduct_has_three_terms_with_middle_multiplicity_two():
    g = fixtures.fish(1, 2)
    cop = coproduct(g)
    assert len(cop) == 3
    by_left_edges = {n_edges_of_mono(lm): ((lm, rm), c)
                     for (lm, rm), c in cop.items()}
    assert set(by_left_edges) == {0, 1, 2}
    (lm, rm), c = by_left_edges[0]          # skeleton (x) the graph itself
    assert c == 1
    assert lm == ((intern_graph(residue(fixtures.quartic_tadpole("same"))),
                   2),) or len(lm) == 1     # two isomorphic bare vertices
    assert rm == ((intern_graph(g), 1),)
    (lm, rm), c = by_left_edges[1]          # either single edge, same class
    assert c == 2
    assert n_edges_of_mono(rm) == 1
    (lm, rm), c = by_left_edges[2]          # the graph (x) its residue
    assert c == 1
    assert lm == ((intern_graph(g), 1),)
    assert n_edges_of_mono(rm) == 0


def test_counit_values():
    g = fixtures.fish(1, 2)
    assert counit(g) == 0
    assert counit(residue(g)) == 1
    assert counit(el_unit(5)) == 5
    assert counit(el_add(el_graph(g), el_graph(residue(g), 3))) == 3


def test_counit_is_a_two_sided_unit_for_the_coproduct():
    for name, g in SMALL.items():
        el = el_graph(g)
        left = el_zero()
        right = el_zero()
        for (lm, rm), c in coproduct(g).items():
            left = el_add(left, el_scale(
                {rm: c}, counit({lm: Fraction(1)})))
            right = el_add(right, el_scale(
                {lm: c}, counit({rm: Fraction(1)})))
        assert el_eq(left, el), name
        assert el_eq(right, el), name


def test_coproduct_is_coassociative():
    for name, g in SMALL.items():
        mono = next(iter(el_graph(g)))
        lhs, rhs = {}, {}
        for (a, b), c in coproduct_of_monomial(mono).items():
            for (a1, a2), c2 in coproduct_of_monomial(a).items():
                key = (a1, a2, b)
                lhs[key] = lhs.get(key, Fraction(0)) + c * c2
            for (b1, b2), c2 in coproduct_of_monomial(b).items():
                key = (a, b1, b2)
                rhs[key] = rhs.get(key, Fraction(0)) + c * c2
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, name


def test_antipode_axiom_on_fixtures():
    for name, g in CORPUS.items():
        if g.n_edges() > 3:
            continue
        expected = el_unit(counit(g))
        left = el_zero()
        right = el_zero()
        for (lm, rm), c in coproduct(g).items():
            s_l = antipode_of_element({lm: Fraction(c)})
            left = el_add(left, el_mul(s_l, {rm: Fraction(1)}))
            s_r = antipode_of_element({rm: Fraction(c)})
            right = el_add(right, el_mul({lm: Fraction(1)}, s_r))
        assert el_eq(left, expected), name
        assert el_eq(right, expected), name


def test_antipode_is_an_involution_here():
    # the algebra is commutative, so S o S is the identity
    for name, g in SMALL.items():
        el = el_graph(g)
        assert el_eq(antipode_of_element(antipode(g)), el), name


def test_antipode_of_group_like_is_inverse():
    r = residue(fixtures.fish(1, 2))
    s = antipode(r)
    assert el_eq(el_mul(s, el_graph(r)), el_unit())
    assert counit(s) == 1


def test_ms_projection_is_rota_baxter():
    rng = random.Random(2024)
    for _ in range(1000):
        x = oracles.random_laurent(rng)
        y = oracles.random_laurent(rng)
        lhs = ms_projection(x) * ms_projection(y) + ms_projection(x * y)
        rhs = ms_projection(ms_projection(x) * y) \
            + ms_projection(x * ms_projection(y))
        assert lhs == rhs


def test_ms_projection_splits_and_is_idempotent():
    rng = random.Random(9)
    for _ in range(200):
        p = oracles.random_laurent(rng)
        pole = ms_projection(p)
        assert pole + p.regular_part() == p
        assert ms_projection(pole) == pole
        assert not p.regular_part().has_pole()


def test_laurent_poly_arithmetic():
    z2 = LaurentPoly.z_power(2, 3)
    assert (z2 * z2.invert()).is_one()
    p = LaurentPoly({-2: Fraction(1), 0: Fraction(5), 1: Fraction(-3)})
    assert p.pole_part() + p.regular_part() == p
    assert p.has_pole()
    assert (p - p).is_zero()
    assert p ** 0 == LaurentPoly.constant(1)
    assert p ** 2 == p * p
    assert p.to_json() == {"-2": [1, 1], "0": [5, 1], "1": [-3, 1]}


def _degree_table():
    # frozen superficial degrees so the character is self-contained
    table = {
        intern_graph(fixtures.fish(1, 1)): 1,
        intern_graph(fixtures.fish(1, 2)): 0,
        intern_graph(fixtures.quartic_tadpole("same")): 2,
        intern_graph(fixtures.melon_two_point()): 2,
    }
    return lambda G: table.get(intern_graph(G), -1)


def test_toy_ms_renormalization_kills_poles():
    phi = toy_ms_character(_degree_table())
    ren = Renormalization(phi)
    for g in (fixtures.fish(1, 1), fixtures.fish(1, 2),
              fixtures.quartic_tadpole("same"), fixtures.melon_two_point()):
        assert phi(g).has_pole()
        assert not ren.renormalized(g).has_pole()
        assert ren.counterterm(g).has_pole()


def test_trivial_projection_means_no_subtraction():
    phi = toy_ms_character(_degree_table())
    ren = Renormalization(phi, R=lambda p: LaurentPoly())
    for g in (fixtures.fish(1, 1), fixtures.quartic_tadpole("same")):
        assert ren.renormalized(g) == phi(g)


def test_character_inverse_convolves_to_counit():
    phi = toy_ms_character(_degree_table())
    e = convolve(character_inverse(phi), phi)
    g = fixtures.fish(1, 1)
    assert e(g).is_zero()                     # counit of a graph with edges
    assert e(residue(g)).is_one()
    assert e(fixtures.quartic_tadpole("same")).is_zero()


# reference recursions straight over the subgraph lattice, independent of
# the coproduct table the library derives them from


def _residue_inverse(G):
    """Formal inverse of the residue class of ``G``: the element of its
    residue graph with every exponent negated."""
    (mono, _), = el_graph(residue(G)).items()
    return {tuple((code, -e) for code, e in mono): 1}


def _reference_antipode(G, memo):
    """Antipode of a connected graph by the recursion over its proper
    wide subgraphs."""
    code = intern_graph(G)
    if code not in memo:
        if not G.n_edges():
            memo[code] = _residue_inverse(G)
            return memo[code]
        total = el_zero()
        for sub in subgraphs(G):
            if sub.is_full:
                continue
            left = el_unit()
            for comp in connected_components(sub.materialize()):
                left = el_mul(left, _reference_antipode(comp, memo))
            total = el_add(total, el_mul(left, el_graph(sub.contract())))
        memo[code] = el_scale(
            el_mul(total, _residue_inverse(G)), -1)
    return memo[code]


def _reference_counterterm(phi, G, memo):
    code = intern_graph(G)
    if code not in memo:
        if not G.n_edges():
            memo[code] = LaurentPoly.constant(1)
        else:
            memo[code] = -ms_projection(
                _reference_subgraph_sum(phi, G, memo, proper=True))
    return memo[code]


def _reference_subgraph_sum(phi, G, memo, proper):
    total = LaurentPoly()
    for sub in subgraphs(G):
        if proper and sub.is_full:
            continue
        term = phi(sub.contract())
        for comp in connected_components(sub.materialize()):
            term = term * _reference_counterterm(phi, comp, memo)
        total = total + term
    return total


def test_antipode_and_counterterms_match_subgraph_recursion():
    # degree E - F: most graphs here diverge, some converge, and most
    # counterterms subtract subdivergences
    phi = toy_ms_character(lambda G: G.n_edges() - internal_face_count(G))
    ren = Renormalization(phi)
    graphs = list(SMALL.items()) + [
        (t.code, t.graph) for t in enumerate_diagrams(preset("gw4"), 2).terms]
    s_memo, ct_memo = {}, {}
    nested = 0
    for name, g in graphs:
        s = el_unit()
        ct = LaurentPoly.constant(1)
        for comp in connected_components(g):
            s = el_mul(s, _reference_antipode(comp, s_memo))
            ct = ct * _reference_counterterm(phi, comp, ct_memo)
        assert el_eq(antipode(g), s), name
        assert ren.counterterm(g) == ct, name
        assert ren.renormalized(g) == _reference_subgraph_sum(
            phi, g, ct_memo, proper=False), name
        if len(connected_components(g)) == 1:
            nested += ct != -phi(g).pole_part()
    assert nested > len(graphs) // 2


def test_orbit_reduced_coproduct_matches_every_subgraph(monkeypatch):
    # expanding one wide subgraph per automorphism orbit must give the
    # table of expanding them all, keys in the same order with the same
    # coefficients, and intern the same representatives in the same order;
    # checked on a stride of the corpus, its relabellings and disjoint
    # unions of small classes (isomorphic components swap)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
        "corpus.json"
    entries = json.loads(path.read_text(encoding="utf-8"))["graphs"]
    rng = random.Random(1998)
    graphs = [io.document_to_graph(e["graph"]) for e in entries[::12]]
    graphs += [oracles.random_relabelled(g, rng) for g in graphs[::3]]
    small = [g for g in graphs if g.n_edges() <= 1]
    graphs += [disjoint_union([a, b]) for a, b in zip(small, small[1:])]
    graphs += [disjoint_union([g, g]) for g in small[:4]]

    def tables(expand):
        registry, expanded = {}, []

        def counting(*args):
            expanded.append(1)
            return real(*args)

        monkeypatch.setattr(hopf, "REGISTRY", registry)
        monkeypatch.setattr(hopf, "el_graph", counting)
        out = [list(expand(hopf.intern_graph(g)).items()) for g in graphs]
        monkeypatch.setattr(hopf, "el_graph", real)
        reps = [(code, graph_fields(g)) for code, g in registry.items()]
        return out, reps, len(expanded)

    real = hopf.el_graph
    *reduced, n_reduced = tables(hopf._coproduct.__wrapped__)
    *every, n_every = tables(lambda code: oracles.unreduced_coproduct(
        hopf.graph_of_code(code)))
    assert reduced == every
    assert 0 < n_reduced < n_every


def test_coproduct_of_a_union_is_the_product_of_its_factors(monkeypatch):
    # the coproduct is an algebra morphism: on a disjoint union it is the
    # product of the factors' tables, and that must equal the expansion of
    # the union graph itself over all its wide subgraphs; once the factors
    # are expanded, the union canonizes nothing new and no union class is
    # registered.  The corpus graphs are relabelled with string labels,
    # as in the benchmark's sweep: ``disjoint_union`` keeps the order of
    # string labels, so the union's pieces have their factors' positional
    # structure
    monkeypatch.setattr(hopf, "REGISTRY", {})
    monkeypatch.setattr(hopf, "_coproduct",
                        functools.cache(hopf._coproduct.__wrapped__))
    monkeypatch.setattr(iso, "_search_memo", {})
    searches = []
    real = iso._canon_search

    def counting(*args):
        searches.append(1)
        return real(*args)

    monkeypatch.setattr(iso, "_canon_search", counting)
    rng = random.Random(13)
    cases = []
    for a, b in [(fixtures.fish(1, 2), fixtures.nested_tadpole()),
                 (fixtures.melon_two_point(),
                  fixtures.quartic_tadpole("cross")),
                 (fixtures.side_tadpole(), fixtures.crossing_tadpole())]:
        g1 = oracles.random_relabelled(a, rng)
        g2 = oracles.random_relabelled(b, rng)
        cases += [[g1, g2], [g1, g1], [g1, g2, g1]]
    smalls = [oracles.random_relabelled(io.document_to_graph(e["graph"]),
                                        rng)
              for e in corpus_entries() if e["edges"] <= 2]
    for g1, g2 in list(zip(smalls[::3], smalls[1::3]))[:20]:
        cases += [[g1, g2], [g1, g1]]
    assert len(cases) == 49
    for k, factors in enumerate(cases):
        tables = [coproduct(g) for g in factors]
        union = disjoint_union(factors)
        del searches[:]
        table = coproduct(union)
        assert not searches, k
        assert table == functools.reduce(tens_mul, tables), k
        assert table == oracles.unreduced_coproduct(union), k
    assert not any(code.startswith("U(") for code in hopf.REGISTRY)


def test_union_of_int_labelled_graphs_runs_no_search(monkeypatch):
    # graphs read from documents with numeric labels, like the corpus,
    # have int labels; ``disjoint_union`` zero-pads them ("0#02" before
    # "0#10"), so each factor keeps its label order, and once the factors
    # are expanded the union's pieces and contractions are found by their
    # positional keys: its coproduct builds no encoding and runs no search
    monkeypatch.setattr(hopf, "REGISTRY", {})
    monkeypatch.setattr(hopf, "_coproduct",
                        functools.cache(hopf._coproduct.__wrapped__))
    monkeypatch.setattr(iso, "_search_memo", {})
    encoded = []
    real = iso._encode_two_graph

    def counting(*args):
        encoded.append(1)
        return real(*args)

    monkeypatch.setattr(iso, "_encode_two_graph", counting)
    graphs = [io.document_to_graph(e["graph"]) for e in corpus_entries()
              if e["edges"] == 3][:10]
    assert all(10 in g.half_edges and 10 in g.strands for g in graphs)
    for k, (g1, g2) in enumerate(zip(graphs[::2], graphs[1::2])):
        tables = [coproduct(g1), coproduct(g2)]
        union = disjoint_union([g1, g2])
        assert union.half_edges[:3] == ("0#00", "0#01", "0#02"), k
        del encoded[:]
        assert coproduct(union) == tens_mul(*tables), k
        assert not encoded, k


def test_coefficients_stay_integers_unless_a_caller_passes_a_fraction():
    # coproduct and antipode coefficients are integers: the corpus tables
    # hold ints, and their values are pinned (a digest of the sorted terms
    # with each coefficient as its string) from before they were
    # Fractions; a rational coefficient a caller passes stays exact
    # through the product, the coproduct and the antipode
    digests = [hashlib.sha256(), hashlib.sha256()]
    for e in corpus_entries():
        g = io.document_to_graph(e["graph"])
        for table, digest in zip((coproduct(g), antipode(g)), digests):
            assert all(type(c) is int for c in table.values())
            digest.update(repr(sorted((k, str(c))
                                      for k, c in table.items())).encode())
    assert [d.hexdigest() for d in digests] == [
        "25563f64ef69a3c262f10466452d9136b28dbe9cb94599dd7792d99aae64fae9",
        "7b78ed05044b2da3dc9a42f75683dbdecf9903da8baf598d304e25f612835c90"]
    half = Fraction(1, 2)
    halves = 0
    for name, g in SMALL.items():
        x = el_graph(g, half)
        (mono, _), = el_graph(g).items()
        assert el_mul(x, x) == {hopf._mono_mul(mono, mono): Fraction(1, 4)}
        for got, whole in ((hopf.coproduct_of_element(x), coproduct(g)),
                           (antipode_of_element(x), antipode(g))):
            assert got == {k: Fraction(c, 2) for k, c in whole.items()}, name
            assert all(type(c) is Fraction for c in got.values()), name
            halves += sum(c.denominator == 2 for c in got.values())
    assert halves > 0


def test_coproduct_builds_each_piece_once(monkeypatch):
    # a piece (vertex set, edges inside) met again in one expansion is
    # looked up, not built again; the whole graph, the full subgraph's
    # only piece, is the class itself and is never built
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
        "corpus.json"
    entries = json.loads(path.read_text(encoding="utf-8"))["graphs"]
    g = next(io.document_to_graph(e["graph"]) for e in entries
             if e["edges"] == 3 and e["coproduct_terms"] >= 6)
    visits, builds = [], []
    real_pieces, real_piece = hopf._pieces, hopf._piece

    def pieces(*args):
        out = real_pieces(*args)
        visits.extend(out)
        return out

    def piece(G, *key):
        builds.append(key)
        return real_piece(G, *key)

    monkeypatch.setattr(hopf, "_pieces", pieces)
    monkeypatch.setattr(hopf, "_piece", piece)
    code = hopf.intern_graph(g)
    rep = hopf.graph_of_code(code)
    whole = (rep.vertices, rep.edge_pairs())
    table = hopf._coproduct.__wrapped__(code)
    assert whole in visits
    assert sorted(builds) == sorted(set(visits) - {whole})
    assert len(builds) < len(visits)
    assert table == oracles.unreduced_coproduct(hopf.graph_of_code(code))


def test_union_with_labels_1_and_text_1_is_multiplicative(monkeypatch):
    # a component with half-edges 1 and "1" is a factor of the product
    # class; the union representing that class must keep the two apart,
    # or its coproduct is not the product of the factors' coproducts
    monkeypatch.setattr(hopf, "REGISTRY", {})
    fish = relabel(fixtures.fish(1, 2), hmap={"x1": 1, "x2": "1"})
    tad = fixtures.nested_tadpole()
    t = {x: f"t{x}" for x in (*tad.vertices, *tad.half_edges, *tad.strands)}
    tad = relabel(tad, t, t, t)
    g = io.loads_graph(io.dumps_graph(disjoint_union([fish, tad],
                                                     prefix=False)))
    code = intern_graph(g)
    assert validate(graph_of_code(code)).valid
    expand = hopf._coproduct.__wrapped__
    assert expand(code) == tens_mul(expand(intern_graph(fish)),
                                    expand(intern_graph(tad)))


def test_coproduct_returns_a_table_of_the_callers_own():
    # editing a returned table leaves the cached one, and the antipode
    # read from it, as they were
    g = fixtures.fish(1, 2)
    want = oracles.unreduced_coproduct(g)
    s = antipode(g)
    assert len(want) == 3 and len(s) == 2
    table = coproduct(g)
    table.clear()
    table[(), ()] = 7
    assert coproduct(g) == want
    assert list(coproduct(g)) == list(want)
    assert antipode(g) == s
    assert el_eq(s, _reference_antipode(g, {}))


def test_known_terms_build_no_graph(monkeypatch):
    # on a connected class the empty subgraph contracts to the class itself
    # and the full subgraph's only piece is the class itself, so neither is
    # built; once the tables are cached, the antipode reads the residue from
    # them and builds no graph at all.  A union interned as it is (a
    # disconnected representative) takes the general path.  Checked on a
    # corpus stride, its relabellings and the fixtures
    monkeypatch.setattr(hopf, "REGISTRY", {})
    monkeypatch.setattr(hopf, "_coproduct",
                        functools.cache(hopf._coproduct.__wrapped__))
    monkeypatch.setattr(hopf, "_antipode",
                        functools.cache(hopf._antipode.__wrapped__))
    rng = random.Random(28)
    sample = [io.document_to_graph(e["graph"])
              for e in corpus_entries()[::12]]
    sample += [oracles.random_relabelled(g, rng) for g in sample[::3]]
    sample += list(CORPUS.values())
    contractions, pieces = [], []
    real_contract, real_piece = rewrite._contract_edges, hopf._piece

    def contract(G, edges):
        contractions.append(tuple(edges))
        return real_contract(G, edges)

    def piece(G, vs, edges):
        pieces.append((vs, edges))
        return real_piece(G, vs, edges)

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(rewrite, "_contract_edges", contract)
    monkeypatch.setattr(hopf, "_piece", piece)
    codes = [hopf.intern_graph(c)
             for g in sample for c in connected_components(g)]
    for code in codes:
        rep = graph_of_code(code)
        del contractions[:], pieces[:]
        table = hopf._coproduct(code)
        assert all(contractions), code
        assert (rep.vertices, rep.edge_pairs()) not in pieces, code
        assert list(table.items()) == list(
            oracles.unreduced_coproduct(rep).items()), code
    seen, todo = set(), list(codes)
    while todo:             # cache every table the antipode recursion reads
        code = todo.pop()
        if code not in seen:
            seen.add(code)
            todo += [c for lm, _ in hopf._coproduct(code) for c, _ in lm]
    with monkeypatch.context() as m:
        m.setattr("strandhopf.graphs._assembled", refuse)
        m.setattr(rewrite, "_assembled", refuse)
        m.setattr(TwoGraph, "__init__", refuse)
        got = [hopf._antipode(code) for code in codes]
    reference = {}
    for code, s in zip(codes, got):
        assert el_eq(s, _reference_antipode(graph_of_code(code),
                                            reference)), code

    small = [g for g in sample if g.n_edges() == 1 and
             len(connected_components(g)) == 1]
    assert len(small) > 4
    for a, b in zip(small, small[1:]):
        union = disjoint_union([a, b])
        code = hopf.intern_graph(union)
        rep = graph_of_code(code)
        assert len(connected_components(rep)) == 2
        assert list(hopf._coproduct(code).items()) == list(
            oracles.unreduced_coproduct(rep).items())
        assert el_eq(antipode_of_element({((code, 1),): 1}),
                     antipode(union))
