"""Power counting: degrees, genus, jackets, and divergence reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import strandhopf
from strandhopf import cli, fixtures, io, models, series
from strandhopf import (
    GraphError,
    boundary,
    canonical_code,
    classify,
    contract,
    divergent_set,
    enumerate_diagrams,
    euler_characteristic,
    genus,
    gurau_degree,
    gurau_degree_open,
    infer_colouring,
    is_bridgeless,
    matrix_degree_closed_form,
    open_jacket_degree,
    preset,
    renormalizability_check,
    superficial_degree,
    tensorial_degree_closed_form,
)
from strandhopf.graphs import (connected_components, disjoint_union,
                               relabel)
from strandhopf.models import (_colour_matchings, _coloured_graph_degree,
                               boundary_gurau_degree)
from oracles import cap_boundary

BGR = preset("bgr")
GW4 = preset("gw4")
MQ3 = preset("mq3")


def test_superficial_degrees_on_fixtures():
    assert superficial_degree(BGR, fixtures.fish(1, 2)) == 0
    assert superficial_degree(BGR, fixtures.fish(1, 1)) == 1
    assert superficial_degree(BGR, fixtures.quartic_tadpole("same")) == 2
    assert superficial_degree(BGR, fixtures.quartic_tadpole("cross")) == 0
    assert superficial_degree(BGR, fixtures.melon_two_point()) == 2
    assert superficial_degree(GW4, fixtures.gw_ladder()) == 0
    assert superficial_degree(MQ3, fixtures.rank3_melon()) == 3


def test_degree_needs_theory_vertex_types():
    with pytest.raises(GraphError):
        superficial_degree(GW4, fixtures.fish(1, 2))


def test_classify_and_degree_read_the_vertex_classes_once(monkeypatch):
    # classify (which weighs each component) and superficial_degree on one
    # connected graph build no vertex graph: the vertex classes are read
    # from the integer view once, one encoding per vertex-graph component,
    # and kept on the graph.  The graph is the first bgr corpus class with
    # a double-dipole vertex, whose vertex graph has two components.  The
    # encodings of 1-graphs split from their labels (the boundaries) are
    # not counted.
    from strandhopf import graphs, iso, rewrite
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
        "corpus.json"
    entry = next(e for e in json.loads(path.read_text(encoding="utf-8"))[
        "graphs"] if e["theory"] == "bgr" and any(
            len(graphs.vertex_graph(g, v).components()) > 1
            for g in [io.document_to_graph(e["graph"])] for v in g.vertices))
    g = io.document_to_graph(entry["graph"])
    components = sum(len(graphs.vertex_graph(g, v).components())
                     for v in g.vertices)
    calls = {"_encode_one": 0, "_one_entries": 0}
    weights = {"_encode_one": lambda result: 1, "_one_entries": len}
    for name in calls:
        def counting(*args, real=getattr(iso, name), name=name):
            result = real(*args)
            calls[name] += weights[name](result)
            return result
        monkeypatch.setattr(iso, name, counting)

    def forbidden(*args):
        raise AssertionError("vertex graph built")

    for module in (graphs, models, rewrite):
        monkeypatch.setattr(module, "vertex_graph", forbidden, raising=False)
    assert g.derived.vertex_classes is None
    reps = classify(BGR, g)
    degree = superficial_degree(BGR, g)
    assert [str(rep.degree) for rep in reps] == [str(degree)] == \
        [entry["superficial_degree"]]
    assert calls["_encode_one"] - calls["_one_entries"] == components
    assert len(g.derived.vertex_classes) == len(g.vertices)


def test_genus_on_map_fixtures():
    assert genus(fixtures.paper_map()) == 0
    assert genus(fixtures.gw_ladder()) == 0
    assert genus(fixtures.nested_tadpole()) == 0
    assert genus(fixtures.crossing_tadpole()) == 1
    assert genus(fixtures.bipartite_torus()) == 1
    assert genus(fixtures.bipartite_sphere()) == 0
    with pytest.raises(GraphError):
        genus(fixtures.fish(1, 2))   # strand degree four


def test_gurau_degree_equals_genus_for_two_strands():
    assert gurau_degree(fixtures.bipartite_torus()) == 1
    assert gurau_degree(fixtures.bipartite_sphere()) == 0


def test_gurau_degree_matches_coloured_graph_degree_on_closed_graphs():
    # reference: the jacket genus of the properly (r+1)-edge-coloured
    # graph whose colour-0 matching is the edges, on every colourable
    # capped component of the corpus and the fixtures
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
        "corpus.json"
    entries = json.loads(path.read_text(encoding="utf-8"))["graphs"]
    graphs = [io.document_to_graph(e["graph"]) for e in entries]
    graphs += list(fixtures.all_fixtures().values())
    checked = 0
    for g in graphs:
        for c in connected_components(cap_boundary(g)):
            try:
                col = infer_colouring(c)
            except GraphError:
                continue
            r = c.strand_degree(c.half_edges[0])
            match = _colour_matchings(c.strands, c.mu, c.sigma1, col, r)
            match[0] = dict(c.iota)
            assert gurau_degree(c, col) == \
                _coloured_graph_degree(list(c.half_edges), match)
            checked += 1
    assert checked == 321


def strandless_graph(n_edges):
    return io.document_to_graph({
        "vertices": ["u", "v"],
        "half_edges": [{"id": h, "vertex": "u" if h in "ab" else "v"}
                       for h in "abcd"],
        "strands": [], "sigma1": [], "sigma2": [],
        "iota": [["a", "c"], ["b", "d"]][:n_edges]})


def test_strandless_graphs_have_jacket_degree_zero(tmp_path, capsys):
    slots = {"vertices": ["x", "y"], "half_edges": [], "pairing": []}
    doc = {"name": "strandless", "class": "generic", "dimension": 1,
           "propagators": [{"graph": {"vertices": ["a", "b"],
                                      "half_edges": [], "pairing": []},
                            "weight": 1}],
           "vertices": [{"graph": slots, "weight": 0}]}
    theory = io.document_to_theory(doc)
    open_g, closed_g = strandless_graph(1), strandless_graph(2)
    assert open_jacket_degree(open_g) == open_jacket_degree(closed_g) == 0
    assert gurau_degree(closed_g) == 0
    for g in (open_g, closed_g):
        (rep,) = classify(theory, g)
        assert rep.gurau == rep.gurau_capped == rep.boundary_gurau == 0
    theory_path = tmp_path / "theory.json"
    theory_path.write_text(json.dumps(doc), encoding="utf-8")
    graph_path = tmp_path / "graph.json"
    io.write_graph(graph_path, open_g)
    assert cli.main(["classify", str(graph_path), "--theory",
                     str(theory_path)]) == 0
    (rep,) = json.loads(capsys.readouterr().out)
    assert rep["gurau"] == 0 and rep["n_edges"] == 1


def test_crossing_tadpole_has_no_colouring():
    with pytest.raises(GraphError):
        infer_colouring(fixtures.crossing_tadpole())


def test_pinched_surface_euler_count():
    gam, cylinder = fixtures.pinched_torus_pair()
    assert genus(gam) == 1
    h = contract(gam, cylinder)
    assert len(h.vertices) == 3
    assert h.n_edges() == 4
    assert euler_characteristic(h) == 1
    with pytest.raises(GraphError):
        genus(h)                     # chi is odd, no orientable surface


def test_jacket_degrees_on_quartic_tadpoles():
    same = fixtures.quartic_tadpole("same")
    cross = fixtures.quartic_tadpole("cross")
    assert open_jacket_degree(same) == 0
    assert open_jacket_degree(cross) == 6
    assert boundary_gurau_degree(same) == 0
    assert boundary_gurau_degree(cross) == 0


def test_capped_closure_can_exceed_jacket_degree():
    (rep,) = classify(BGR, fixtures.fish(1, 1))
    assert rep.gurau == 0
    assert rep.gurau_capped == 6
    (rep,) = classify(BGR, fixtures.fish(1, 2))
    assert rep.gurau == rep.gurau_capped == 0


def test_classify_is_blind_to_cap_like_labels(tmp_path):
    # the closure degree once came from a capped graph whose new labels
    # were "cap:" plus an old one; a half-edge "cap:x3" next to the
    # external half-edge x3 made the cycle count loop forever, so the
    # commands run in a subprocess with a timeout
    fish = fixtures.fish(1, 1)
    src = str(Path(strandhopf.__file__).resolve().parent.parent)
    outs = {}
    for name, g in (("fish", fish), ("renamed",
                                     relabel(fish, hmap={"x1": "cap:x3"}))):
        path = tmp_path / f"{name}.json"
        io.write_graph(path, g)
        for command in ("classify", "info"):
            run = subprocess.run(
                [sys.executable, "-m", "strandhopf.cli", command, str(path),
                 "--theory", "bgr"], env=dict(os.environ, PYTHONPATH=src),
                capture_output=True, timeout=60)
            assert run.returncode == 0, run.stderr
            outs[name, command] = json.loads(run.stdout)
    assert outs["renamed", "classify"] == outs["fish", "classify"]
    assert outs["renamed", "info"] == outs["fish", "info"]
    assert outs["fish", "classify"][0]["gurau_capped"] == 6


def test_cap_boundary_closes_the_graph():
    g = fixtures.fish(1, 2)
    capped = cap_boundary(g)
    assert not capped.external_half_edges()
    assert len(capped.vertices) == len(g.vertices) + 2
    closed = fixtures.closed_melon()
    assert cap_boundary(closed) is closed


def test_matrix_closed_form_matches_face_count():
    ts = enumerate_diagrams(GW4, 2)
    assert len(ts.terms) == 30
    for t in ts.terms:
        assert matrix_degree_closed_form(GW4, t.graph) == \
            superficial_degree(GW4, t.graph), t.code


def test_gw4_divergent_set_characterization():
    div = divergent_set(GW4, 2)
    div_codes = {canonical_code(g) for g, _ in div}
    for g, deg in div:
        assert genus(g) == 0
        assert len(g.external_half_edges()) in (2, 4)
        assert len(boundary(g).components()) == 1
    # and conversely: every planar one-boundary 2- or 4-point class diverges
    for t in enumerate_diagrams(GW4, 2).terms:
        g = t.graph
        if t.n_edges == 0 or not g.external_half_edges() \
                or not is_bridgeless(g):
            continue
        planar_small = (genus(g) == 0
                        and len(boundary(g).components()) == 1
                        and len(g.external_half_edges()) in (2, 4))
        assert planar_small == (t.code in div_codes), t.code


def test_tensorial_closed_form_matches_face_count():
    assert tensorial_degree_closed_form(BGR, fixtures.fish(1, 2)) == 0
    assert tensorial_degree_closed_form(BGR, fixtures.fish(1, 1)) == 1
    for th, n_classes in ((MQ3, 33), (BGR, 83)):
        rep = renormalizability_check(th, 2)
        assert rep.passed, rep
        assert rep.n_checked == n_classes
        assert rep.closed_form_mismatches == []
        assert rep.invariant_clashes == []
    assert BGR.max_interaction_order() == 6
    assert MQ3.max_interaction_order() == 4
    assert GW4.max_interaction_order() is None


def test_tensorial_form_counts_bubbles_on_the_vertex_graph_union(
        monkeypatch):
    # the tensorial closed form counts bubbles as the components of the
    # union of the vertex graphs: renormalizability_check and the closed
    # form run with no vertex graph built, and on every fixture and corpus
    # graph the form takes, its excess V - B is that of the per-vertex
    # vertex graphs (bgr's double dipoles make it negative)
    from strandhopf import graphs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
        "corpus.json"
    cases = list(fixtures.all_fixtures().values())
    cases += [io.document_to_graph(e["graph"]) for e in json.loads(
        path.read_text(encoding="utf-8"))["graphs"]]

    def forbidden(*args):
        raise AssertionError("vertex graph built")

    for module in (graphs, models):
        monkeypatch.setattr(module, "vertex_graph", forbidden, raising=False)
    rep = renormalizability_check(BGR, 2)
    assert rep.passed and rep.n_checked == 83
    assert not rep.closed_form_mismatches and not rep.invariant_clashes
    excess = {}
    for k, g in enumerate(cases):
        try:
            form, inv = models._tensorial_form(BGR, g)
        except GraphError:
            continue
        assert tensorial_degree_closed_form(BGR, g) == form, k
        excess[k] = inv[4]
    monkeypatch.undo()
    for k, e in excess.items():
        g = cases[k]
        assert e == len(g.vertices) - sum(
            len(graphs.vertex_graph(g, v).components()) for v in g.vertices)
    assert len(excess) > 100 and min(excess.values()) < 0


def test_jacket_degree_is_contraction_invariant():
    ts = enumerate_diagrams(MQ3, 2)
    tested = 0
    for t in ts.terms:
        g = t.graph
        col = infer_colouring(g)
        for a, b in g.edge_pairs():
            if g.nu[a] == g.nu[b]:
                continue             # self-loop contractions are excluded
            h = contract(g, [(a, b)])
            sub_col = {s: col[s] for s in h.strands}
            assert open_jacket_degree(h, sub_col) == \
                open_jacket_degree(g, col), t.code
            tested += 1
    assert tested >= 30


def test_gurau_against_boundary_gurau():
    for t in enumerate_diagrams(MQ3, 2).terms:
        g = t.graph
        col = infer_colouring(g)
        assert open_jacket_degree(g, col) >= boundary_gurau_degree(g, col)


def test_jacket_degrees_match_the_per_jacket_reference():
    # the degrees count each colour pair's faces once for all jackets; the
    # reference counts every jacket afresh, open and after capping
    checked, positive = 0, 0
    for theory, max_edges in ((MQ3, 2), (BGR, 1)):
        for t in enumerate_diagrams(theory, max_edges,
                                    connected=True).terms:
            g = t.graph
            col = infer_colouring(g)
            want = oracles.per_jacket_open_degree(g, col)
            assert open_jacket_degree(g, col) == want, t.code
            assert boundary_gurau_degree(g, col) == \
                oracles.per_jacket_boundary_degree(g, col), t.code
            capped = cap_boundary(g)
            cap_col = dict(col)
            cap_col.update((f"cap:{s}", col[s])
                           for h in g.external_half_edges()
                           for s in g.strands_at(h))
            closed = oracles.per_jacket_open_degree(capped, cap_col)
            assert gurau_degree_open(g) == (
                closed, oracles.per_jacket_boundary_degree(g, col)), t.code
            assert gurau_degree(capped, cap_col) == closed, t.code
            assert open_jacket_degree(capped, cap_col) == closed, t.code
            assert boundary_gurau_degree(capped, cap_col) == 0, t.code
            r = capped.strand_degree(capped.half_edges[0])
            match = _colour_matchings(capped.strands, capped.mu,
                                      capped.sigma1, cap_col, r)
            match[0] = dict(capped.iota)
            assert _coloured_graph_degree(list(capped.half_edges), match) \
                == oracles.per_jacket_coloured_degree(
                    list(capped.half_edges), match) == closed, t.code
            checked += 1
            positive += want > 0 or closed > 0
    assert (checked, positive) == (47, 29)


def test_divergent_sets_are_contraction_closed_in_class():
    sizes = {"bgr": 9, "mq3": 5}
    for name, th in (("bgr", BGR), ("mq3", MQ3)):
        div = divergent_set(th, 2)
        assert len(div) == sizes[name]
        in_class = 0
        for g, deg in div:
            assert deg >= 0 and is_bridgeless(g)
            assert g.external_half_edges() and g.n_edges() >= 1
            for e in g.edge_pairs():
                cog = contract(g, [e])
                try:
                    dcog = superficial_degree(th, cog)
                except GraphError:
                    continue         # contraction left the vertex-type set
                in_class += 1
                if cog.n_edges() and cog.external_half_edges() \
                        and is_bridgeless(cog):
                    assert dcog >= 0, name
        assert in_class >= 5, name


def test_classify_flags():
    (rep,) = classify(BGR, fixtures.melon_two_point())
    assert rep.degree == 2 and not rep.bridgeless and not rep.divergent
    (rep,) = classify(BGR, fixtures.quartic_tadpole("same"))
    assert rep.divergent and rep.n_external == 2 and rep.n_internal_faces == 3
    (rep,) = classify(BGR, fixtures.closed_melon())
    assert rep.divergent and rep.n_external == 0   # classify keeps vacua
    assert all(g.external_half_edges() for g, _ in divergent_set(BGR, 2))
    reps = classify(GW4, fixtures.gw_ladder())
    assert len(reps) == 1 and reps[0].genus == 0


def test_classify_builds_one_boundary_and_colouring_per_component(
        monkeypatch):
    calls = {"boundary": 0, "infer_colouring": 0}
    for name in calls:
        def counting(G, real=getattr(models, name), name=name):
            calls[name] += 1
            return real(G)
        monkeypatch.setattr(models, name, counting)
    two = disjoint_union([fixtures.fish(1, 1),
                          fixtures.quartic_tadpole("cross")])
    for theory, g in ((BGR, two), (BGR, fixtures.closed_melon()),
                      (GW4, fixtures.gw_ladder())):
        calls.update(dict.fromkeys(calls, 0))
        n = len(classify(theory, g))
        assert calls == {"boundary": n, "infer_colouring": n}


def test_renormalizability_check_builds_one_boundary_per_class(
        monkeypatch):
    # enumeration builds no boundary, and the matrix closed form hands
    # its boundary to the genus of the connected class
    calls = [0]

    def counting(G, real=models.boundary):
        calls[0] += 1
        return real(G)
    for module in (models, series):
        monkeypatch.setattr(module, "boundary", counting)
    for theory, e, report in ((GW4, 2, (30, 3, 4)), (MQ3, 2, (33, 5, 4)),
                              (BGR, 1, (14, 3, 2))):
        with_edges = sum(1 for t in enumerate_diagrams(theory, e).terms
                         if t.n_edges)
        calls[0] = 0
        rep = renormalizability_check(theory, e)
        assert 0 < calls[0] <= with_edges, theory.name
        assert (rep.n_checked, rep.n_divergent, rep.max_external) == report
        assert rep.passed and not rep.closed_form_mismatches \
            and not rep.invariant_clashes


def test_unknown_preset():
    with pytest.raises(GraphError):
        preset("nope")
