"""JSON document round trips, DOT export, and the command line surface."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import strandhopf
from strandhopf import boundary, canonical_code, cli, io, preset
from strandhopf import fixtures, graphs, hopf, iso, models, series
from strandhopf.graphs import disjoint_union, relabel
from strandhopf.io import DocumentError
from strandhopf.iso import one_graph_code
from strandhopf.rewrite import contract
from strandhopf.series import enumerate_diagrams

CORPUS = fixtures.all_fixtures()


def test_graph_round_trip_is_byte_identical():
    for name, g in CORPUS.items():
        text = io.dumps_graph(g)
        back = io.loads_graph(text)
        assert io.dumps_graph(back) == text, name
        assert canonical_code(back) == canonical_code(g), name


def test_graph_document_errors():
    assert issubclass(DocumentError, Exception)
    from strandhopf import GraphError
    assert issubclass(DocumentError, GraphError)
    with pytest.raises(DocumentError, match="not valid JSON"):
        io.loads_graph("{")
    with pytest.raises(DocumentError, match="JSON object"):
        io.document_to_graph([1, 2])
    with pytest.raises(DocumentError, match="missing keys"):
        io.document_to_graph({"vertices": []})
    doc = io.graph_to_document(fixtures.fish(1, 2))
    bad = dict(doc, half_edges=[{"id": "a"}])
    with pytest.raises(DocumentError, match="id, vertex"):
        io.document_to_graph(bad)
    bad = dict(doc, iota=doc["iota"] + [["e1", "ghost"]])
    with pytest.raises(DocumentError, match="unknown labels"):
        io.document_to_graph(bad)
    bad = dict(doc, sigma1={"a": "b"})
    with pytest.raises(DocumentError, match="list of pairs"):
        io.document_to_graph(bad)
    bad = dict(doc, sigma2=doc["sigma2"] + [["only_one"]])
    with pytest.raises(DocumentError, match="two-element"):
        io.document_to_graph(bad)
    with pytest.raises(DocumentError, match="list of objects"):
        io.document_to_graph(dict(doc, half_edges=5))
    v = doc["vertices"][0]
    for label in ([1], {"x": 1}):
        bad = dict(doc, half_edges=[{"id": label, "vertex": v}])
        with pytest.raises(DocumentError, match="strings or numbers"):
            io.document_to_graph(bad)
        with pytest.raises(DocumentError, match="strings or numbers"):
            io.document_to_graph(dict(doc, vertices=[label]))
        bad = dict(doc, iota=doc["iota"] + [[label, "e1"]])
        with pytest.raises(DocumentError, match="unknown labels"):
            io.document_to_graph(bad)
    # NaN equals nothing, not even itself: the union-find would never end
    for number in map(float, ("NaN", "Infinity", "-Infinity")):
        with pytest.raises(DocumentError, match="NaN and infinities"):
            io.loads_graph(json.dumps(dict(doc, vertices=[number, 2])))
        bad = dict(doc, half_edges=[{"id": number, "vertex": v}])
        with pytest.raises(DocumentError, match="NaN and infinities"):
            io.document_to_graph(bad)
        b = io.one_graph_to_document(boundary(fixtures.fish(1, 1)))
        with pytest.raises(DocumentError, match="NaN and infinities"):
            io.document_to_one_graph(dict(b, vertices=[number]))
    # JSON true is Python's True, which equals 1 as a dict key
    for flag in (True, False):
        with pytest.raises(DocumentError, match="strings or numbers"):
            io.loads_graph(json.dumps(dict(doc, vertices=[1, flag])))
        bad = dict(doc, half_edges=[{"id": flag, "vertex": v}])
        with pytest.raises(DocumentError, match="strings or numbers"):
            io.document_to_graph(bad)


def test_mixed_label_types_round_trip():
    fish = fixtures.fish(1, 2)
    doc = io.graph_to_document(fish)
    v = doc["vertices"][0]
    doc["vertices"] = [7 if x == v else x for x in doc["vertices"]]
    doc["half_edges"] = [dict(h, vertex=7 if h["vertex"] == v
                              else h["vertex"]) for h in doc["half_edges"]]
    g = io.document_to_graph(doc)
    text = io.dumps_graph(g)
    assert json.loads(text)["vertices"][0] == 7
    assert io.dumps_graph(io.loads_graph(text)) == text
    assert canonical_code(g) == canonical_code(fish)

    doc = io.theory_to_document(preset("gw4"))
    entry = doc["vertices"][0]
    h = entry["graph"]["half_edges"][0]["id"]
    ren = {h: 5}.get
    entry["graph"]["half_edges"] = [dict(e, id=ren(e["id"], e["id"]))
                                    for e in entry["graph"]["half_edges"]]
    entry["graph"]["pairing"] = [[ren(a, a), ren(b, b)]
                                 for a, b in entry["graph"]["pairing"]]
    entry["orient"] = [[ren(k, k), x] for k, x in entry["orient"]]
    text = io.dumps_theory(io.document_to_theory(doc))
    assert io.dumps_theory(io.loads_theory(text)) == text


def test_one_graph_round_trip_and_errors():
    b = boundary(fixtures.fish(1, 1))
    doc = io.one_graph_to_document(b)
    back = io.document_to_one_graph(doc)
    assert io.one_graph_to_document(back) == doc
    assert one_graph_code(back) == one_graph_code(b)
    with pytest.raises(DocumentError, match="unknown labels"):
        io.document_to_one_graph(dict(doc, pairing=[["x", "y"]]))
    h1, h2, h3 = (e["id"] for e in doc["half_edges"][:3])
    with pytest.raises(DocumentError, match="involution"):
        io.document_to_one_graph(dict(doc, pairing=[[h1, h2], [h1, h3]]))


def test_theory_round_trip_is_byte_identical():
    for name in ("gw4", "bgr", "mq3"):
        t = preset(name)
        text = io.dumps_theory(t)
        back = io.loads_theory(text)
        assert io.dumps_theory(back) == text, name
        assert back.klass == t.klass
        assert back.edge_weights == t.edge_weights
        assert back.dimension == t.dimension
        assert back.rank == t.rank and back.zeta == t.zeta
        assert len(enumerate_diagrams(back, 1).terms) == \
            len(enumerate_diagrams(t, 1).terms), name


def test_theory_document_errors():
    doc = io.theory_to_document(preset("gw4"))
    with pytest.raises(DocumentError, match="map, coloured or generic"):
        io.document_to_theory(dict(doc, **{"class": "weird"}))
    with pytest.raises(DocumentError, match="missing keys"):
        io.document_to_theory({"class": "map"})
    with pytest.raises(DocumentError, match="rational"):
        io.document_to_theory(dict(doc, dimension="one"))
    leggy = io.one_graph_to_document(boundary(fixtures.gw_ladder()))
    bad = dict(doc, propagators=[{"graph": leggy, "weight": 1}])
    with pytest.raises(DocumentError, match="two vertices"):
        io.document_to_theory(bad)
    bad = dict(doc, vertices=[{"graph": doc["vertices"][0]["graph"]}])
    with pytest.raises(DocumentError, match="graph and weight"):
        io.document_to_theory(bad)
    bad = dict(doc, propagators=[{"weight": 1}])
    with pytest.raises(DocumentError, match="graph and weight"):
        io.document_to_theory(bad)
    with pytest.raises(DocumentError, match="rank"):
        io.document_to_theory(dict(doc, rank="x"))
    vertex = doc["vertices"][0]
    for key, value in (("cost", "x"), ("cost", 1.7), ("cost", 1e400),
                       ("cost", -2),
                       ("colour", 5), ("parity", 5), ("orient", 5),
                       ("orient", [[1, 2, 3]]), ("colour", [7]),
                       ("parity", [[[1], 0]]), ("orient", [["nope", 1]]),
                       ("orient", []), ("orient", None),
                       ("orient", _marks_with(vertex["orient"], "a")),
                       ("orient", _marks_with(vertex["orient"], 0.5))):
        bad = dict(doc, vertices=[dict(vertex, **{key: value})])
        with pytest.raises(DocumentError, match=key):
            io.document_to_theory(bad)
    for bad, key in _bad_coloured_documents():
        with pytest.raises(DocumentError, match=key):
            io.document_to_theory(bad)


def _marks_with(marks, value):
    """``marks`` with the first mark value replaced by ``value``."""
    return [[marks[0][0], value]] + marks[1:]


def _bad_coloured_documents():
    """bgr documents with a missing or malformed colour or parity mark, and
    the mark each one gets wrong."""
    doc = io.theory_to_document(preset("bgr"))
    first, rest = doc["vertices"][0], doc["vertices"][1:]
    for key, value in (("colour", None), ("parity", None),
                       ("parity", _marks_with(first["parity"], "h1")),
                       ("colour", _marks_with(first["colour"], True))):
        yield dict(doc, vertices=[dict(first, **{key: value})] + rest), key


def test_dot_export_modes():
    g = fixtures.fish(1, 2)
    dot = io.to_dot(g)
    assert dot.startswith("graph {")
    assert dot.endswith("}\n")
    assert '"e1" -- "f1" [style=bold];' in dot
    assert "shape=circle" in dot and "shape=point" in dot
    flat = io.to_dot(g, "vertexgraph")
    assert "shape=point" not in flat
    assert "[style=dashed];" in flat
    from strandhopf import GraphError
    with pytest.raises(GraphError, match="export mode"):
        io.to_dot(g, "3d")


# ---------------------------------------------------------------------------
# command line


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _fish_file(tmp_path):
    return _write(tmp_path, "fish.json", io.dumps_graph(fixtures.fish(1, 2)))


def test_cli_validate(tmp_path, capsys):
    path = _fish_file(tmp_path)
    assert cli.main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"valid": True, "violations": []}

    bad = _write(tmp_path, "bad.json", "{ nope")
    assert cli.main(["validate", bad]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"

    doc = io.graph_to_document(fixtures.fish(1, 2))
    doc["sigma2"] = []
    broken = _write(tmp_path, "broken.json", json.dumps(doc))
    assert cli.main(["validate", broken]) == 1
    cap = capsys.readouterr()
    report = json.loads(cap.out)
    assert report["valid"] is False and report["violations"]
    assert json.loads(cap.err)["error"] == "validation"

    shapeless = _write(tmp_path, "shapeless.json", '{"vertices": []}')
    assert cli.main(["validate", shapeless]) == 1
    cap = capsys.readouterr()
    assert json.loads(cap.out)["valid"] is False
    assert json.loads(cap.err)["error"] == "document"


def test_cli_info(tmp_path, capsys):
    path = _fish_file(tmp_path)
    assert cli.main(["info", path]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["vertices"] == 2 and info["edges"] == 2
    assert info["automorphisms"] == 288
    assert info["internal_faces"] == 2
    assert info["boundary_components"] == 2
    assert "genus" not in info          # strand degree four
    assert cli.main(["info", path, "--theory", "bgr"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["superficial_degree"] == 0
    assert len(info["components"]) == 1
    assert info["components"][0]["divergent"] is True

    flat = _write(tmp_path, "map.json", io.dumps_graph(fixtures.paper_map()))
    assert cli.main(["info", flat]) == 0
    assert json.loads(capsys.readouterr().out)["genus"] == 0


def _reference_info(g, theory):
    """The ``info`` JSON text of ``g`` from the public functions, each
    building its own residue."""
    internal, external = graphs.faces(g)
    b = boundary(g)
    info = {"vertices": len(g.vertices), "edges": g.n_edges(),
            "half_edges": len(g.half_edges), "strands": len(g.strands),
            "internal_faces": len(internal),
            "external_faces": len(external),
            "external_half_edges": len(g.external_half_edges()),
            "boundary_components": len(b.components()),
            "boundary_code": one_graph_code(b),
            "euler_characteristic": graphs.euler_characteristic(g),
            "canonical_code": canonical_code(g),
            "automorphisms": iso.automorphism_count(g)}
    try:
        info["genus"] = models.genus(g)
    except graphs.GraphError:
        pass
    if theory is not None:
        info["theory"] = theory
        info["superficial_degree"] = models.superficial_degree(
            preset(theory), g)
        info["components"] = [dict(vars(rep)) for rep in
                              models.classify(preset(theory), g)]
    return json.dumps(cli._jsonable(info), indent=2, sort_keys=True) + "\n"


def test_cli_info_builds_one_residue_view_per_component(tmp_path, capsys,
                                                         monkeypatch):
    calls = []
    real = graphs._residue_view

    def counted(G):
        calls.append(G)
        return real(G)

    for mod in (graphs, models):
        monkeypatch.setattr(mod, "_residue_view", counted)
    fish = fixtures.fish(1, 2)
    for g, theory in ((fish, "bgr"), (disjoint_union([fish, fish]), "bgr"),
                      (fixtures.paper_map(), None),
                      (disjoint_union([fixtures.paper_map(), fish]), None)):
        path = _write(tmp_path, "g.json", io.dumps_graph(g))
        del calls[:]
        args = ["info", path] + (["--theory", theory] if theory else [])
        assert cli.main(args) == 0
        assert len(calls) == len(graphs.connected_components(g))
        assert capsys.readouterr().out == _reference_info(g, theory)


def test_cli_info_table_format(tmp_path, capsys):
    path = _fish_file(tmp_path)
    assert cli.main(["info", path, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "vertices: 2\n" in out
    assert "automorphisms: 288\n" in out


def test_cli_contract(tmp_path, capsys):
    path = _fish_file(tmp_path)
    g = fixtures.fish(1, 2)

    assert cli.main(["contract", path, "--edges", "e1,e2"]) == 0
    residue = io.loads_graph(capsys.readouterr().out)
    want = contract(g, fixtures.fish_edges())
    assert canonical_code(residue) == canonical_code(want)
    assert len(residue.vertices) == 1 and residue.n_edges() == 0

    # naming either half of an edge, twice, still contracts it once
    assert cli.main(["contract", path, "--edges", "e1,f1"]) == 0
    one = io.loads_graph(capsys.readouterr().out)
    assert one.n_edges() == 1 and len(one.vertices) == 1

    assert cli.main(["contract", path, "--edges", "x1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "graph" and "external" in err["message"]

    assert cli.main(["contract", path, "--edges", "zz"]) == 1
    assert "unknown half-edge" in json.loads(capsys.readouterr().err)["message"]

    assert cli.main(["contract", path, "--edges", ","]) == 1
    assert "no edges" in json.loads(capsys.readouterr().err)["message"]


def test_cli_contract_names_numeric_half_edges(tmp_path, capsys):
    # a token names the half-edge whose label it is the text of, so
    # numeric labels can be named, and an edge [1, "f1"] of mixed label
    # types is contracted like any other
    g = fixtures.fish(1, 2)
    want = canonical_code(contract(g, [("e1", "f1")]))
    for hmap in ({"e1": 1, "f1": 2}, {"e1": 1}):
        path = _write(tmp_path, "fish.json",
                      io.dumps_graph(relabel(g, hmap=hmap)))
        assert cli.main(["contract", path, "--edges", "1"]) == 0
        one = io.loads_graph(capsys.readouterr().out)
        assert canonical_code(one) == want

    # a token that is the text of two labels names neither
    path = _write(tmp_path, "fish.json",
                  io.dumps_graph(relabel(g, hmap={"e1": 1, "e2": "1"})))
    assert cli.main(["contract", path, "--edges", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "graph" and "ambiguous" in err["message"]


def test_cli_coproduct_and_antipode(tmp_path, capsys):
    path = _fish_file(tmp_path)
    assert cli.main(["coproduct", path]) == 0
    terms = json.loads(capsys.readouterr().out)
    assert len(terms) == 3
    assert sorted(t["coefficient"] for t in terms) == [1, 1, 2]
    for t in terms:
        for code, e in t["left"] + t["right"]:
            assert isinstance(code, str) and e >= 1

    assert cli.main(["antipode", path]) == 0
    terms = json.loads(capsys.readouterr().out)
    assert terms and all(set(t) == {"term", "coefficient"} for t in terms)


def test_cli_classify(tmp_path, capsys):
    path = _fish_file(tmp_path)
    assert cli.main(["classify", path, "--theory", "bgr"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1
    assert reports[0]["degree"] == 0 and reports[0]["divergent"] is True

    # a theory can also come from a document file
    tfile = _write(tmp_path, "bgr.json", io.dumps_theory(preset("bgr")))
    assert cli.main(["classify", path, "--theory", tfile]) == 0
    assert json.loads(capsys.readouterr().out) == reports


def test_cli_enumerate(tmp_path, capsys):
    assert cli.main(["enumerate", "--theory", "gw4", "--max-edges", "1",
                     "--connected"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    for line in lines:
        doc = json.loads(line)
        g = io.document_to_graph(doc)
        assert doc["automorphisms"] >= 1
        assert Fraction(str(doc["coefficient"])) == \
            Fraction(1, doc["automorphisms"])
        assert g.n_edges() == doc["edges"] <= 1


def test_cli_enumerate_with_boundary_filter(tmp_path, capsys):
    full = enumerate_diagrams(preset("gw4"), 1)
    term = next(t for t in full.terms if t.n_edges == 1)
    want = boundary(term.graph)
    bfile = _write(tmp_path, "b.json",
                   json.dumps(io.one_graph_to_document(want)))
    expect = [t for t in full.terms
              if one_graph_code(boundary(t.graph)) == one_graph_code(want)]
    assert cli.main(["enumerate", "--theory", "gw4", "--max-edges", "1",
                     "--connected", "--boundary", bfile]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert 1 <= len(lines) == len(expect)
    for line in lines:
        g = io.document_to_graph(json.loads(line))
        assert one_graph_code(boundary(g)) == one_graph_code(want)


def _string_labelled(g, form):
    """``g`` with its k-th label x of each kind named ``form.format(k, x)``."""
    return relabel(g, *({x: form.format(k, x) for k, x in enumerate(xs)}
                        for xs in (g.vertices, g.half_edges, g.strands)))


def test_document_line_is_the_json_of_the_union_document():
    fields = {"automorphisms": 8, "coefficient": "1/8", "edges": 3}

    def dumped(g):
        doc = dict(io.graph_to_document(g), **fields)
        return json.dumps(doc, sort_keys=True) + "\n"

    # labels with characters JSON escapes, ":", "@" and non-ASCII ones
    odd = _string_labelled(fixtures.fish(1, 2), '{0}"\\:@\u00e9\u0080{1}')
    tadpole = _string_labelled(fixtures.nested_tadpole(), "t{0}")
    bare = series.instantiate_dressed(preset("gw4").dressed_types()[0],
                                      "b")[0]
    assert not bare.edge_pairs()    # its iota and sigma2 bodies are empty
    # with 11 parts or more, "10:x" sorts before "1:x"
    many = [tadpole, odd, bare, fixtures.fish(1, 2)] * 3
    for gs in ([odd], [bare], [bare, odd], many):
        members = [(f"{i}:", io.graph_fragments(g)) for i, g in enumerate(gs)]
        assert io.document_line(fields, members) == \
            dumped(disjoint_union(gs))
        assert io.document_line(fields, [("", members[0][1])]) == \
            dumped(gs[0])
    assert io.graph_to_document(disjoint_union(many))["vertices"] != \
        [f"{i}:{v}" for i, g in enumerate(many) for v in g.vertices]
    # the fragments of every connected class the CLI writes are the list
    # bodies of the sorted document, whose pairs are in label order
    for name in ("gw4", "mq3", "bgr"):
        for t in enumerate_diagrams(preset(name), 2).terms:
            g, doc = t.graph, io.graph_to_document(t.graph)
            bodies = [json.dumps(doc[key], sort_keys=True)[1:-1]
                      for key in sorted(doc)]
            fragments = io.graph_fragments(g)
            assert [f.replace("\x80", '"') for f in fragments] == bodies
            assert io.document_line(fields, [("", fragments)]) == dumped(g)


def _count_calls(monkeypatch, calls, name, modules,
                 counts=lambda *a, **kw: 1):
    real = getattr(modules[0], name)

    def counting(*args, **kw):
        calls[name] += counts(*args, **kw)
        return real(*args, **kw)
    calls[name] = 0
    for module in modules:
        monkeypatch.setattr(module, name, counting)


def test_cli_enumerate_builds_no_union_and_no_boundary(monkeypatch, capsys):
    # disconnected lines come from their parts' fragments: no union graph
    # (growth seeds are unions without prefixes, and so are not counted),
    # no boundary and no 1-graph canonization
    calls = {}
    _count_calls(monkeypatch, calls, "disjoint_union",
                 (graphs, series, iso),
                 lambda gs, prefix=True: prefix)
    _count_calls(monkeypatch, calls, "boundary", (graphs, series))
    _count_calls(monkeypatch, calls, "one_graph_code", (iso,))
    _count_calls(monkeypatch, calls, "_one_entries", (iso,))
    outs = {}
    for name in sorted(models.PRESETS):
        assert cli.main(["enumerate", "--theory", name,
                         "--max-edges", "2"]) == 0
        outs[name] = capsys.readouterr().out.splitlines()
    assert calls == dict.fromkeys(calls, 0)
    monkeypatch.undo()
    for name, lines in outs.items():
        terms = enumerate_diagrams(preset(name), 2, connected=False).terms
        assert len(lines) == len(terms) > 0, name
        for line, t in zip(lines, terms):
            doc = dict(io.graph_to_document(t.graph), edges=t.n_edges,
                       automorphisms=t.automorphisms,
                       coefficient=cli._jsonable(t.coefficient))
            assert line == json.dumps(doc, sort_keys=True), name
            assert Fraction(str(doc["coefficient"])) == t.coefficient


def test_cli_enumerate_boundary_filter_keeps_the_matching_lines(
        tmp_path, capsys):
    terms = [t for t in enumerate_diagrams(preset("gw4"), 1).terms
             if t.n_edges == 1]
    wants = [boundary(terms[0].graph),
             boundary(disjoint_union([terms[0].graph, terms[-1].graph]))]
    argv = ["enumerate", "--theory", "gw4", "--max-edges", "2"]
    for mode in ([], ["--connected"]):
        assert cli.main(argv + mode) == 0
        every = capsys.readouterr().out.splitlines()
        for k, want in enumerate(wants):
            bfile = _write(tmp_path, f"b{k}.json",
                           json.dumps(io.one_graph_to_document(want)))
            assert cli.main(argv + mode + ["--boundary", bfile]) == 0
            got = capsys.readouterr().out.splitlines()
            expect = [line for line in every if one_graph_code(boundary(
                io.document_to_graph(json.loads(line)))) ==
                one_graph_code(want)]
            assert got == expect, (mode, k)
            assert expect or mode, k    # a disconnected listing has both


def test_cli_builds_its_parser_once():
    assert cli._build_parser() is cli._build_parser()


def test_cli_central_check(capsys):
    assert cli.main(["central-check", "--theory", "gw4",
                     "--max-edges", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "PASS"
    assert out["universe_size"] == 14
    assert out["multi_trace_vertex_classes"] >= 1


def test_cli_export_dot(tmp_path, capsys):
    path = _fish_file(tmp_path)
    assert cli.main(["export-dot", path]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph {") and "style=bold" in dot
    assert cli.main(["export-dot", path, "--mode", "vertexgraph"]) == 0
    assert "shape=point" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["export-dot", path, "--mode", "3d"])
    assert exc.value.code == 2


def test_cli_error_exits(tmp_path, capsys):
    path = _fish_file(tmp_path)
    assert cli.main(["classify", path, "--theory", "nope"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "graph" and "bgr" in err["message"]

    assert cli.main(["info", str(tmp_path / "missing.json")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "file"

    # a vertex whose type the theory lacks (the fish's quartic under gw4)
    assert cli.main(["info", path, "--theory", "gw4"]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and json.loads(cap.err) == {
        "error": "graph", "message": "vertex type not in the theory"}

    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--max-edges", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    for command in ("enumerate", "central-check"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--theory", "gw4", "--max-edges", "-1"])
        assert exc.value.code == 2
    assert "at least 0" in capsys.readouterr().err

    bad = _write(tmp_path, "bad_boundary.json", "{ nope")
    assert cli.main(["enumerate", "--theory", "gw4", "--max-edges", "1",
                     "--boundary", bad]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "document"

    for number in map(float, ("NaN", "Infinity", "-Infinity")):
        doc = {"vertices": [number, 2], "half_edges": [], "strands": [],
               "iota": [], "sigma1": [], "sigma2": []}
        bad = _write(tmp_path, "bad_graph.json", json.dumps(doc))
        assert cli.main(["info", bad]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "document"
        b = io.one_graph_to_document(boundary(fixtures.fish(1, 1)))
        bad = _write(tmp_path, "bad_boundary.json",
                     json.dumps(dict(b, vertices=[number])))
        assert cli.main(["enumerate", "--theory", "gw4", "--max-edges", "1",
                         "--boundary", bad]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "document"

    doc = {"vertices": [1, True], "half_edges": [], "strands": [],
           "iota": [], "sigma1": [], "sigma2": []}
    bad = _write(tmp_path, "bad_graph.json", json.dumps(doc))
    assert cli.main(["info", bad]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "document"

    doc = io.theory_to_document(preset("gw4"))
    vertex = doc["vertices"][0]
    graph = vertex["graph"]
    nan_graph = dict(graph, vertices=[float("nan")] + graph["vertices"][1:])
    for bad_doc in (dict(doc, rank="x"),
                    dict(doc, vertices=[dict(vertex, graph=nan_graph)]),
                    dict(doc, vertices=[dict(vertex, cost=1.7)]),
                    dict(doc, vertices=[dict(vertex, orient=5)]),
                    dict(doc, vertices=[dict(vertex, orient=[[1, 2, 3]])]),
                    dict(doc, vertices=[dict(vertex, orient=[["x", 1]])]),
                    dict(doc, vertices=[dict(vertex, orient=None)]),
                    dict(doc, vertices=[dict(vertex, orient=_marks_with(
                        vertex["orient"], "a"))]),
                    *(bad for bad, _ in _bad_coloured_documents())):
        bad = _write(tmp_path, "bad_theory.json", json.dumps(bad_doc))
        assert cli.main(["enumerate", "--theory", bad, "--max-edges",
                         "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "document"


def test_cli_output_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(strandhopf.__file__))
    fish = os.path.join(os.path.dirname(src), "demos", "fish.json")
    # power counting canonizes the vertex graphs and boundaries; gw4 has
    # no vertex type of the fish, so info fails there, after canonizing
    # the fish's vertex graphs, and its error must not vary either
    for args, status in (
            (["enumerate", "--theory", "gw4", "--max-edges", "2"], 0),
            (["central-check", "--theory", "mq3", "--max-edges", "1"], 0),
            (["classify", fish, "--theory", "bgr"], 0),
            (["info", fish, "--theory", "gw4"], 1)):
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-m", "strandhopf.cli"]
                                 + args, env=env, capture_output=True,
                                 timeout=300)
            assert run.returncode == status, (args, run.stderr)
            outs.append(run.stdout + run.stderr)
        assert outs[0] and outs[0] == outs[1], args
