"""JSON document round trips, DOT export, and the command line surface."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import strandhopf
from strandhopf import boundary, canonical_code, cli, io, preset
from strandhopf import fixtures
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


def test_cli_output_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(strandhopf.__file__))
    for args in (["enumerate", "--theory", "gw4", "--max-edges", "2"],
                 ["central-check", "--theory", "mq3", "--max-edges", "1"]):
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-m", "strandhopf.cli"]
                                 + args, env=env, capture_output=True,
                                 timeout=300, check=True)
            outs.append(run.stdout)
        assert outs[0] and outs[0] == outs[1], args
