"""Seeded mutation fuzzing of the JSON documents the program reads.

Every mutant of a graph, theory or boundary document either loads or
raises ``DocumentError`` / ``GraphError``; a theory mutant that loads
enumerates its one-edge diagrams or raises ``GraphError``; and the
command line turns a mutant that does not load into the JSON error with
exit status 1, never a traceback.
"""

import copy
import json
import random
from pathlib import Path

from strandhopf import GraphError, boundary, cli, fixtures, io, preset
from strandhopf.series import enumerate_diagrams

FISH = Path(__file__).resolve().parent.parent / "demos" / "fish.json"

# a placeholder string serialized as the number 1e400, which JSON parses
# to an infinite float
HUGE = "\x00huge\x00"


def _sources():
    """(kind, document) pairs to mutate."""
    out = [("graph", json.loads(FISH.read_text(encoding="utf-8")))]
    for name in ("gw4", "mq3", "bgr"):
        out.append(("theory", io.theory_to_document(preset(name))))
    boundary_doc = io.one_graph_to_document(boundary(fixtures.fish(1, 2)))
    out.append(("boundary", boundary_doc))
    return out


def _paths(node, path=()):
    """Every position in a JSON tree, as key/index paths."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _replacement(rng, old):
    """A value of another type, NaN, 1e400, a list or an object."""
    other = [c for c in ("x", 7, 0.5, True, None, [], [old], {},
                         {"id": old}) if type(c) is not type(old)]
    return rng.choice(other + [float("nan"), HUGE])


def _mutate(rng, doc):
    """One random mutation of a deep copy of ``doc``: a value replaced,
    a key or list entry deleted, or a list entry duplicated."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc))[1:])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    op = rng.choice(("replace", "delete", "duplicate"))
    if op == "replace":
        parent[last] = _replacement(rng, parent[last])
    elif op == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    else:
        parent[last] = [parent[last], copy.deepcopy(parent[last])]
    return json.dumps(doc).replace(json.dumps(HUGE), "1e400")


LOADERS = {"graph": io.loads_graph, "theory": io.loads_theory,
           "boundary": io.loads_one_graph}


def test_mutated_documents_load_or_fail_cleanly(tmp_path, capsys):
    rng = random.Random(20260501)
    rejected = {}
    for kind, doc in _sources():
        for _ in range(120):
            text = _mutate(rng, doc)
            try:
                loaded = LOADERS[kind](text)
            except GraphError:   # DocumentError is a GraphError
                rejected.setdefault(kind, []).append(text)
                continue
            if kind == "theory":
                try:
                    enumerate_diagrams(loaded, 1)
                except GraphError:
                    pass
    assert set(rejected) == set(LOADERS)

    # the command line reports rejected documents as JSON, exit status 1
    path = tmp_path / "mutant.json"
    commands = {"graph": ["info", str(path)],
                "theory": ["enumerate", "--theory", str(path),
                           "--max-edges", "1"],
                "boundary": ["enumerate", "--theory", "gw4", "--max-edges",
                             "1", "--boundary", str(path)]}
    for kind, texts in rejected.items():
        for text in texts[:3]:
            path.write_text(text, encoding="utf-8")
            assert cli.main(commands[kind]) == 1, text
            err = json.loads(capsys.readouterr().err)
            assert err["error"] in ("document", "graph"), text
