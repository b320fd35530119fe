"""Regenerate perfbench/data/corpus.json and perfbench/data/pins.json.

    python3 perfbench/gen_corpus.py

The corpus holds every connected class of gw4 <=3, mq3 <=3 and bgr <=2
edges (344 classes) as `io` graph documents with compact integer labels,
the theory documents, and per class the pinned |Aut|, coproduct term
count, superficial degree and `classify` report fields (code strings
excepted).  pins.json holds the expected line counts and coefficient sums
per (vertices, edges) profile of the `enumerate` cases and the expected
`central-check` summaries.  Run it only to re-pin: the benchmark compares
every later commit against these files.
"""

from __future__ import annotations

import json
import platform
import sys

import workloads as W
from runner_common import ROOT, git_revision, import_package


def _compact(graphs, G):
    key = graphs._label_key
    vm = {v: i for i, v in enumerate(sorted(G.vertices, key=key))}
    hm = {h: i for i, h in enumerate(sorted(G.half_edges, key=key))}
    sm = {s: i for i, s in enumerate(sorted(G.strands, key=key))}
    return graphs.relabel(G, vm, hm, sm)


def build_corpus(sh):
    entries, theories = [], {}
    for name, max_edges in W.CORPUS_SPEC:
        theory = sh.models.preset(name)
        theories[name] = sh.io.theory_to_document(theory)
        ts = sh.series.enumerate_diagrams(theory, max_edges)
        for term in ts.terms:
            g = _compact(sh.graphs, term.graph)
            entries.append({
                "theory": name,
                "edges": term.n_edges,
                "graph": sh.io.graph_to_document(g),
                "automorphisms": term.automorphisms,
                "coproduct_terms": len(sh.hopf.coproduct(g)),
                "superficial_degree": str(
                    sh.models.superficial_degree(theory, g)),
                "reports": [W.report_fields(r)
                            for r in sh.models.classify(theory, g)],
            })
            print(f"{name} {len(entries)}", file=sys.stderr, flush=True)
    return {"spec": [list(s) for s in W.CORPUS_SPEC],
            "theories": theories, "graphs": entries}


def build_pins(sh):
    pins = {"enumerate": {}, "central_check": {}}
    for name, e in W.ENUMERATE_CASES:
        rc, text = W.run_cli(sh.cli, ["enumerate", "--theory", name,
                                      "--max-edges", str(e)])
        assert rc == 0, (name, e)
        pins["enumerate"][f"{name}:{e}"] = W.enumerate_profile(text)
    for name, e in W.CENTRAL_CASES:
        rc, text = W.run_cli(sh.cli, ["central-check", "--theory", name,
                                      "--max-edges", str(e)])
        assert rc == 0, (name, e)
        pins["central_check"][f"{name}:{e}"] = W.central_summary(text)
    return pins


def main():
    sh = import_package()
    generated = {"revision": git_revision(ROOT),
                 "python": platform.python_version()}
    pins = build_pins(sh)
    pins["generated"] = generated
    corpus = build_corpus(sh)
    corpus["generated"] = generated
    W.DATA.mkdir(exist_ok=True)
    W.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    with open(W.CORPUS_FILE, "w", encoding="utf-8") as f:
        f.write("{\n")
        for key in ("generated", "spec", "theories"):
            f.write(f"{json.dumps(key)}: "
                    f"{json.dumps(corpus[key], sort_keys=True)},\n")
        f.write('"graphs": [\n')
        f.write(",\n".join(json.dumps(e, sort_keys=True)
                           for e in corpus["graphs"]))
        f.write("\n]}\n")
    print(f"{len(corpus['graphs'])} classes", file=sys.stderr)


if __name__ == "__main__":
    main()
