"""The four benchmark workloads: seeded inputs, operations and output checks.

Each workload is a fixed list of operations that one round runs in order,
closed loop (one request at a time, the next only after the previous
returns).  ``setup`` makes the inputs from the seed; the operations are
then timed one by one; ``check`` compares what they returned with the
values pinned in ``data/`` at the commit that generated them.

The pinned values never include canonical code strings, so a change to the
canonization algorithm that renames classes does not fail the checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
CORPUS_FILE = DATA / "corpus.json"
PINS_FILE = DATA / "pins.json"

# The corpus: every connected class of these (theory, max edges) pairs.
CORPUS_SPEC = (("gw4", 3), ("mq3", 3), ("bgr", 2))

# `enumerate` with the default disconnected output, and `central-check`.
# Sized so that one round stays a few seconds long; gw4/mq3 at 3 edges,
# bgr at 2 edges and central mq3 at 2 edges take 7 to 24 s each on one
# 2-core machine and do not fit a round (see perfbench/README.md).
ENUMERATE_CASES = (("gw4", 2), ("mq3", 2), ("bgr", 1))
CENTRAL_CASES = (("bgr", 0), ("gw4", 1), ("mq3", 1))

# Corpus workloads run on a fixed, seed-independent stratified subset of
# the corpus (every STRIDE-th graph in pinned order, starting at 0), so the
# work per round does not depend on the seed; the seed relabels the graphs
# and shuffles their order.
HOPF_STRIDE = 20
POWER_STRIDE = 9
# Multiplicativity is checked on pairs of <=2-edge classes taken in pinned
# corpus order: the first MULT_PAIRS of zip(smalls[::3], smalls[1::3]).
MULT_PAIRS = 20

# Report fields pinned for power counting (classify minus code strings).
REPORT_FIELDS = ("n_vertices", "n_edges", "n_internal_faces", "n_external",
                 "degree", "divergent", "bridgeless", "genus", "gurau",
                 "gurau_capped", "boundary_gurau")


def jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    return x


# ---------------------------------------------------------------------------
# seeded relabelling


def _tokens(rng, n, taken):
    out = []
    while len(out) < n:
        t = f"{rng.getrandbits(40):010x}"
        if t not in taken:
            taken.add(t)
            out.append(t)
    return out


def relabel_graph(graphs, G, rng):
    """``G`` with every vertex, half-edge and strand label renamed to a
    random token drawn from ``rng``."""
    taken = set()
    vs = _tokens(rng, len(G.vertices), taken)
    hs = _tokens(rng, len(G.half_edges), taken)
    ss = _tokens(rng, len(G.strands), taken)
    return graphs.relabel(G, dict(zip(G.vertices, vs)),
                          dict(zip(G.half_edges, hs)),
                          dict(zip(G.strands, ss)))


def relabel_theory_document(doc, rng):
    """Rename slot and section labels inside each vertex type of a theory
    document (marks follow their labels) and shuffle the type order."""
    doc = json.loads(json.dumps(doc))
    for entry in doc["vertices"]:
        g = entry["graph"]
        taken = set()
        slots = dict(zip(g["vertices"], _tokens(rng, len(g["vertices"]),
                                               taken)))
        secs = [h["id"] for h in g["half_edges"]]
        secs = dict(zip(secs, _tokens(rng, len(secs), taken)))
        g["vertices"] = [slots[v] for v in g["vertices"]]
        g["half_edges"] = [{"id": secs[h["id"]], "vertex": slots[h["vertex"]]}
                           for h in g["half_edges"]]
        g["pairing"] = [[secs[a], secs[b]] for a, b in g["pairing"]]
        for key, names in (("colour", secs), ("parity", slots),
                           ("orient", secs)):
            if entry.get(key) is not None:
                entry[key] = [[names[k], v] for k, v in entry[key]]
    rng.shuffle(doc["vertices"])
    return doc


# ---------------------------------------------------------------------------
# shared pieces


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_cli(cli, argv):
    """``cli.main(argv)`` in process; returns (exit code, stdout text)."""
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def enumerate_profile(text):
    """{"<vertices>x<edges>": [line count, sum of coefficients]} of the
    JSON lines that `enumerate` prints."""
    prof = {}
    for line in text.splitlines():
        doc = json.loads(line)
        key = f"{len(doc['vertices'])}x{doc['edges']}"
        n, total = prof.get(key, (0, Fraction(0)))
        prof[key] = (n + 1, total + Fraction(doc["coefficient"]))
    return {k: [n, str(c)] for k, (n, c) in sorted(prof.items())}


def central_summary(text):
    doc = json.loads(text)
    return {k: doc[k] for k in ("status", "universe_size", "pairs_checked",
                                "multi_trace_vertex_classes")}


def mult_pairs(entries):
    smalls = [i for i, e in enumerate(entries) if e["edges"] <= 2]
    return list(zip(smalls[::3], smalls[1::3]))[:MULT_PAIRS]


# ---------------------------------------------------------------------------
# workloads
#
# A workload object is made by ``setup`` and has ``ops`` (callables taking
# no argument, each one operation), ``check(i, result)`` returning a
# failure message or None for operation i, ``digest(results)`` (a hash of
# what the round printed or computed, compared across rounds run under
# different PYTHONHASHSEED values) and ``bytes_out``.


class CliWorkload:
    def __init__(self, sh, command, cases, pins, theory_paths):
        self.sh = sh
        self.pins = pins
        self.cases = cases
        self.bytes_out = 0
        self.ops = [self._op(command, theory_paths[name], name, e)
                    for name, e in cases]
        self.summarize = enumerate_profile if command == "enumerate" \
            else central_summary

    def _op(self, command, path, name, e):
        argv = [command, "--theory", str(path), "--max-edges", str(e)]

        def op():
            rc, text = run_cli(self.sh.cli, argv)
            self.bytes_out += len(text.encode("utf-8"))
            return rc, text
        return op

    def check(self, i, result):
        (name, e), (rc, text) = self.cases[i], result
        want = self.pins[f"{name}:{e}"]
        got = self.summarize(text) if rc == 0 else None
        return None if got == want else \
            f"{name}<={e}: exit {rc}, got {got}, want {want}"

    def digest(self, results):
        h = hashlib.sha256()
        for rc, text in results:
            h.update(f"{rc}\n{text}".encode("utf-8"))
        return h.hexdigest()


def _theory_files(sh, cases, rng, out_dir, seed):
    paths = {}
    for name in sorted({n for n, _ in cases}):
        doc = relabel_theory_document(
            sh.io.theory_to_document(sh.models.preset(name)), rng)
        path = Path(out_dir) / f"theory-{name}-seed{seed}.json"
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        paths[name] = path
    return paths


def setup_enumerate(sh, seed, out_dir):
    rng = random.Random(seed)
    paths = _theory_files(sh, ENUMERATE_CASES, rng, out_dir, seed)
    return CliWorkload(sh, "enumerate", ENUMERATE_CASES,
                       load_json(PINS_FILE)["enumerate"], paths)


def setup_central_check(sh, seed, out_dir):
    rng = random.Random(seed)
    paths = _theory_files(sh, CENTRAL_CASES, rng, out_dir, seed)
    return CliWorkload(sh, "central-check", CENTRAL_CASES,
                       load_json(PINS_FILE)["central_check"], paths)


class CorpusWorkload:
    """Shared set-up of the corpus workloads: the subset's graphs, read
    from their documents, relabelled and shuffled by the seed."""

    bytes_out = 0

    def __init__(self, sh, seed, stride):
        self.sh = sh
        corpus = load_json(CORPUS_FILE)
        self.entries = corpus["graphs"]
        self.theories = {name: sh.io.document_to_theory(doc)
                         for name, doc in corpus["theories"].items()}
        self.rng = random.Random(seed)
        self.graphs = {}
        self.order = list(range(0, len(self.entries), stride))
        for i in self.order:
            self.graphs[i] = self._graph(i)
        self.rng.shuffle(self.order)

    def _graph(self, i):
        G = self.sh.io.document_to_graph(self.entries[i]["graph"])
        return relabel_graph(self.sh.graphs, G, self.rng)

    @staticmethod
    def digest_of(items):
        return hashlib.sha256(
            json.dumps(items, sort_keys=True).encode("utf-8")).hexdigest()


class HopfSweep(CorpusWorkload):
    """Per graph: coproduct, antipode, counit and antipode axioms,
    coassociativity on one monomial, |Aut|.  Then multiplicativity of the
    coproduct on disjoint unions of pairs of small classes."""

    def __init__(self, sh, seed):
        super().__init__(sh, seed, HOPF_STRIDE)
        self.pairs = mult_pairs(self.entries)
        for i, j in self.pairs:
            for k in (i, j):
                if k not in self.graphs:
                    self.graphs[k] = self._graph(k)
        self.ops = [self._graph_op(i) for i in self.order] + \
            [self._pair_op(i, j) for i, j in self.pairs]
        self.keys = [("graph", i) for i in self.order] + \
            [("pair", i, j) for i, j in self.pairs]

    def _graph_op(self, i):
        g = self.graphs[i]
        return lambda: axioms(self.sh.hopf, self.sh.iso, g)

    def _pair_op(self, i, j):
        g1, g2 = self.graphs[i], self.graphs[j]
        return lambda: multiplicative(self.sh.hopf, self.sh.graphs, g1, g2)

    def check(self, i, result):
        key = self.keys[i]
        if key[0] == "pair":
            return None if result else f"pair {key[1:]}: not multiplicative"
        want = self.entries[key[1]]
        got = {"axioms": result["axioms"],
               "automorphisms": result["automorphisms"],
               "coproduct_terms": len(result["coproduct"])}
        pinned = {"axioms": True, "automorphisms": want["automorphisms"],
                  "coproduct_terms": want["coproduct_terms"]}
        return None if got == pinned else \
            f"graph {key[1]}: got {got}, want {pinned}"

    def digest(self, results):
        items = []
        for key, res in sorted(zip(self.keys, results),
                               key=lambda kr: kr[0]):
            if key[0] == "graph":
                res = sorted([repr(k), str(c)]
                             for k, c in res["coproduct"].items())
            items.append([list(key), res])
        return self.digest_of(items)


def axioms(hopf, iso, g):
    """Counit and antipode axioms and coassociativity of ``g``'s class."""
    F1 = Fraction(1)
    el = hopf.el_graph(g)
    cop = hopf.coproduct(g)
    left = right = s_left = s_right = hopf.el_zero()
    for (lm, rm), c in cop.items():
        left = hopf.el_add(left, hopf.el_scale(
            {rm: c}, hopf.counit({lm: F1})))
        right = hopf.el_add(right, hopf.el_scale(
            {lm: c}, hopf.counit({rm: F1})))
        s_left = hopf.el_add(s_left, hopf.el_mul(
            hopf.antipode_of_element({lm: Fraction(c)}), {rm: F1}))
        s_right = hopf.el_add(s_right, hopf.el_mul(
            {lm: F1}, hopf.antipode_of_element({rm: Fraction(c)})))
    unit = hopf.el_unit(hopf.counit(g))
    ok = (hopf.el_eq(left, el) and hopf.el_eq(right, el)
          and hopf.el_eq(s_left, unit) and hopf.el_eq(s_right, unit))
    mono = next(iter(el))
    lhs, rhs = {}, {}
    for (a, b), c in hopf.coproduct_of_monomial(mono).items():
        for (a1, a2), c2 in hopf.coproduct_of_monomial(a).items():
            lhs[(a1, a2, b)] = lhs.get((a1, a2, b), 0) + c * c2
        for (b1, b2), c2 in hopf.coproduct_of_monomial(b).items():
            rhs[(a, b1, b2)] = rhs.get((a, b1, b2), 0) + c * c2
    ok = ok and {k: v for k, v in lhs.items() if v} == \
        {k: v for k, v in rhs.items() if v}
    return {"axioms": ok, "automorphisms": iso.automorphism_count(g),
            "coproduct": cop}


def multiplicative(hopf, graphs, g1, g2):
    """Coproduct of a disjoint union equals the product of coproducts."""
    union = hopf.coproduct(graphs.disjoint_union([g1, g2]))
    prod = hopf.tens_mul(hopf.coproduct(g1), hopf.coproduct(g2))
    return union == prod


class PowerCounting(CorpusWorkload):
    """``classify`` and ``superficial_degree`` per graph under its theory:
    the library calls behind `info --theory` and `classify`."""

    def __init__(self, sh, seed):
        super().__init__(sh, seed, POWER_STRIDE)
        self.ops = [self._op(i) for i in self.order]
        self.keys = list(self.order)

    def _op(self, i):
        g = self.graphs[i]
        theory = self.theories[self.entries[i]["theory"]]
        models = self.sh.models

        def op():
            reps = models.classify(theory, g)
            return reps, models.superficial_degree(theory, g)
        return op

    def check(self, i, result):
        (reps, deg), want = result, self.entries[self.keys[i]]
        got = {"reports": [report_fields(r) for r in reps],
               "superficial_degree": str(deg)}
        pinned = {"reports": want["reports"],
                  "superficial_degree": want["superficial_degree"]}
        return None if got == pinned else \
            f"graph {self.keys[i]}: got {got}, want {pinned}"

    def digest(self, results):
        items = sorted([i, [[jsonable(v) for v in vars(r).values()]
                            for r in reps], str(deg)]
                       for i, (reps, deg) in zip(self.keys, results))
        return self.digest_of(items)


def report_fields(rep):
    return {k: jsonable(getattr(rep, k)) for k in REPORT_FIELDS}


WORKLOADS = {
    "enumerate": setup_enumerate,
    "central_check": setup_central_check,
    "hopf_sweep": lambda sh, seed, out_dir: HopfSweep(sh, seed),
    "power_counting": lambda sh, seed, out_dir: PowerCounting(sh, seed),
}
