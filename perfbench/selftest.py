"""Self-tests of the benchmark's own arithmetic and naming.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402
from runner_common import ROOT, import_package  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8]
        starts = [0.0, 1.0, 5.0, 6.0]
        ends = [10.0, 4.0, 9.0, 8.0]
        parents = [-1, 0, 0, 2]
        self.assertEqual(T.self_times(starts, ends, parents),
                         [3.0, 3.0, 2.0, 2.0])

    def test_layer_self_times_and_unattributed_sum_to_wall(self):
        tr = T.Tracer()

        def leaf():
            time.sleep(0.002)

        def inner_same_layer():
            return leaf_w()

        def outer():
            time.sleep(0.002)
            inner_w()
            leaf_w()

        leaf_w = tr._wrap(leaf, "graphs.leaf", "graphs")
        inner_w = tr._wrap(inner_same_layer, "iso.inner", "iso.two")
        outer_w = tr._wrap(outer, "iso.outer", "iso.two")
        t0 = time.perf_counter()
        outer_w()
        leaf_w()
        time.sleep(0.001)
        wall = time.perf_counter() - t0
        m = tr.summarize(wall)
        total = sum(m[f"{layer}.self_s"] for layer in T.LAYERS)
        self.assertAlmostEqual(total + m["unattributed_s"], wall, places=9)
        self.assertGreater(m["unattributed_s"], 0.0)
        # outer enters iso.two from the bench; inner is called inside
        # iso.two and passes through without a span
        self.assertEqual(m["iso.two.calls"], 1)
        self.assertEqual(m["graphs.calls"], 3)
        self.assertEqual(len(tr.span_fid), 4)

    def test_series_counters_see_calls_inside_the_series_layer(self):
        tr = T.Tracer()
        code = tr._wrap(lambda g: f"c{g % 2}", "iso.canonical_code",
                        "iso.two")

        def classes():
            return {code(g): g for g in range(4)}

        def universe():
            return [classes_w(), classes_w()]

        classes_w = tr._wrap(classes, "series.connected_classes", "series")
        universe_w = tr._wrap(universe, "series.closed_universe", "series")
        universe_w()
        m = tr.summarize(1.0)
        self.assertEqual(m["series.candidates"], 8)
        self.assertEqual(m["series.classes"], 4)
        self.assertEqual(m["series.accept_ratio"], 0.5)
        self.assertEqual(m["series.universe_rounds"], 2)
        self.assertEqual(m["series.calls"], 1)
        self.assertEqual(m["iso.two.distinct_ratio"], 0.25)


class Names(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            self.spec = json.load(f)

    def test_metric_names_and_units_use_the_allowed_characters(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.spec[key]] + \
            [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertTrue(NAME_RE.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                self.assertTrue(UNIT_RE.fullmatch(m["unit"]), m)

    def test_spec_matches_what_the_runner_reports(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in self.spec["per_layer"]],
                         T.per_layer_names())
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(W.WORKLOADS))


class Relabelling(unittest.TestCase):
    def test_relabelled_theory_enumerates_the_same_profile(self):
        sh = import_package()
        doc = sh.io.theory_to_document(sh.models.preset("mq3"))
        new = W.relabel_theory_document(doc, random.Random(5))
        self.assertNotEqual(new["vertices"][0]["graph"],
                            doc["vertices"][0]["graph"])
        profiles = []
        for d in (doc, new):
            ts = sh.series.enumerate_diagrams(
                sh.io.document_to_theory(d), 1, connected=False)
            profiles.append(sorted((len(t.graph.vertices), t.n_edges,
                                    t.coefficient) for t in ts.terms))
        self.assertEqual(profiles[0], profiles[1])


if __name__ == "__main__":
    unittest.main()
