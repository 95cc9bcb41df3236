"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m unittest discover perfbench/tests
"""

from __future__ import annotations

import importlib
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bergesat import core, engine, invariants  # noqa: E402
from stats import tail_percentile  # noqa: E402
from tracing import Span  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_ninety_when_ten_samples_lie_beyond(self):
        self.assertEqual(tail_percentile(list(range(1, 101))), (90, 90))

    def test_level_drops_until_ten_samples_lie_beyond(self):
        # 50 samples: p90 leaves 5 beyond, p80 (rank 40) leaves exactly 10
        self.assertEqual(tail_percentile(list(range(1, 51))), (80, 40))
        # 15 samples: rank ceil(p * 15 / 100) must stay <= 5
        self.assertEqual(tail_percentile([float(x) for x in range(15, 0, -1)]), (33, 5.0))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            tail_percentile(list(range(10)))

    def test_query_breakdown_states_level_and_sample_count(self):
        samples = [[0.001 * i] for i in range(1, 51)]
        out = workloads.Query().breakdown([], samples)
        self.assertEqual(out["latency_samples"], (50, "count"))
        self.assertEqual(out["p90_level"], (80, "percentile"))
        self.assertAlmostEqual(out["p90_ms"][0], 40.0)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            Span(0, None, "cli.main", 0.0, 10.0),
            Span(1, 0, "saturation.is_saturated", 1.0, 4.0),
            Span(2, 0, "core.parse_hypergraph", 3.0, 6.0),  # overlaps span 1
            Span(3, 1, "saturation.is_berge_free", 2.0, 3.0),
        ]
        hot = {
            (1, "engine.creates_new_berge"): [3, 0.5],
            (None, "oracle.berge_oracle"): [2, 1.0],
        }
        funcs, layers = tracing.summarize(spans, hot)
        # children of cli.main cover [1, 6]
        self.assertAlmostEqual(funcs["cli.main"]["self_s"], 5.0)
        # 3 s minus the nested span (1 s) and the hot calls under it (0.5 s)
        self.assertAlmostEqual(funcs["saturation.is_saturated"]["self_s"], 1.5)
        self.assertAlmostEqual(funcs["saturation.is_berge_free"]["self_s"], 1.0)
        self.assertEqual(funcs["engine.creates_new_berge"],
                         {"calls": 3, "total_s": 0.5, "self_s": 0.5})
        # the nested saturation span is not counted twice in the layer total
        self.assertEqual(layers["saturation"]["calls"], 2)
        self.assertAlmostEqual(layers["saturation"]["total_s"], 3.0)
        self.assertAlmostEqual(layers["saturation"]["self_s"], 2.5)
        self.assertAlmostEqual(layers["cli"]["total_s"], 10.0)
        self.assertAlmostEqual(layers["oracle"]["total_s"], 1.0)
        self.assertEqual(layers["oracle"]["calls"], 2)


class WrapperTest(unittest.TestCase):
    @staticmethod
    def _bindings():
        out = {}
        for layer in tracing.LAYERS:
            module = importlib.import_module(f"bergesat.{layer}")
            for attr, value in vars(module).items():
                out[(layer, attr)] = value
        return out

    def test_install_and_remove_restore_every_attribute(self):
        before = self._bindings()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            during = self._bindings()
            oracle_mod = importlib.import_module("bergesat.oracle")
            self.assertIsNot(oracle_mod.add_edge, core.add_edge)
            self.assertIsNot(during[("engine", "creates_new_berge")],
                             before[("engine", "creates_new_berge")])
            h = core.Hypergraph(4, ((0, 1, 2),))
            oracle_mod.add_edge(h, (1, 2, 3))
            engine.creates_new_berge(h, (0, 1, 3), invariants.make_clique(3))
        finally:
            tracer.remove()
        after = self._bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        spans, hot = tracer.take()
        self.assertEqual([s.name for s in spans], ["core.add_edge"])
        self.assertEqual(list(hot), [(None, "engine.creates_new_berge")])
        self.assertEqual(hot[(None, "engine.creates_new_berge")][0], 1)


class _OneOp:
    name = "fake"

    def __init__(self):
        self.ops = [workloads.Op("echo", "echo", lambda: "hello\n", "echo", True)]

    def check(self, outputs, seed):
        return {}


class ErrorRateTest(unittest.TestCase):
    def test_wrong_digest_counts_as_failure(self):
        w = _OneOp()
        outputs = [w.ops[0].fn()]
        good = {"fake": {"echo": run.sha256("hello\n")}}
        wrong = {"fake": {"echo": "0" * 64}}
        self.assertEqual(run.judge(w, outputs, workloads.DEFAULT_SEED, good), {})
        tally = run.Tally()
        tally.add(1, run.judge(w, outputs, workloads.DEFAULT_SEED, wrong))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_wrong_witness_counts_as_failure(self):
        q = workloads.Query()
        q.hosts = {"T0": core.Hypergraph(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))}
        q.patterns = {"K3": invariants.make_clique(3)}
        fn = q._query("witness", q.patterns["K3"], q.hosts["T0"], None)
        q.ops = [workloads.Op("T0:K3:witness", "witness", fn, "T0", False, ("T0", "K3", None))]
        outputs = [fn()]
        self.assertEqual(q.check(outputs, 1), {})
        # reuse one hyperedge for two pattern edges
        lines = outputs[0].splitlines()
        lines[2] = lines[2].split(" -> ")[0] + " -> " + lines[1].split(" -> ")[1]
        tampered = ["\n".join(lines) + "\n"]
        bad = q.check(tampered, 1)
        self.assertEqual(list(bad), [0])
        tally = run.Tally()
        tally.add(1, bad)
        self.assertEqual(tally.failed / tally.attempted, 1.0)


if __name__ == "__main__":
    unittest.main()
