#!/usr/bin/env python3
"""Unit tests for tools/counter_gate.py's comparison.

Feeds canned perfbench result lines to `check` (no benchmark is run), so
the gate's verdicts are pinned independently of the host. Run directly or
via ctest (CounterGateSelfTest).
"""

import importlib.util
import json
import sys
import unittest
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "counter_gate", _ROOT / "tools" / "counter_gate.py"
)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def result_line(workload, overrides=None):
    """A passing result for `workload`: its table's values, then overrides."""
    values = dict(gate.EXPECTED[workload], **(overrides or {}))
    metrics = {name: {"value": value, "unit": "count"}
               for name, value in values.items()}
    metrics["xml.parse_us_per_doc"] = {"value": 74.9, "unit": "us"}
    return {"correct": True, "attempted": 1000, "failed": 0,
            "metrics": metrics}


class CounterGateTest(unittest.TestCase):
    def test_measured_values_pass(self):
        for workload in gate.EXPECTED:
            self.assertEqual(gate.check(workload, result_line(workload)), [])

    def test_every_benchmark_workload_has_a_table(self):
        spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
        for workload in spec["workloads"]:
            self.assertIn(workload["name"], gate.EXPECTED)

    def test_exact_counter_off_by_one_event_fails(self):
        events = gate.EXPECTED["feed_shared_tags"]["xml.events_per_doc"]
        problems = gate.check("feed_shared_tags", result_line(
            "feed_shared_tags", {"xml.events_per_doc": events + 1}))
        self.assertEqual(len(problems), 1)
        self.assertIn("xml.events_per_doc", problems[0])
        self.assertIn(str(events), problems[0])
        self.assertIn(str(events + 1), problems[0])

    def test_toleranced_counter_inside_and_outside_its_tolerance(self):
        name = "net.frames_out_per_doc"
        want = gate.EXPECTED["protein_parse"][name]
        tolerance = gate.TOLERANCE[name]
        inside = want * (1 + 0.9 * tolerance)
        outside = want * (1 - 1.1 * tolerance)
        self.assertEqual(gate.check("protein_parse", result_line(
            "protein_parse", {name: inside})), [])
        problems = gate.check("protein_parse", result_line(
            "protein_parse", {name: outside}))
        self.assertEqual(len(problems), 1)
        self.assertIn(name, problems[0])

    def test_incorrect_run_fails(self):
        result = result_line("feed_shared_tags")
        result["correct"] = False
        self.assertEqual(len(gate.check("feed_shared_tags", result)), 1)

    def test_failed_operations_fail(self):
        result = result_line("feed_shared_tags")
        result["failed"] = 3
        self.assertEqual(len(gate.check("feed_shared_tags", result)), 1)

    def test_missing_counter_fails(self):
        result = result_line("protein_parse")
        del result["metrics"]["twigm.results_per_doc"]
        problems = gate.check("protein_parse", result)
        self.assertEqual(problems,
                         ["twigm.results_per_doc: missing from the result"])

    def test_wall_clock_rows_are_not_gated(self):
        slow = result_line("feed_shared_tags")
        slow["metrics"]["xml.parse_us_per_doc"]["value"] *= 10
        self.assertEqual(gate.check("feed_shared_tags", slow), [])

    def test_unknown_workload_fails(self):
        self.assertEqual(len(gate.check("nope", result_line(
            "feed_shared_tags"))), 1)


if __name__ == "__main__":
    sys.exit(unittest.main())
