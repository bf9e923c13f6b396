"""Tests of perfbench/run.py: the metric-name grammar of BENCHMARK.json,
the output schema of a run and how failed units are counted and refused.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import unittest

import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def good_report(spec, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {"attempted": 45, "failed": 0, "checks": [],
            "metrics": {m["name"]: 1.5 for m in metrics}}


class SpecGrammarTest(unittest.TestCase):
    def test_committed_spec_is_valid(self):
        run.validate_spec(load_spec())

    def test_names_follow_the_grammar(self):
        for name in ["wall_s", "nn.train_epoch_ms.gcn", "la.gemm_gflops_1t", "scale-1e5"]:
            self.assertRegex(name, run.NAME_RE)
        for name in ["", ".hidden", "has space", "x" * 65, "slash/name"]:
            self.assertNotRegex(name, run.NAME_RE)

    def test_units_follow_the_grammar(self):
        for unit in ["ms", "s", "1/s", "count", "GFLOP/s", "%"]:
            self.assertRegex(unit, run.UNIT_RE)
        for unit in ["", "mega bytes", "u" * 17]:
            self.assertNotRegex(unit, run.UNIT_RE)

    def test_spec_refuses_bad_declarations(self):
        spec = load_spec()
        cases = []
        bad = copy.deepcopy(spec)
        bad["end_to_end"][0]["bound"] = 0.3
        cases.append(bad)
        bad = copy.deepcopy(spec)
        bad["per_layer"].append(copy.deepcopy(bad["per_layer"][0]))
        cases.append(bad)
        bad = copy.deepcopy(spec)
        bad["end_to_end"] = [m for m in bad["end_to_end"] if m["name"] != "setup_s"]
        cases.append(bad)
        bad = copy.deepcopy(spec)
        bad["workloads"] = bad["workloads"][:1]
        cases.append(bad)
        bad = copy.deepcopy(spec)
        bad["extra"] = 1
        cases.append(bad)
        bad = copy.deepcopy(spec)
        bad["command"].append("../outside")
        cases.append(bad)
        for case in cases:
            with self.assertRaises(run.BenchError):
                run.validate_spec(case)


class OutputSchemaTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_untraced_result_line_has_exactly_the_contract_keys(self):
        report = good_report(self.spec, trace=0)
        line = json.loads(run.result_line(report, run.validate_report(report, self.spec, 0)))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {m["name"] for m in self.spec["end_to_end"]})
        for m in self.spec["end_to_end"]:
            self.assertEqual(line["metrics"][m["name"]], {"value": 1.5, "unit": m["unit"]})

    def test_traced_run_reports_every_per_layer_metric(self):
        report = good_report(self.spec, trace=1)
        del report["metrics"]["la.spmm_ms"]
        report["metrics"]["wall_s"] = 3.0  # measured but not published when traced
        metrics = run.validate_report(report, self.spec, 1)
        self.assertEqual(set(metrics), {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(metrics["la.spmm_ms"]["value"], 0)

    def test_missing_or_zero_end_to_end_metric_is_refused(self):
        report = good_report(self.spec, trace=0)
        del report["metrics"]["wall_s"]
        with self.assertRaises(run.BenchError):
            run.validate_report(report, self.spec, 0)
        report = good_report(self.spec, trace=0)
        report["metrics"]["accuracy"] = 0.0
        with self.assertRaises(run.BenchError):
            run.validate_report(report, self.spec, 0)

    def test_undeclared_or_non_finite_metric_is_refused(self):
        report = good_report(self.spec, trace=0)
        report["metrics"]["made_up_ms"] = 1.0
        with self.assertRaises(run.BenchError):
            run.validate_report(report, self.spec, 0)
        report = good_report(self.spec, trace=0)
        report["metrics"]["wall_s"] = float("nan")
        with self.assertRaises(run.BenchError):
            run.validate_report(report, self.spec, 0)

    def test_malformed_fields_are_refused(self):
        for key, value in [("attempted", "45"), ("failed", None), ("checks", "none"),
                           ("metrics", [])]:
            report = good_report(self.spec, trace=0)
            report[key] = value
            with self.assertRaises(run.BenchError):
                run.validate_report(report, self.spec, 0)


class FailureCountingTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_clean_run_reports_its_counted_attempts(self):
        report = good_report(self.spec, trace=0)
        line = json.loads(run.result_line(report, run.validate_report(report, self.spec, 0)))
        self.assertEqual((line["attempted"], line["failed"], line["correct"]), (45, 0, True))

    def test_any_failed_unit_is_refused(self):
        report = good_report(self.spec, trace=0)
        report["failed"] = 1
        report["checks"] = ["failed unit: cell PubmedLike/GAT/PPFR"]
        with self.assertRaises(run.BenchError):
            run.validate_report(report, self.spec, 0)

    def test_failed_check_without_failed_unit_is_refused(self):
        report = good_report(self.spec, trace=0)
        report["checks"] = ["metric wall_s is not finite"]
        with self.assertRaises(run.BenchError):
            run.validate_report(report, self.spec, 0)

    def test_counts_must_be_consistent(self):
        for attempted, failed in [(0, 0), (3, 4), (3, -1)]:
            report = good_report(self.spec, trace=0)
            report["attempted"], report["failed"] = attempted, failed
            with self.assertRaises(run.BenchError):
                run.validate_report(report, self.spec, 0)


if __name__ == "__main__":
    unittest.main()
