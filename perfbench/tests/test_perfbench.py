"""Self-tests of the benchmark itself (not of the placer).

Run from the repository root (takes about two minutes; builds perfbench
first when needed):

    python3 -m unittest discover -s perfbench/tests -v
"""
import json
import os
import pathlib
import re
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Short runs: the loops always finish at least one flow or round.
SHORT_S = "1"
_results = {}


def run(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _results:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", SHORT_S, "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=900)
        if proc.returncode != 0:
            raise AssertionError("%s failed (%d):\n%s" % (
                key, proc.returncode, proc.stderr[-3000:]))
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_valid_and_unique(self):
        names = []
        for kind in ("end_to_end", "per_layer"):
            for m in SPEC[kind]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
                names.append(m["name"])
        for w in SPEC["workloads"]:
            self.assertRegex(w["name"], NAME)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_end_to_end_bounds(self):
        for m in SPEC["end_to_end"]:
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class EmittedMetrics(unittest.TestCase):
    def check(self, workload, trace):
        result = run(workload, 1, trace)
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)
        if not trace:
            for name in want:
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_trace_file_is_written(self):
        run("serve_sweep", 1, 1)
        path = (ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") /
                "perfbench" / "traces" / "serve_sweep-seed1-trace1.json")
        events = json.loads(path.read_text())["traceEvents"]
        names = {e["name"] for e in events}
        self.assertTrue({"server.upload_design", "server.submit_batch",
                         "server.batch_wait", "core.GlobalPlacer.run",
                         "lg.abacus_legalize", "dp.detailed_place"} <= names)


class Reproducibility(unittest.TestCase):
    def test_seeded_run_reproduces_hpwl_exactly(self):
        first = run("flow_1t", 1, 0)["metrics"]["hpwl"]["value"]
        _results.pop(("flow_1t", 1, 0))
        again = run("flow_1t", 1, 0)["metrics"]["hpwl"]["value"]
        self.assertEqual(first, again)
        other = run("flow_1t", 2, 0)["metrics"]["hpwl"]["value"]
        self.assertNotEqual(first, other)  # the seed makes the inputs


if __name__ == "__main__":
    unittest.main()
