"""Self-tests of the benchmark (not of quadswitch).

    python3 perfbench/selftest.py

They check that request generation is deterministic and legal, that the
traced program does the same work and writes the same reports as the
untraced one, that call and work counts repeat exactly, and that the output
check really fails a request whose reference digest was tampered with.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from quadswitch import switching  # noqa: E402
from quadswitch.gf2geom import canonical_form  # noqa: E402

SEEDS = range(1, 9)
N7_EXPORT = ["switch", "--n", "7", "--kind", "hyperbolic", "--t", "1", "--variant", "tt",
             "--seed-choice", "3", "--verify", "--code", "--export-graph", workloads.EXPORT_NAME]


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class Generation(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                self.assertEqual(workloads.generate(workload, seed), workloads.generate(workload, seed))

    def test_seed_picks_requests(self):
        for workload in ("switch-n11", "flags-n7"):
            batches = {json.dumps(workloads.generate(workload, seed)) for seed in SEEDS}
            self.assertGreater(len(batches), 1, workload)

    def test_requests_come_from_the_referenced_pool(self):
        pool = {check.request_key(argv) for argv in workloads.pool()}
        self.assertEqual(pool, set(run.load_reference()["requests"]))
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for group in workloads.generate(workload, seed):
                    for argv in group:
                        self.assertIn(check.request_key(argv), pool)

    def test_combos_match_the_library(self):
        for n in (7, 11):
            want = [
                (kind, t, variant)
                for kind in workloads.KINDS
                for variant in ("t", "tt")
                for t in switching.legal_t_range(n, kind, variant)
            ]
            self.assertEqual(workloads.legal_combos(n), want)

    def test_n7_choices_stay_below_the_flag_count(self):
        top = max(int(argv[argv.index("--seed-choice") + 1]) for argv in workloads.pool() if argv[2] == "7")
        self.assertLess(top, 2000)
        for kind, t, variant in workloads.legal_combos(7):
            switching.make_config(canonical_form(7, kind), t, variant, top)  # raises if too few flags

    def test_every_seed_walks_the_same_number_of_flags(self):
        def walked(seed):
            (batch,) = workloads.generate("flags-n7", seed)
            return sum(int(argv[argv.index("--seed-choice") + 1]) + 1 for argv in batch)

        self.assertEqual({walked(seed) for seed in SEEDS}, {walked(1)})


class Tracing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (batch,) = workloads.generate("flags-n7", 1)
        cls.requests = batch[:4] + [N7_EXPORT, ["verify-all", "--n", "7"]]
        cls.plain = run.run_group(cls.requests, trace=False, reference=None)
        cls.traced = [run.run_group(cls.requests, trace=True, reference=None) for _ in range(2)]

    def test_traced_reports_match_untraced(self):
        for traced in self.traced:
            for a, b in zip(self.plain["outcomes"], traced["outcomes"], strict=True):
                self.assertIsNone(b["failure"])
                self.assertEqual((a["whole"], a["files"]), (b["whole"], b["files"]))

    def test_counts_repeat_exactly(self):
        first, second = (r["trace"] for r in self.traced)
        self.assertEqual(first["calls"], second["calls"])
        self.assertEqual(first["counters"], second["counters"])
        self.assertEqual(first["missing"], [])
        for counter, _ in run.tracer.COUNTERS.values():
            self.assertGreater(first["counters"][counter], 0, counter)
        # 5 switch requests check base and switched graph; verify-all --n 7
        # checks its 2 base graphs twice each and its 7 switched graphs once
        self.assertEqual(first["calls"]["srg.verify_srg"], 5 * 2 + 2 * 2 + 7)

    def test_self_times_add_up_to_the_run(self):
        trace = self.traced[0]["trace"]
        self.assertAlmostEqual(sum(trace["self_s"].values()) + trace["cli_self_s"], self.traced[0]["run_s"])


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (batch,) = workloads.generate("flags-n7", 2)
        cls.requests = batch[:3]
        cls.reference = run.load_reference()
        cls.result = run.run_group(cls.requests, trace=False, reference=cls.reference)

    def failures(self, reference):
        checker = run.Checker(reference)
        checker.add(self.requests, self.result)
        return checker

    def test_reference_passes(self):
        checker = self.failures(self.reference)
        self.assertEqual((checker.attempted, checker.failures), (3, []))

    def test_tampered_report_digest_fails(self):
        tampered = copy.deepcopy(self.reference)
        entry = tampered["requests"][check.request_key(self.requests[1])]
        entry["report"] = "0" * len(entry["report"])
        self.assertEqual(len(self.failures(tampered).failures), 1)

    def test_tampered_file_digest_fails(self):
        tampered = copy.deepcopy(self.reference)
        tampered["requests"][check.request_key(self.requests[0])]["files"] = {workloads.EXPORT_NAME: "0"}
        self.assertEqual(len(self.failures(tampered).failures), 1)

    def test_added_report_keys_pass_and_changed_values_fail(self):
        ref = self.reference["requests"][check.request_key(self.requests[0])]
        shape = self.reference["skeletons"][ref["skeleton"]]
        (kept,) = run.run_group(self.requests[:1], trace=False, reference=None)["outcomes"]
        report = json.loads(kept["stdout"])

        def failure():
            raw = {"rc": 0, "exception": None, "stdout": json.dumps(report), "stderr": "", "files": {}}
            return check.outcome_failure(check.summarize(raw, shape), ref)

        self.assertIsNone(failure())
        report["switching"]["flags_scanned"] = 7
        self.assertIsNone(failure())
        report["switching"]["t_size"] += 1
        self.assertEqual(failure(), "report differs from the reference")
        del report["switching"]["t_size"]
        self.assertRegex(failure(), "shape differs")


class CommandLine(unittest.TestCase):
    def bench(self, *args, cwd=run.ROOT):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
            capture_output=True, text=True, timeout=170, cwd=cwd,
        )

    def test_result_line(self):
        spec = run.load_spec()
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = self.bench("--workload", "flags-n7", "--seed", "3", "--seconds", "1", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = last_json_line(proc.stdout)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in spec[kind]])

    def test_fails_without_the_program(self):
        os.makedirs(run.STATE, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=run.STATE)
        try:
            shutil.copy(run.SPEC, bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.bench("--workload", "verify-n9", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
