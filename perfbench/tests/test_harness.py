"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from braidorbit import hecke, rea  # noqa: E402


class TraceTest(unittest.TestCase):
    def test_directly_imported_names_are_traced_and_restored(self):
        # rea.py holds `birank` through `from .hecke import birank`
        original = hecke.birank
        with tracer.Tracer(["rea.ch_verify", "hecke.birank"]) as t:
            self.assertIsNot(rea.birank, original)
            rea.ch_verify(hecke.build_flip(2), 2, 0)
        spans = t.spans()
        parents = {i for i, (name, _, _, _) in enumerate(spans) if name == "rea.ch_verify"}
        self.assertTrue(any(name == "hecke.birank" and parent in parents
                            for name, parent, _, _ in spans))
        self.assertIs(rea.birank, original)
        self.assertIs(hecke.birank, original)

    def test_self_time_excludes_children(self):
        with tracer.Tracer(["rea.ch_verify", "hecke.birank"]) as t:
            rea.ch_verify(hecke.build_flip(2), 2, 0)
        totals = t.totals()
        (name, _, start, end), = [s for s in t.spans() if s[0] == "rea.ch_verify"]
        birank_s = totals["hecke.birank"][1]
        self.assertAlmostEqual(totals["rea.ch_verify"][1], end - start - birank_s, places=9)


class VerdictTest(unittest.TestCase):
    def run_with(self, job_list):
        generate = jobs.WORKLOADS["symbolic"]
        jobs.WORKLOADS["symbolic"] = lambda rng: job_list
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "symbolic", "--seed", "0",
                                 "--seconds", "0", "--trace", "0"])
        finally:
            jobs.WORKLOADS["symbolic"] = generate
        lines = out.getvalue().splitlines()
        return code, json.loads(lines[-1]), lines

    def test_wrong_expectation_fails_the_run(self):
        job_list = [j for j in jobs.generate("symbolic", 0) if j.kind == "quantum_dims"][:3]
        code, result, _ = self.run_with(job_list)
        self.assertEqual((code, result["failed"]), (0, 0))

        job_list[1] = job_list[1]._replace(expect=False)
        code, result, lines = self.run_with(job_list)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual((result["failed"], result["attempted"]), (1, 3))
        fail_ratio = next(float(part.split("=")[1]) for line in lines
                          for part in line.split() if part.startswith("fail_ratio="))
        self.assertGreater(fail_ratio, 0)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        for workload in jobs.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(jobs.generate(workload, 7), jobs.generate(workload, 7))
                self.assertNotEqual(jobs.generate(workload, 7), jobs.generate(workload, 8))


if __name__ == "__main__":
    unittest.main()
