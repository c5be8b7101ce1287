#!/usr/bin/env python3
"""Self-tests of the benchmark, at a tiny scale.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload, untraced and traced, must print a result line with every
metric BENCHMARK.json names for that mode, each with its unit, and pass
its correctness checks. A deliberately corrupted expected digest must
fail a check. Scratch files go under $CARGO_TARGET_DIR (default
.bench_build).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
EXPECTED = os.path.join(HERE, "expected_digests.txt")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra):
    """Run one tiny workload; return (exit code, result object or None,
    stdout lines)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed",
           "7" if workload == "crash_explore" else "42",
           "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, lines


class Perfbench(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, res, lines = run(w["name"], trace)
                    self.assertEqual(code, 0)
                    # Only the traced run may use the counting allocator.
                    fp = json.loads(next(l for l in lines if l.startswith("fingerprint "))[12:])
                    self.assertEqual(fp["alloc_count"], trace == 1)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], res)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    for m in SPEC[key]:
                        self.assertIn(m["name"], res["metrics"])
                        self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertEqual(len(res["metrics"]), len(SPEC[key]))

    def test_corrupted_digest_fails(self):
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
        scratch = os.path.join(target, "perfbench", "selftest")
        os.makedirs(scratch, exist_ok=True)
        bad = os.path.join(scratch, "corrupted_digests.txt")
        with open(EXPECTED) as f:
            lines = f.read().splitlines()
        hits = 0
        with open(bad, "w") as f:
            for line in lines:
                if line.startswith("fig08 tiny 42 "):
                    digest = line.split()[3]
                    line = line[:-len(digest)] + "%016x" % (int(digest, 16) ^ 1)
                    hits += 1
                f.write(line + "\n")
        self.assertEqual(hits, 1, "expected_digests.txt lists fig08 tiny 42 once")
        code, res, _ = run("fig08", 0, "--expected", bad)
        self.assertEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"] / res["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
