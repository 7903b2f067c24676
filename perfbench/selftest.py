#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Each test drives perfbench/run.py on the real ten-program workloads
for one pass, traced and untraced, so the whole file takes a few
minutes after the first build. They check that every metric
BENCHMARK.json declares is emitted with its unit and a well-formed
name, that a deliberately wrong expected value is counted as a failed
item without aborting the run, that quiet-core times agree with host
times over the probe slowdown, and that the traced section of a traced
run produces the same simulated-statistics digest as an untraced run.
"""

import functools
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run(workload, trace, *extra):
    """Run one pass of @p workload; return (result, digest, env), the
    last two parsed from their "# perfbench" lines."""
    # A budget this small runs exactly one pass (the first always runs),
    # so item counts do not depend on host speed.
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.01",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("run failed (%d): %s" %
                             (proc.returncode, proc.stderr[-2000:]))
    digest = next(l for l in lines if l.startswith("# perfbench digest"))
    env = next(l for l in lines if l.startswith("# perfbench env"))
    return (json.loads(lines[-1]), json.loads(digest.split(" ", 3)[3]),
            json.loads(env.split(" ", 3)[3]))


class MetricsTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, value in got.items():
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertEqual(value["unit"], want[name], name)
            self.assertIsInstance(value["value"], (int, float), name)

    def test_every_metric_emitted_with_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _, _ = run(workload, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertNotEqual(result["metrics"][m["name"]]["value"],
                                        0, m["name"])
                traced, _, _ = run(workload, 1)
                self.check_metrics(traced, SPEC["per_layer"])

    def test_wrong_expected_value_is_a_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                good, _, _ = run(workload, 0)
                bad, _, _ = run(workload, 0, "--expect-wrong")
                self.assertFalse(bad["correct"])
                self.assertGreaterEqual(bad["failed"], 1)
                # The run went on: every item was still attempted.
                self.assertEqual(bad["attempted"], good["attempted"])
                self.assertLess(bad["metrics"]["ok_frac"]["value"], 1.0)

    def test_quiet_time_is_host_time_over_slowdown(self):
        # One pass: each item's quiet-core time is its host time over
        # the probe slowdown around it, so the sums agree up to how the
        # slowdown varied between items.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _, env = run(workload, 0)
                quiet = result["metrics"]["quiet_wall_s"]["value"]
                self.assertGreater(env["slowdown"], 0.5)
                self.assertGreater(env["raw_wall_s"], 0.0)
                ratio = quiet * env["slowdown"] / env["raw_wall_s"]
                self.assertGreater(ratio, 0.5)
                self.assertLess(ratio, 2.0)

    def test_traced_and_untraced_digests_match(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, plain, _ = run(workload, 0)
                result, traced, _ = run(workload, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                # traced_digest hashes the passes run under the span
                # profiler; digest those of the untraced run.
                self.assertEqual(plain["digest"], traced["traced_digest"])
                self.assertEqual(plain["counts"], traced["counts"])


if __name__ == "__main__":
    unittest.main()
