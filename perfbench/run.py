#!/usr/bin/env python3
"""Build and run the PGSS-Sim end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload pgss_suite --seed 1 \
        --seconds 12 --trace 0

Configures and builds perfbench/ (which compiles ../src) in Release
mode under .bench_build/perfbench, then runs the benchmark binary with
every PGSS_* variable cleared. The binary's standard output is passed
through; its last line is the JSON result. Build output goes to
standard error. Any build or run failure exits non-zero without
printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "pgss_perfbench"
# Compiler and run temporaries stay inside the checkout too.
TMP = ROOT / ".bench_build" / "tmp"
RUN_TIMEOUT_S = 170


def source_id():
    """Commit id when run from a git checkout, else a hash of src/."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(env):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--expect-wrong", action="store_true",
                        help="offset expected values (self-tests)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources not found in " + str(ROOT))
    TMP.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGSS_")}
    env["TMPDIR"] = str(TMP)
    build(env)

    cmd = [str(BINARY), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--commit", source_id()]
    if args.expect_wrong:
        cmd.append("--expect-wrong")
    try:
        result = subprocess.run(cmd, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
