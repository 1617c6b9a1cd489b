#!/usr/bin/env python3
"""Builds the rootsim benchmark from source and runs one workload.

    python3 rootbench/run.py --workload audit-cold|audit-warm|slo-froot \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
rootbench/ (the simulator libraries from src/ plus the rootbench program)
into .bench_build/; later runs only check the build is current. The program's
stdout is passed through: its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.
Result and span files land in .bench_out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("audit-cold", "audit-warm", "slo-froot")


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "rootbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources (src/) next to rootbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "rootbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--workers", type=int,
                        help="override the fixed worker count (min(4, nproc))")
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD_DIR, "rootbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", source_id(), "--out-dir", OUT_DIR]
    if args.workers:
        command += ["--workers", str(args.workers)]
    # Recorded output digests (default and held-out seeds): a run on one of
    # these seeds must reproduce them byte for byte.
    with open(os.path.join(BENCH_DIR, "digests.json")) as handle:
        expected = json.load(handle)["digests"].get(args.workload, {})
    if str(args.seed) in expected:
        command += ["--expect-digest", expected[str(args.seed)]]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
