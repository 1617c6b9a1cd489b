#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady and its outputs
do not depend on the worker count.

    python3 rootbench/steadiness.py [--runs 10] [--workload W ...]

For every workload (or the named ones), with tracing off and BENCHMARK.json's
run_seconds:

1. Across seeds: --runs runs on seeds 1, 2, ... with the held-out seed 1729
   as the last one. Seed-dependent work and run-to-run noise both count.
2. On one seed: --runs // 2 runs on the default seed 42, then as many on
   1729. The spread within each seed is run-to-run noise alone.
3. Worker counts: one short run each on seeds 42 and 1729 at --workers 1.
   Its output digest must equal that of the runs at the default worker
   count in step 2 (and run.py checks both against rootbench/digests.json).

For every end-to-end metric, setup_s included, it prints the median and the
quartile spread (Q3 - Q1) / median of each set of runs and flags a spread
above a third of the metric's bound. Every run's result object is appended to
.bench_out/steadiness.jsonl. Exits 1 if a run fails its output check or a
digest differs between worker counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 42
HELD_OUT_SEED = 1729
FIRST_SEED = 1
# --seconds of the worker-count runs: each still makes its minimum calls.
DIGEST_RUN_SECONDS = 1


def run_once(workload, seed, seconds, workers=None):
    """Runs one workload; returns (result object, output digest) or None."""
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    if workers:
        command += ["--workers", str(workers)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    if not result or not result["correct"]:
        print(f"{workload} seed {seed} workers {workers or 'default'}: FAILED\n"
              f"{out.stdout}{out.stderr}")
        return None
    digest = next((line.split()[-1] for line in lines
                   if line.startswith("output digest ")), None)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.jsonl"), "a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed,
                              "workers": workers, "digest": digest,
                              "result": result}) + "\n")
    return result, digest


def print_spreads(bench, workload, label, results):
    for metric in bench["end_to_end"]:
        series = [r["metrics"][metric["name"]]["value"] for r in results]
        if len(series) < 2:
            continue
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        flag = "  <-- above bound/3" if spread > metric["bound"] / 3 else ""
        print(f"{workload:10s} {label:10s} {metric['name']:16s} median "
              f"{mid:12.6g} {metric['unit']:4s} spread {spread:7.2%} "
              f"(bound {metric['bound']:.0%}, n={len(series)}){flag}",
              flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    seeds = [FIRST_SEED + i for i in range(args.runs)]
    if args.runs > 1:
        seeds[-1] = HELD_OUT_SEED
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    seconds = bench["run_seconds"]
    ok = True
    for workload in args.workload or names:
        across = [run_once(workload, seed, seconds) for seed in seeds]
        ok = ok and all(across)
        print_spreads(bench, workload, "seeds", [r[0] for r in across if r])

        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            repeats = [run_once(workload, seed, seconds)
                       for _ in range(max(2, args.runs // 2))]
            ok = ok and all(repeats)
            done = [r for r in repeats if r]
            print_spreads(bench, workload, f"seed {seed}", [r[0] for r in done])

            single = run_once(workload, seed, DIGEST_RUN_SECONDS, workers=1)
            digests = {r[1] for r in done}
            if not single or len(digests) != 1 or single[1] not in digests:
                print(f"{workload:10s} seed {seed}: output digest differs between "
                      f"worker counts: default {sorted(digests)}, 1 worker "
                      f"{single[1] if single else None}")
                ok = False
            else:
                print(f"{workload:10s} seed {seed}: output digest {single[1]} at "
                      f"1 worker and the default count", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
