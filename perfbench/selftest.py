#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the repository root. Checks, per workload (default: all four):

* two traced runs with one seed report identical deterministic counters;
* the traced and the untraced run produce the same output digest;
* the held-out seed changes traffic_contended's generated inputs but
  leaves ring_1024's counters unchanged.

Exits non-zero on the first failed check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("ring_1024", "paper_sweep", "traffic_contended", "tune_reduced")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Counters that are pure functions of the inputs.
COUNTERS = (
    "collectives.ops", "sched.merged_ops", "sched.merged_edges", "simnet.events",
    "simnet.waterfill_calls", "simnet.max_concurrent_flows", "campaign.points",
    "campaign.cache_hits", "campaign.cache_misses", "traffic.jobs",
    "tune.candidates_priced",
)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    digests = re.search(r"output digest (0x[0-9a-f]+), input digest (0x[0-9a-f]+)", out)
    return result, digests.group(1), digests.group(2)


def check(cond, msg):
    print(("ok      " if cond else "FAILED  ") + msg)
    if not cond:
        sys.exit(1)


def counters(result):
    return {k: result["metrics"][k]["value"] for k in COUNTERS}


def main():
    workloads = sys.argv[1:] or WORKLOADS
    base = {}
    for w in workloads:
        a, out_a, in_a = run(w, DEFAULT_SEED, 1)
        b, out_b, _ = run(w, DEFAULT_SEED, 1)
        u, out_u, _ = run(w, DEFAULT_SEED, 0)
        check(a["correct"] and b["correct"] and u["correct"], f"{w}: every run correct")
        check(counters(a) == counters(b), f"{w}: counters repeat across two traced runs")
        check(out_a == out_b == out_u, f"{w}: traced and untraced output digests agree ({out_a})")
        base[w] = (counters(a), in_a)
    if "ring_1024" in base:
        r, _, _ = run("ring_1024", HELD_OUT_SEED, 1)
        check(counters(r) == base["ring_1024"][0], "ring_1024: held-out seed leaves counters unchanged")
    if "traffic_contended" in base:
        _, _, held_in = run("traffic_contended", HELD_OUT_SEED, 0)
        check(held_in != base["traffic_contended"][1],
              "traffic_contended: held-out seed changes the generated arrivals")


if __name__ == "__main__":
    main()
