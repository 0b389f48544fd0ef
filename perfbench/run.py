#!/usr/bin/env python3
"""Run a benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (offline, into
$CARGO_TARGET_DIR, default .bench_build), runs the untraced binary for
--trace 0 (end-to-end metrics) or the traced binary for --trace 1
(per-layer metrics, spans written to .bench_out/), and relays its output.
The last line of standard output is the result as one JSON object;
`--workload all` runs every workload in turn and ends with one result over
all of them, metric names prefixed by workload.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ring_1024", "paper_sweep", "traffic_contended", "tune_reduced")
# The run itself must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return f"machine: nproc={os.cpu_count()} cpu={cpu!r} rustc={rustc!r}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    # The benchmark builds the repository's crates from source.
    if not (ROOT / "crates").is_dir() or not (ROOT / "results" / "tuned_thor.mtab").is_file():
        fail(f"repository sources not found next to {BENCH.name}/ (need crates/ and results/)")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    print(machine())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_one(w, args, target, env) for w in names}
    if args.workload == "all":
        # One result over every workload, metric names prefixed by workload.
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))


def run_one(workload, args, target, env):
    """Runs one workload, prints its output and returns its result."""
    binary = target / "release" / ("perfbench-traced" if args.trace else "perfbench")
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans_{workload}_seed{args.seed}.jsonl"
        cmd += ["--spans", str(spans)]
    # One malloc arena: campaign runs spawn a fresh worker thread per call,
    # and glibc's per-thread arenas made peak RSS swing by up to 1.8x
    # between runs of identical work.
    env = dict(env, GLIBC_TUNABLES="glibc.malloc.arena_max=1")
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}", run.returncode or 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print("\n".join(lines), flush=True)
    return result


if __name__ == "__main__":
    main()
