#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload road-sssp --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark and the binaries it
drives with dune, generates the seeded graph into .perfbench_cache/ in a
separate, untimed process, then measures. The last line of standard
output is the JSON result; the exit code is non-zero when a check fails
or the checkout cannot be built.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["road-sssp", "social-analytics", "serve-read", "serve-mutate"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
TARGETS = ["./perfbench/perfbench.exe", "./bin/ordered_run.exe", "./bin/ordered_serve.exe"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_group(cmd, deadline, stdout=None):
    """Run cmd in its own process group; kill the whole group (the
    benchmark's ordered_serve children too) if it outlives deadline."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out", file=sys.stderr)
        return 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    start = time.monotonic()
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            return fail(f"{need} not found: run from the root of a full checkout")
    first = not os.path.exists(EXE)
    # The first build of a checkout may take minutes; later ones are no-ops.
    deadline = start + (870 if first else 170)

    code = run_group(["dune", "build", "--root", "."] + TARGETS, deadline, stdout=sys.stderr)
    if code != 0:
        return fail(f"dune build failed ({code})")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    code = run_group([EXE, "gen"] + common, deadline, stdout=sys.stderr)
    if code != 0:
        return fail(f"graph generation failed ({code})")
    # Flush what the build and generation wrote, so that its writeback
    # does not land in the timed run.
    os.sync()
    sys.stdout.flush()
    return run_group(
        [EXE, "run"] + common
        + ["--seconds", str(args.seconds), "--trace", args.trace,
           "--bin", os.path.join("_build", "default", "bin")],
        deadline,
    )


if __name__ == "__main__":
    sys.exit(main())
