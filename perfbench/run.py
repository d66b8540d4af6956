#!/usr/bin/env python3
"""Build the LoCaLUT benchmark program and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: decode, prefill_sharded, conversation.  The seed is the only
input knob (default 1; 7 is the held-out seed, see perfbench/NOTES.md).
The first run configures and builds liblocalut and the perfbench program
into .bench_build/perfbench; later runs only check the build.  The last
line of standard output is the result object; build output goes to
standard error.  Exits non-zero, without a result, when the source tree or
the build is missing or broken.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("decode", "prefill_sharded", "conversation")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build perfbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "localut.h").is_file():
        fail(f"no localut source tree next to {BENCH_DIR}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            except FileNotFoundError:
                fail("cmake is not installed")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    binary = BUILD_DIR / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def commit():
    """The source commit when the tree is a git checkout, else 'unknown'."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", commit()]
    if args.trace:
        command += ["--spans",
                    str(BUILD_DIR / f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    output = done.stdout.decode(errors="replace")
    if done.returncode != 0 or not output.strip():
        fail(f"perfbench exited with code {done.returncode}")
    sys.stdout.write(output)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
