#!/usr/bin/env python3
"""antmd wall-clock benchmark: build the benchmark package, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload water_gse|lj_cutoff|fleet_small \\
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the repository's libraries
plus the benchmark program) into .bench_build/perfbench; later calls rebuild
only what changed.  Build output goes to stderr, so the last line of stdout
is always the run's JSON result.  Everything the run writes stays under .bench_build/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "antmd_perfbench")
RUN_TIMEOUT_S = 170  # the contract allows 180 s per run


def build():
    """Configures once, then builds incrementally; raises on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "antmd_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """Digest of the program and benchmark sources: keys the
    equilibrated-start cache, so a cached start is reused only by the code
    that produced it."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", "CMakeLists.txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["water_gse", "lj_cutoff", "fleet_small"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (see selftest.py)")
    args = parser.parse_args()

    build()
    digest = source_digest()
    cmd = [BINARY,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--cache-dir", os.path.join(WORK_DIR, "perfbench-cache", digest),
           "--out-dir", os.path.join(WORK_DIR, "perfbench-out")]
    if args.tiny:
        cmd.append("--tiny")
    print(f"commit: {commit()}")
    print(f"source digest: {digest}")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
