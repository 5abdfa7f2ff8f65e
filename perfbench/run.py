#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke       # every workload at toy size, then
                                           # the check self-test
    python3 perfbench/run.py --self-test   # corrupt each output, expect the
                                           # matching check to fail

The library is compiled from ../src through perfbench/CMakeLists.txt in a
Release configuration, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the checkout root; the repository's own CMake
files are not used. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper", "metro", "online", "chaos")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "pipeline_bench",
                  "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "pipeline_bench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources (path and bytes), so a
    result can be traced to its code in a checkout without git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def run(binary, args):
    return subprocess.run([binary] + args).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.smoke or args.self_test):
        parser.error("give --workload, --smoke or --self-test")

    binary = build()
    sha = f"{git_sha()} src:{source_digest()}"
    sys.stdout.flush()
    if args.workload:
        sys.exit(run(binary, ["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace),
                              "--git-sha", sha]))
    failures = 0
    if args.smoke:
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                failures += run(binary, ["--workload", workload,
                                         "--seed", str(args.seed),
                                         "--seconds", "0", "--trace", trace,
                                         "--size", "smoke",
                                         "--git-sha", sha]) != 0
    failures += run(binary, ["--self-test"]) != 0
    print(f"perfbench: {'ok' if failures == 0 else f'{failures} failures'}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
