#!/usr/bin/env python3
"""Build the library and the benchmark in Release, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally). The benchmark's last stdout line
is one JSON object: correct, attempted, failed and metrics. A traced run
also writes its spans as Chrome trace-event JSON under .bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["decomp-sweep", "paper-kernels", "cold-zoo", "dist-shmem"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "spttn_perfbench")


def git_sha(root):
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configure (once) and build; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that corrupted outputs are counted as failed")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join("src", "serve", "session.hpp")) and
            os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        print("run.py: run from the repository root (library sources not "
              "found under ./src)", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    if args.self_test:
        cmd = [BINARY, "--self-test"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(root)]
        if args.trace:
            trace_dir = os.path.join(".bench_build", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
