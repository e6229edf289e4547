#!/usr/bin/env python3
"""Build fedbench from source and run one workload.

    python3 fedbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR/fedbench
(default .bench_build/fedbench) and is reused by later runs.  The last line
of standard output is the result JSON that fedbench prints; everything the
build prints goes to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vdev-train", "wide-dense", "committee-q8")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"fedbench: {message}", file=sys.stderr)
    return 2


def source_digest():
    """sha256 over every file under src/, by relative path and content."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fedbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no program sources under {ROOT}; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "fedbench")
    if not build(build_dir):
        return fail("build failed")

    cmd = [os.path.join(build_dir, "fedbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
