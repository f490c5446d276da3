#!/usr/bin/env python3
"""Build and run the histcc end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload frame_cc|frame_hist|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (and the histcc
libraries it links) into .bench_build/perfbench with CMake; later calls
only re-check the build.  Build output goes to standard error, so the
benchmark's result object stays the last line of standard output.  The
exit code is the benchmark's.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "histcc_perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def configured_source(cache):
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no histcc sources at {ROOT}; run from a full checkout")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache) and configured_source(cache) != HERE:
        shutil.rmtree(BUILD)  # configured for another checkout
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "histcc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def main():
    build()
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
