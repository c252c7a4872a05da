#!/usr/bin/env python3
"""Build the service benchmark from source and run one workload.

    python3 svcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository.  The first run
configures and builds svcbench/ (which pulls in the repository's
libraries) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs only re-check the build.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  Span files of
traced runs land in <build dir>/svcbench-traces/.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("svcbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "svc", "broker.hh")):
        fail("no repository sources next to svcbench/ (run from a checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "usfq_svcbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "usfq_svcbench")


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary] + sys.argv[1:] + [
        "--trace-dir", os.path.join(build_dir, "svcbench-traces")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
