#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload cold-restore --seed 1 --seconds 30 --trace 0

Every file the build and the run write stays under .bench_build/ in the
current directory: the Go build and module caches, the binary, and the
results (a stamped JSON record per run, plus the span dump of a traced
run). Arguments are passed through to the benchmark (see
`perfbench -h`). The build fails, and this script exits non-zero without
printing a result, when the repository's sources are not present.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench", "perfbench")


def build_env():
    env = dict(os.environ)
    for var, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    # The build needs nothing but the local toolchain and the repository.
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = "-buildvcs=false"
    return env


def commit():
    """The checkout's git commit, when the checkout is a repository."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    env = build_env()
    built = subprocess.run(["go", "-C", "perfbench", "build", "-o", BIN, "."],
                           cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BIN, "-out", os.path.join(BUILD, "perfbench", "results"),
            "-commit", commit()] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(BIN, args, env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
