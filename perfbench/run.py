#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload edit|table|eeld --seed N --seconds S --trace 0|1

Run from the repository root. perfbench/ is a Go module of its own that
reaches the repository's packages through a replace directive; this script
builds it into .bench_build/ (keeping the Go build cache there too, so
nothing is written outside the checkout) and runs it with the same
arguments. The last line of standard output is the JSON result. The exit
status is non-zero when the build fails, a correctness check fails, or the
run overruns RUN_TIMEOUT seconds.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT = 170


def main():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )
    os.makedirs(tmp, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env)
    if build.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
