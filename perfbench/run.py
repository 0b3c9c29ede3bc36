#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's sources and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pi2-native --seed 1 --seconds 30 --trace 0

Every argument is passed to the binary. The Go build cache, module cache
and binary live under .bench_build/ in the checkout, so the benchmark
reads and writes nothing outside it. The build fails, and the script
exits non-zero without printing a result, when the repository's sources
are not next to the benchmark directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(BUILD, "gocache"),
            "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
            "GOPATH": os.path.join(BUILD, "gopath"),
            "GOTOOLCHAIN": "local",
            "GOENV": "off",
            "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
            "HOME": os.path.join(BUILD, "home"),
            "CGO_ENABLED": "0",
        }
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE,
        env=go_env(),
        stdout=sys.stderr,
        timeout=840,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
