#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bsp-flat --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and any span files live under .bench_build/
in the checkout, so nothing is written outside it. The benchmark's own
arguments are passed through unchanged; its last stdout line is the JSON
result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main() -> int:
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # Keep the go command's telemetry and config reads inside the checkout.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
