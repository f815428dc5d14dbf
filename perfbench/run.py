#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-write --seed 1 --seconds 10 --trace 0

Every build and run artifact (Go build cache, binary, WAL segments,
spans, ledgers) stays under .bench_build/ in the checkout. The last line
of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: the repository's go.mod and internal/ are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    dirs = {name: os.path.join(BUILD, name)
            for name in ("gocache", "gopath", "tmp", "config", "cache", "perfbench")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=dirs["gocache"], GOPATH=dirs["gopath"], GOTMPDIR=dirs["tmp"],
               XDG_CONFIG_HOME=dirs["config"], XDG_CACHE_HOME=dirs["cache"],
               GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off")
    binary = os.path.join(BUILD, "perfbench-bin")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, *sys.argv[1:], "-out", dirs["perfbench"]], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
