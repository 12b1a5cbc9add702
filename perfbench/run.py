#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fattree16 --seed 1 --seconds 25 --trace 0

The benchmark is a Go program in this directory (its own module, which
reaches the simulator through a replace directive onto the repository
root). This script builds it with the Go caches kept under .bench_build/
in the repository, so a run reads and writes nothing outside it, then
hands every argument to the binary. Its exit code is the binary's.

    python3 perfbench/run.py --selfcheck

runs the benchmark's own tests instead: the reduced k=4 scripts and
their byte-for-byte equivalence with the core runners.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    # Nothing is downloaded: the module needs only the repository itself.
    env.update(GOPROXY="off", GOSUMDB="off", GOFLAGS="-mod=mod",
               GOTOOLCHAIN="local", GOWORK="off", GOTELEMETRY="off")
    return env


def main(argv):
    env = go_env()
    if "--selfcheck" in argv:
        return subprocess.call(["go", "test", "-count=1", "-timeout", "900s", "."],
                               cwd=HERE, env=env)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # One OS thread runs Go code: the simulation is serial, and on a shared
    # host a garbage collector running beside it on a second, contended
    # CPU made run times swing more than twofold from minute to minute.
    env["GOMAXPROCS"] = "1"
    return subprocess.call([binary] + argv, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
