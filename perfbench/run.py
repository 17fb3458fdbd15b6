#!/usr/bin/env python3
"""Build the benchmark from the tree it sits in and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload cotenancy|nfprofile|fleet \
        --seed N --seconds S --trace 0|1 [--scale medium|small]

Builds cmd/snicd and the perfbench program into .bench_build/ (Go's
build cache lives there too, so nothing outside the checkout is read or
written), then runs perfbench with the same arguments. The last line of
stdout is the result object; see perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    return env


def build(env):
    for d in ("bin", "gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    steps = [
        (["go", "build", "-o", os.path.join(BIN, "snicd"), "./cmd/snicd"], ROOT),
        (["go", "build", "-o", os.path.join(BIN, "perfbench"), "."],
         os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: run from the repository root (no go.mod here)")
    env = go_env()
    build(env)
    cmd = [os.path.join(BIN, "perfbench"),
           "-spec", os.path.join(ROOT, "BENCHMARK.json"),
           "-snicd", os.path.join(BIN, "snicd"),
           "-tmp", os.path.join(BUILD, "tmp")] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
