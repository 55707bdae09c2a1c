#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the Backlog engine.

Run from the repository root:

    python3 perfbench/run.py --workload <ingest|relocate|mixed> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py selftest   # every check catches a perturbed answer
    python3 perfbench/run.py fault      # the relocate_block clone-override fault

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode into
CARGO_TARGET_DIR (default: .bench_build under the current directory); cargo's
output goes to standard error, so the benchmark's result stays the last line
of standard output. Exits non-zero, without a result, if the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
