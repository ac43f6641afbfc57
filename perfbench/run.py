#!/usr/bin/env python3
"""Builds the xpe CLI and the benchmark binary from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Cargo writes to $CARGO_TARGET_DIR
(default .bench_build). The benchmark's stdout ends with one JSON result
line; build output goes to stderr. Exits non-zero if either build fails
or the benchmark reports an error or a wrong answer.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args, cwd, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("error: %s failed with exit code %d" % (" ".join(cmd), done.returncode))


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo_build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "xpe-cli"], ROOT, env)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT, env)
    release = os.path.join(target, "release")
    bench = os.path.join(release, "xpe-perfbench")
    xpe = os.path.join(release, "xpe")
    # A child process, not exec: the benchmark reads its children's peak
    # memory, which must not include the compilers cargo ran here.
    done = subprocess.run([bench] + sys.argv[1:] + ["--xpe", xpe], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
