#!/usr/bin/env python3
"""Build the xmodel CLI and the benchmark harness, then run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload <validate|validate_l1|sweep|serve> \
        --seed N --seconds S --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to standard error; the harness prints its result as the last line
of standard output. Exits non-zero without a result when a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "xmodel-cli"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return done.returncode or 1
    harness = os.path.join(target, "release", "perfbench")
    xmodel = os.path.join(target, "release", "xmodel")
    # A child of its own, not an exec: the harness reads the peak memory
    # of its children, which must not include the builds above.
    return subprocess.run([harness, *sys.argv[1:], "--xmodel", xmodel], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
