#!/usr/bin/env python3
"""Build the RES benchmark (release) and run it.

    python3 perfbench/run.py --workload <corpus|long-suffix|serve> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a package of its own in this directory and builds
against the repository's crates by path. Cargo output goes to standard
error, so the last line of standard output is the run's JSON result.
The build output goes to $CARGO_TARGET_DIR, or to perfbench/target.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds the benchmark; returns the executable's path or exits."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("benchmark build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "res-perfbench")


def main():
    exe = build()
    args = sys.argv[1:] + ["--work", os.path.join(HERE, ".work")]
    sys.exit(subprocess.run([exe] + args).returncode)


if __name__ == "__main__":
    main()
