#!/usr/bin/env python3
"""Builds the benchmark and `granula-cli` from source, then runs the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig5 --seed 1000 --seconds 10 --trace 0

Both programs build in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`). The benchmark's own arguments are passed through; see
`perfbench/src/main.rs`. Exits non-zero without a result when the build
fails, for example outside a full checkout of the repository.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build chatter goes to stderr: the last line of stdout is the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: building {manifest} failed ({done.returncode})")


def main():
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir, "Cargo.toml", "-p", "granula", "--bin", "granula-cli")
    build(target_dir, "perfbench/Cargo.toml")
    release = os.path.join(target_dir, "release")
    exe = os.path.join(release, "perfbench")
    cli = os.path.join(release, "granula-cli")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(exe, [exe, *sys.argv[1:], "--cli", cli])


if __name__ == "__main__":
    main()
