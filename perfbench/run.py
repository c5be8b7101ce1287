#!/usr/bin/env python3
"""Build the perfbench binaries from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig08|traffic|crash_explore|crash_check \
        --seed N --seconds S --trace 0|1 [--tiny]

Two binaries are built under $CARGO_TARGET_DIR (default .bench_build),
each in its own target directory: the plain one, which the untraced run
(--trace 0) times, and one with the bench crate's counting allocator,
which the traced run (--trace 1) uses for its per-leg allocation counts.
Both are built on every call (a no-op once they are fresh), so the first
call pays for both builds.

The binary's stdout passes through unchanged; its last line is the
result object. The exit code is the binary's, or 1 if a build failed,
in which case no result is printed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(target_dir, features):
    """Build one variant and return the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST,
        "--message-format", "json-render-diagnostics",
    ]
    if features:
        cmd += ["--features", features]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            exe = msg["executable"]
    return exe


def flag(args, name, default=None):
    """The value after `name` in `args`, or `default`."""
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    trace = flag(args, "--trace") == "1"
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    plain = build(os.path.join(target_dir, "plain"), None)
    traced = build(os.path.join(target_dir, "alloc-count"), "alloc-count")
    if plain is None or traced is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    extra = []
    if trace:
        name = "spans-%s-seed%s.json" % (flag(args, "--workload"), flag(args, "--seed", "default"))
        extra = ["--spans-out", os.path.join(target_dir, "perfbench", name)]
    sys.stdout.flush()
    return subprocess.run([traced if trace else plain] + args + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
