#!/usr/bin/env python3
"""Build billcap and the benchmark from source, then run one benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 12 --trace 0

Both binaries are built in release mode, offline, with the committed lock
files, into $CARGO_TARGET_DIR (default `.bench_build`). Build output goes
to stderr; stdout carries only the benchmark's own lines, the last of which
is the JSON result. BILLCAP_* variables are removed from the environment so
that solver toggles and trace settings cannot change what is measured.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = {k: v for k, v in os.environ.items() if not k.startswith("BILLCAP_")}
    env["CARGO_TARGET_DIR"] = target
    cargo = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"]
    builds = [
        cargo + ["-p", "billcap-cli", "--bin", "billcap"],
        cargo + ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    argv = [bench, "--billcap", os.path.join(release, "billcap")] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(bench, argv, env)
    return 2  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
