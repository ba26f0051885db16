#!/usr/bin/env python3
"""Build the perfbench program and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sws --seed 1 --seconds 10 --trace 0

perfbench/ is a Go module of its own that builds the repository at its
parent directory through a replace directive. The binary, the Go build
cache, temporary files, spans and per-run results all go under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is
set), so nothing is written outside the checkout. The program's last
stdout line is the JSON result; a failed build exits non-zero without
printing one.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    for sub in ("gocache", "gomodcache", "tmp"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        TMPDIR=os.path.join(out, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary, *sys.argv[1:], "--out", out], env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
