#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
workspace, with path dependencies on the repository's crates) in release
mode, offline, into $CARGO_TARGET_DIR (default `.bench_build`), then runs it
with the given arguments. The benchmark's standard output passes through
unchanged; its last line is the JSON result. Build output goes to standard
error. Exits non-zero, without a result line, if the build or the run fails.

Environment knobs that would change how jobs are scheduled (SA_JOBS,
SA_NODE_THREADS, SA_CACHE_DIR) are removed before the run, so every run
uses the defaults users run: one simulation thread, fast-forward on, and the
benchmark's own empty result cache.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
IGNORED_ENV = ("SA_JOBS", "SA_NODE_THREADS", "SA_CACHE_DIR")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def main(argv):
    env = {k: v for k, v in os.environ.items() if k not in IGNORED_ENV}
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary] + argv, env=env, timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
