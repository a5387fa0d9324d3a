#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 10 --trace 0

The Go toolchain's caches, its temporary files and the built binary go to
the directory named by CARGO_TARGET_DIR (relative to the repository root; default
.bench_build), so a run reads and writes nothing outside the checkout.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode or 1
    try:
        ran = subprocess.run([exe] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
