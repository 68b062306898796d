#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload eager-latency --seed 1 --seconds 10 --trace 0

The Go toolchain's build cache, temporary files and the binary all live
under .bench_build/perfbench in the repository, so nothing outside it is
read or written besides the toolchain itself. Arguments are passed to
the binary unchanged; its exit code is returned. A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
# The binary enforces its own 170 s deadline; this is the backstop.
RUN_TIMEOUT = 178


def main():
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(OUT, "perfbench")
    staged = "%s.%d" % (binary, os.getpid())
    try:
        build = subprocess.run(["go", "build", "-o", staged, "."], cwd=HERE, env=env)
    except OSError as e:
        print("perfbench: cannot run the go toolchain: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.replace(staged, binary)

    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
