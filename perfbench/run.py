#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shared-count --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source against the checkout
(its go.mod replaces the pimtree module with the directory above), with
every Go cache, temporary and configuration directory kept under the build
directory (CARGO_TARGET_DIR if set, else .bench_build), so nothing outside
the checkout is read or written. Arguments pass through to the program; its
standard output, whose last line is the JSON result, and its exit code are
passed back. A failed build exits 2 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 170  # the program's own runs stay well inside this


def main():
    root = os.getcwd()
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    home = os.path.join(build, "gohome")
    for d in (home, os.path.join(build, "gotmp")):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, "config"),
        "XDG_CACHE_HOME": os.path.join(home, "cache"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if not any(a in ("-workdir", "--workdir") or a.startswith(("-workdir=", "--workdir=")) for a in args):
        args += ["--workdir", os.path.join(build, "perfbench-work")]
    proc = subprocess.Popen([binary] + args, env=env)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds" % TIMEOUT_S, file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
