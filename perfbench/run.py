#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds the Go program in this directory
against the repository's sources, then runs it with the given arguments;
the program prints the result as the last line of standard output. Every
file the build and the run write stays under $CARGO_TARGET_DIR (default
.bench_build) in the current directory.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home/config"), ("XDG_CACHE_HOME", "home/cache")):
        env[var] = os.path.join(out, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="-buildvcs=false", GOTOOLCHAIN="local", GOPROXY="off",
               GOWORK="off", CGO_ENABLED="0")
    exe = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    run = subprocess.run([exe, *sys.argv[1:], "--out", os.path.join(out, "run")], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
