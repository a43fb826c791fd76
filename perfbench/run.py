#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload protect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is a dune project of its own (perfbench/ocaml).  This
script stages it, together with a copy of the repository's lib/, in the
workspace .bench_build/ws, builds bench/main.exe there with dune and
runs it from the checkout root with the same arguments (see
perfbench/README.md).  The repository's own `dune build` and `dune
runtest` never see it.  The last line of standard output is the result
object; the exit code is non-zero on a build failure, a usage error or
any failed operation.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.join("perfbench", "ocaml")
WORKSPACE = os.path.join(".bench_build", "ws")
EXE = os.path.join(WORKSPACE, "_build", "default", "bench", "main.exe")


def stage():
    """Copy lib/ and the benchmark's sources into the workspace.

    Copies keep their modification times, so dune rebuilds only what
    changed since the last run in this checkout."""
    os.makedirs(WORKSPACE, exist_ok=True)
    shutil.copy2(os.path.join(HERE, "dune-project"), WORKSPACE)
    for src, dst in (("lib", "lib"), (HERE, "bench")):
        target = os.path.join(WORKSPACE, dst)
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(src, target,
                        ignore=shutil.ignore_patterns("dune-project"))


def main():
    if not (os.path.isdir("lib") and os.path.isdir(HERE)
            and os.path.isfile("BENCHMARK.json")):
        sys.stderr.write(
            "perfbench: run from the root of a source checkout "
            "(lib/, perfbench/ocaml and BENCHMARK.json not all found here)\n")
        return 2
    if shutil.which("dune") is None:
        sys.stderr.write("perfbench: dune is not on PATH\n")
        return 2
    stage()
    # build output goes to stderr: stdout carries only the result; the
    # shared dune cache is off so that the build writes only under the
    # workspace
    build = subprocess.run(
        ["dune", "build", "--root", WORKSPACE, "./bench/main.exe"],
        stdout=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
