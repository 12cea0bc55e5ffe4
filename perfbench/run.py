#!/usr/bin/env python3
"""Build the Spire benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plant --seed 1 --seconds 10 --trace 0

The OCaml executable (perfbench/spire_bench.ml) does the measuring and
prints the result as its last stdout line; this wrapper only builds it
with dune inside the checkout and passes the arguments through. It exits
non-zero, printing no result, when the sources are missing or the build
or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("plant", "order", "grid")
TARGET = "./perfbench/spire_bench.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        fail("run from the root of a Spire checkout (no dune-project or lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", root, "-j", "2", "--display", "quiet", TARGET],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(root, "_build", "default", "perfbench", "spire_bench.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
