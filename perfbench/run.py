#!/usr/bin/env python3
"""Build compo from source and run one workload of its end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a compo checkout.  The program and the harness are
built with dune into .bench_build/ (the shared dune cache is disabled, so
nothing is written outside the checkout); the harness's journal
directories and server socket live in .bench_build/run/.  The last line
of standard output is the run's JSON result.
"""
import glob
import os
import shutil
import subprocess
import sys

BUILD = ".bench_build"


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    for candidate in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        return [candidate]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a compo checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune()
        + ["build", "--root", ".", "--build-dir", BUILD,
           "./perfbench/main.exe", "./bin/compo_server.exe"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        sys.exit(build.returncode)
    work = os.path.join(BUILD, "run")
    os.makedirs(work, exist_ok=True)
    harness = os.path.join(BUILD, "default", "perfbench", "main.exe")
    server = os.path.join(BUILD, "default", "bin", "compo_server.exe")
    args = [harness] + sys.argv[1:] + ["--server", server, "--work", work]
    # served_mix: the harness and the server it spawns share one CPU, so
    # every request and reply is a switch on that CPU rather than a
    # wake-up of another one (their latencies then spread about half as
    # much between runs)
    if "served_mix" in sys.argv and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.stdout.flush()
    os.execv(harness, args)


if __name__ == "__main__":
    main()
