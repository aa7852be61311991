#!/usr/bin/env python3
"""Builds the benchmark driver and the program from source, then runs it.

Usage, from the root of the repository:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>

The build goes to .bench_build/perfbench (the log to build.log there).
The driver's last stdout line is the JSON result; see perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(1)


def main():
    build()
    # Relative paths keep the daemon's AF_UNIX socket path short.
    rel = lambda p: os.path.relpath(p, os.getcwd())
    args = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + [
        "--data-dir", rel(HERE),
        "--work-dir", rel(os.path.join(BUILD, "work")),
        "--tydid", os.path.join(BUILD, "tydi", "tydid"),
    ]
    sys.stdout.flush()
    os.execv(args[0], args)


if __name__ == "__main__":
    main()
