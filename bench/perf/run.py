#!/usr/bin/env python3
"""Build skyperf from source and run one workload.

    python3 bench/perf/run.py --workload W --seed S --seconds N --trace 0|1

Run from the repository root. The build goes to .bench_build/ (dune's
output goes to stderr); a failed build exits non-zero without printing a
result. With --trace 1 the Chrome trace is written to
.bench_build/skyperf-<workload>-<seed>.trace.json. The last line of
standard output is skyperf's result line; the exit status is skyperf's.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "bench", "perf", "skyperf.exe")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    try:
        built = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "./bench/perf/skyperf.exe"],
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return built.returncode or 1

    cmd = [EXE, "run", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds)]
    if a.trace:
        cmd += ["--trace", os.path.join(
            BUILD_DIR, f"skyperf-{a.workload}-{a.seed}.trace.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
