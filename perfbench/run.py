#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload flood_wide --seed 1 --seconds 10 --trace 0

Run from the repository root. The build (CMake + Ninja, the repository's
default RelWithDebInfo build type) goes to .bench_build/perfbench and is
incremental, so only the first run pays for it; build output goes to
stderr. The last line of stdout is the benchmark's JSON result; the exit
status is the benchmark's (1 when a correctness check failed).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no service sources next to perfbench/ "
                 "(run from a full checkout)")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--parallel", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main() -> int:
    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        print(f"perfbench: build failed ({err})", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
