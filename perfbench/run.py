#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload pdd_dense --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (the simulator libraries from src/ plus the
pds_bench driver) into the directory named by $CARGO_TARGET_DIR, default
`.bench_build`, then runs pds_bench with the same arguments. Build output
goes to stderr; the last line of stdout is the driver's JSON result. The exit
code is the driver's: non-zero when any output check failed or when the
sources cannot be built. `--tiny` selects the small self-test sizes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources (src/) next to perfbench/")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "pds_bench"])
    # Compiler temporaries stay inside the build tree, not in /tmp.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return build_dir / "pds_bench"


def main() -> int:
    binary = build()
    proc = subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: pds_bench printed no result "
              f"(exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
