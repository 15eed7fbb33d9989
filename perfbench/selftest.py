#!/usr/bin/env python3
"""Self-test of the repository benchmark, on the tiny sizes of each workload.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and for both --trace modes it runs
perfbench/run.py --tiny twice with the same seed and checks that

  * the run exits 0 and reports "correct": true (the output checks passed);
  * every metric BENCHMARK.json names for that mode is printed, with the
    unit BENCHMARK.json gives it;
  * the two runs print identical simulated metrics and operation counts.

Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "5"

# Host-time metrics; everything else the driver prints is simulated and must
# repeat exactly for a seed.
HOST_METRICS = {
    "run_s", "setup_s", "peak_rss_mb", "sim.events_per_s",
    "sim.scheduler.self_s", "sim.radio.self_s", "net.transport.self_s",
    "net.codec.size_ns", "core.pdd.self_s", "core.pdr.self_s",
    "core.store.match_ns_per_record", "obs.telemetry.row_us",
    "workload.setup.grid_s", "workload.setup.publish_s",
    "profile.unattributed_share", "profile.overhead",
}


def run(workload: str, trace: str) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", trace, "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def simulated(result: dict) -> dict:
    kept = {k: v for k, v in result["metrics"].items()
            if k not in HOST_METRICS}
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": kept}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in expected.items():
            first, second = run(workload, trace), run(workload, trace)
            label = f"{workload} trace={trace}"
            if first["correct"] is not True:
                sys.exit(f"FAIL {label}: output checks failed")
            printed = first["metrics"]
            for m in metrics:
                got = printed.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    sys.exit(f"FAIL {label}: metric {m['name']} missing or "
                             f"not in unit {m['unit']}: {got}")
            if simulated(first) != simulated(second):
                sys.exit(f"FAIL {label}: same-seed runs differ")
            print(f"ok   {label}: {len(metrics)} metrics, "
                  f"{first['attempted']} units attempted, "
                  f"{first['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
