"""Run every workload once and print each metric with its sample count and
the output-check result.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1] [--size tiny]

Each workload runs in its own process, so peak RSS is per workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import SIZES, WORKLOADS  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    args = p.parse_args()
    status = 0
    for workload in sorted(WORKLOADS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                              text=True, timeout=900)
        if proc.returncode != 0:
            print(f"== {workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        print(f"== {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"tail=p{report['latency_ms']['tail_percentile']:g} "
              f"of {report['latency_ms']['n']}")
        print("\n".join(lines[:-2]))
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
