"""Run every workload, untraced and traced, and print one summary.

    python3 perfbench/all.py --seed 1 --seconds 30

Run from the repository root. Each workload runs as
``perfbench/run.py --trace 0`` and then ``--trace 1``; their full output
is printed as it completes, followed by one line per workload with every
end-to-end metric and the artifact digest. Exits 0 when every run's
output checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}")
    return {
        "result": json.loads(lines[-1]),
        "digest": next((ln.split()[4] for ln in lines
                        if ln.startswith("digest ")), None),
    }


def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)

    results = {}
    for workload in WORKLOADS:
        results[workload] = {
            "untraced": run_one(workload, args.seed, args.seconds, 0),
            "traced": run_one(workload, args.seed, args.seconds, 1),
        }
    print(f"summary seed {args.seed}")
    ok = True
    for workload, r in results.items():
        untraced = r["untraced"]["result"]
        ok = ok and untraced["correct"] and r["traced"]["result"]["correct"]
        shown = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                          for name, m in untraced["metrics"].items())
        print(f"  {workload}: correct={untraced['correct']} "
              f"failed={untraced['failed']}/{untraced['attempted']} {shown} "
              f"digest={r['untraced']['digest']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
