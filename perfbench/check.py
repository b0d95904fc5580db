"""Output checks applied to every invocation the benchmark makes.

An invocation passes when it exited 0, ``coexlab eval --run`` reproduces
the ``jain`` and ``rmse`` of each run directory's ``metrics_report.json``,
and the digest of its deterministic artifacts equals that of the first
invocation of the same seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, List

# artifacts that must be byte-identical across repeats of a seed
DIGESTED = ("trajectory.csv", "throughput.csv", "metrics_report.json",
            "trace.json", "transcript.jsonl", "strategy.json")
# simulated statistics, exact for a given seed
FIDELITY = ("jain", "alpha_fair", "rmse")
# eval reproduces these from the trajectory and throughput files
EVAL_KEYS = ("jain", "rmse")

EVAL_TIMEOUT_S = 120


def file_digests(dirs: List[str], base: str) -> Dict[str, str]:
    """sha256 of each digested artifact, keyed by its path under ``base``;
    a missing artifact reads as "missing"."""
    out: Dict[str, str] = {}
    for d in dirs:
        for name in DIGESTED:
            path = os.path.join(d, name)
            key = os.path.relpath(path, base)
            try:
                with open(path, "rb") as fh:
                    out[key] = hashlib.sha256(fh.read()).hexdigest()
            except FileNotFoundError:
                out[key] = "missing"
    return out


def combined_digest(digests: Dict[str, str]) -> str:
    text = json.dumps(digests, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fidelity(run_dir: str) -> Dict[str, object]:
    with open(os.path.join(run_dir, "metrics_report.json"), "r",
              encoding="utf-8") as fh:
        report = json.load(fh)
    return {key: report.get(key) for key in FIDELITY}


def eval_problems(run_dir: str, env: Dict[str, str], cwd: str) -> List[str]:
    """Problems found when ``coexlab eval`` recomputes the run's metrics."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "coexlab", "eval", "--run", run_dir],
            env=env, cwd=cwd, capture_output=True, text=True,
            timeout=EVAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"eval took over {EVAL_TIMEOUT_S} s"]
    if proc.returncode != 0:
        return [f"eval exited {proc.returncode}: {proc.stderr.strip()}"]
    try:
        summary = json.loads(proc.stdout)
        expected = fidelity(run_dir)
    except (OSError, ValueError) as exc:
        return [f"eval output or metrics_report.json unreadable: {exc}"]
    return [f"eval {key} {summary.get(key)!r} != report {expected[key]!r}"
            for key in EVAL_KEYS if summary.get(key) != expected[key]]


def check_invocation(returncode: int, dirs: List[str], base: str,
                     reference: Dict[str, str],
                     env: Dict[str, str], cwd: str) -> List[str]:
    """Every problem with one invocation; an empty list means it passed.

    ``reference`` holds the file digests of the seed's first invocation.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems: List[str] = []
    for d in dirs:
        problems += [f"{os.path.relpath(d, base)}: {p}"
                     for p in eval_problems(d, env, cwd)]
    digests = file_digests(dirs, base)
    problems += [f"{key} missing" for key, v in sorted(digests.items())
                 if v == "missing"]
    problems += [f"{key} differs from the first repeat"
                 for key in sorted(digests)
                 if digests[key] != reference.get(key)]
    return problems
