"""Artifact parity between two source trees.

    python tests/artifact_parity.py OLD_SRC NEW_SRC [--horizon-scale K]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts. Under
each tree in turn, every ``scenarios/*.json`` beside this file runs at
its full horizon with the scripted backend (``coexlab run``), followed by
``coexlab eval`` and ``coexlab trace`` on the run directory, and
``coexlab offline`` runs on it into a directory of its own (a scenario
with no agent is refused there). Each scenario whose run wrote
``strategy.json`` also runs twice more, each into a directory of its own:
with ``--no-trace``, and with ``--backend none --strategy`` on that
``strategy.json``. ``coexlab run --replicas 2`` runs on ``mac_1t1h.json``
and ``tcp_agent_reno.json``, ``coexlab oracle`` on ``mac_dynamic.json``,
and ``coexlab demos`` exports both families' sets. Each command's exit
code, stdout and stderr are kept beside the files it wrote. The two
output trees are then compared file by file; every file that differs or
exists under one tree only is printed, and the exit status is 1 when
there is any.

With ``--horizon-scale K`` (default 1) every scenario is first copied
into the temporary directory with its ``total_frames`` or
``total_rounds`` and each ``join_*`` and ``leave_*`` of its members
multiplied by K, and the copies run in place of the shipped files.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
ORACLE_SCENARIO = "mac_dynamic.json"
# scenarios also run as seed replicas, one per family
REPLICA_SCENARIOS = ("mac_1t1h.json", "tcp_agent_reno.json")
# the demo export's settings: the run's default K and a fixed seed
DEMO_K, DEMO_SEED = 8, 7


def _coexlab(src: Path, cwd: Path, log: str, *argv: str) -> None:
    """Run ``coexlab *argv`` from ``src`` in ``cwd`` and record its exit
    code, stdout and stderr in ``cwd/log``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "coexlab", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    (cwd / log).write_text(
        f"exit {done.returncode}\n{done.stdout}\n{done.stderr}",
        encoding="utf-8")


def scaled_scenarios(scenarios: Path, out: Path, k: int) -> Path:
    """Copies of the scenarios in ``scenarios`` under ``out``, their
    horizons and every member's join and leave ``k`` times as late."""
    out.mkdir(parents=True)
    for path in sorted(scenarios.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for key in ("total_frames", "total_rounds"):
            if key in doc:
                doc[key] *= k
        for member in doc.get("nodes", []) + doc.get("flows", []):
            for key in list(member):
                if key.startswith(("join_", "leave_")) \
                        and member[key] is not None:
                    member[key] *= k
        (out / path.name).write_text(json.dumps(doc, indent=2),
                                     encoding="utf-8")
    return out


def produce(src: Path, work: Path, scenarios: Path = SCENARIOS) -> None:
    """Every artifact the comparison reads, written under ``work`` by the
    package in ``src`` from the scenarios in ``scenarios``; paths on the
    command lines are relative, or the same for both trees, so the
    printed summaries of both trees can be equal."""
    work.mkdir(parents=True)
    for scenario in sorted(scenarios.glob("*.json")):
        run = f"runs/{scenario.stem}"
        _coexlab(src, work, f"{scenario.stem}.run.txt", "run", "--backend",
                 "scripted", "--scenario", str(scenario), "--out", run)
        _coexlab(src, work, f"{scenario.stem}.eval.txt", "eval", "--run", run)
        _coexlab(src, work, f"{scenario.stem}.trace.txt", "trace",
                 "--run", run)
        _coexlab(src, work, f"{scenario.stem}.offline.txt", "offline",
                 "--backend", "scripted", "--scenario", str(scenario),
                 "--out", f"offline/{scenario.stem}")
        strategy = f"{run}/strategy.json"
        if (work / strategy).is_file():
            _coexlab(src, work, f"{scenario.stem}.notrace.txt", "run",
                     "--backend", "scripted", "--scenario", str(scenario),
                     "--out", f"notrace/{scenario.stem}", "--no-trace")
            _coexlab(src, work, f"{scenario.stem}.cached.txt", "run",
                     "--backend", "none", "--scenario", str(scenario),
                     "--out", f"cached/{scenario.stem}", "--strategy",
                     strategy)
    for name in REPLICA_SCENARIOS:
        stem = Path(name).stem
        _coexlab(src, work, f"{stem}.replicas.txt", "run", "--backend",
                 "scripted", "--scenario", str(scenarios / name), "--out",
                 f"replicas/{stem}", "--replicas", "2")
    _coexlab(src, work, "oracle.txt", "oracle", "--scenario",
             str(scenarios / ORACLE_SCENARIO), "--out", "oracle")
    for family in ("mac", "tcp"):
        _coexlab(src, work, f"demos_{family}.txt", "demos", "--family",
                 family, "--k", str(DEMO_K), "--seed", str(DEMO_SEED),
                 "--out", f"demos/{family}")


def _files(root: Path) -> List[str]:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*")
                  if path.is_file())


def differing_files(old: Path, new: Path) -> List[str]:
    """Relative paths whose bytes differ between ``old`` and ``new``, or
    that exist under one of them only."""
    old_files, new_files = set(_files(old)), set(_files(new))
    return sorted(
        name for name in old_files | new_files
        if name not in old_files or name not in new_files
        or not filecmp.cmp(old / name, new / name, shallow=False))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--horizon-scale", type=int, default=1, metavar="K",
                        help="run every scenario at K times its horizon")
    args = parser.parse_args(argv)
    if args.horizon_scale < 1:
        parser.error("--horizon-scale must be >= 1")
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    with tempfile.TemporaryDirectory(prefix="artifact_parity_") as tmp:
        scenarios = SCENARIOS if args.horizon_scale == 1 else \
            scaled_scenarios(SCENARIOS, Path(tmp, "scenarios"),
                             args.horizon_scale)
        old, new = Path(tmp, "old"), Path(tmp, "new")
        produce(old_src, old, scenarios)
        produce(new_src, new, scenarios)
        compared = len(_files(old))
        differing = differing_files(old, new)
    for name in differing:
        print(name)
    print(f"{len(differing)} of {compared} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
