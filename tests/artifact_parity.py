"""Artifact parity between two source trees.

    python tests/artifact_parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts. Under
each tree in turn, every ``scenarios/*.json`` beside this file runs at
its full horizon with the scripted backend (``coexlab run``), followed by
``coexlab eval`` and ``coexlab trace`` on the run directory, and
``coexlab oracle`` runs on ``mac_dynamic.json``. Each command's exit
code, stdout and stderr are kept beside the files it wrote. The two
output trees are then compared file by file; every file that differs or
exists under one tree only is printed, and the exit status is 1 when
there is any.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
ORACLE_SCENARIO = "mac_dynamic.json"


def _coexlab(src: Path, cwd: Path, log: str, *argv: str) -> None:
    """Run ``coexlab *argv`` from ``src`` in ``cwd`` and record its exit
    code, stdout and stderr in ``cwd/log``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "coexlab", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    (cwd / log).write_text(
        f"exit {done.returncode}\n{done.stdout}\n{done.stderr}",
        encoding="utf-8")


def produce(src: Path, work: Path) -> None:
    """Every artifact the comparison reads, written under ``work`` by the
    package in ``src``; paths on the command lines are relative, so the
    printed summaries of both trees can be equal."""
    work.mkdir(parents=True)
    for scenario in sorted(SCENARIOS.glob("*.json")):
        run = f"runs/{scenario.stem}"
        _coexlab(src, work, f"{scenario.stem}.run.txt", "run", "--backend",
                 "scripted", "--scenario", str(scenario), "--out", run)
        _coexlab(src, work, f"{scenario.stem}.eval.txt", "eval", "--run", run)
        _coexlab(src, work, f"{scenario.stem}.trace.txt", "trace",
                 "--run", run)
    _coexlab(src, work, "oracle.txt", "oracle", "--scenario",
             str(SCENARIOS / ORACLE_SCENARIO), "--out", "oracle")


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
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_src, new_src = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory(prefix="artifact_parity_") as tmp:
        old, new = Path(tmp, "old"), Path(tmp, "new")
        produce(old_src, old)
        produce(new_src, new)
        compared = len(_files(old))
        differing = differing_files(old, new)
    for name in differing:
        print(name)
    print(f"{len(differing)} of {compared} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
