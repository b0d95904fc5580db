"""The README's Library tour runs as written, from the repository root,
so that a renamed or removed name it calls fails here."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_tour() -> str:
    """The ``python`` block under the README's Library tour heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_tour_runs_from_the_repo_root():
    code = library_tour()
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == code.count("print(")
