"""Byte-identity gate: every shipped scenario, run with the scripted
backend at a shortened horizon, must reproduce the committed sha256 of
each artifact it writes, and ``coexlab eval`` must recompute its metric
report from the run's files.

The digests live in ``golden_digests.json`` beside this file. After a
change that alters artifacts on purpose, regenerate them with

    PYTHONPATH=src python tests/test_golden_digests.py --write

and explain the drift in CHANGES.md.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from coexlab.cli import main
from coexlab.runner import ARTIFACT_EVAL, ARTIFACT_METRICS, ARTIFACTS

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
MAX_HORIZON = 1000


def shortened(doc: dict) -> dict:
    """Cut the horizon to MAX_HORIZON frames or rounds, scaling join and
    leave events by the same factor so population changes stay inside
    the shortened run."""
    mac = doc["version"] == "mac-v1"
    horizon_key = "total_frames" if mac else "total_rounds"
    members_key, events = ("nodes", ("join_frame", "leave_frame")) if mac \
        else ("flows", ("join_round", "leave_round"))
    horizon = doc[horizon_key]
    if horizon <= MAX_HORIZON:
        return doc
    out = dict(doc, **{horizon_key: MAX_HORIZON})
    out[members_key] = [
        {k: v * MAX_HORIZON // horizon if k in events and v is not None
         else v for k, v in member.items()}
        for member in doc[members_key]
    ]
    return out


def scenario_digests(scenario: Path, work: Path) -> dict:
    """sha256 of every artifact one scripted run writes."""
    path = work / scenario.name
    path.write_text(json.dumps(shortened(json.loads(scenario.read_text()))),
                    encoding="utf-8")
    out = work / scenario.stem
    code = main(["run", "--scenario", str(path), "--out", str(out),
                 "--backend", "scripted"])
    assert code == 0, f"{scenario.name}: exit {code}"
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS if (out / name).is_file()}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_artifacts_match_golden_digests(scenario, tmp_path):
    golden = json.loads(GOLDEN.read_text())[scenario.name]
    assert scenario_digests(scenario, tmp_path) == golden
    out = tmp_path / scenario.stem
    assert main(["eval", "--run", str(out)]) == 0
    summary = json.loads((out / ARTIFACT_EVAL).read_text())
    report = json.loads((out / ARTIFACT_METRICS).read_text())
    assert {key: value for key, value in summary.items()
            if key != "artifact"} == \
        {key: report.get(key) for key in summary if key != "artifact"}


def test_every_shipped_scenario_has_digests():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == [p.name for p in SCENARIOS]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_digests.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for scenario in SCENARIOS:
            work = Path(tmp) / scenario.stem
            os.makedirs(work)
            digests[scenario.name] = scenario_digests(scenario, work)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
