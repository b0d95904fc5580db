"""Byte-identity gate for TCP membership changes, which no shipped
scenario has: ``tcp_agent_reno.json`` cut to 1000 rounds, with its Reno
flow leaving at round 800 and a Vegas flow joining at round 500. The run
writes empty ``trajectory.csv`` cells for absent flows and carries each
flow's minimum RTT across both changes.

The digests live in ``tcp_churn_digests.json`` beside this file. After a
change that alters these artifacts on purpose, regenerate them with

    PYTHONPATH=src python tests/test_tcp_churn_digests.py --write

and explain the drift in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from coexlab.cli import main
from coexlab.runner import ARTIFACT_TRAJECTORY, ARTIFACTS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "tcp_churn_digests.json"


def churn_scenario() -> dict:
    doc = json.loads((ROOT / "scenarios" / "tcp_agent_reno.json").read_text())
    flows = [dict(f) for f in doc["flows"]]
    assert [f["controller"] for f in flows] == ["agent", "reno"]
    flows[1]["leave_round"] = 800
    flows.append({"controller": "vegas", "join_round": 500})
    return dict(doc, total_rounds=1000, flows=flows)


def churn_digests(work: Path) -> dict:
    path = work / "tcp_churn.json"
    path.write_text(json.dumps(churn_scenario()), encoding="utf-8")
    out = work / "run"
    code = main(["run", "--scenario", str(path), "--out", str(out),
                 "--backend", "scripted"])
    assert code == 0, f"exit {code}"
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS if (out / name).is_file()}


def test_tcp_churn_artifacts_match_recorded_digests(tmp_path):
    assert churn_digests(tmp_path) == json.loads(DIGESTS.read_text())


def test_churn_run_has_absent_flow_cells(tmp_path):
    churn_digests(tmp_path)
    rows = (tmp_path / "run" / ARTIFACT_TRAJECTORY).read_text().splitlines()
    # round 0: the Vegas flow has not joined; round 999: the Reno flow left
    assert rows[1].endswith(",,,")
    assert rows[1000].split(",")[4:7] == ["", "", ""]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_tcp_churn_digests.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = churn_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
