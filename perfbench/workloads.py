"""The benchmark's workloads and the generator that makes their scenarios.

Each workload starts from a scenario shipped under ``scenarios/``. The
generator applies the benchmark seed (and any horizon override or joining
flow) and writes the result into the run's
own work directory. The program only ever sees that generated file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# shrink factor for the self-test's short-horizon pass
SHORT_DIVISOR = 10


@dataclass(frozen=True)
class Workload:
    name: str
    source: str                    # shipped scenario, relative to the root
    why: str                       # as recorded in BENCHMARK.json
    uses: Tuple[str, ...]          # layers the workload exercises
    bypasses: Tuple[str, ...]      # layers it never reaches
    replicas: int = 1
    total_frames: Optional[int] = None      # mac horizon override
    total_rounds: Optional[int] = None      # tcp horizon override
    joining_flows: Tuple[Dict[str, object], ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mac_churn",
        source="scenarios/mac_dynamic.json",
        why=("ALOHA leave/join and TDMA join: memoryless nodes, 4 oracle "
             "segments, largest live set; uses mac kernel, observer, oracle; "
             "bypasses tcp, replicas"),
        uses=("mac", "agent.observer", "agent.objective", "strategy",
              "backends", "agent.demos", "agent.offline", "oracle",
              "metrics", "runner"),
        bypasses=("tcp", "agent.tcp_observer", "cli.replicas"),
    ),
    Workload(
        name="mac_csma_x2",
        source="scenarios/mac_1c1h.json",
        why=("stateful CSMA keeps the per-slot loop; 2 replicas, no analytic "
             "reference; uses mac kernel, observer, replica fan-out; "
             "bypasses oracle, tcp"),
        uses=("mac", "agent.observer", "agent.objective", "strategy",
              "backends", "agent.demos", "agent.offline", "metrics",
              "runner", "cli.replicas"),
        bypasses=("tcp", "agent.tcp_observer", "oracle"),
        replicas=2,
        # half the shipped horizon, so a run holds several invocations
        total_frames=5000,
    ),
    Workload(
        name="tcp_long",
        source="scenarios/tcp_agent_reno.json",
        why=("30000 rounds, Vegas joins at 15000, observer rescans all "
             "history; uses tcp kernel, tcp observer; bypasses mac, MAC "
             "observer, oracle, replicas"),
        uses=("tcp", "agent.tcp_observer", "strategy", "backends",
              "agent.demos", "agent.offline", "runner"),
        bypasses=("mac", "agent.observer", "agent.objective", "oracle",
                  "metrics", "cli.replicas"),
        total_rounds=30000,
        joining_flows=({"controller": "vegas", "join_round": 15000},),
    ),
)}


def _shorten_mac(doc: Dict[str, object]) -> None:
    doc["total_frames"] = doc["total_frames"] // SHORT_DIVISOR
    for node in doc["nodes"]:
        for key in ("join_frame", "leave_frame"):
            if key in node:
                node[key] = node[key] // SHORT_DIVISOR


def scenario_doc(w: Workload, seed: int, root: str,
                 short: bool = False) -> Dict[str, object]:
    """The generated scenario: the shipped one with the seed applied."""
    with open(os.path.join(root, w.source), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["seed"] = seed
    if doc["version"] == "tcp-v1":
        if w.total_rounds is not None:
            doc["total_rounds"] = w.total_rounds
        doc["flows"] = doc["flows"] + [dict(f) for f in w.joining_flows]
        if short:
            doc["total_rounds"] //= SHORT_DIVISOR
            for flow in doc["flows"]:
                if "join_round" in flow:
                    flow["join_round"] //= SHORT_DIVISOR
    else:
        if w.total_frames is not None:
            doc["total_frames"] = w.total_frames
        if short:
            _shorten_mac(doc)
    return doc


def online_steps(doc: Dict[str, object], replicas: int) -> int:
    """Simulated online slots (mac) or rounds (tcp), summed over replicas."""
    if doc["version"] == "tcp-v1":
        return doc["total_rounds"] * replicas
    return doc["total_frames"] * doc["frame_len"] * replicas


def generate(w: Workload, seed: int, root: str, out_path: str,
             short: bool = False) -> Dict[str, object]:
    doc = scenario_doc(w, seed, root, short)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def run_dirs(out_dir: str, replicas: int) -> List[str]:
    """Run directories one invocation of ``coexlab run`` leaves behind."""
    if replicas == 1:
        return [out_dir]
    return [os.path.join(out_dir, f"replica_{i}") for i in range(replicas)]
