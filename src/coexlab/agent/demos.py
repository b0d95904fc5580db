"""Protocol demonstrations sampled from simulation runs.

Each demonstration set pairs one labeled coexistence scenario with K
uniformly sampled actions. A probe run with the controlled node held
passive supplies the starting state; each sampled action then plays out
in a fresh copy of the scenario, giving the realized reward and the
end-state summary. Every tuple is produced by simulation, never written
by hand, and the whole set is a pure function of the seed.
``generate_demos`` runs one loop for both families, each of which states
only what differs in its row of ``_FAMILIES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..backends import fenced_json
from ..mac import (
    DEFAULT_FRAME_LEN,
    KIND_AGENT,
    KIND_ALOHA,
    KIND_CSMA,
    KIND_TDMA,
    BernoulliSlotPolicy,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    SlotOutcome,
    TrajectoryLog,
    purpose_rng,
    run_frames,
)
from ..metrics import node_mean_throughputs, slot_utilization
from ..oracle import fair_objective
from ..tcp import (
    DEFAULT_CWND_MAX,
    CONTROLLER_AGENT,
    CONTROLLER_RENO,
    CONTROLLER_VEGAS,
    TcpEnvironment,
    TcpFlowConfig,
    TcpRoundLog,
    TcpScenarioSpec,
    mean_social_reward,
    run_rounds,
)
from .config import AgentConfig

FAMILY_MAC = "mac"
FAMILY_TCP = "tcp"

MAC_LABELS = ("CSMA", "TDMA", "ALOHA", "DYNAMIC")
TCP_LABELS = ("RENO", "VEGAS", "TCP-DYNAMIC")

# The controlled node/flow always has id 0 in demonstration scenarios.
DEMO_AGENT_ID = 0

# Spawn-key namespace for demonstration environment seeds; disjoint from
# node streams (< 10000) and purpose streams (1-element keys >= 10000).
_DEMO_SEED_SPACE = 20000
_DEMO_ACTION_STREAM = 2


@dataclass(frozen=True)
class DemoTuple:
    """One (state, action, reward, next state) sample."""

    s: Dict[str, object]
    a: object
    r: float
    sn: Dict[str, object]


@dataclass
class DemoSet:
    label: str
    k: int
    tuples: List[DemoTuple]

    def doc(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "K": self.k,
            "tuples": [
                {"s": t.s, "a": t.a, "r": t.r, "sn": t.sn}
                for t in self.tuples
            ],
        }

    def prompt_block(self) -> str:
        return fenced_json(self.doc())


def _derive_seed(seed: int, label_idx: int, run_idx: int) -> int:
    ss = np.random.SeedSequence(
        seed, spawn_key=(_DEMO_SEED_SPACE, label_idx, run_idx)
    )
    return int(ss.generate_state(1)[0])


def _mac_demo_spec(label: str, seed: int, frames: int) -> ScenarioSpec:
    switch = frames // 2
    agent = NodeConfig(kind=KIND_AGENT)
    if label == "CSMA":
        others = [NodeConfig(kind=KIND_CSMA, window=2, max_stage=4)]
    elif label == "TDMA":
        others = [NodeConfig(kind=KIND_TDMA, slots=(3, 5))]
    elif label == "ALOHA":
        others = [NodeConfig(kind=KIND_ALOHA, q=0.2)]
    elif label == "DYNAMIC":
        others = [
            NodeConfig(kind=KIND_ALOHA, q=0.2, leave_frame=switch),
            NodeConfig(kind=KIND_TDMA, slots=(3, 5), join_frame=switch),
        ]
    else:
        raise ValueError(f"unknown mac demo label {label!r}")
    return ScenarioSpec(nodes=[agent] + others, total_frames=frames,
                        seed=seed)


def _tcp_demo_spec(label: str, seed: int, rounds: int) -> TcpScenarioSpec:
    switch = rounds // 2
    agent = TcpFlowConfig(controller=CONTROLLER_AGENT)
    if label == "RENO":
        others = [TcpFlowConfig(controller=CONTROLLER_RENO)]
    elif label == "VEGAS":
        others = [TcpFlowConfig(controller=CONTROLLER_VEGAS)]
    elif label == "TCP-DYNAMIC":
        others = [
            TcpFlowConfig(controller=CONTROLLER_RENO, leave_round=switch),
            TcpFlowConfig(controller=CONTROLLER_VEGAS, join_round=switch),
        ]
    else:
        raise ValueError(f"unknown tcp demo label {label!r}")
    return TcpScenarioSpec(flows=[agent] + others, total_rounds=rounds,
                           seed=seed)


def _mac_summary(log: TrajectoryLog) -> Dict[str, object]:
    frames = log.n_frames
    util = slot_utilization(log, last_frames=frames)
    outcome_counts = log.outcome_counts(0, frames)
    total = log.n_slots
    return {
        "live_n": len(log.timeline.live_at(frames - 1)),
        "slot_utilization": [round(u, 6) for u in util],
        "success_rate": round(outcome_counts[SlotOutcome.SUCCESS] / total, 6),
        "collision_rate": round(outcome_counts[SlotOutcome.COLLIDED] / total, 6),
        "idle_rate": round(outcome_counts[SlotOutcome.IDLE] / total, 6),
    }


def _mac_demo(label: str, seed: int, action: List[float],
              config: AgentConfig) -> Tuple[float, Dict[str, object]]:
    """The alpha-fair value of the node mean throughputs and the end-state
    summary of one demo run holding ``action`` on the agent node."""
    env = MacEnvironment(_mac_demo_spec(label, seed, config.demo_frames))
    run_frames(env, BernoulliSlotPolicy(seed, {DEMO_AGENT_ID: action}),
               config.demo_frames)
    values = list(node_mean_throughputs(env.log).values())
    return fair_objective(values, config.alpha), _mac_summary(env.log)


def _tcp_summary(log: TcpRoundLog, flow_id: int,
                 first_round: int = 0) -> Dict[str, object]:
    """Link and flow statistics over rounds ``first_round`` on; rounds
    with no live flow are skipped."""
    acks = []
    rtts = []
    tputs = []
    for r0, r1, live in log.timeline.stretches(first_round, log.n_rounds):
        if not live:
            continue
        per_flow = [log.flow_values(log.acks, fid, r0, r1) for fid in live]
        for rtt, *round_acks in zip(log.rtt_values(r0, r1).tolist(),
                                    *per_flow):
            total_acks = sum(round_acks)
            acks.append(total_acks)
            rtts.append(rtt)
            tputs.append(total_acks / rtt)
    r0, r1 = log.flow_rounds(flow_id, first_round, log.n_rounds)
    flow_rounds = max(0, r1 - r0)
    flow_loss_rounds = sum(log.flow_values(log.loss, flow_id, r0, r1)) \
        if flow_rounds else 0
    return {
        "mean_acks": round(sum(acks) / len(acks), 6),
        "mean_rtt": round(sum(rtts) / len(rtts), 6),
        "min_rtt": round(min(rtts), 6),
        "max_rtt": round(max(rtts), 6),
        "mean_tput": round(sum(tputs) / len(tputs), 6),
        "loss_rate": round(flow_loss_rounds / max(1, flow_rounds), 6),
        "live_n": len(log.timeline.live_at(log.n_rounds - 1)),
    }


def _tcp_demo(label: str, seed: int, cwnd: int,
              config: AgentConfig) -> Tuple[float, Dict[str, object]]:
    """The mean social reward over the second half and the end-state
    summary of one demo run holding ``cwnd`` on the agent flow."""
    rounds = config.demo_rounds
    log = run_rounds(TcpEnvironment(_tcp_demo_spec(label, seed, rounds)),
                     {DEMO_AGENT_ID: cwnd})
    return (mean_social_reward(log, first_round=rounds // 2),
            _tcp_summary(log, DEMO_AGENT_ID))


# family -> (labels, play, probe action, action draw, first action stream);
# the tcp action streams follow the mac ones
_FAMILIES = {
    FAMILY_MAC: (MAC_LABELS, _mac_demo, [0.0] * DEFAULT_FRAME_LEN,
                 lambda rng: [round(float(x), 6)
                              for x in rng.random(DEFAULT_FRAME_LEN)], 0),
    FAMILY_TCP: (TCP_LABELS, _tcp_demo, 1,
                 lambda rng: int(rng.integers(1, DEFAULT_CWND_MAX + 1)),
                 len(MAC_LABELS)),
}


def generate_demos(family: str, k: int, seed: int,
                   config: AgentConfig | None = None) -> List[DemoSet]:
    """Build every labeled demonstration set for one family."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    config = config or AgentConfig()
    if family not in _FAMILIES:
        raise ValueError(f"unknown demo family {family!r}")
    labels, play, passive, draw, first_stream = _FAMILIES[family]
    sets = []
    for idx, label in enumerate(labels):
        action_rng = purpose_rng(seed, _DEMO_ACTION_STREAM, first_stream + idx)
        # the probe's reward is not part of the set
        _, state = play(label, _derive_seed(seed, idx, 0), passive, config)
        tuples = []
        for i in range(k):
            action = draw(action_rng)
            reward, summary = play(label, _derive_seed(seed, idx, i + 1),
                                   action, config)
            tuples.append(DemoTuple(s=state, a=action, r=round(reward, 6),
                                    sn=summary))
        sets.append(DemoSet(label=label, k=k, tuples=tuples))
    return sets


@dataclass
class DemoBundle:
    family: str
    k: int
    seed: int
    sets: List[DemoSet]

    def doc(self) -> Dict[str, object]:
        """The ``demos.json`` document."""
        return {
            "version": "demos-v1",
            "family": self.family,
            "K": self.k,
            "seed": self.seed,
            "sets": [ds.doc() for ds in self.sets],
        }


def demo_bundle(family: str, k: int, seed: int,
                config: AgentConfig | None = None) -> DemoBundle:
    return DemoBundle(family=family, k=k, seed=seed,
                      sets=generate_demos(family, k, seed, config))

