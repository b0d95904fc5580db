"""The per-slot MAC loop, kept as the reference the batched kernel of
``coexlab.mac.run_frames`` must equal.

``step_slot`` decides one slot: every controlled node draws from its
policy stream, then the live nodes are evaluated in id order with CSMA
nodes last, so that carrier sensing sees every commitment already made
for the slot. ``run_frames`` enters the timeline's live set at every
frame boundary and steps each slot in turn. ``frame_successes``
rebuilds the per-frame success counts of every node as one array, zero
past the logged frames.
"""

from __future__ import annotations

import numpy as np

from coexlab.errors import MissingDecisionError
from coexlab.mac import (
    CONTROLLED_KINDS,
    KIND_ALOHA,
    KIND_CSMA,
    KIND_TDMA,
    SlotOutcome,
)

OUTCOME_CODES = {outcome: code for code, outcome in enumerate(SlotOutcome)}


def step_slot(env, policy) -> None:
    nodes = env.spec.nodes
    position = env.slot_index % env.frame_len
    controlled = [nid for nid in env.live
                  if nodes[nid].kind in CONTROLLED_KINDS]
    for nid in controlled:
        if policy is None or nid not in policy.vectors:
            raise MissingDecisionError(f"no decision for controlled node "
                                       f"{nid} at slot {env.slot_index}")
    decisions = {}
    for nid in controlled:
        p = float(policy.vectors[nid][position])
        u = float(policy._rngs[nid].random())
        decisions[nid] = u < p

    transmitters, deferred_csma = [], []
    for nid in env.live:
        kind = nodes[nid].kind
        if kind in CONTROLLED_KINDS:
            if decisions[nid]:
                transmitters.append(nid)
        elif kind == KIND_CSMA:
            deferred_csma.append(nid)
        elif kind == KIND_ALOHA:
            if float(env._rngs[nid].random()) < nodes[nid].q:
                transmitters.append(nid)
        elif kind == KIND_TDMA:
            if position in nodes[nid].slots:
                transmitters.append(nid)
        elif env.machines[nid].decide(False):
            transmitters.append(nid)
    for nid in deferred_csma:
        if env.machines[nid].decide(bool(transmitters)):
            transmitters.append(nid)

    if len(transmitters) == 1:
        outcome = SlotOutcome.SUCCESS
    elif transmitters:
        outcome = SlotOutcome.COLLIDED
    else:
        outcome = SlotOutcome.IDLE
    for nid in transmitters:
        if nid in env.machines:
            env.machines[nid].on_outcome(outcome)

    tx = np.zeros((1, len(nodes)), dtype=bool)
    tx[0, transmitters] = True
    env.log.append_slots(np.array([OUTCOME_CODES[outcome]]), tx)


def run_frames(env, policy, n_frames: int):
    for _ in range(n_frames):
        env._enter(env.log.timeline.live_at(env.frame_index))
        for _ in range(env.frame_len):
            step_slot(env, policy)
    return env.log


def frame_successes(log, f0: int, f1: int) -> np.ndarray:
    """Successes per frame and node id, shape (f1 - f0, n_nodes), frames
    past the logged ones counting none."""
    won = np.zeros((f1 - f0, log.n_nodes), dtype=np.int64)
    logged = log._won[f0:min(f1, log.n_frames)]
    won[:len(logged)] = logged
    return won
