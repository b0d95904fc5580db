"""Differential test of the batched MAC kernel against the per-slot
reference loop in ``mac_reference``.

Random populations of all seven node kinds, with joins and leaves, run
once through ``coexlab.mac.run_frames`` and once through the reference,
in the same random split of calls with the same ``set_vector`` updates
between them. The logs must agree column for column, per-frame success
counts included, and every node stream, policy stream and backoff
machine must end in the same state. A small chunk size makes the kernel
cross chunk boundaries.

A second test checks what the log keeps in place of per-slot columns,
the per-frame success counts, against a recount of the slot columns, and
that each controlled node's transmissions follow the vector
``run_frames`` was given: never at a 0.0 entry, always at a 1.0 entry.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mac_reference
from coexlab import mac
from coexlab.errors import CoexlabError, MissingDecisionError
from coexlab.mac import (
    ALL_KINDS,
    CONTROLLED_KINDS,
    BernoulliSlotPolicy,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    SlotOutcome,
    run_frames,
)


@st.composite
def nodes(draw, frame_len, frames):
    kind = draw(st.sampled_from(ALL_KINDS))
    join = draw(st.integers(0, frames - 1)) if draw(st.booleans()) else 0
    leave = draw(st.integers(join + 1, frames + 5)) \
        if draw(st.booleans()) else None
    cfg = NodeConfig(kind=kind, join_frame=join, leave_frame=leave)
    if kind == "aloha":
        cfg.q = draw(st.floats(0.0, 1.0) | st.sampled_from([0, 1]))
    elif kind == "tdma":
        cfg.slots = tuple(draw(st.sets(st.integers(0, frame_len - 1),
                                       min_size=1)))
    elif kind not in CONTROLLED_KINDS:
        cfg.window = draw(st.integers(1, 4))
        cfg.max_stage = draw(st.integers(0, 3))
    return cfg


def vector(frame_len):
    return st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
                    min_size=frame_len, max_size=frame_len)


@st.composite
def runs(draw):
    frame_len = draw(st.integers(1, 6))
    frames = draw(st.integers(1, 30))
    spec = ScenarioSpec(
        nodes=draw(st.lists(nodes(frame_len, frames), min_size=1,
                            max_size=7)),
        total_frames=frames, seed=draw(st.integers(0, 2 ** 16)),
        frame_len=frame_len)
    controlled = [nid for nid, cfg in enumerate(spec.nodes)
                  if cfg.kind in CONTROLLED_KINDS]
    calls, left = [], frames
    while left:
        n = draw(st.integers(1, left))
        updates = {nid: draw(vector(frame_len)) for nid in draw(
            st.sets(st.sampled_from(controlled))
            if controlled else st.just(set()))}
        calls.append((n, updates))
        left -= n
    initial = {nid: draw(vector(frame_len)) for nid in controlled}
    return spec, initial, calls


def simulate(spec, initial, calls, run):
    env = MacEnvironment(spec)
    policy = BernoulliSlotPolicy(spec.seed, initial)
    for n, updates in calls:
        run(env, policy, n)
        for nid, vec in updates.items():
            policy.set_vector(nid, vec)
    return env, policy


def columns(log):
    n = log.n_slots
    return (n, log.timeline.segments, log._outcome[:n].tolist(),
            log._tx[:n].tolist(),
            mac_reference.frame_successes(log, 0, log.n_frames).tolist())


def machine_states(env):
    return {nid: (m.stage, m.w) for nid, m in env.machines.items()}


@settings(max_examples=150, deadline=None)
@given(run=runs(), chunk=st.integers(1, 8))
def test_kernel_equals_per_slot_reference(run, chunk):
    expected_env, expected_policy = simulate(*run, mac_reference.run_frames)
    with mock.patch.object(mac, "KERNEL_CHUNK_SLOTS", chunk):
        env, policy = simulate(*run, run_frames)
    assert columns(env.log) == columns(expected_env.log)
    assert env.slot_index == expected_env.slot_index
    assert env.live == expected_env.live
    assert machine_states(env) == machine_states(expected_env)
    for streams, expected in ((env._rngs, expected_env._rngs),
                              (policy._rngs, expected_policy._rngs)):
        assert streams.keys() == expected.keys()
        for nid in streams:
            assert streams[nid].bit_generator.state \
                == expected[nid].bit_generator.state


# one node succeeding in every slot of 200-slot frames: counts above 127
WIDE_FRAME = (ScenarioSpec(nodes=[NodeConfig(kind="aloha", q=1.0),
                                  NodeConfig(kind="agent", join_frame=1)],
                           total_frames=3, seed=2, frame_len=200),
              {1: [0.0] * 200}, [(1, {1: [0.0] * 199 + [0.5]}), (2, {})])


@settings(max_examples=150, deadline=None)
@given(run=runs(), chunk=st.integers(2, 9), tail=st.integers(0, 5))
@example(run=WIDE_FRAME, chunk=7, tail=150)
def test_frame_counts_and_policy_rows_equal_per_slot_values(run, chunk, tail):
    spec, initial, calls = run
    frame_len = spec.frame_len
    # chunks that end mid-frame
    assume(chunk % frame_len)
    seen = []       # (first slot, end slot, vectors) per run_frames call

    def spy(env, policy, n):
        first = env.slot_index
        vectors = {nid: list(v) for nid, v in policy.vectors.items()}
        run_frames(env, policy, n)
        seen.append((first, env.slot_index, vectors))

    with mock.patch.object(mac, "KERNEL_CHUNK_SLOTS", chunk):
        env, policy = simulate(spec, initial, calls, spy)
    # a horizon that ends inside a frame
    first = env.slot_index
    for _ in range(tail % frame_len):
        mac_reference.step_slot(env, policy)
    seen.append((first, env.slot_index, dict(policy.vectors)))

    log = env.log
    success = mac_reference.OUTCOME_CODES[SlotOutcome.SUCCESS]
    recount = np.zeros((log.n_frames, log.n_nodes), dtype=np.int64)
    for i in range(log.n_slots):
        if log._outcome[i] == success:
            recount[i // frame_len] += log._tx[i]
    assert mac_reference.frame_successes(log, 0, log.n_frames).tolist() == recount.tolist()

    controlled = {nid for nid, cfg in enumerate(spec.nodes)
                  if cfg.kind in CONTROLLED_KINDS}
    for first, end, vectors in seen:
        for i in range(first, end):
            record = log.records[i]
            for nid in controlled.intersection(record.live_ids):
                p = vectors[nid][i % frame_len]
                if p in (0.0, 1.0):
                    assert (nid in record.transmitters) == (p == 1.0)


def test_large_horizon_spans_chunks():
    spec = ScenarioSpec(
        nodes=[NodeConfig(kind="agent"), NodeConfig(kind="aloha", q=0.3),
               NodeConfig(kind="csma", window=2, max_stage=3,
                          join_frame=3000),
               NodeConfig(kind="tdma", slots=(1, 4), leave_frame=5000)],
        total_frames=7000, seed=5)
    vectors = {0: [0.1 * k for k in range(10)]}
    env = MacEnvironment(spec)
    run_frames(env, BernoulliSlotPolicy(spec.seed, vectors), 7000)
    expected = MacEnvironment(spec)
    mac_reference.run_frames(
        expected, BernoulliSlotPolicy(spec.seed, vectors), 7000)
    assert env.log.n_slots > mac.KERNEL_CHUNK_SLOTS
    assert columns(env.log) == columns(expected.log)


def agent_spec():
    return ScenarioSpec(nodes=[NodeConfig(kind="aloha", q=0.5),
                               NodeConfig(kind="agent", join_frame=2)],
                        total_frames=5, seed=3)


def test_missing_vector_raises_at_the_join_slot():
    env = MacEnvironment(agent_spec())
    with pytest.raises(MissingDecisionError, match="node 1 at slot 20"):
        run_frames(env, None, 5)
    assert env.log.n_slots == 20
    env = MacEnvironment(agent_spec())
    with pytest.raises(MissingDecisionError):
        run_frames(env, BernoulliSlotPolicy(3, {}), 5)


@pytest.mark.parametrize("length", [0, 4, 9, 11, 12])
def test_vector_of_wrong_length_raises(length):
    env = MacEnvironment(agent_spec())
    policy = BernoulliSlotPolicy(3, {1: [0.5] * length})
    with pytest.raises(CoexlabError, match="frame_len 10"):
        run_frames(env, policy, 5)


def test_zero_frames_is_a_no_op():
    env = MacEnvironment(agent_spec())
    run_frames(env, None, 2)
    before = columns(env.log)
    run_frames(env, None, 0)
    assert columns(env.log) == before
    assert env.live == [0]
