"""Differential test of the slot-log window statistics.

Each window function reads the column log through its frame-range
methods. The references below are plain loops over ``log.records``, the
per-slot form the statistics were first written in, and must agree with
them exactly. A second check rebuilds every slot record while the
simulation runs and compares it with the ``records`` view.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mac_reference
from coexlab.agent.demos import _mac_summary
from coexlab.agent.observer import (
    MacWindowSignals,
    mac_window_signals,
    observer_analyze,
)
from coexlab.agent.online import mac_window_objective
from coexlab.errors import WindowTooShortError
from coexlab.mac import (
    CONTROLLED_KINDS,
    BernoulliSlotPolicy,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    SlotOutcome,
    SlotRecord,
    run_frames,
)
from coexlab.metrics import (
    ThroughputSeries,
    node_mean_throughputs,
    slot_utilization,
    windowed_throughput,
)
from coexlab.oracle import fair_objective

# -- reference loops over log.records ----------------------------------------


def ref_window_signals(log, window_frames, exclude_ids=()):
    if window_frames < 1:
        raise WindowTooShortError("window_frames must be >= 1")
    if not log.records:
        raise WindowTooShortError("empty trajectory log")
    last_frame = log.records[-1].frame_index
    first_frame = last_frame - window_frames + 1
    if first_frame < 0:
        raise WindowTooShortError("window too long")
    excluded = frozenset(exclude_ids)
    mid_frame = first_frame + window_frames // 2
    util_counts = [0] * log.frame_len
    half_counts = [{o: 0 for o in SlotOutcome}, {o: 0 for o in SlotOutcome}]
    half_totals = [0, 0]
    collided = 0
    memberships = set()
    for rec in reversed(log.records):
        if rec.frame_index < first_frame:
            break
        half = 0 if rec.frame_index < mid_frame else 1
        half_counts[half][rec.outcome] += 1
        half_totals[half] += 1
        if rec.outcome is SlotOutcome.COLLIDED:
            collided += 1
        memberships.add(rec.live_ids)
        if any(nid not in excluded for nid in rec.transmitters):
            util_counts[rec.frame_position] += 1
    total = half_totals[0] + half_totals[1]
    rate_shift = 0.0
    if half_totals[0] and half_totals[1]:
        for outcome in SlotOutcome:
            older = half_counts[0][outcome] / half_totals[0]
            recent = half_counts[1][outcome] / half_totals[1]
            rate_shift = max(rate_shift, abs(recent - older))
    return MacWindowSignals(
        window=(first_frame, last_frame),
        live_n=len(log.records[-1].live_ids),
        slot_utilization=tuple(c / window_frames for c in util_counts),
        collision_rate=collided / total,
        membership_changed=len(memberships) > 1,
        rate_shift=rate_shift,
    )


def ref_window_objective(log, window_frames, alpha=1.0):
    last_frame = log.records[-1].frame_index
    first_frame = max(0, last_frame - window_frames + 1)
    successes, live_slots = {}, {}
    for rec in reversed(log.records):
        if rec.frame_index < first_frame:
            break
        for nid in rec.live_ids:
            live_slots[nid] = live_slots.get(nid, 0) + 1
        if rec.outcome is SlotOutcome.SUCCESS:
            nid = rec.transmitters[0]
            successes[nid] = successes.get(nid, 0) + 1
    values = [successes.get(nid, 0) / live_slots[nid]
              for nid in sorted(live_slots)]
    return fair_objective(values, alpha)


def ref_windowed_throughput(log, window_frames):
    node_ids = sorted({nid for rec in log.records for nid in rec.live_ids})
    total_frames = log.records[-1].frame_index + 1
    per_frame = {nid: [0] * total_frames for nid in node_ids}
    for rec in log.records:
        if rec.outcome is SlotOutcome.SUCCESS:
            per_frame[rec.transmitters[0]][rec.frame_index] += 1
    slots_per_window = window_frames * log.frame_len
    values = {nid: [] for nid in node_ids}
    for nid in node_ids:
        if total_frames < window_frames:
            continue        # no window ends inside the log
        counts = per_frame[nid]
        running = sum(counts[:window_frames])
        values[nid].append(running / slots_per_window)
        for f in range(window_frames, total_frames):
            running += counts[f] - counts[f - window_frames]
            values[nid].append(running / slots_per_window)
    return ThroughputSeries(frames=list(range(window_frames,
                                              total_frames + 1)),
                            values=values, window_frames=window_frames)


def ref_node_means(log):
    totals, counts = {}, {}
    for rec in log.records:
        for nid, reward in zip(rec.live_ids, rec.reward_vector):
            totals[nid] = totals.get(nid, 0) + reward
            counts[nid] = counts.get(nid, 0) + 1
    return {nid: totals[nid] / counts[nid] for nid in sorted(totals)}


def ref_slot_utilization(log, last_frames):
    last_frame = log.records[-1].frame_index
    first_frame = max(0, last_frame - last_frames + 1)
    counts = [0] * log.frame_len
    frames_seen = set()
    for rec in reversed(log.records):
        if rec.frame_index < first_frame:
            break
        frames_seen.add(rec.frame_index)
        if rec.outcome is not SlotOutcome.IDLE:
            counts[rec.frame_position] += 1
    return [c / len(frames_seen) for c in counts]


def ref_mac_summary(log):
    frames = log.records[-1].frame_index + 1
    util = ref_slot_utilization(log, frames)
    outcome_counts = {o: 0 for o in SlotOutcome}
    for rec in log.records:
        outcome_counts[rec.outcome] += 1
    total = len(log.records)
    return {
        "live_n": len(log.records[-1].live_ids),
        "slot_utilization": [round(u, 6) for u in util],
        "success_rate": round(outcome_counts[SlotOutcome.SUCCESS] / total, 6),
        "collision_rate": round(outcome_counts[SlotOutcome.COLLIDED] / total,
                                6),
        "idle_rate": round(outcome_counts[SlotOutcome.IDLE] / total, 6),
    }


# -- random populations --------------------------------------------------------


@st.composite
def nodes(draw, frame_len, frames):
    kind = draw(st.sampled_from(
        ["aloha", "tdma", "csma", "fw_aloha", "eb_aloha", "agent"]))
    join = draw(st.integers(0, frames - 1)) if draw(st.booleans()) else 0
    leave = draw(st.integers(join + 1, frames + 5)) \
        if draw(st.booleans()) else None
    cfg = NodeConfig(kind=kind, join_frame=join, leave_frame=leave)
    if kind == "aloha":
        cfg.q = draw(st.floats(0.0, 1.0))
    elif kind == "tdma":
        cfg.slots = tuple(sorted(draw(st.sets(
            st.integers(0, frame_len - 1), min_size=1))))
    elif kind != "agent":
        cfg.window = draw(st.integers(1, 4))
        cfg.max_stage = draw(st.integers(0, 3))
    return cfg


@st.composite
def runs(draw):
    frame_len = draw(st.integers(1, 6))
    frames = draw(st.integers(1, 30))
    spec = ScenarioSpec(
        nodes=draw(st.lists(nodes(frame_len, frames), min_size=1,
                            max_size=5)),
        total_frames=frames, seed=draw(st.integers(0, 2 ** 16)),
        frame_len=frame_len)
    vectors = {
        nid: draw(st.lists(st.floats(0.0, 1.0), min_size=frame_len,
                           max_size=frame_len))
        for nid, cfg in enumerate(spec.nodes) if cfg.kind in CONTROLLED_KINDS
    }
    tail_slots = draw(st.integers(0, frame_len - 1))
    return spec, vectors, tail_slots


def simulate(spec, vectors, tail_slots):
    """Run the scenario, plus ``tail_slots`` slots of one more frame
    stepped by the per-slot reference loop, and rebuild each slot's record
    from what the environment logs and the policy it runs."""
    env = MacEnvironment(spec)
    policy = BernoulliSlotPolicy(spec.seed, vectors)
    rebuilt = []
    append = env.log.append_slots

    def recording_append(outcome, tx):
        live = tuple(env.live)
        for k, code in enumerate(outcome.tolist()):
            i = env.slot_index + k
            result = tuple(SlotOutcome)[code]
            transmitters = tuple(nid for nid in range(len(spec.nodes))
                                 if tx[k, nid])
            rebuilt.append(SlotRecord(
                slot_index=i,
                frame_index=i // spec.frame_len,
                frame_position=i % spec.frame_len,
                outcome=result,
                transmitters=transmitters,
                live_ids=live,
                reward_vector=tuple(
                    int(result is SlotOutcome.SUCCESS
                        and nid in transmitters)
                    for nid in live),
            ))
        append(outcome, tx)

    env.log.append_slots = recording_append
    run_frames(env, policy, spec.total_frames)
    # the tail frame's live set, as the reference loop enters it at every
    # frame start
    env._enter(env.log.timeline.live_at(env.frame_index))
    for _ in range(tail_slots):
        mac_reference.step_slot(env, policy)
    return env.log, rebuilt


class TestWindowStatistics:
    @settings(max_examples=60, deadline=None)
    @given(run=runs(), window=st.integers(1, 35), last_frames=st.integers(1, 35),
           excluded=st.sets(st.integers(0, 4), max_size=3))
    def test_window_functions_equal_record_loops(self, run, window,
                                                 last_frames, excluded):
        log, rebuilt = simulate(*run)
        assert list(log.records) == rebuilt
        assert log.records[-1] == rebuilt[-1]
        assert log.records[1:4] == rebuilt[1:4]

        if window > log.records[-1].frame_index + 1:
            with pytest.raises(WindowTooShortError):
                mac_window_signals(log, window, excluded)
        else:
            expected = ref_window_signals(log, window, excluded)
            assert mac_window_signals(log, window, excluded) == expected
            report = observer_analyze(log, window_frames=window,
                                      exclude_ids=excluded)
            assert report.signals == expected
        assert mac_window_objective(log, window) \
            == ref_window_objective(log, window)
        series = windowed_throughput(log, window)
        assert ThroughputSeries(
            list(series.frames),
            {nid: column.tolist() for nid, column in series.values.items()},
            series.window_frames) == ref_windowed_throughput(log, window)
        assert list(node_mean_throughputs(log).items()) \
            == list(ref_node_means(log).items())
        assert slot_utilization(log, last_frames) \
            == ref_slot_utilization(log, last_frames)
        assert _mac_summary(log) == ref_mac_summary(log)


def test_records_view_is_read_only_sequence():
    spec = ScenarioSpec(nodes=[NodeConfig(kind="aloha", q=0.5)],
                        total_frames=3, seed=1, frame_len=4)
    env = MacEnvironment(spec)
    run_frames(env, None, 3)
    records = env.log.records
    assert len(records) == 12
    assert records[-1].slot_index == 11
    assert [r.slot_index for r in records[2:5]] == [2, 3, 4]
    with pytest.raises(IndexError):
        records[12]
    with pytest.raises(TypeError):
        records[0] = records[1]
