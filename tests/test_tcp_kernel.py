"""Differential test: the columnar round log of ``coexlab.tcp`` and every
reader of it must equal the per-round record loop and record-walking
readers kept in ``tcp_reference``, for random flow mixes with joins and
leaves, random link parameters, and random ``run_rounds`` splits with
overrides that change between calls. Between calls the windows of some
live flows may be set to any positive float, which the controllers never
produce, so that the order in which the offered load is summed shows in
the last bits. The readers are checked also from a round strictly inside
a stretch of the live set before some flow leaves, and the end-of-run
readers also on a log streamed to them in blocks of any size."""

from __future__ import annotations

import io
import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tcp_reference as ref
from coexlab.agent.config import AgentConfig
from coexlab.agent.demos import _tcp_summary
from coexlab.agent.observer import tcp_observer_analyze, tcp_window_signals
from coexlab.agent.offline import tcp_j_estimate
from coexlab.agent.online import tcp_window_objective
from coexlab.errors import CoexlabError, MetricDomainError
from coexlab import runner, tcp
from coexlab.scenario import Timeline
from coexlab.tcp import (
    CONTROLLERS,
    TCP_FORMAT,
    TcpEnvironment,
    TcpFlowConfig,
    TcpScenarioSpec,
    mean_flow_throughputs,
    mean_social_reward,
    run_rounds,
)


@st.composite
def scenarios(draw):
    horizon = draw(st.integers(1, 240))
    flows = []
    for _ in range(draw(st.integers(1, 5))):
        join = draw(st.one_of(st.just(0), st.integers(0, horizon + 5)))
        leave = draw(st.one_of(st.none(),
                               st.integers(join + 1, horizon + 10)))
        controller = draw(st.sampled_from(CONTROLLERS))
        flows.append(TcpFlowConfig(controller=controller, join_round=join,
                                   leave_round=leave))
    return TcpScenarioSpec(
        flows=flows, total_rounds=horizon, seed=draw(st.integers(0, 9)),
        link_capacity_pps=draw(st.sampled_from([125.0, 60.0, 300])),
        base_rtt_s=draw(st.sampled_from([0.1, 0.05, 0.2])),
        buffer_pkts=draw(st.sampled_from([0.0, 3.5, 12.5, 40])),
        cwnd_max=draw(st.integers(1, 80)),
    )


@st.composite
def schedules(draw, spec):
    """``(end round, overrides, windows)`` per ``run_rounds`` call: the
    overrides may name any flow, live or not, and windows outside
    ``[1, cwnd_max]``; ``windows`` are put into the states of the flows
    they name that are live before the call."""
    ends = sorted(draw(st.lists(st.integers(0, spec.total_rounds),
                                max_size=6)))
    fids = st.integers(0, len(spec.flows))
    cwnds = st.integers(-2, spec.cwnd_max + 5)
    floats = st.floats(0.5, spec.cwnd_max + 5.0)
    return [(end, draw(st.dictionaries(fids, cwnds, max_size=3)),
             draw(st.dictionaries(fids, floats, max_size=3)))
            for end in ends + [spec.total_rounds]]


def record_updates(env):
    """Wrap each flow's window controller so that every call is listed
    as ``ReferenceTcpEnvironment.update_calls`` lists it."""
    calls = []

    def recording(fid, update):
        def call(*args):
            calls.append((fid, *args))
            return update(*args)
        return call

    env._updates = tuple(None if update is None else recording(fid, update)
                         for fid, update in enumerate(env._updates))
    return calls


def set_windows(env, ref_env, windows):
    for fid, cwnd in windows.items():
        if fid in env.states:
            env.states[fid] = replace(env.states[fid], cwnd=cwnd)
            ref_env.states[fid] = replace(ref_env.states[fid], cwnd=cwnd)


def outcome(fn, *args, **kwargs):
    """The value of a reader, or the type of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (CoexlabError, ZeroDivisionError) as exc:
        return type(exc)


def flow_rows(records, fid):
    return [(rec.round_index, rec.per_flow[fid]) for rec in records
            if fid in rec.per_flow]


def check_state(env, ref_env):
    assert env.round_index == ref_env.round_index
    assert env.states == ref_env.states
    assert env.live == ref_env.live
    records = ref_env.records
    for fid in range(len(env.spec.flows)):
        rows = flow_rows(records, fid)
        assert env.log.min_rtt[fid] == min((fr.rtt for _, fr in rows),
                                           default=math.inf)


def check_columns(env, records):
    spec, log = env.spec, env.log
    assert log.n_rounds == len(records)
    assert log.rtt.tolist() == [
        spec.base_rtt_s + rec.queue / spec.link_capacity_pps
        for rec in records]
    for fid in range(len(spec.flows)):
        rows = flow_rows(records, fid)
        first = log.timeline.lifetimes[fid][0]
        assert [r for r, _ in rows] == list(range(first, first + len(rows)))
        assert log.cwnd[fid].tolist() == [fr.cwnd for _, fr in rows]
        assert log.acks[fid].tolist() == [fr.acks for _, fr in rows]
        assert log.loss[fid].tolist() == [int(fr.loss) for _, fr in rows]
    assert log.reward.tolist() == ref.round_rewards(records)
    assert [log.timeline.live_at(r) for r in range(log.n_rounds)] == \
        [rec.live_ids for rec in records]
    assert ref.records_from_log(env) == records


def inside_rounds(timeline, n_rounds):
    """The rounds of ``[0, n_rounds)`` strictly inside a stretch of the
    live set and before a round of that range at which some flow leaves."""
    last_leave = max((leave for _, leave in timeline.lifetimes
                      if leave is not None and leave < n_rounds), default=0)
    return [r for r0, r1, _ in timeline.stretches(0, last_leave)
            for r in range(r0 + 1, r1)]


def check_readers(env, records, data):
    log = env.log
    n = log.n_rounds
    fids = range(-1, len(env.spec.flows) + 1)
    firsts = [data.draw(st.integers(0, n + 2), label="first_round")]
    inside = inside_rounds(log.timeline, n)
    if inside:
        firsts.append(data.draw(st.sampled_from(inside),
                                label="first_round inside a stretch"))
    window = data.draw(st.integers(0, n + 2), label="window")
    for first in firsts:
        assert outcome(mean_social_reward, log, first) == \
            outcome(ref.mean_social_reward, records, first)
        fast = mean_flow_throughputs(log, first)
        assert list(fast.items()) == \
            list(ref.mean_flow_throughputs(records, first).items())
    assert outcome(tcp_window_objective, log, window) == \
        outcome(ref.tcp_window_objective, records, window)
    assert outcome(tcp_j_estimate, log) == \
        outcome(ref.tcp_j_estimate, records)
    first = firsts[0]
    for fid in fids:
        expected = outcome(ref.tcp_window_signals, records, window, fid)
        assert outcome(tcp_window_signals, log, window, fid) == expected
        report = outcome(tcp_observer_analyze, log, window_rounds=window,
                         flow_id=fid)
        assert getattr(report, "signals", report) == expected
        assert outcome(_tcp_summary, log, fid, first_round=first) == \
            outcome(ref.tcp_summary, records[first:], fid)
    # the end-of-run readers of a log with no consumer read it whole
    config = AgentConfig(alpha=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    buf = io.StringIO()
    report = outcome(runner.TcpRunReaders(buf, env.spec, config.alpha).finish,
                     log)
    assert report == outcome(ref.tcp_metrics_report, records, config)
    assert buf.getvalue() == \
        ref.tcp_trajectory_csv(records, len(env.spec.flows))


def run_and_check(spec, data):
    """Run ``spec`` in random ``run_rounds`` splits beside the reference
    and compare state, columns and readers."""
    env = TcpEnvironment(spec)
    calls = record_updates(env)
    ref_env = ref.ReferenceTcpEnvironment(spec)
    for end, overrides, windows in data.draw(schedules(spec),
                                             label="schedule"):
        set_windows(env, ref_env, windows)
        log = run_rounds(env, overrides, n_rounds=end)
        assert log is env.log
        ref.run_rounds(ref_env, overrides, n_rounds=end)
        check_state(env, ref_env)
        assert calls == ref_env.update_calls
    check_columns(env, ref_env.records)
    check_readers(env, ref_env.records, data)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_columnar_log_and_readers_equal_reference(data):
    run_and_check(data.draw(scenarios(), label="spec"), data)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_readers_from_inside_a_stretch_before_a_flow_leaves(data):
    # one more flow, live from round 0, leaves before the horizon; the
    # readers then also start strictly inside a stretch before that leave
    spec = data.draw(scenarios(), label="spec")
    assume(spec.total_rounds >= 3)
    spec.flows.append(TcpFlowConfig(
        controller=data.draw(st.sampled_from(CONTROLLERS)),
        leave_round=data.draw(st.integers(2, spec.total_rounds - 1),
                              label="leave_round")))
    assume(inside_rounds(Timeline(TCP_FORMAT.lifetimes(spec.flows)),
                         spec.total_rounds))
    run_and_check(spec, data)


def test_live_set_changes_only_at_join_and_leave_rounds():
    flows = [TcpFlowConfig("reno"),
             TcpFlowConfig("vegas", join_round=10, leave_round=20),
             TcpFlowConfig("agent", join_round=10),
             TcpFlowConfig("reno", join_round=30, leave_round=40)]
    assert Timeline(TCP_FORMAT.lifetimes(flows)).segments == [
        (0, (0,)), (10, (0, 1, 2)), (20, (0, 2)), (30, (0, 2, 3)),
        (40, (0, 2))]
    env = TcpEnvironment(TcpScenarioSpec(flows=flows, total_rounds=50,
                                         seed=1))
    run_rounds(env)
    assert env.log.timeline.stretches(15, 35) == [
        (15, 20, (0, 1, 2)), (20, 30, (0, 2)), (30, 35, (0, 2, 3))]
    assert env.log.flow_rounds(3, 0, 50) == (30, 40)
    assert len(env.log.cwnd[1]) == 10 and len(env.log.cwnd[0]) == 50


def test_min_rtt_is_carried_across_a_membership_change():
    # alone, the agent flow sees the bare base RTT; once a Reno flow has
    # joined, every window is queued, and the observer still measures
    # inflation against the minimum from before the join
    flows = [TcpFlowConfig("agent"),
             TcpFlowConfig("reno", join_round=100)]
    spec = TcpScenarioSpec(flows=flows, total_rounds=400, seed=1)
    env = TcpEnvironment(spec)
    run_rounds(env, {0: 10})
    window_min = min(env.log.rtt[300:].tolist())
    signals = tcp_window_signals(env.log, 100, flow_id=0)
    assert signals.min_rtt == pytest.approx(0.1)
    assert window_min > 0.11
    assert env.log.min_rtt[1] == min(env.log.rtt[100:].tolist())


def run_streamed_and_check(spec, data):
    """Run ``spec`` in random ``run_rounds`` splits with the log streamed to
    ``runner.TcpRunReaders`` in small blocks, beside the reference, and
    compare the observer signals and the window objective after every
    split, then the trajectory bytes and the metric report."""
    block = data.draw(st.integers(1, 40), label="read_block_rounds")
    window = data.draw(st.integers(1, 30), label="window")
    config = AgentConfig(alpha=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    buf = io.StringIO()
    env = TcpEnvironment(spec)
    ref_env = ref.ReferenceTcpEnvironment(spec)
    fids = range(-1, len(spec.flows) + 1)
    with mock.patch.object(tcp, "READ_BLOCK_ROUNDS", block):
        readers = runner.TcpRunReaders(buf, spec, config.alpha)
        env.log.stream(readers, window)
        for end, overrides, windows in data.draw(schedules(spec),
                                                 label="schedule"):
            set_windows(env, ref_env, windows)
            run_rounds(env, overrides, n_rounds=end)
            ref.run_rounds(ref_env, overrides, n_rounds=end)
            check_state(env, ref_env)
            log, records = env.log, ref_env.records
            # every full block before the window is gone, and no more
            assert log.first_kept % block == 0
            assert log.n_rounds - window - block < log.first_kept \
                <= max(0, log.n_rounds - window)
            assert readers.fed == log.first_kept
            assert log.reward_values(log.first_kept, log.n_rounds).tolist() \
                == ref.round_rewards(records)[log.first_kept:]
            for fid in fids:
                assert outcome(tcp_window_signals, log, window, fid) == \
                    outcome(ref.tcp_window_signals, records, window, fid)
            assert outcome(tcp_window_objective, log, window) == \
                outcome(ref.tcp_window_objective, records, window)
        report = outcome(readers.finish, env.log)
    records = ref_env.records
    assert report == outcome(ref.tcp_metrics_report, records, config)
    assert buf.getvalue() == \
        ref.tcp_trajectory_csv(records, len(spec.flows))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_streamed_log_and_readers_equal_reference(data):
    # one more flow, live from round 0, leaves before the horizon, so that
    # a block the log retires may end after the flow has left
    spec = data.draw(scenarios(), label="spec")
    assume(spec.total_rounds >= 2)
    spec.flows.append(TcpFlowConfig(
        controller=data.draw(st.sampled_from(CONTROLLERS)),
        leave_round=data.draw(st.integers(1, spec.total_rounds - 1),
                              label="leave_round")))
    run_streamed_and_check(spec, data)


def test_each_round_is_scored_once_as_it_is_played():
    # a flow leaves, no flow is live for ten rounds, then two flows join,
    # one of them inside a block; the log streams to the end-of-run
    # readers, and the window objective reads the kept rounds every period
    flows = [TcpFlowConfig("reno", leave_round=20),
             TcpFlowConfig("vegas", join_round=30, leave_round=60),
             TcpFlowConfig("agent", join_round=35)]
    spec = TcpScenarioSpec(flows=flows, total_rounds=100, seed=1)
    ref_env = ref.ReferenceTcpEnvironment(spec)
    ref.run_rounds(ref_env, {2: 7})
    expected = ref.round_rewards(ref_env.records)
    assert expected[20:30] == [0.0] * 10 and len(set(expected)) > 3
    env = TcpEnvironment(spec)
    readers = runner.TcpRunReaders(io.StringIO(), spec, 1.0)
    objectives = []
    with mock.patch.object(tcp, "READ_BLOCK_ROUNDS", 16), \
            mock.patch.object(tcp, "tcp_reward",
                              wraps=tcp.tcp_reward) as scored:
        env.log.stream(readers, 10)
        for end in range(10, 101, 10):
            log = run_rounds(env, {2: 7}, n_rounds=end)
            assert log.reward_values(log.first_kept, end).tolist() == \
                expected[log.first_kept:end]
            objectives.append(outcome(tcp_window_objective, log, 10))
        report = readers.finish(env.log)
    assert scored.call_count == sum(len(rec.per_flow)
                                    for rec in ref_env.records) == 115
    assert objectives == [
        outcome(ref.tcp_window_objective, ref_env.records[:end], 10)
        for end in range(10, 101, 10)]
    assert objectives[2] is MetricDomainError
    assert report == ref.tcp_metrics_report(ref_env.records, AgentConfig())


def test_a_read_of_a_dropped_round_raises():
    flows = [TcpFlowConfig("reno"), TcpFlowConfig("vegas", join_round=20),
             TcpFlowConfig("reno", leave_round=30)]
    spec = TcpScenarioSpec(flows=flows, total_rounds=100, seed=1)
    whole, streamed = TcpEnvironment(spec), TcpEnvironment(spec)
    blocks = []
    with mock.patch.object(tcp, "READ_BLOCK_ROUNDS", 16):
        streamed.log.stream(lambda log, b0, b1: blocks.append((b0, b1)), 10)
        run_rounds(whole)
        run_rounds(streamed)
    log = streamed.log
    assert blocks == [(b0, b0 + 16) for b0 in range(0, 80, 16)]
    assert log.first_kept == 80 and len(log.rtt) == 20
    assert log.rtt_values(80, 100) == whole.log.rtt[80:]
    assert log.flow_values(log.acks, 1, 85, 90) == \
        whole.log.flow_values(whole.log.acks, 1, 85, 90)
    assert len(log.cwnd[2]) == 0
    assert tcp_window_signals(log, 20, 0) == \
        tcp_window_signals(whole.log, 20, 0)
    for read in (lambda: log.rtt_values(79, 90),
                 lambda: log.flow_values(log.cwnd, 0, 0, 100),
                 lambda: log.flow_values(log.loss, 2, 20, 30),
                 lambda: tcp_window_signals(log, 21, 0),
                 lambda: mean_social_reward(log, 0)):
        with pytest.raises(IndexError, match="was dropped"):
            read()
