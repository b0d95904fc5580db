"""Differential test: the columnar round log of ``coexlab.tcp`` and every
reader of it must equal the per-round record loop and record-walking
readers kept in ``tcp_reference``, for random flow mixes with joins and
leaves, random link parameters, and random ``run_rounds`` splits with
overrides that change between calls."""

from __future__ import annotations

import io
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcp_reference as ref
from coexlab.agent.config import AgentConfig
from coexlab.agent.demos import _tcp_summary
from coexlab.agent.observer import tcp_observer_analyze, tcp_window_signals
from coexlab.agent.offline import tcp_j_estimate
from coexlab.agent.online import tcp_window_objective
from coexlab.errors import CoexlabError
from coexlab import runner
from coexlab.runner import tcp_metrics_report
from coexlab.scenario import live_segments
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
    """``(end round, overrides)`` per ``run_rounds`` call: the overrides
    may name any flow, live or not, and windows outside ``[1, cwnd_max]``."""
    ends = sorted(draw(st.lists(st.integers(0, spec.total_rounds),
                                max_size=6)))
    fids = st.integers(0, len(spec.flows))
    cwnds = st.integers(-2, spec.cwnd_max + 5)
    return [(end, draw(st.dictionaries(fids, cwnds, max_size=3)))
            for end in ends + [spec.total_rounds]]


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
        first = log.join_rounds[fid]
        assert [r for r, _ in rows] == list(range(first, first + len(rows)))
        assert log.cwnd[fid].tolist() == [fr.cwnd for _, fr in rows]
        assert log.acks[fid].tolist() == [fr.acks for _, fr in rows]
        assert log.loss[fid].tolist() == [int(fr.loss) for _, fr in rows]
    assert [log.live_at(r) for r in range(log.n_rounds)] == \
        [rec.live_ids for rec in records]
    assert ref.records_from_log(env) == records


def check_readers(env, records, data):
    log = env.log
    n = log.n_rounds
    fids = range(-1, len(env.spec.flows) + 1)
    first = data.draw(st.integers(0, n + 2), label="first_round")
    window = data.draw(st.integers(0, n + 2), label="window")
    assert outcome(mean_social_reward, log, first) == \
        outcome(ref.mean_social_reward, records, first)
    fast = mean_flow_throughputs(log, first)
    assert list(fast.items()) == \
        list(ref.mean_flow_throughputs(records, first).items())
    assert outcome(tcp_window_objective, log, window) == \
        outcome(ref.tcp_window_objective, records, window)
    assert outcome(tcp_j_estimate, log) == outcome(ref.tcp_j_estimate, records)
    for fid in fids:
        expected = outcome(ref.tcp_window_signals, records, window, fid)
        assert outcome(tcp_window_signals, log, window, fid) == expected
        report = outcome(tcp_observer_analyze, log, window_rounds=window,
                         flow_id=fid)
        assert getattr(report, "signals", report) == expected
        assert outcome(_tcp_summary, log, fid, first_round=first) == \
            outcome(ref.tcp_summary, records[first:], fid)
    block_rows = data.draw(st.integers(1, n + 2), label="block_rows")
    buf = io.StringIO()
    with mock.patch.object(runner, "CSV_BLOCK_ROWS", block_rows):
        runner._write_tcp_trajectory(buf, log, len(env.spec.flows))
    assert buf.getvalue() == \
        ref.tcp_trajectory_csv(records, len(env.spec.flows))
    config = AgentConfig(alpha=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    assert outcome(tcp_metrics_report, log, config) == \
        outcome(ref.tcp_metrics_report, records, config)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_columnar_log_and_readers_equal_reference(data):
    spec = data.draw(scenarios(), label="spec")
    env = TcpEnvironment(spec)
    ref_env = ref.ReferenceTcpEnvironment(spec)
    for end, overrides in data.draw(schedules(spec), label="schedule"):
        log = run_rounds(env, overrides, n_rounds=end)
        assert log is env.log
        ref.run_rounds(ref_env, overrides, n_rounds=end)
        check_state(env, ref_env)
    check_columns(env, ref_env.records)
    check_readers(env, ref_env.records, data)


def test_live_set_changes_only_at_join_and_leave_rounds():
    flows = [TcpFlowConfig("reno"),
             TcpFlowConfig("vegas", join_round=10, leave_round=20),
             TcpFlowConfig("agent", join_round=10),
             TcpFlowConfig("reno", join_round=30, leave_round=40)]
    assert live_segments(TCP_FORMAT.lifetimes(flows)) == [
        (0, (0,)), (10, (0, 1, 2)), (20, (0, 2)), (30, (0, 2, 3)),
        (40, (0, 2))]
    env = TcpEnvironment(TcpScenarioSpec(flows=flows, total_rounds=50,
                                         seed=1))
    run_rounds(env)
    assert env.log.segments_between(15, 35) == [
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
