"""The MAC slot log streamed to the end-of-run readers in blocks.

A run whose log hands ``runner.MacRunReaders`` each block of
``mac.READ_BLOCK_FRAMES`` frames must write the ``trajectory.csv`` bytes
and the metric report that the whole-log references
(``mac_reference``, ``metrics_reference``) give for the same run, for
any split of ``run_frames`` calls, block size, kept window, throughput
window, warmup and churn timeline, with and without a reference. The
observer's window reads what a whole log gives after every split. A
streamed log drops each block it hands over: its rows leave the
columns, and a read of a dropped slot or frame raises ``IndexError``.
"""

from __future__ import annotations

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mac_reference
import metrics_reference
from coexlab import mac, runner
from coexlab.agent.config import AgentConfig
from coexlab.agent.observer import mac_window_signals
from coexlab.agent.online import mac_window_objective
from coexlab.errors import MetricDomainError
from coexlab.mac import (BernoulliSlotPolicy, MacEnvironment, NodeConfig,
                         ScenarioSpec, run_frames)
from coexlab.metrics import node_mean_throughputs, windowed_throughput
from test_artifact_writers import reference_mac_trajectory_csv
from test_mac_kernel import runs
from test_series_arrays import outcome, step_series
from test_window_stats import ref_node_means


@st.composite
def references(draw, spec):
    """A per-frame reference for some node ids, one maybe not in the
    scenario, held as a list or per step; one may be a frame short."""
    frames = spec.total_frames
    reference = {}
    for nid in sorted(draw(st.sets(st.integers(0, len(spec.nodes)),
                                   max_size=4))):
        n = draw(st.sampled_from([frames, frames, frames + 1, frames - 1]))
        values = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from(
            [0.0, 0.5]), min_size=n, max_size=n))
        reference[nid] = step_series(values) if values \
            and draw(st.booleans()) else values
    return reference


def expected_outputs(log, reference, config):
    """The report, or the error it raises, and the trajectory text of the
    whole-log references."""
    series = metrics_reference.windowed_throughput(log, config.window_frames)
    rmse = None
    if reference is not None:
        try:
            rmse = metrics_reference.rmse_vs_reference(
                series, reference, config.warmup_frames)
        except MetricDomainError:
            pass
    return (outcome(runner.mac_metrics_report, ref_node_means(log), rmse,
                    config),
            reference_mac_trajectory_csv(series))


@settings(max_examples=150, deadline=None)
@given(run=runs(), data=st.data())
def test_streamed_readers_equal_whole_log_reference(run, data):
    spec, initial, calls = run
    frames = spec.total_frames
    block = data.draw(st.integers(1, 8), label="read_block_frames")
    keep = data.draw(st.integers(0, 10), label="keep")
    config = AgentConfig(
        window_frames=data.draw(st.integers(1, frames + 2), label="window"),
        warmup_frames=data.draw(st.integers(0, frames + 1), label="warmup"),
        alpha=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    reference = data.draw(st.none() | references(spec), label="reference")

    env, ref_env = MacEnvironment(spec), MacEnvironment(spec)
    policy = BernoulliSlotPolicy(spec.seed, initial)
    ref_policy = BernoulliSlotPolicy(spec.seed, initial)
    buf = io.StringIO()
    with mock.patch.object(mac, "READ_BLOCK_FRAMES", block):
        readers = runner.MacRunReaders(buf, spec, reference, config)
        env.log.stream(readers, keep)
        for n, updates in calls:
            run_frames(env, policy, n)
            mac_reference.run_frames(ref_env, ref_policy, n)
            log = env.log
            # every full block before the kept frames is gone, and no more
            assert log.first_kept % block == 0
            assert log.n_frames - keep - block < log.first_kept \
                <= max(0, log.n_frames - keep)
            assert readers.fed == log.first_kept
            assert len(log.records) == log.n_slots == ref_env.log.n_slots
            if 1 <= keep <= log.n_frames:
                assert mac_window_signals(log, keep, ()) == \
                    mac_window_signals(ref_env.log, keep, ())
            assert mac_window_objective(log, keep, config.alpha) == \
                mac_window_objective(ref_env.log, keep, config.alpha)
            for nid, vec in updates.items():
                policy.set_vector(nid, vec)
                ref_policy.set_vector(nid, vec)
        report = outcome(readers.finish, env.log)
    assert (report, buf.getvalue()) == \
        expected_outputs(ref_env.log, reference, config)


def test_a_read_of_a_dropped_slot_raises():
    frame_len = 13
    spec = ScenarioSpec(nodes=[
        NodeConfig("aloha", q=0.3),
        NodeConfig("tdma", slots=(1,), join_frame=20),
        NodeConfig("aloha", q=0.5, leave_frame=30)],
        total_frames=100, seed=1, frame_len=frame_len)
    whole, streamed = MacEnvironment(spec), MacEnvironment(spec)
    blocks = []
    with mock.patch.object(mac, "READ_BLOCK_FRAMES", 16):
        streamed.log.stream(lambda log, b0, b1: blocks.append((b0, b1)), 10)
        run_frames(whole, None, 100)
        run_frames(streamed, None, 100)
    log, full = streamed.log, whole.log
    assert blocks == [(b0, b0 + 16) for b0 in range(0, 80, 16)]
    assert log.first_kept == 80
    # slots and frames still count from the start of the run
    assert len(log.records) == log.n_slots == 100 * frame_len
    assert log.n_frames == 100
    # play stopped at each block, so the columns never held more than one
    # block and the kept frames, and the retired rows left them: frame 80
    # is now row 0
    assert len(log._outcome) == 1024 < len(full._outcome)
    kept = slice(80 * frame_len, 100 * frame_len)
    rows = 20 * frame_len
    assert log._outcome[:rows].tolist() == full._outcome[kept].tolist()
    assert log._tx[:rows].tolist() == full._tx[kept].tolist()
    assert log._won[:20].tolist() == full._won[80:100].tolist()
    assert not log._won[20:].any()
    assert log.records[kept] == full.records[kept]
    assert log.records[-1] == full.records[-1]
    assert log.outcome_counts(85, 100) == full.outcome_counts(85, 100)
    assert log.success_counts(80, 100) == full.success_counts(80, 100)
    assert mac_window_signals(log, 20, (0,)) == \
        mac_window_signals(full, 20, (0,))
    for read in (lambda: log.records[kept.start - 1],
                 lambda: log.records[0:2],
                 lambda: log.outcome_counts(79, 90),
                 lambda: log.transmissions_by_position(0, 100),
                 lambda: log.node_frame_successes(0),
                 lambda: log.success_counts(0, 100),
                 lambda: mac_window_signals(log, 21, ()),
                 lambda: node_mean_throughputs(log),
                 lambda: windowed_throughput(log, 10)):
        with pytest.raises(IndexError, match="was dropped"):
            read()
