"""Bounded memory at long horizons: a TCP run hands its round log, and a
MAC run its slot log, to the end-of-run readers block by block while it
goes, so neither run's peak grows with the horizon; fed one block, the
TCP readers hold one block of rows
of the trajectory, never the whole text, and one block of rounds for the
metric report; the rmse against a stepwise reference reads one block of
frames at a time; counting per-frame successes allocates no (slots x
nodes) int64 array; growing a slot log's columns holds only the old
columns and the new ones, and kernel stretches add no state of their
own to the log; and the windowed throughput holds one node's counts
beside its result. Peaks are measured with ``tracemalloc``, which NumPy
reports its array buffers to."""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest

import mac_reference
import metrics_reference

from coexlab import mac, runner, tcp
from coexlab.agent.config import AgentConfig
from coexlab.mac import (KIND_AGENT, KIND_ALOHA, BernoulliSlotPolicy,
                         MacEnvironment, NodeConfig, ScenarioSpec,
                         TrajectoryLog, run_frames)
from coexlab.metrics import (StepSeries, ThroughputSeries,
                             rmse_vs_reference, windowed_throughput)
from coexlab.scenario import Timeline
from coexlab.tcp import TcpFlowConfig, TcpRoundLog, TcpScenarioSpec

# two horizons: readers that hold one block peak the same at both
ROUNDS = (100_000, 200_000)
SLOTS = 1_000_000
# peak of the TCP trajectory write; the whole text alone is more than twice
# as large (checked below), so a writer that builds it cannot stay under
WRITE_PEAK_BOUND = 4 * 2**20
# peaks of the TCP end-of-run readers and of one node's rmse, each holding
# one block of rounds or frames; per-round or per-frame values of the
# whole horizon are more than these at the smaller one (checked below)
READ_PEAK_BOUND = 2 * 2**20
RMSE_PEAK_BOUND = 2**20
FRAMES = (40_000, 80_000)
# what the two horizons' peaks may differ by: the writer's own state is
# independent of the horizon, so only allocator noise is left; also what
# a bound given by array sizes allows for small temporaries
PEAK_SLACK = 64 * 2**10


def traced_peak(fn, *args):
    """``(result, peak bytes)`` of ``fn(*args)`` above what was allocated
    before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def synthetic_tcp_log(n_rounds: int) -> TcpRoundLog:
    """A log of two flows, the second joining half way, with uniform
    random cells, so that hardly any cell repeats within a block."""
    rng = np.random.default_rng(7)
    log = TcpRoundLog(Timeline([(0, None), (n_rounds // 2, None)]))

    def column(low, high, n):
        return array("d", rng.uniform(low, high, n).tolist())

    log.n_rounds = n_rounds
    log.rtt = column(0.1, 0.3, n_rounds)
    lifetimes = log.timeline.lifetimes
    for fid, (join, _) in enumerate(lifetimes):
        log.cwnd[fid] = column(10, 80, n_rounds - join)
        log.acks[fid] = column(10, 80, n_rounds - join)
    # each round's social reward, as the round kernel scores it
    log.reward = array("d", (
        sum(tcp.tcp_reward(log.acks[fid][r - join], log.rtt[r])
            for fid, (join, _) in enumerate(lifetimes) if join <= r)
        / sum(join <= r for join, _ in lifetimes)
        for r in range(n_rounds)))
    return log


def feed_readers(path: str, log: TcpRoundLog) -> dict:
    """The report of ``TcpRunReaders`` fed ``log`` one block at a time, as
    ``TcpRoundLog.retire`` feeds it, with the trajectory written to
    ``path``."""
    n_rounds, block = log.n_rounds, tcp.READ_BLOCK_ROUNDS
    spec = TcpScenarioSpec(
        flows=[TcpFlowConfig("reno"),
               TcpFlowConfig("reno", join_round=n_rounds // 2)],
        total_rounds=n_rounds, seed=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        readers = runner.TcpRunReaders(fh, spec, AgentConfig().alpha)
        for b0 in range(0, n_rounds - block + 1, block):
            readers(log, b0, b0 + block)
        return readers.finish(log)


@pytest.fixture(scope="module")
def fed_readers(tmp_path_factory):
    """``(report, peak bytes, trajectory path)`` of one traced
    ``feed_readers`` call at each of ``ROUNDS``, shared by the two tests
    below: the write's peak and the report's are the same call's."""
    runs = []
    for n_rounds in ROUNDS:
        path = tmp_path_factory.mktemp("readers") / "trajectory.csv"
        report, peak = traced_peak(feed_readers, str(path),
                                   synthetic_tcp_log(n_rounds))
        runs.append((report, peak, path))
    return runs


def test_tcp_trajectory_write_peaks_at_one_block(fed_readers):
    peaks = []
    for n_rounds, (_, peak, path) in zip(ROUNDS, fed_readers):
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == n_rounds + 1
        peaks.append(peak)
    assert len(text) > 2 * WRITE_PEAK_BOUND
    assert max(peaks) < WRITE_PEAK_BOUND
    assert abs(peaks[1] - peaks[0]) < PEAK_SLACK


def test_tcp_metrics_report_peaks_at_one_block(fed_readers):
    peaks = []
    for n_rounds, (report, peak, _) in zip(ROUNDS, fed_readers):
        assert report["params"]["first_round"] == n_rounds // 2
        assert list(report["mean_throughputs"]) == ["0", "1"]
        peaks.append(peak)
    # one float per round for the rtt and for each of the two flows over
    # the reported half of the smaller horizon
    assert 3 * (ROUNDS[0] // 2) * sys.getsizeof(0.0) > READ_PEAK_BOUND
    assert max(peaks) < READ_PEAK_BOUND
    assert abs(peaks[1] - peaks[0]) < PEAK_SLACK


def test_tcp_run_peak_does_not_grow_with_the_horizon(tmp_path):
    # small blocks keep the horizons, and the run under tracemalloc, short;
    # the log then drops all but one block and the observer window
    block, rounds = 256, (2_000, 6_000)
    agent = AgentConfig(demo_k=3, demo_rounds=60, eval_rounds=200, n_max=2)
    peaks = []
    with mock.patch.object(tcp, "READ_BLOCK_ROUNDS", block):
        for n_rounds in rounds:
            scenario = tmp_path / f"s_{n_rounds}.json"
            scenario.write_text(json.dumps({
                "version": "tcp-v1", "total_rounds": n_rounds, "seed": 3,
                "flows": [{"controller": "agent"}, {"controller": "reno"},
                          {"controller": "vegas",
                           "join_round": n_rounds // 2}]}), encoding="utf-8")
            config = runner.RunConfig(scenario_path=str(scenario),
                                      out_dir=str(tmp_path / "run"),
                                      agent=agent)
            if not peaks:
                # first-call allocations (caches, lazy imports) stay out
                runner.cmd_run(config)
            result, peak = traced_peak(runner.cmd_run, config)
            assert result.metrics["params"]["first_round"] == n_rounds // 2
            peaks.append(peak)
    trajectory = (tmp_path / "run" / runner.ARTIFACT_TRAJECTORY).read_text()
    assert trajectory.count("\n") == rounds[1] + 1
    # the rtt and the first two flows' cwnd and acks of the longer run's
    # extra rounds, which a log kept whole would hold at its end
    assert 5 * (rounds[1] - rounds[0]) * 8 > PEAK_SLACK
    assert abs(peaks[1] - peaks[0]) < PEAK_SLACK


def test_mac_run_peak_does_not_grow_with_the_horizon(tmp_path):
    # small blocks keep the horizons, and the run under tracemalloc, short;
    # the log then drops all but one block and the observer window, and
    # reference.csv is written in blocks shorter than either horizon
    block, frame_counts = 64, (1_500, 4_500)
    agent = AgentConfig(demo_k=3, demo_frames=40, eval_frames=400, n_max=2)
    peaks = []
    with mock.patch.object(mac, "READ_BLOCK_FRAMES", block), \
            mock.patch.object(runner, "CSV_BLOCK_ROWS", block):
        for n_frames in frame_counts:
            scenario = tmp_path / f"s_{n_frames}.json"
            scenario.write_text(json.dumps({
                "version": "mac-v1", "total_frames": n_frames, "seed": 3,
                "nodes": [{"kind": "agent"}, {"kind": "aloha", "q": 0.2},
                          {"kind": "aloha", "q": 0.2,
                           "join_frame": n_frames // 2}]}),
                encoding="utf-8")
            config = runner.RunConfig(scenario_path=str(scenario),
                                      out_dir=str(tmp_path / "run"),
                                      agent=agent)
            if not peaks:
                # first-call allocations (caches, lazy imports) stay out
                runner.cmd_run(config)
            # nor do earlier tests' objects that only the collector frees
            gc.collect()
            result, peak = traced_peak(runner.cmd_run, config)
            assert result.metrics["rmse"] is not None
            peaks.append(peak)
    trajectory = (tmp_path / "run" / runner.ARTIFACT_TRAJECTORY).read_text()
    window = agent.window_frames
    assert trajectory.count("\n") == frame_counts[1] + 2 - window
    # the slot columns (an outcome code and three transmit flags per
    # slot) and the three nodes' windowed throughputs of the longer run's
    # extra frames, which a run that kept its log whole would hold
    extra = frame_counts[1] - frame_counts[0]
    assert extra * (10 * 4 + 3 * 8) > PEAK_SLACK
    assert abs(peaks[1] - peaks[0]) < PEAK_SLACK


def test_rmse_against_a_step_reference_peaks_at_one_block():
    window, warmup = 100, 500
    peaks = []
    for frames in FRAMES:
        values = np.random.default_rng(9).random(frames + 1 - window)
        series = ThroughputSeries(range(window, frames + 1), {0: values},
                                  window)
        reference = {0: StepSeries([0, frames // 3, 2 * frames // 3],
                                   [0.1, 0.4, 0.3], frames)}
        rmse, peak = traced_peak(rmse_vs_reference, series, reference,
                                 warmup)
        assert rmse == metrics_reference.rmse_vs_reference(
            ThroughputSeries(series.frames, {0: values.tolist()}, window),
            {0: reference[0][:]}, warmup)
        peaks.append(peak)
    # the frame labels, the positions and indices of those past the
    # warmup and the reference expanded to every frame, eight bytes each
    assert 4 * len(range(window, FRAMES[0] + 1)) * 8 > RMSE_PEAK_BOUND
    assert max(peaks) < RMSE_PEAK_BOUND
    assert abs(peaks[1] - peaks[0]) < PEAK_SLACK


def test_frame_successes_allocates_no_slot_by_node_int64():
    frame_len, n_nodes = 10, 4
    rng = np.random.default_rng(3)
    log = TrajectoryLog(frame_len, Timeline([(0, None)] * n_nodes))
    # a partial last frame, padded with no successes
    n = SLOTS + frame_len // 2
    log.append_slots(rng.integers(0, 3, n).astype(np.int8),
                     rng.random((n, n_nodes)) < 0.3)
    columns, peak = traced_peak(lambda: [
        log.node_frame_successes(nid) for nid in range(n_nodes)])
    # each node's counts are a view of the log's per-frame counts
    assert peak < PEAK_SLACK < n * n_nodes * np.dtype(np.int64).itemsize // 2
    won = mac_reference.frame_successes(log, 0, log.n_frames)
    assert won.dtype == np.int64
    np.testing.assert_array_equal(np.stack(columns, axis=1), won)
    # the per-slot sum they replace, over a prefix and past the logged slots
    f1 = log.n_frames + 2
    success = log._tx[:n] & (log._outcome[:n] == 0)[:, None]
    padded = np.zeros((f1 * frame_len, n_nodes), dtype=np.int64)
    padded[:n] = success
    expected = padded.reshape(f1, frame_len, n_nodes).sum(axis=1)
    np.testing.assert_array_equal(
        mac_reference.frame_successes(log, 0, f1), expected)
    np.testing.assert_array_equal(
        mac_reference.frame_successes(log, 5, 9), expected[5:9])


def growth_peak(log, columns, grow):
    """Bytes ``grow(log)`` allocates at its peak above what was held
    before, and the bytes of the named columns once it has grown them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grow(log)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, sum(getattr(log, name).nbytes for name in columns)


def test_slot_column_growth_holds_old_and_new_columns_only():
    frame_len, n_nodes = 4, 3
    n = 2**22
    log = TrajectoryLog(frame_len, Timeline([(0, None)] * n_nodes))
    # no transmissions, so no successes: only the columns' sizes matter
    log.append_slots(np.ones(n, dtype=np.int8),
                     np.zeros((n, n_nodes), dtype=bool))
    columns = ("_outcome", "_tx", "_won")
    assert len(log._outcome) == n and len(log._won) == n // frame_len
    old = sum(getattr(log, name).nbytes for name in columns)
    assert old >= 16 * 2**20
    peak, new = growth_peak(log, columns, lambda log: log.append_slots(
        np.ones(1, dtype=np.int8), np.zeros((1, n_nodes), dtype=bool)))
    assert new == 2 * old
    # the old columns were held before the call: it may add the new ones
    assert peak <= new + PEAK_SLACK
    assert log.n_slots == n + 1
    assert not log._tx.any() and (log._outcome[:n + 1] == 1).all()


def log_bytes(log):
    """Bytes of each of the log's own attributes, arrays by their
    buffers."""
    return {name: value.nbytes if isinstance(value, np.ndarray)
            else sys.getsizeof(value) for name, value in vars(log).items()}


def test_vector_row_growth_holds_old_and_new_rows_only():
    # every run_frames call is a kernel stretch with the agent live; all
    # of them fit in the slot columns' first allocation, so the log must
    # end the size it had after the first
    frame_len, stretches = 2, 2**8
    spec = ScenarioSpec(nodes=[NodeConfig(KIND_AGENT),
                               NodeConfig(KIND_ALOHA, q=0.5)],
                        total_frames=stretches + 1, seed=1,
                        frame_len=frame_len)
    env = MacEnvironment(spec)
    policy = BernoulliSlotPolicy(spec.seed, {0: [0.25, 0.75]})
    run_frames(env, policy, 1)
    before = log_bytes(env.log)
    for _ in range(stretches):
        run_frames(env, policy, 1)
    assert env.log.n_slots == (stretches + 1) * frame_len
    assert len(env.log._outcome) > env.log.n_slots
    assert log_bytes(env.log) == before


def test_windowed_throughput_holds_one_node_column_beside_its_result():
    frame_len, n_nodes, frames, window = 10, 3, 100_000, 20
    rng = np.random.default_rng(5)
    log = TrajectoryLog(frame_len, Timeline([(0, None)] * n_nodes))
    n = frames * frame_len
    log.append_slots(rng.integers(0, 3, n).astype(np.int8),
                     rng.random((n, n_nodes)) < 0.3)
    series, peak = traced_peak(windowed_throughput, log, window)
    result = sum(values.nbytes for values in series.values.values())
    assert len(series.values) == n_nodes
    assert result == n_nodes * (frames + 1 - window) * 8
    # the result, one column of cumulative counts and one of window sums,
    # and the buffer a ufunc casts the counts to int64 through
    cast_buffer = np.getbufsize() * np.dtype(np.int64).itemsize
    assert peak <= result + 2 * (frames + 1) * 8 + cast_buffer + PEAK_SLACK
    expected = metrics_reference.windowed_throughput(log, window)
    assert list(series.frames) == list(expected.frames)
    for nid in range(n_nodes):
        assert series.values[nid].tolist() == expected.values[nid]
