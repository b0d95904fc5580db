"""Bounded memory at long horizons: writing a TCP trajectory holds one
block of rows, never the whole text, and counting per-frame successes
allocates no (slots x nodes) int64 array. Peaks are measured with
``tracemalloc``, which NumPy reports its array buffers to."""

from __future__ import annotations

import tracemalloc
from array import array

import numpy as np

from coexlab import runner
from coexlab.mac import TrajectoryLog
from coexlab.tcp import TcpFlowConfig, TcpRoundLog

# two horizons: a writer that holds one block peaks the same at both
ROUNDS = (100_000, 200_000)
SLOTS = 1_000_000
# peak of one TCP trajectory write; the whole text alone is more than twice
# as large (checked below), so a writer that builds it cannot stay under
WRITE_PEAK_BOUND = 4 * 2**20
# what the two horizons' peaks may differ by: the writer's own state is
# independent of the horizon, so only allocator noise is left
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
    log = TcpRoundLog([TcpFlowConfig("reno"),
                       TcpFlowConfig("vegas", join_round=n_rounds // 2)])

    def column(low, high, n):
        return array("d", rng.uniform(low, high, n).tolist())

    log.n_rounds = n_rounds
    log.rtt = column(0.1, 0.3, n_rounds)
    for fid, join in enumerate(log.join_rounds):
        log.cwnd[fid] = column(10, 80, n_rounds - join)
        log.acks[fid] = column(10, 80, n_rounds - join)
    return log


def test_tcp_trajectory_write_peaks_at_one_block(tmp_path):
    peaks = []
    for n_rounds in ROUNDS:
        log = synthetic_tcp_log(n_rounds)
        path = tmp_path / f"trajectory_{n_rounds}.csv"
        _, peak = traced_peak(runner._write_file, str(path),
                              runner._write_tcp_trajectory, log, 2)
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == n_rounds + 1
        peaks.append(peak)
    assert len(text) > 2 * WRITE_PEAK_BOUND
    assert max(peaks) < WRITE_PEAK_BOUND
    assert abs(peaks[1] - peaks[0]) < PEAK_SLACK


def test_frame_successes_allocates_no_slot_by_node_int64():
    frame_len, n_nodes = 10, 4
    rng = np.random.default_rng(3)
    log = TrajectoryLog(frame_len, n_nodes)
    # a partial last frame, padded with no successes
    n = SLOTS + frame_len // 2
    log.append_slots(rng.integers(0, 3, n).astype(np.int8),
                     rng.random((n, n_nodes)) < 0.3)
    won, peak = traced_peak(log.frame_successes, 0, log.n_frames)
    assert peak < n * n_nodes * np.dtype(np.int64).itemsize // 2
    assert won.dtype == np.int64
    # the per-slot sum it replaces, over a prefix and past the logged slots
    f1 = log.n_frames + 2
    success = log._tx[:n] & (log._outcome[:n] == 0)[:, None]
    padded = np.zeros((f1 * frame_len, n_nodes), dtype=np.int64)
    padded[:n] = success
    expected = padded.reshape(f1, frame_len, n_nodes).sum(axis=1)
    np.testing.assert_array_equal(log.frame_successes(0, f1), expected)
    np.testing.assert_array_equal(log.frame_successes(5, 9), expected[5:9])
