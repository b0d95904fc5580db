"""Throughput, fairness and error metrics over trajectory logs.

Throughput is measured in successes per slot. Fairness utilities scale
throughputs by 100 before applying the utility function, so a node that
succeeds in 20% of slots contributes g(20).
"""

from __future__ import annotations

import bisect
import math
from collections import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from .errors import MetricDomainError
from .mac import TrajectoryLog

THROUGHPUT_SCALE = 100.0
DEFAULT_WINDOW_FRAMES = 100
DEFAULT_WARMUP_FRAMES = 500
# frames whose squared errors ``rmse_vs_reference`` sums at a time
_RMSE_BLOCK = 4096


@dataclass
class ThroughputSeries:
    """Windowed throughput per node, one value per frame index."""

    frames: Sequence[int]
    values: Mapping[int, Sequence[float]]
    window_frames: int


class StepSeries(abc.Sequence):
    """A read-only per-frame series held per step: ``values[k]`` holds
    from frame ``starts[k]`` (``starts[0]`` is 0, ascending) up to the
    next start, the last one up to ``length``. Memory grows with the
    steps, not the frames."""

    def __init__(self, starts: Sequence[int], values: Sequence[float],
                 length: int):
        self.starts = starts
        self.values = values
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(*index.indices(self.length))).tolist()
        frame = range(self.length)[index]
        return self.values[bisect.bisect_right(self.starts, frame) - 1]

    def take(self, frames: np.ndarray) -> np.ndarray:
        """The values at an array of frame indices, as float64."""
        steps = np.searchsorted(self.starts, frames, side="right") - 1
        return np.asarray(self.values, dtype=np.float64)[steps]

    def __array__(self, dtype=None, copy=None):
        bounds = np.asarray([*self.starts, self.length], dtype=np.int64)
        return np.repeat(np.asarray(self.values, dtype=dtype),
                         np.diff(bounds))


def windowed_throughput(log: TrajectoryLog,
                        window_frames: int = DEFAULT_WINDOW_FRAMES) -> ThroughputSeries:
    """Per-node successes over the trailing window, divided by the number
    of slots in the window, as one float64 array per node. Defined for
    frames >= window_frames, so a log shorter than the window gives empty
    series; a node contributes zero for slots where it is not live."""
    if window_frames < 1:
        raise MetricDomainError("window_frames must be >= 1")
    if not log.n_slots:
        raise MetricDomainError("empty trajectory log")
    total_frames = log.n_frames
    node_ids = sorted({nid for _, _, ids in log.timeline.stretches(
        0, total_frames) for nid in ids})
    slots_per_window = window_frames * log.frame_len
    # one node at a time, so that only one column of cumulative counts
    # and one of window sums are held beside the result
    cumulative = np.zeros(total_frames + 1, dtype=np.int64)
    values = {}
    for nid in node_ids:
        np.cumsum(log.node_frame_successes(nid), dtype=np.int64,
                  out=cumulative[1:])
        window_sums = cumulative[window_frames:] \
            - cumulative[:max(0, total_frames + 1 - window_frames)]
        values[nid] = window_sums / slots_per_window
    # Frame label f means "window ending at frame f", i.e. frames
    # (f - window, f] counted with 1-based frame numbering.
    return ThroughputSeries(frames=range(window_frames, total_frames + 1),
                            values=values, window_frames=window_frames)


def node_mean_throughputs(log: TrajectoryLog) -> Dict[int, float]:
    """Per-node success rate averaged over the slots the node was live."""
    if not log.n_slots:
        raise MetricDomainError("empty trajectory log")
    return log.success_rates(0, log.n_frames)


def jain_index(throughputs: Sequence[float]) -> float:
    """(sum x)^2 / (N * sum x^2); 1 means perfectly even allocation."""
    xs = list(throughputs)
    if not xs:
        raise MetricDomainError("jain index needs at least one value")
    if any(x < 0 for x in xs):
        raise MetricDomainError("jain index defined for nonnegative values")
    square_sum = sum(x * x for x in xs)
    if square_sum == 0.0:
        raise MetricDomainError("jain index undefined for all-zero input")
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


def _frame_lookup(values: Sequence[float]) -> Callable[[np.ndarray],
                                                       np.ndarray]:
    """A reader of ``values`` at an array of frame indices: a
    ``StepSeries`` looks up its steps, anything else is read as one
    float64 array."""
    if isinstance(values, StepSeries):
        return values.take
    return np.asarray(values, dtype=np.float64).__getitem__


def rmse_vs_reference(series: ThroughputSeries,
                      reference: Mapping[int, Sequence[float]],
                      warmup_frames: int = DEFAULT_WARMUP_FRAMES) -> float:
    """Root mean squared error between a measured series and a per-frame
    reference, over every (node, frame) pair with frame > warmup, summed
    frame by frame in ascending node order.

    ``reference`` maps node id to one value per frame (index = frame): a
    list, or a ``StepSeries`` as the oracle gives.
    Nodes present on only one side count as zero on the other. The
    series is read ``_RMSE_BLOCK`` frames at a time.
    """
    node_ids = sorted(set(series.values) | set(reference))
    lookups = {nid: _frame_lookup(values)
               for nid, values in reference.items()}
    acc = 0.0
    count = 0
    for k0 in range(0, len(series.frames), _RMSE_BLOCK):
        k1 = k0 + _RMSE_BLOCK
        frames = np.asarray(series.frames[k0:k1], dtype=np.int64)
        kept = np.flatnonzero(frames > warmup_frames)
        index = frames[kept] - 1
        # (position, node) of each node's first frame past its reference;
        # the least is the first such pair in summing order
        short = []
        for nid in node_ids:
            past = index >= len(reference[nid]) if nid in reference else None
            if past is not None and past.any():
                short.append((int(np.argmax(past)), nid))
        if short:
            position, nid = min(short)
            raise MetricDomainError(
                f"reference for node {nid} shorter than series "
                f"(frame {index[position] + 1})")
        # m - r per node: numpy subtracts float64 as Python subtracts
        # floats, and the squares below stay Python's ``** 2``, so the sum
        # is the same
        diffs = []
        for nid in node_ids:
            m = np.asarray(series.values[nid][k0:k1],
                           dtype=np.float64)[kept] \
                if nid in series.values else np.zeros(len(kept))
            r = lookups[nid](index) if nid in reference else 0.0
            diffs.append((m - r).tolist())
        for row in zip(*diffs):
            for d in row:
                acc += d ** 2
        count += len(kept) * len(node_ids)
    if count == 0:
        raise MetricDomainError("no frames after warmup to compare")
    return math.sqrt(acc / count)


def slot_utilization(log: TrajectoryLog, last_frames: int = 100) -> List[float]:
    """Fraction of the last ``last_frames`` frames in which each frame
    position carried at least one transmission."""
    if not log.n_slots:
        raise MetricDomainError("empty trajectory log")
    last_frame = log.n_frames - 1
    first_frame = max(0, last_frame - last_frames + 1)
    n = last_frame - first_frame + 1
    if n <= 0:
        raise MetricDomainError("no frames in utilization window")
    counts = log.transmissions_by_position(first_frame, last_frame + 1)
    return [c / n for c in counts]
