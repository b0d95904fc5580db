"""Throughput, fairness and error metrics over trajectory logs.

Throughput is measured in successes per slot. Fairness utilities scale
throughputs by 100 before applying the utility function, so a node that
succeeds in 20% of slots contributes g(20).

The whole-log and whole-series functions run over accumulators that take
frames in order, block by block (``ThroughputWindows``, ``SuccessTotals``,
``SquaredErrors``); the end-of-run readers of a streamed run feed them
each block the slot log hands over, and get the same numbers.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from .errors import MetricDomainError
from .mac import TrajectoryLog
from .scenario import Timeline

THROUGHPUT_SCALE = 100.0
DEFAULT_WINDOW_FRAMES = 100
DEFAULT_WARMUP_FRAMES = 500
# series points whose squared errors ``rmse_vs_reference`` adds at a time
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


def series_node_ids(timeline: Timeline, n_frames: int) -> List[int]:
    """The node ids with a column in the windowed series of ``n_frames``
    frames: those live in some frame, ascending."""
    return sorted({nid for _, _, ids in timeline.stretches(0, n_frames)
                   for nid in ids})


class ThroughputWindows:
    """The windowed throughput of a log's frames, fed in order block by
    block: ``add`` gives the series points whose windows end inside its
    block. Per node it carries the cumulative success counts of the last
    ``window_frames`` frames fed, so each window sum is the integer it is
    over the whole log."""

    def __init__(self, node_ids: Sequence[int], window_frames: int,
                 frame_len: int):
        if window_frames < 1:
            raise MetricDomainError("window_frames must be >= 1")
        self.node_ids = list(node_ids)
        self.window_frames = window_frames
        self.slots_per_window = window_frames * frame_len
        # per node, the successes of frames [0, t) for t from
        # max(0, fed - window_frames) up to fed, the frames fed
        self._tails = {nid: np.zeros(1, dtype=np.int64)
                       for nid in self.node_ids}

    def add(self, log: TrajectoryLog, f0: int, f1: int) -> ThroughputSeries:
        """Feed frames ``[f0, f1)``, ``f0`` being the frames fed so far;
        the result holds the windows ending at frames ``f0 + 1`` to
        ``f1``, those of frame ``window_frames`` on, one float64 array per
        node. A node contributes zero for slots where it is not live."""
        window = self.window_frames
        first = max(window, f0 + 1)
        n = max(0, f1 + 1 - first)
        lo = max(0, f0 - window)    # the frame count of a tail's first entry
        held = f0 + 1 - lo
        # one node at a time, so that one column of cumulative counts and
        # one of window sums are held beside the result
        cumulative = np.empty(held + f1 - f0, dtype=np.int64)
        values = {}
        for nid in self.node_ids:
            tail = self._tails[nid]
            cumulative[:held] = tail
            np.cumsum(log.node_frame_successes(nid, f0, f1), dtype=np.int64,
                      out=cumulative[held:])
            cumulative[held:] += tail[-1]
            a, b = first - lo, first - window - lo
            values[nid] = (cumulative[a:a + n] - cumulative[b:b + n]) \
                / self.slots_per_window
            self._tails[nid] = cumulative[max(0, f1 - window) - lo:].copy()
        # Frame label f means "window ending at frame f", i.e. frames
        # (f - window, f] counted with 1-based frame numbering.
        return ThroughputSeries(frames=range(first, first + n),
                                values=values, window_frames=window)


def windowed_throughput(log: TrajectoryLog,
                        window_frames: int = DEFAULT_WINDOW_FRAMES) -> ThroughputSeries:
    """Per-node successes over the trailing window, divided by the number
    of slots in the window, as one float64 array per node. Defined for
    frames >= window_frames, so a log shorter than the window gives empty
    series; a node contributes zero for slots where it is not live."""
    windows = ThroughputWindows(series_node_ids(log.timeline, log.n_frames),
                                window_frames, log.frame_len)
    if not log.n_slots:
        raise MetricDomainError("empty trajectory log")
    return windows.add(log, 0, log.n_frames)


class SuccessTotals:
    """Per node, the successes and the live slots of the frames added."""

    def __init__(self, n_nodes: int):
        self.won = [0] * n_nodes
        self.live = [0] * n_nodes

    def add(self, log: TrajectoryLog, f0: int, f1: int) -> None:
        """Add the logged slots of frames ``[f0, f1)``."""
        won, live = log.success_counts(f0, f1)
        self.won = list(map(operator.add, self.won, won))
        self.live = list(map(operator.add, self.live, live))

    def rates(self) -> Dict[int, float]:
        """Successes over live slots, per node id live in a frame added."""
        return {nid: won / live for nid, (won, live)
                in enumerate(zip(self.won, self.live)) if live}


def node_mean_throughputs(log: TrajectoryLog) -> Dict[int, float]:
    """Per-node success rate averaged over the slots the node was live."""
    if not log.n_slots:
        raise MetricDomainError("empty trajectory log")
    totals = SuccessTotals(log.n_nodes)
    totals.add(log, 0, log.n_frames)
    return totals.rates()


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


class SquaredErrors:
    """The running sum of squared errors between a measured series, fed
    in frame order, and a per-frame reference, over every (node, frame)
    pair with frame > warmup, summed frame by frame in ascending node
    order.

    ``reference`` maps node id to one value per frame (index = frame): a
    list, or a ``StepSeries`` as the oracle gives. Nodes present on only
    one side count as zero on the other.
    """

    def __init__(self, reference: Mapping[int, Sequence[float]],
                 warmup_frames: int = DEFAULT_WARMUP_FRAMES):
        self.reference = reference
        self.warmup_frames = warmup_frames
        self._lookups = {nid: _frame_lookup(values)
                         for nid, values in reference.items()}
        self.total = 0.0
        self.count = 0

    def add(self, frames: Sequence[int],
            values: Mapping[int, Sequence[float]]) -> None:
        """Add the points of ``frames``, ascending and after those added
        before, with one value per frame in each node's ``values``."""
        reference = self.reference
        node_ids = sorted(set(values) | set(reference))
        frames = np.asarray(frames, dtype=np.int64)
        kept = np.flatnonzero(frames > self.warmup_frames)
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
            m = np.asarray(values[nid], dtype=np.float64)[kept] \
                if nid in values else np.zeros(len(kept))
            r = self._lookups[nid](index) if nid in reference else 0.0
            diffs.append((m - r).tolist())
        total = self.total
        for row in zip(*diffs):
            for d in row:
                total += d ** 2
        self.total = total
        self.count += len(kept) * len(node_ids)

    def rmse(self) -> float:
        if self.count == 0:
            raise MetricDomainError("no frames after warmup to compare")
        return math.sqrt(self.total / self.count)


def rmse_vs_reference(series: ThroughputSeries,
                      reference: Mapping[int, Sequence[float]],
                      warmup_frames: int = DEFAULT_WARMUP_FRAMES) -> float:
    """Root mean squared error between a measured series and a per-frame
    reference (see ``SquaredErrors``), the series read ``_RMSE_BLOCK``
    frames at a time."""
    errors = SquaredErrors(reference, warmup_frames)
    for k0 in range(0, len(series.frames), _RMSE_BLOCK):
        k1 = k0 + _RMSE_BLOCK
        errors.add(series.frames[k0:k1], {
            nid: values[k0:k1] for nid, values in series.values.items()})
    return errors.rmse()


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
