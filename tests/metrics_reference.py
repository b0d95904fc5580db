"""The list-based throughput series and the readers of it that
``coexlab.metrics`` and ``coexlab.agent.offline`` replace, kept as the
reference the array-based ones must equal float for float.

``windowed_throughput`` builds one Python list per node and the frame
labels as a list; ``rmse_vs_reference`` and ``mac_j_estimate`` index
those lists frame by frame, nodes in ascending id order.
``alpha_fair_value`` is the strict alpha-fair utility, which rejects a
zero rate where ``coexlab.oracle.fair_objective`` floors it.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from mac_reference import frame_successes
from coexlab.errors import MetricDomainError
from coexlab.metrics import THROUGHPUT_SCALE, ThroughputSeries
from coexlab.oracle import fair_objective


def windowed_throughput(log, window_frames: int) -> ThroughputSeries:
    if window_frames < 1:
        raise MetricDomainError("window_frames must be >= 1")
    if not log.n_slots:
        raise MetricDomainError("empty trajectory log")
    node_ids = sorted({nid for _, _, ids in log.timeline.stretches(
        0, log.n_frames) for nid in ids})
    total_frames = log.n_frames
    cumulative = np.zeros((total_frames + 1, log.n_nodes), dtype=np.int64)
    np.cumsum(frame_successes(log, 0, total_frames), axis=0,
              out=cumulative[1:])
    window_sums = cumulative[window_frames:] \
        - cumulative[:max(0, total_frames + 1 - window_frames)]

    frames = list(range(window_frames, total_frames + 1))
    slots_per_window = window_frames * log.frame_len
    values = {nid: (window_sums[:, nid] / slots_per_window).tolist()
              for nid in node_ids}
    return ThroughputSeries(frames=frames, values=values,
                            window_frames=window_frames)


def rmse_vs_reference(series: ThroughputSeries,
                      reference: Mapping[int, Sequence[float]],
                      warmup_frames: int) -> float:
    node_ids = sorted(set(series.values) | set(reference))
    count = 0
    acc = 0.0
    for idx, frame in enumerate(series.frames):
        if frame <= warmup_frames:
            continue
        for nid in node_ids:
            measured = series.values.get(nid)
            m = measured[idx] if measured is not None else 0.0
            ref_series = reference.get(nid)
            if ref_series is None:
                r = 0.0
            else:
                if frame - 1 >= len(ref_series):
                    raise MetricDomainError(
                        f"reference for node {nid} shorter than series "
                        f"(frame {frame})"
                    )
                r = float(ref_series[frame - 1])
            acc += (m - r) ** 2
            count += 1
    if count == 0:
        raise MetricDomainError("no frames after warmup to compare")
    return math.sqrt(acc / count)


def mac_j_estimate(log, config) -> float:
    series = windowed_throughput(log, config.window_frames)
    if not series.frames:
        raise MetricDomainError(
            f"evaluation log shorter than the {config.window_frames}-frame "
            f"throughput window")
    half = len(series.frames) // 2
    values = []
    for idx in range(half, len(series.frames)):
        snapshot = [series.values[nid][idx] for nid in sorted(series.values)]
        values.append(fair_objective(snapshot, config.alpha))
    return sum(values) / len(values)


def alpha_fair_value(throughputs: Sequence[float], alpha: float = 1.0) -> float:
    """Sum of the alpha-fair utility of 100x each throughput.

    alpha=1 uses the log form and requires strictly positive inputs;
    callers are expected to clamp to a small floor first.
    """
    total = 0.0
    for i, x in enumerate(throughputs):
        scaled = THROUGHPUT_SCALE * x
        if alpha == 1.0:
            if scaled <= 0.0:
                raise MetricDomainError(
                    f"throughputs[{i}] = {x} not positive; log utility undefined"
                )
            total += math.log(scaled)
        else:
            if scaled < 0.0:
                raise MetricDomainError(f"throughputs[{i}] = {x} negative")
            total += scaled ** (1.0 - alpha) / (1.0 - alpha)
    return total
