"""Differential test: the windowed throughput series as one float64 array
per node, and its two readers (``rmse_vs_reference`` and
``offline.mac_j_estimate``), against the list-based versions kept in
``metrics_reference``. Every value and every result must be the same
float, and a failing input the same error, with the reference given as
lists or per step."""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_reference as ref
from coexlab.agent.config import AgentConfig
from coexlab import metrics
from coexlab.agent.offline import mac_j_estimate
from coexlab.mac import (
    BernoulliSlotPolicy,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    run_frames,
)
from coexlab.metrics import StepSeries, rmse_vs_reference, windowed_throughput


@st.composite
def logs(draw):
    """A short run of aloha, tdma and agent nodes that may join and
    leave; the agents hold random vectors."""
    frame_len = draw(st.integers(1, 5))
    frames = draw(st.integers(1, 40))
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["aloha", "tdma", "agent"]))
        join = draw(st.integers(0, frames))
        leave = draw(st.none() | st.integers(join + 1, frames + 3))
        cfg = NodeConfig(kind=kind, join_frame=join, leave_frame=leave)
        if kind == "aloha":
            cfg.q = draw(st.floats(0.0, 1.0))
        elif kind == "tdma":
            cfg.slots = (draw(st.integers(0, frame_len - 1)),)
        nodes.append(cfg)
    spec = ScenarioSpec(nodes=nodes, total_frames=frames,
                        seed=draw(st.integers(0, 99)), frame_len=frame_len)
    vectors = {nid: draw(st.lists(st.floats(0.0, 1.0), min_size=frame_len,
                                  max_size=frame_len))
               for nid, cfg in enumerate(nodes) if cfg.kind == "agent"}
    return run_frames(MacEnvironment(spec),
                      BernoulliSlotPolicy(spec.seed, vectors), frames)


def step_series(values):
    """``values`` as a ``StepSeries``, one step per run of equal values."""
    starts = [k for k, v in enumerate(values) if k == 0 or v != values[k - 1]]
    return StepSeries(starts, [values[k] for k in starts], len(values))


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:    # the reference's type and text must match
        return type(exc).__name__, str(exc)


@settings(max_examples=120, deadline=None)
@given(log=logs(), window=st.integers(1, 20), warmup=st.integers(0, 30),
       data=st.data())
def test_array_series_and_readers_equal_list_reference(log, window, warmup,
                                                       data):
    series = windowed_throughput(log, window)
    expected = ref.windowed_throughput(log, window)
    assert isinstance(series.frames, range)
    assert list(series.frames) == expected.frames
    assert sorted(series.values) == sorted(expected.values)
    for nid, column in series.values.items():
        assert column.dtype == np.float64
        assert column.tolist() == expected.values[nid]

    # a reference per node id, some ids on one side only, some too short
    ids = data.draw(st.sets(st.integers(0, 5), max_size=4))
    reference = {nid: data.draw(st.lists(
        st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5]),
        min_size=log.n_frames - 1, max_size=log.n_frames + 1))
        for nid in sorted(ids)}
    # read in blocks of any size
    block = data.draw(st.integers(1, log.n_frames + 1), label="rmse_block")
    steps = {nid: step_series(values) for nid, values in reference.items()}
    with mock.patch.object(metrics, "_RMSE_BLOCK", block):
        assert outcome(rmse_vs_reference, series, reference, warmup) \
            == outcome(ref.rmse_vs_reference, expected, reference, warmup)
        # the same reference held per step, as the oracle gives it
        assert [steps[nid][:] for nid in steps] == list(reference.values())
        assert outcome(rmse_vs_reference, series, steps, warmup) \
            == outcome(ref.rmse_vs_reference, expected, reference, warmup)

    for alpha in (1.0, 2.0):
        config = AgentConfig(window_frames=window, alpha=alpha)
        assert outcome(mac_j_estimate, log, config) \
            == outcome(ref.mac_j_estimate, log, config)
