"""Metric correctness against hand-computed values plus property tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexlab.errors import MetricDomainError
from coexlab.mac import (
    BernoulliSlotPolicy,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    run_frames,
)
from coexlab.metrics import (
    ThroughputSeries,
    alpha_fair_value,
    jain_index,
    rmse_vs_reference,
    slot_utilization,
    windowed_throughput,
)


def tdma_log(total_frames=30):
    spec = ScenarioSpec(
        nodes=[NodeConfig(kind="tdma", slots=(3, 5))],
        total_frames=total_frames, seed=1,
    )
    return run_frames(MacEnvironment(spec), None, total_frames)


class TestWindowedThroughput:
    def test_tdma_constant_rate(self):
        log = tdma_log(30)
        series = windowed_throughput(log, window_frames=10)
        assert series.frames == list(range(10, 31))
        # 2 successes per frame, 100 slots per window
        assert all(abs(v - 0.2) < 1e-12 for v in series.values[0])

    def test_agent_alternating_frames(self):
        # agent transmits every slot of even frames only: window of 2
        # frames always holds one full frame of successes
        spec = ScenarioSpec(nodes=[NodeConfig(kind="agent")], total_frames=8,
                            seed=1)
        env = MacEnvironment(spec)
        policy = BernoulliSlotPolicy(spec.seed, {})
        for frame in range(8):
            policy.set_vector(0, [1.0 if frame % 2 == 0 else 0.0] * 10)
            log = run_frames(env, policy, 1)
        series = windowed_throughput(log, window_frames=2)
        assert all(abs(v - 0.5) < 1e-12 for v in series.values[0])

    def test_log_shorter_than_window_gives_empty_series(self):
        series = windowed_throughput(tdma_log(5), window_frames=10)
        assert series.frames == []
        assert series.values == {0: []}

    def test_window_longer_than_log_rejected(self):
        log = tdma_log(5)
        series = windowed_throughput(log, window_frames=5)
        assert series.frames == [5]
        with pytest.raises(MetricDomainError):
            windowed_throughput(log, window_frames=0)


class TestAlphaFair:
    def test_log_utility_hand_value(self):
        # log(100*0.4) + log(100*0.1) = log(40) + log(10)
        value = alpha_fair_value([0.4, 0.1], alpha=1.0)
        assert abs(value - (math.log(40) + math.log(10))) < 1e-12

    def test_alpha_zero_is_scaled_sum(self):
        value = alpha_fair_value([0.25, 0.5, 0.1], alpha=0.0)
        assert abs(value - (25 + 50 + 10)) < 1e-12

    def test_alpha_two_hand_value(self):
        # sum (100x)^-1 / -1 = -(1/50 + 1/25) = -0.06
        value = alpha_fair_value([0.5, 0.25], alpha=2.0)
        assert abs(value - (-0.06)) < 1e-12

    def test_zero_rejected_for_log(self):
        with pytest.raises(MetricDomainError):
            alpha_fair_value([0.5, 0.0], alpha=1.0)

    @given(st.lists(st.floats(min_value=1e-4, max_value=1.0), min_size=1,
                    max_size=8))
    def test_alpha_zero_matches_general_formula(self, xs):
        assert abs(alpha_fair_value(xs, 0.0) - sum(100 * x for x in xs)) \
            <= 1e-9 * max(1.0, abs(sum(100 * x for x in xs)))


class TestJainIndex:
    def test_reference_split(self):
        # two flows at 589.7 and 193.6 units
        assert abs(jain_index([589.7, 193.6]) - 0.7964) < 1e-3

    def test_equal_allocation_is_one(self):
        assert abs(jain_index([0.25] * 4) - 1.0) < 1e-12

    def test_single_winner_is_one_over_n(self):
        assert abs(jain_index([1.0, 0.0, 0.0, 0.0]) - 0.25) < 1e-12

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=10).filter(lambda xs: sum(xs) > 1e-9))
    @settings(max_examples=200)
    def test_bounds(self, xs):
        j = jain_index(xs)
        assert 1.0 / len(xs) - 1e-9 <= j <= 1.0 + 1e-9

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=2,
                 max_size=8),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, xs, c):
        assert jain_index(xs) == pytest.approx(jain_index([c * x for x in xs]),
                                               rel=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(MetricDomainError):
            jain_index([0.0, 0.0])


class TestRmse:
    def test_constant_offset(self):
        series = ThroughputSeries(frames=[3, 4, 5], values={0: [0.3, 0.3, 0.3]},
                                  window_frames=2)
        ref = {0: [0.2] * 5}
        assert abs(rmse_vs_reference(series, ref, warmup_frames=2) - 0.1) < 1e-12

    def test_mixed_nodes(self):
        # node 0 off by 0.1, node 1 exact: rmse = 0.1/sqrt(2)
        series = ThroughputSeries(
            frames=[4, 5], values={0: [0.3, 0.3], 1: [0.2, 0.2]},
            window_frames=2,
        )
        ref = {0: [0.2] * 5, 1: [0.2] * 5}
        expected = 0.1 / math.sqrt(2)
        assert abs(rmse_vs_reference(series, ref, warmup_frames=3) - expected) < 1e-12

    def test_node_missing_from_reference_counts_as_zero(self):
        series = ThroughputSeries(frames=[4], values={0: [0.3]},
                                  window_frames=2)
        assert abs(rmse_vs_reference(series, {}, warmup_frames=3) - 0.3) < 1e-12

    def test_everything_inside_warmup_rejected(self):
        series = ThroughputSeries(frames=[4], values={0: [0.3]},
                                  window_frames=2)
        with pytest.raises(MetricDomainError):
            rmse_vs_reference(series, {0: [0.3] * 5}, warmup_frames=10)


class TestSlotUtilization:
    def test_tdma_only_owned_slots_busy(self):
        log = tdma_log(50)
        util = slot_utilization(log, last_frames=20)
        for k in range(10):
            assert util[k] == (1.0 if k in (3, 5) else 0.0)

    def test_collisions_count_as_busy(self):
        spec = ScenarioSpec(
            nodes=[NodeConfig(kind="tdma", slots=(3,)),
                   NodeConfig(kind="tdma", slots=(3,))],
            total_frames=10, seed=1,
        )
        log = run_frames(MacEnvironment(spec), None, 10)
        util = slot_utilization(log, last_frames=10)
        assert util[3] == 1.0
