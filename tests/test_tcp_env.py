"""Fluid-model arithmetic, controller updates and coexistence shape."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcp_reference
from coexlab.errors import InvalidScenarioError
from coexlab.tcp import (
    TCP_FORMAT,
    FlowState,
    RoundFeedback,
    TcpEnvironment,
    TcpFlowConfig,
    TcpScenarioSpec,
    mean_flow_throughputs,
    reno_update,
    run_rounds,
    TCP_FORMAT,
    tcp_reward,
    vegas_update,
)
from coexlab.scenario import parse_scenario, scenario_doc
from coexlab.metrics import jain_index


def spec_for(controllers, rounds=2000, seed=42, **kw):
    return TcpScenarioSpec(
        flows=[TcpFlowConfig(controller=c) for c in controllers],
        total_rounds=rounds, seed=seed, **kw,
    )


def play_round(env, overrides):
    """Step one round and return it as the reference record."""
    env.step_round(overrides)
    return tcp_reference.records_from_log(env)[-1]


class TestRoundArithmetic:
    def test_no_queue_below_pipe(self):
        env = TcpEnvironment(spec_for(["agent", "agent"], rounds=1))
        rec = play_round(env, {0: 5, 1: 5})
        assert rec.queue == 0.0
        for fr in rec.per_flow.values():
            assert fr.rtt == pytest.approx(0.1)
            assert fr.acks == pytest.approx(5.0)
            assert not fr.loss

    def test_queue_inflates_rtt(self):
        env = TcpEnvironment(spec_for(["agent", "agent"], rounds=1))
        rec = play_round(env, {0: 10, 1: 10})
        # offered 20, pipe 12.5 -> queue 7.5 -> rtt 0.1 + 7.5/125
        assert rec.queue == pytest.approx(7.5)
        assert rec.per_flow[0].rtt == pytest.approx(0.16)
        assert not rec.per_flow[0].loss

    def test_overflow_drops_proportionally(self):
        env = TcpEnvironment(spec_for(["agent", "agent"], rounds=1))
        rec = play_round(env, {0: 20, 1: 15})
        # offered 35, pipe+buffer 25 -> overflow 10
        assert rec.queue == pytest.approx(12.5)
        assert rec.per_flow[0].drops == pytest.approx(10 * 20 / 35)
        assert rec.per_flow[1].drops == pytest.approx(10 * 15 / 35)
        assert rec.per_flow[0].acks == pytest.approx(20 - 10 * 20 / 35)
        assert rec.per_flow[0].rtt == pytest.approx(0.2)
        assert rec.per_flow[0].loss and rec.per_flow[1].loss

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                    max_size=5))
    @settings(max_examples=100)
    def test_conservation(self, cwnds):
        env = TcpEnvironment(spec_for(["agent"] * len(cwnds), rounds=1))
        rec = play_round(env, {i: c for i, c in enumerate(cwnds)})
        total_in = sum(cwnds)
        total_out = sum(fr.acks + fr.drops for fr in rec.per_flow.values())
        assert total_out == pytest.approx(total_in, rel=1e-9)


class TestRenoUpdate:
    def test_congestion_avoidance_adds_one(self):
        s = FlowState(cwnd=8, ssthresh=32, mode="congestion_avoidance")
        fb = RoundFeedback(acks=8, rtt=0.1, loss=False, base_rtt=0.1)
        assert reno_update(s, fb, 64).cwnd == 9

    def test_loss_halves_to_ssthresh(self):
        s = FlowState(cwnd=8, ssthresh=32, mode="congestion_avoidance")
        fb = RoundFeedback(acks=6, rtt=0.2, loss=True, base_rtt=0.1)
        after = reno_update(s, fb, 64)
        assert after.cwnd == 4 and after.ssthresh == 4
        assert after.mode == "congestion_avoidance"

    def test_loss_floor_at_two(self):
        s = FlowState(cwnd=3, ssthresh=16, mode="congestion_avoidance")
        fb = RoundFeedback(acks=1, rtt=0.2, loss=True, base_rtt=0.1)
        assert reno_update(s, fb, 64).cwnd == 2

    def test_slow_start_doubles(self):
        s = FlowState(cwnd=2, ssthresh=8, mode="slow_start")
        fb = RoundFeedback(acks=2, rtt=0.1, loss=False, base_rtt=0.1)
        assert reno_update(s, fb, 64).cwnd == 4

    def test_slow_start_caps_at_ssthresh(self):
        s = FlowState(cwnd=6, ssthresh=8, mode="slow_start")
        fb = RoundFeedback(acks=6, rtt=0.1, loss=False, base_rtt=0.1)
        after = reno_update(s, fb, 64)
        assert after.cwnd == 8 and after.mode == "congestion_avoidance"


class TestVegasUpdate:
    def test_no_queue_grows(self):
        s = FlowState(cwnd=10, ssthresh=32, mode="congestion_avoidance")
        fb = RoundFeedback(acks=10, rtt=0.1, loss=False, base_rtt=0.1)
        assert vegas_update(s, fb, 64).cwnd == 11

    def test_in_band_holds(self):
        # diff = cwnd*(1 - base/rtt) = 10*(1 - 0.8) = 2 packets
        s = FlowState(cwnd=10, ssthresh=32, mode="congestion_avoidance")
        fb = RoundFeedback(acks=10, rtt=0.125, loss=False, base_rtt=0.1)
        assert vegas_update(s, fb, 64).cwnd == 10

    def test_above_band_shrinks(self):
        # diff = 20*(1 - 0.8) = 4 > 3
        s = FlowState(cwnd=20, ssthresh=32, mode="congestion_avoidance")
        fb = RoundFeedback(acks=20, rtt=0.125, loss=False, base_rtt=0.1)
        assert vegas_update(s, fb, 64).cwnd == 19

    def test_reads_base_rtt_from_feedback(self):
        # the same window and rtt hold in band over a 0.1 s base, but
        # queue nothing over a 0.125 s one
        s = FlowState(cwnd=10, ssthresh=32, mode="congestion_avoidance")
        held = RoundFeedback(acks=10, rtt=0.125, loss=False, base_rtt=0.1)
        empty = RoundFeedback(acks=10, rtt=0.125, loss=False, base_rtt=0.125)
        assert vegas_update(s, held, 64).cwnd == 10
        assert vegas_update(s, empty, 64).cwnd == 11

    def test_tracks_minimum_rtt(self):
        # every round feeds Vegas the smallest rtt its flow has seen so
        # far, while the Reno flow beside it keeps the queue growing
        env = TcpEnvironment(spec_for(["reno", "vegas"], rounds=200))
        seen = []

        def spy(state, fb, cwnd_max):
            seen.append((fb.rtt, fb.base_rtt))
            return vegas_update(state, fb, cwnd_max)

        env._updates = (env._updates[0], spy)
        run_rounds(env)
        rtts = [rtt for rtt, _ in seen]
        assert [base for _, base in seen] == \
            [min(rtts[:k + 1]) for k in range(len(rtts))]
        assert rtts[-1] > seen[-1][1]


class TestReward:
    def test_hand_value(self):
        assert tcp_reward(10, 0.1) == pytest.approx(math.log(10) - 0.05)

    def test_floor_for_starved_round(self):
        assert tcp_reward(0.0, 0.1) == pytest.approx(-0.05 - 5.0)

    def test_floor_below_any_delivery(self):
        assert tcp_reward(0.0, 0.2) < tcp_reward(1.0, 0.2)


class TestCoexistence:
    def test_homogeneous_reno_fair(self):
        env = TcpEnvironment(spec_for(["reno", "reno"]))
        run_rounds(env)
        tps = mean_flow_throughputs(env.log, first_round=1000)
        assert jain_index(list(tps.values())) >= 0.99

    def test_homogeneous_vegas_fair(self):
        env = TcpEnvironment(spec_for(["vegas", "vegas"]))
        run_rounds(env)
        tps = mean_flow_throughputs(env.log, first_round=1000)
        assert jain_index(list(tps.values())) >= 0.99
        # Vegas pairs stabilize without overflowing the buffer
        log = env.log
        late_losses = [
            loss for fid in (0, 1)
            for loss in log.flow_values(log.loss, fid, 1000, log.n_rounds)
        ]
        assert not any(late_losses)

    def test_reno_starves_vegas(self):
        env = TcpEnvironment(spec_for(["reno", "vegas"]))
        run_rounds(env)
        tps = mean_flow_throughputs(env.log, first_round=1000)
        assert jain_index(list(tps.values())) <= 0.90
        assert tps[0] > tps[1]  # reno wins


class TestDynamicsAndJson:
    def test_flow_join_and_leave(self):
        spec = TcpScenarioSpec(
            flows=[TcpFlowConfig(controller="reno"),
                   TcpFlowConfig(controller="vegas", join_round=10,
                                 leave_round=20)],
            total_rounds=30, seed=1,
        )
        env = TcpEnvironment(spec)
        run_rounds(env)
        assert env.log.live_at(5) == (0,)
        assert env.log.live_at(15) == (0, 1)
        assert env.log.live_at(25) == (0,)

    def test_round_trip(self):
        spec = spec_for(["reno", "agent"], rounds=500, seed=9)
        assert parse_scenario(scenario_doc(spec), TCP_FORMAT) == spec

    def test_validation_paths(self):
        with pytest.raises(InvalidScenarioError) as err:
            TcpEnvironment(spec_for(["bbr"], rounds=10))
        assert "flows[0].controller" in str(err.value)
        with pytest.raises(InvalidScenarioError):
            TcpEnvironment(spec_for([], rounds=10))
