"""Slot mechanics, protocol node behavior and determinism of the MAC
environment."""

from __future__ import annotations

import pytest

from coexlab.errors import InvalidScenarioError, MissingDecisionError
from coexlab.mac import (
    MAC_FORMAT,
    BernoulliSlotPolicy,
    CsmaMachine,
    EbAlohaMachine,
    FwAlohaMachine,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    SlotOutcome,
    node_rng,
    run_frames,
)
from coexlab.scenario import parse_scenario, scenario_doc


def make_spec(nodes, total_frames=10, seed=42, frame_len=10):
    return ScenarioSpec(nodes=list(nodes), total_frames=total_frames,
                        seed=seed, frame_len=frame_len)


def aloha(q=0.2, **kw):
    return NodeConfig(kind="aloha", q=q, **kw)


def tdma(slots=(3, 5), **kw):
    return NodeConfig(kind="tdma", slots=tuple(slots), **kw)


def agent(**kw):
    return NodeConfig(kind="agent", **kw)


def run_agents(*vectors):
    """One frame of two agents with fixed per-slot vectors."""
    spec = make_spec([agent(), agent()])
    env = MacEnvironment(spec)
    policy = BernoulliSlotPolicy(spec.seed, dict(enumerate(vectors)))
    run_frames(env, policy, 1)
    return env


class TestSlotOutcomes:
    def test_single_transmitter_succeeds(self):
        env = run_agents([1.0] * 10, [0.0] * 10)
        rec = env.log.records[-1]
        assert rec.outcome is SlotOutcome.SUCCESS
        assert rec.transmitters == (0,)
        assert rec.reward_vector == (1, 0)

    def test_two_transmitters_collide(self):
        env = run_agents([1.0] * 10, [1.0] * 10)
        rec = env.log.records[-1]
        assert rec.outcome is SlotOutcome.COLLIDED
        assert rec.reward_vector == (0, 0)

    def test_no_transmitter_idles(self):
        env = run_agents([0.0] * 10, [0.0] * 10)
        rec = env.log.records[-1]
        assert rec.outcome is SlotOutcome.IDLE
        assert rec.reward_vector == (0, 0)

    def test_missing_decision_raises(self):
        env = MacEnvironment(make_spec([agent()]))
        with pytest.raises(MissingDecisionError):
            run_frames(env, None, 1)


class TestTdma:
    def test_transmits_only_in_owned_slots_every_frame(self):
        env = MacEnvironment(make_spec([tdma(slots=(3, 5))], total_frames=5))
        log = run_frames(env, None, 5)
        for rec in log.records:
            expected = rec.frame_position in (3, 5)
            assert (rec.transmitters == (0,)) == expected

    def test_tdma_throughput_exact(self):
        env = MacEnvironment(make_spec([tdma(slots=(3, 5))], total_frames=100))
        log = run_frames(env, None, 100)
        wins = sum(r.reward_vector[0] for r in log.records)
        assert wins == 200  # 2 slots per frame, no contention


class TestAloha:
    def test_rate_matches_q(self):
        # one ALOHA node alone: success rate == transmission rate == q
        env = MacEnvironment(make_spec([aloha(q=0.2)], total_frames=2000, seed=99))
        log = run_frames(env, None, 2000)
        wins = sum(r.reward_vector[0] for r in log.records)
        rate = wins / len(log.records)
        # 3 sigma of Binomial(20000, 0.2): 0.2 +- 3*sqrt(0.2*0.8/20000)
        assert abs(rate - 0.2) < 3 * (0.2 * 0.8 / 20000) ** 0.5

    def test_two_aloha_expected_rates(self):
        # each succeeds at q*(1-q) = 0.16
        env = MacEnvironment(make_spec([aloha(), aloha()], total_frames=3000,
                                       seed=123))
        log = run_frames(env, None, 3000)
        for nid in (0, 1):
            rate = sum(r.reward_vector[nid] for r in log.records) / len(log.records)
            assert abs(rate - 0.16) < 0.02


class TestBackoffMachines:
    def test_fw_aloha_gap_distribution(self):
        # gaps between consecutive transmissions must be in [1, W]
        cfg = NodeConfig(kind="fw_aloha", window=4)
        m = FwAlohaMachine(cfg, node_rng(7, 0))
        tx_slots = []
        for t in range(400):
            if m.decide(False):
                tx_slots.append(t)
                m.on_outcome(SlotOutcome.SUCCESS)
        gaps = {b - a for a, b in zip(tx_slots, tx_slots[1:])}
        assert gaps and gaps <= {1, 2, 3, 4}

    def test_eb_window_doubles_and_caps(self):
        cfg = NodeConfig(kind="eb_aloha", window=2, max_stage=2)
        m = EbAlohaMachine(cfg, node_rng(7, 1))
        assert m.current_window() == 2
        m.stage = 1
        assert m.current_window() == 4
        m.stage = 2
        assert m.current_window() == 8
        # stage may never exceed max_stage
        m.on_outcome(SlotOutcome.COLLIDED)
        assert m.stage == 2
        assert m.current_window() == 8
        m.on_outcome(SlotOutcome.SUCCESS)
        assert m.stage == 0
        assert m.current_window() == 2

    def test_csma_freezes_when_busy(self):
        cfg = NodeConfig(kind="csma", window=2, max_stage=4)
        m = CsmaMachine(cfg, node_rng(7, 2))
        m.w = 1
        assert m.decide(True) is False
        assert m.w == 1  # frozen
        assert m.decide(False) is True  # decrements to 0 and sends
        assert m.w == 0

    def test_csma_defers_to_committed_transmitters(self):
        # agent transmits every slot: CSMA never gets a word in
        spec = make_spec([agent(), NodeConfig(kind="csma", window=2, max_stage=4)],
                         total_frames=20)
        env = MacEnvironment(spec)
        always = BernoulliSlotPolicy(spec.seed, {0: [1.0] * 10})
        log = run_frames(env, always, 20)
        assert all(rec.transmitters == (0,) for rec in log.records)


class TestPopulationDynamics:
    def test_leave_event_shrinks_reward_vector(self):
        spec = make_spec([aloha(), aloha(leave_frame=5), agent()],
                         total_frames=10)
        env = MacEnvironment(spec)
        policy = BernoulliSlotPolicy(spec.seed, {2: [0.5] * 10})
        log = run_frames(env, policy, 10)
        assert log.records[0].live_ids == (0, 1, 2)
        assert len(log.records[0].reward_vector) == 3
        after = [r for r in log.records if r.frame_index >= 5]
        assert after[0].live_ids == (0, 2)
        assert all(len(r.reward_vector) == 2 for r in after)
        assert log.timeline.segments == [(0, (0, 1, 2)), (5, (0, 2))]

    def test_join_event_extends_live_set(self):
        spec = make_spec([aloha(), tdma(join_frame=3)], total_frames=6)
        env = MacEnvironment(spec)
        log = run_frames(env, None, 6)
        before = [r for r in log.records if r.frame_index < 3]
        assert all(r.live_ids == (0,) for r in before)
        after = [r for r in log.records if r.frame_index >= 3]
        assert all(r.live_ids == (0, 1) for r in after)
        # TDMA transmits its slots from the join frame onward
        tdma_tx = [r for r in after if 1 in r.transmitters]
        assert {r.frame_position for r in tdma_tx} == {3, 5}

    def test_population_event_leaves_other_streams_untouched(self):
        # the surviving ALOHA node must transmit in exactly the same
        # slots whether or not a second node leaves mid-run
        base = make_spec([aloha(q=0.3), aloha(q=0.3)], total_frames=20, seed=7)
        with_leave = make_spec(
            [aloha(q=0.3), aloha(q=0.3, leave_frame=10)],
            total_frames=20, seed=7,
        )
        log_a = run_frames(MacEnvironment(base), None, 20)
        log_b = run_frames(MacEnvironment(with_leave), None, 20)
        tx_a = [0 in r.transmitters for r in log_a.records]
        tx_b = [0 in r.transmitters for r in log_b.records]
        assert tx_a == tx_b

    def test_prefix_stable_before_event(self):
        spec_short = make_spec([aloha(), aloha()], total_frames=5, seed=11)
        spec_long = make_spec([aloha(), aloha(), tdma(join_frame=5)],
                              total_frames=8, seed=11)
        log_short = run_frames(MacEnvironment(spec_short), None, 5)
        log_long = run_frames(MacEnvironment(spec_long), None, 8)
        for a, b in zip(log_short.records, log_long.records[:50]):
            assert a.transmitters == b.transmitters
            assert a.outcome == b.outcome


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        spec = make_spec(
            [aloha(), tdma(), NodeConfig(kind="csma", window=2, max_stage=4),
             NodeConfig(kind="eb_aloha", window=2, max_stage=2), agent()],
            total_frames=50, seed=42,
        )
        runs = []
        for _ in range(2):
            env = MacEnvironment(spec)
            policy = BernoulliSlotPolicy(spec.seed, {4: [0.4] * 10})
            log = run_frames(env, policy, 50)
            runs.append([(r.transmitters, r.outcome.value, r.reward_vector)
                         for r in log.records])
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        outcomes = []
        for seed in (42, 99):
            spec = make_spec([aloha(), aloha()], total_frames=30, seed=seed)
            log = run_frames(MacEnvironment(spec), None, 30)
            outcomes.append([r.transmitters for r in log.records])
        assert outcomes[0] != outcomes[1]


class TestValidation:
    def test_bad_q_reports_field_path(self):
        with pytest.raises(InvalidScenarioError) as err:
            MacEnvironment(make_spec([aloha(q=1.5)]))
        assert "nodes[0].q" in str(err.value)

    def test_tdma_slot_out_of_range(self):
        with pytest.raises(InvalidScenarioError) as err:
            MacEnvironment(make_spec([tdma(slots=(3, 12))]))
        assert "nodes[0].slots" in str(err.value)

    def test_leave_before_join_rejected(self):
        with pytest.raises(InvalidScenarioError):
            MacEnvironment(make_spec([aloha(join_frame=5, leave_frame=5)]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidScenarioError):
            MacEnvironment(make_spec([NodeConfig(kind="wifi")]))


class TestScenarioJson:
    def test_round_trip(self):
        spec = make_spec(
            [aloha(), tdma(join_frame=10), agent(),
             NodeConfig(kind="eb_aloha", window=2, max_stage=2)],
            total_frames=100, seed=5,
        )
        again = parse_scenario(scenario_doc(spec), MAC_FORMAT)
        assert again == spec

    def test_unknown_field_rejected(self):
        bad = scenario_doc(make_spec([aloha()]))
        bad["nodes"][0]["power"] = 3
        with pytest.raises(InvalidScenarioError) as err:
            parse_scenario(bad, MAC_FORMAT)
        assert "power" in str(err.value)
