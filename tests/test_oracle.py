"""Closed-form throughputs and the coordinate-ascent reference solver.

Expected values in this module are derived independently: either from
the Bernoulli product formulas by hand or from small calculus facts
(for one controlled node against n identical random-access peers the
log-fair optimum transmits with probability 1/(n+1)).
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from coexlab.errors import UnsupportedPopulationError
from coexlab.mac import (
    BernoulliSlotPolicy,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    run_frames,
)
from coexlab.oracle import (
    Population,
    aware_trajectory,
    expected_throughputs,
    population_from_scenario,
    solve_aware,
)
from coexlab.runner import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestExpectedThroughputs:
    def test_mixed_population_hand_values(self):
        # agent p=0.5 uniform, one aloha q=0.2, one tdma on {3,5}
        pop = Population(n_agents=1, aloha_q=[0.2], tdma_slots=[(3, 5)])
        agents, aloha, tdma = expected_throughputs([[0.5] * 10], pop)
        # agent succeeds in 8 free slots at 0.5*0.8
        assert agents[0] == pytest.approx(0.8 * 0.5 * 0.8, abs=1e-12)
        assert aloha[0] == pytest.approx(0.8 * 0.2 * 0.5, abs=1e-12)
        assert tdma[0] == pytest.approx(0.2 * 0.8 * 0.5, abs=1e-12)

    def test_two_agents_interfere(self):
        pop = Population(n_agents=2, aloha_q=[], tdma_slots=[])
        agents, _, _ = expected_throughputs([[0.5] * 10, [0.5] * 10], pop)
        assert agents == pytest.approx([0.25, 0.25], abs=1e-12)

    def test_shared_tdma_slot_never_succeeds(self):
        pop = Population(n_agents=0, aloha_q=[], tdma_slots=[(3,), (3, 5)])
        _, _, tdma = expected_throughputs([], pop)
        assert tdma[0] == 0.0
        assert tdma[1] == pytest.approx(0.1, abs=1e-12)

    def test_matches_monte_carlo(self):
        # one agent at p=0.35, two aloha 0.2/0.3, tdma {7}
        pop = Population(n_agents=1, aloha_q=[0.2, 0.3], tdma_slots=[(7,)])
        agents, aloha, tdma = expected_throughputs([[0.35] * 10], pop)
        spec = ScenarioSpec(
            nodes=[NodeConfig(kind="agent"),
                   NodeConfig(kind="aloha", q=0.2),
                   NodeConfig(kind="aloha", q=0.3),
                   NodeConfig(kind="tdma", slots=(7,))],
            total_frames=4000, seed=123,
        )
        env = MacEnvironment(spec)
        log = run_frames(env, BernoulliSlotPolicy(123, {0: [0.35] * 10}), 4000)
        n = len(log.records)
        for idx, expect in [(0, agents[0]), (1, aloha[0]), (2, aloha[1]),
                            (3, tdma[0])]:
            rate = sum(r.reward_vector[idx] for r in log.records) / n
            sigma = math.sqrt(max(expect * (1 - expect), 1e-9) / n)
            assert abs(rate - expect) < 3.5 * sigma

    def test_policy_length_checked(self):
        pop = Population(n_agents=1, aloha_q=[], tdma_slots=[])
        with pytest.raises(ValueError):
            expected_throughputs([[0.5] * 7], pop)


class TestSolveAware:
    def test_single_aloha_optimum_is_half(self):
        # maximize log p + log(1-p): p* = 0.5, throughputs (0.4, 0.1)
        pop = Population(n_agents=1, aloha_q=[0.2], tdma_slots=[])
        start = time.monotonic()
        sol = solve_aware(pop)
        assert time.monotonic() - start < 5.0
        for p in sol.policies[0]:
            assert abs(p - 0.5) <= 1e-3
        assert sol.agent_throughputs[0] == pytest.approx(0.4, abs=1e-3)
        assert sol.aloha_throughputs[0] == pytest.approx(0.1, abs=1e-3)

    def test_tdma_complement_schedule(self):
        pop = Population(n_agents=1, aloha_q=[], tdma_slots=[(3, 5)])
        sol = solve_aware(pop)
        for k in range(10):
            if k in (3, 5):
                assert sol.policies[0][k] == 0.0
            else:
                assert sol.policies[0][k] == 1.0
        assert sol.agent_throughputs[0] == pytest.approx(0.8, abs=1e-12)
        assert sol.tdma_throughputs[0] == pytest.approx(0.2, abs=1e-12)

    def test_two_aloha_optimum_is_third(self):
        pop = Population(n_agents=1, aloha_q=[0.2, 0.2], tdma_slots=[])
        sol = solve_aware(pop)
        mean_p = sum(sol.policies[0]) / 10
        assert abs(mean_p - 1.0 / 3.0) < 2e-3
        assert sol.agent_throughputs[0] == pytest.approx(0.64 / 3, abs=2e-3)
        assert sol.aloha_throughputs[0] == pytest.approx(0.32 / 3, abs=2e-3)

    def test_two_agents_partition_slots(self):
        pop = Population(n_agents=2, aloha_q=[], tdma_slots=[])
        sol = solve_aware(pop)
        assert sol.agent_throughputs == pytest.approx([0.5, 0.5], abs=1e-9)
        for k in range(10):
            pair = (sol.policies[0][k], sol.policies[1][k])
            assert sorted(pair) == [0.0, 1.0]

    def test_objective_never_below_start(self):
        pop = Population(n_agents=1, aloha_q=[0.4], tdma_slots=[(0, 1)])
        sol = solve_aware(pop)
        # evaluated at the uniform start the objective must not be higher
        from coexlab.oracle import _objective
        assert sol.objective >= _objective([[0.5] * 10], pop, 1.0) - 1e-12

    def test_population_without_agents_has_a_closed_form(self):
        sol = solve_aware(Population(n_agents=0, aloha_q=[0.2], tdma_slots=[]))
        assert sol.policies == []
        assert sol.aloha_throughputs == [pytest.approx(0.2)]

    def test_raising_q_hurts_everyone_else(self):
        quiet = solve_aware(Population(n_agents=1, aloha_q=[0.1], tdma_slots=[]))
        loud = solve_aware(Population(n_agents=1, aloha_q=[0.6], tdma_slots=[]))
        assert loud.agent_throughputs[0] < quiet.agent_throughputs[0]


class TestPopulationMapping:
    def test_backoff_kinds_unsupported(self):
        spec = ScenarioSpec(
            nodes=[NodeConfig(kind="agent"),
                   NodeConfig(kind="csma", window=2, max_stage=4)],
            total_frames=10, seed=1,
        )
        with pytest.raises(UnsupportedPopulationError):
            population_from_scenario(spec, [0, 1])

    def test_segments_follow_events(self):
        spec = ScenarioSpec(
            nodes=[NodeConfig(kind="aloha", q=0.2),
                   NodeConfig(kind="aloha", q=0.2, leave_frame=25),
                   NodeConfig(kind="agent"),
                   NodeConfig(kind="tdma", slots=(3, 5), join_frame=75)],
            total_frames=100, seed=1,
        )
        _, segs = aware_trajectory(spec)
        assert [(s.start_frame, s.end_frame) for s in segs] == \
            [(0, 25), (25, 75), (75, 100)]
        assert segs[0].live_ids == (0, 1, 2)
        assert segs[1].live_ids == (0, 2)
        assert segs[2].live_ids == (0, 2, 3)

    def test_aware_trajectory_piecewise_constant(self):
        spec = ScenarioSpec(
            nodes=[NodeConfig(kind="aloha", q=0.2),
                   NodeConfig(kind="aloha", q=0.2, leave_frame=50),
                   NodeConfig(kind="agent")],
            total_frames=100, seed=1,
        )
        reference, segments = aware_trajectory(spec)
        assert len(segments) == 2
        # first segment: 2 aloha + agent, p*=1/3
        assert reference[2][0] == pytest.approx(0.64 / 3, abs=2e-3)
        assert reference[2][49] == reference[2][0]
        # second segment: 1 aloha + agent, p*=1/2
        assert reference[2][50] == pytest.approx(0.4, abs=2e-3)
        assert reference[2][99] == reference[2][50]
        # the departed node holds zero afterwards
        assert reference[1][49] == pytest.approx(0.32 / 3, abs=2e-3)
        assert reference[1][50] == 0.0


def reference_bytes(frames):
    """Bytes the result of ``aware_trajectory`` holds for ``mac_2a1h`` at
    ``frames`` frames, with the population's solve already cached."""
    spec = replace(load_scenario(str(SCENARIOS / "mac_2a1h.json")),
                   total_frames=frames)
    aware_trajectory(spec)
    tracemalloc.start()
    try:
        kept = aware_trajectory(spec)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept[0][0][frames - 1] == kept[0][0][0] > 0.0
    return held


def test_reference_memory_does_not_grow_with_the_horizon():
    # one value per node and segment, not per node and frame
    short, long = reference_bytes(10 ** 4), reference_bytes(10 ** 5)
    assert abs(long - short) < 2 ** 10
