"""Observer analysis and the online control loop."""

import io
import json
from collections.abc import Sequence
from pathlib import Path

import pytest

import tcp_reference
from period_records import run_collect
from records_reference import find

from coexlab.agent.trace import (
    ACTOR_NODE,
    ACTOR_OBSERVER,
    DecisionTrace,
    TraceSink,
    content_digest,
    overuse_label,
)
from coexlab.commands import cmd_trace
from coexlab.agent.observer import (
    NOTABLE_OVERUSED,
    NOTABLE_UNUSED,
    actions_converged,
    mac_window_signals,
    observer_analyze,
    tcp_observer_analyze,
    tcp_window_signals,
)
from coexlab.errors import WindowTooShortError
from coexlab.mac import (
    KIND_AGENT,
    KIND_ALOHA,
    KIND_TDMA,
    BernoulliSlotPolicy,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    run_frames,
)
from coexlab.tcp import (
    CONTROLLER_AGENT,
    CONTROLLER_RENO,
    CONTROLLER_VEGAS,
    TcpEnvironment,
    TcpFlowConfig,
    TcpScenarioSpec,
    run_rounds,
)


def mac_log(nodes, frames, seed=3, vectors=None):
    env = MacEnvironment(ScenarioSpec(nodes=nodes, total_frames=frames,
                                      seed=seed))
    policy = BernoulliSlotPolicy(seed, vectors or {})
    run_frames(env, policy, frames)
    return env


def tcp_log(flows, rounds, cwnd=9, seed=3):
    env = TcpEnvironment(TcpScenarioSpec(flows=flows, total_rounds=rounds,
                                         seed=seed))
    return run_rounds(env, {fid: cwnd for fid, cfg in enumerate(flows)
                            if cfg.controller == CONTROLLER_AGENT})


class TestMacObserver:
    def test_tdma_slots_flagged_with_full_utilization(self):
        env = mac_log([NodeConfig(kind=KIND_TDMA, slots=(3, 5)),
                       NodeConfig(kind=KIND_AGENT)],
                      frames=100, vectors={1: [0.0] * 10})
        report = observer_analyze(env.log, window_frames=100,
                                  exclude_ids=[1])
        overused = {n.slot: n.utilization for n in report.notable
                    if n.kind == NOTABLE_OVERUSED}
        unused = {n.slot for n in report.notable if n.kind == NOTABLE_UNUSED}
        assert overused == {3: 1.0, 5: 1.0}
        assert unused == {0, 1, 2, 4, 6, 7, 8, 9}
        assert not report.env_changed

    def test_own_transmissions_do_not_count_as_overuse(self):
        vec = [1.0] + [0.0] * 9
        env = mac_log([NodeConfig(kind=KIND_TDMA, slots=(3,)),
                       NodeConfig(kind=KIND_AGENT)],
                      frames=100, vectors={1: vec})
        report = observer_analyze(env.log, window_frames=100,
                                  exclude_ids=[1])
        overused = {n.slot for n in report.notable
                    if n.kind == NOTABLE_OVERUSED}
        assert overused == {3}

    def test_window_too_short_raises(self):
        env = mac_log([NodeConfig(kind=KIND_ALOHA, q=0.2)], frames=50)
        with pytest.raises(WindowTooShortError):
            observer_analyze(env.log, window_frames=100)

    def test_membership_change_sets_env_changed(self):
        env = mac_log([NodeConfig(kind=KIND_ALOHA, q=0.2, leave_frame=50),
                       NodeConfig(kind=KIND_ALOHA, q=0.2)], frames=100)
        report = observer_analyze(env.log, window_frames=100)
        assert report.env_changed
        assert report.signals.membership_changed

    def test_rate_shift_sets_env_changed_without_membership_change(self):
        nodes = [NodeConfig(kind=KIND_ALOHA, q=0.2),
                 NodeConfig(kind=KIND_AGENT)]
        env = MacEnvironment(ScenarioSpec(nodes=nodes, total_frames=100,
                                          seed=3))
        policy = BernoulliSlotPolicy(3, {1: [0.8] * 10})
        run_frames(env, policy, 50)
        policy.set_vector(1, [0.0] * 10)
        run_frames(env, policy, 50)
        report = observer_analyze(env.log, window_frames=100,
                                  exclude_ids=[1])
        assert not report.signals.membership_changed
        assert report.signals.rate_shift > 0.1
        assert report.env_changed

    def test_stationary_window_is_quiet(self):
        env = mac_log([NodeConfig(kind=KIND_ALOHA, q=0.2),
                       NodeConfig(kind=KIND_TDMA, slots=(7,))], frames=200)
        report = observer_analyze(env.log, window_frames=100)
        assert not report.env_changed

    def test_window_bounds_reported(self):
        env = mac_log([NodeConfig(kind=KIND_ALOHA, q=0.2)], frames=150)
        signals = mac_window_signals(env.log, 100)
        assert signals.window == (50, 149)


class TailOnly(Sequence):
    """A history that fails a test when any item before its last ``keep``
    is read, so also when it is iterated or copied whole."""

    def __init__(self, items, keep):
        self.items = items
        self.keep = keep

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        if not isinstance(index, int):
            raise AssertionError(f"read by {index!r}")
        position = index % len(self.items)
        if position < len(self.items) - self.keep:
            raise AssertionError(f"read item {position} of the history")
        return self.items[position]


class TestConvergence:
    def test_identical_actions_converge(self):
        actions = [[0.5] * 10] * 4
        assert actions_converged(actions, 0.02, 3)

    def test_needs_periods_plus_one_samples(self):
        actions = [[0.5] * 10] * 3
        assert not actions_converged(actions, 0.02, 3)

    def test_recent_jump_blocks_convergence(self):
        actions = [[0.5] * 10] * 3 + [[0.6] * 10]
        assert not actions_converged(actions, 0.02, 3)

    def test_small_drift_within_epsilon_converges(self):
        actions = [[0.50] * 10, [0.51] * 10, [0.505] * 10, [0.51] * 10]
        assert actions_converged(actions, 0.02, 3)

    def test_scalar_actions_supported(self):
        assert actions_converged([9, 9, 9, 9], 0.5, 3)
        assert not actions_converged([9, 9, 9, 12], 0.5, 3)

    def test_old_history_is_ignored(self):
        actions = [[0.1] * 10] + [[0.5] * 10] * 4
        assert actions_converged(actions, 0.02, 3)

    @pytest.mark.parametrize("periods", [1, 3])
    @pytest.mark.parametrize("last", [0.5, 0.6])
    def test_reads_only_the_last_periods_plus_one_actions(self, periods,
                                                          last):
        actions = [[0.1] * 10] * 1000 + [[0.5] * 10] * periods + [[last] * 10]
        history = TailOnly(actions, periods + 1)
        assert actions_converged(history, 0.02, periods) \
            == actions_converged(actions, 0.02, periods) == (last == 0.5)


class TestTcpObserver:
    def test_sawtooth_competitor_signals(self):
        log = tcp_log([TcpFlowConfig(controller=CONTROLLER_AGENT),
                               TcpFlowConfig(controller=CONTROLLER_RENO)],
                              rounds=300)
        report = tcp_observer_analyze(log, window_rounds=100, flow_id=0)
        s = report.signals
        assert s.min_rtt == pytest.approx(0.1)
        assert 0.0 < s.loss_rate < 0.3
        assert 0.3 < s.rtt_inflation < 0.9
        assert not report.env_changed
        assert report.notable == ()

    def test_join_inside_window_sets_env_changed(self):
        log = tcp_log(
            [TcpFlowConfig(controller=CONTROLLER_AGENT),
             TcpFlowConfig(controller=CONTROLLER_VEGAS, join_round=250)],
            rounds=300)
        report = tcp_observer_analyze(log, window_rounds=100, flow_id=0)
        assert report.signals.membership_changed
        assert report.env_changed

    def test_window_too_short_raises(self):
        log = tcp_log([TcpFlowConfig(controller=CONTROLLER_AGENT)],
                              rounds=50)
        with pytest.raises(WindowTooShortError):
            tcp_window_signals(log, 100, flow_id=0)

    def test_absent_flow_raises(self):
        log = tcp_log([TcpFlowConfig(controller=CONTROLLER_RENO)],
                              rounds=100)
        with pytest.raises(WindowTooShortError):
            tcp_window_signals(log, 100, flow_id=5)


class FakeNotable:
    def __init__(self, slot, utilization):
        self.slot = slot
        self.utilization = utilization


def sample_trace(sink=None):
    trace = DecisionTrace("run seed 3", sink=sink)
    period = trace.child(ACTOR_NODE, "period 5")
    finding = period.child(ACTOR_OBSERVER, "slots 3,5 utilization 1.0",
                           inputs={"window": [400, 499]},
                           converged=False, env_changed=False)
    finding.child(ACTOR_NODE, "avoid_slots 3,5",
                  outputs=[0.5, 0.5, 0.5, 0.0, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5],
                  action=[0.5, 0.5, 0.5, 0.0, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5])
    return trace


def written_sample():
    """The ``trace.json`` and ``trace.dot`` text a sink writes for the
    sample trace."""
    json_fh, dot_fh = io.StringIO(), io.StringIO()
    sample_trace(TraceSink(json_fh, dot_fh)).close()
    return json_fh.getvalue(), dot_fh.getvalue()


class TestDecisionTrace:
    def test_json_round_trip_shape(self):
        doc = json.loads(written_sample()[0])
        assert doc["actor"] == "assistant"
        finding = doc["children"][0]["children"][0]
        assert finding["label"] == "slots 3,5 utilization 1.0"
        assert finding["input_digest"]
        leaf = finding["children"][0]
        assert leaf["data"]["action"][3] == 0.0

    def test_no_timestamps_in_serialized_trace(self):
        text = written_sample()[0]
        assert "time" not in text and "stamp" not in text

    def test_render_indents_by_depth(self, tmp_path):
        text, dot = written_sample()
        (tmp_path / "trace.json").write_text(text)
        (tmp_path / "trace.dot").write_text(dot)
        lines = Path(cmd_trace(str(tmp_path))["tree"]).read_text() \
            .splitlines()
        assert lines[0] == "assistant: run seed 3"
        assert lines[1] == "  node: period 5"
        assert lines[2] == "    observer: slots 3,5 utilization 1.0"

    def test_dot_output_is_a_tree(self):
        dot = written_sample()[1]
        assert dot.startswith("digraph decision_trace {")
        assert dot.count(" -> ") == dot.count("[label=") - 1

    def test_find_locates_actors(self):
        trace = sample_trace()
        found = find(trace, lambda n: n.actor == ACTOR_OBSERVER)
        assert len(found) == 1
        assert found[0].children[0].label == "avoid_slots 3,5"

    def test_identical_builds_serialize_identically(self):
        assert written_sample() == written_sample()

    def test_content_digest_is_stable(self):
        assert content_digest({"a": 1}) == content_digest({"a": 1})
        assert content_digest({"a": 1}) != content_digest({"a": 2})
        assert len(content_digest([1, 2, 3])) == 12

    def test_overuse_label_formats(self):
        entries = [FakeNotable(3, 1.0), FakeNotable(5, 1.0)]
        assert overuse_label(entries) == "slots 3,5 utilization 1.0"
        mixed = [FakeNotable(3, 0.95), FakeNotable(5, 1.0)]
        assert overuse_label(mixed) == "slots 3:0.95,5:1.0"


from coexlab.agent.config import AgentConfig
from coexlab.agent.online import (
    MacPeriodEngine,
    TcpPeriodEngine,
    mac_window_objective,
)
from coexlab.backends import BackendUnavailableError, RecordingBackend, \
    TranscriptRecorder
from coexlab.errors import InvalidScenarioError, MalformedResponseError
from coexlab.mac import KIND_AWARE
from coexlab.metrics import jain_index
from coexlab.scripted import ScriptedBackend
from coexlab.strategy import ExploreSpec, parse_strategy
from coexlab.tcp import mean_flow_throughputs


def mac_strategy_json(base=0.33, sigma=0.05, epsilon=0.0, rules=()):
    return parse_strategy(json.dumps({
        "version": "strategy-v1", "domain": "mac",
        "base_action": [base] * 10, "rules": list(rules),
        "explore": {"epsilon": epsilon, "sigma": sigma},
        "provenance": "generated",
    }))


def tcp_strategy_json(base=9, rules=None):
    if rules is None:
        rules = [
            {"trigger": {"signal": "collision_rate_ge", "threshold": 0.3},
             "effect": {"kind": "adjust_cwnd", "delta": -2}},
            {"trigger": {"signal": "rtt_inflation_ge", "threshold": 0.9},
             "effect": {"kind": "adjust_cwnd", "delta": -2}},
        ]
    return parse_strategy(json.dumps({
        "version": "strategy-v1", "domain": "tcp", "base_action": base,
        "rules": rules, "explore": {"epsilon": 0.0, "sigma": 0.0},
        "provenance": "generated",
    }))


def static_mac_spec(frames=1000, seed=5, n_aloha=2):
    nodes = [NodeConfig(KIND_AGENT)]
    nodes += [NodeConfig(KIND_ALOHA, q=0.2) for _ in range(n_aloha)]
    return ScenarioSpec(nodes=nodes, total_frames=frames, seed=seed)


class FlakyBackend:
    """Scripted until ``fail_after`` completions, then unavailable."""

    def __init__(self, fail_after):
        self.fail_after = fail_after
        self.calls = 0
        self.inner = ScriptedBackend()

    def complete(self, req):
        self.calls += 1
        if self.calls > self.fail_after:
            raise BackendUnavailableError("endpoint down")
        return self.inner.complete(req)


class TestMacPeriodEngine:
    def outcomes(self, log):
        return [(r.outcome, r.transmitters) for r in log.records]

    def test_rejects_strategy_from_other_domain(self):
        with pytest.raises(InvalidScenarioError):
            MacPeriodEngine(static_mac_spec(), tcp_strategy_json())

    def test_rejects_aware_nodes(self):
        spec = ScenarioSpec(nodes=[NodeConfig(KIND_AGENT),
                                   NodeConfig(KIND_AWARE)],
                            total_frames=100, seed=1)
        with pytest.raises(InvalidScenarioError):
            MacPeriodEngine(spec, mac_strategy_json())

    def test_period_must_cover_whole_frames(self):
        cfg = AgentConfig(query_period_slots=105)
        with pytest.raises(ValueError):
            MacPeriodEngine(static_mac_spec(), mac_strategy_json(), cfg)

    def test_scripted_reaches_even_split(self):
        eng = MacPeriodEngine(static_mac_spec(frames=500),
                              mac_strategy_json(),
                              backend=ScriptedBackend())
        last = run_collect(eng, 500)[-1]
        assert last.had_report
        assert last.proposals[0] == pytest.approx([1 / 3] * 10, abs=1e-5)

    def test_actions_held_between_boundaries(self):
        eng = MacPeriodEngine(static_mac_spec(frames=300),
                              mac_strategy_json(sigma=0.05),
                              backend=ScriptedBackend())
        calls = []      # (slot, node id, vector) per set_vector call
        set_vector = eng.policy.set_vector

        def spy(nid, vector):
            calls.append((eng.env.slot_index, nid, list(vector)))
            set_vector(nid, vector)

        eng.policy.set_vector = spy
        periods = run_collect(eng, 300)
        # one vector per period, set at its first slot and held to the next
        frame_len = eng.env.frame_len
        assert [(slot, nid) for slot, nid, _ in calls] == [
            (p.start * frame_len, 0) for p in periods]
        assert [v for _, _, v in calls] == [
            list(p.actuated[0]) for p in periods]
        assert len({tuple(v) for _, _, v in calls}) > 1

    def test_bit_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            eng = MacPeriodEngine(static_mac_spec(frames=400, seed=9),
                                  mac_strategy_json(sigma=0.05, epsilon=0.1),
                                  backend=ScriptedBackend())
            runs.append(self.outcomes(eng.run(400)))
        assert runs[0] == runs[1]

    def test_eval_mode_runs_without_backend(self):
        eng = MacPeriodEngine(static_mac_spec(frames=300),
                              mac_strategy_json(),
                              explore=ExploreSpec(0.0, 0.0))
        periods = run_collect(eng, 300)
        first = periods[0]
        assert all(p.proposals[0] == first.proposals[0]
                   for p in periods)
        assert all(p.actuated[0] == p.proposals[0] for p in periods)

    def test_outage_reuses_previous_decision(self):
        eng = MacPeriodEngine(static_mac_spec(frames=300),
                              mac_strategy_json(),
                              backend=FlakyBackend(fail_after=4))
        periods = run_collect(eng, 300)
        degraded = [p for p in periods if p.fallbacks]
        assert degraded and degraded[0].index == 4
        assert degraded[0].decisions[0] == periods[3].decisions[0]

    def test_first_period_outage_propagates(self):
        eng = MacPeriodEngine(static_mac_spec(frames=300),
                              mac_strategy_json(),
                              backend=FlakyBackend(fail_after=0))
        with pytest.raises(BackendUnavailableError):
            eng.run(100)

    def test_overuse_trace_matches_explainability_shape(self):
        spec = ScenarioSpec(nodes=[NodeConfig(KIND_AGENT),
                                   NodeConfig(KIND_TDMA, slots=(3, 5))],
                            total_frames=1500, seed=3)
        trace = DecisionTrace("episode")
        eng = MacPeriodEngine(spec, mac_strategy_json(base=0.5),
                              backend=ScriptedBackend(), trace=trace)
        eng.run(1500)
        overuse = find(trace, lambda n: n.actor == ACTOR_OBSERVER
                       and n.label == "slots 3,5 utilization 1.0")
        assert overuse
        child_labels = {c.label for node in overuse for c in node.children}
        assert any("avoid_slots 3,5" in lbl for lbl in child_labels)
        action = overuse[-1].children[0].data["action"]
        assert action[3] == 0.0 and action[5] == 0.0

    def test_membership_change_detected_within_two_periods(self):
        nodes = [NodeConfig(KIND_AGENT),
                 NodeConfig(KIND_ALOHA, q=0.2),
                 NodeConfig(KIND_ALOHA, q=0.2, leave_frame=250)]
        spec = ScenarioSpec(nodes=nodes, total_frames=400, seed=7)
        eng = MacPeriodEngine(spec, mac_strategy_json(),
                              backend=ScriptedBackend())
        first = next(p.start for p in run_collect(eng, 400)
                     if p.env_changed)
        assert 250 <= first <= 270

    def test_escape_restores_exploration_when_stuck(self):
        eng = MacPeriodEngine(static_mac_spec(frames=800),
                              mac_strategy_json(sigma=0.0),
                              backend=ScriptedBackend())
        periods = run_collect(eng, 600)
        assert periods[-1].converged
        assert not any(p.escaped for p in periods)
        # pretend a much better window was seen earlier
        eng._best_objective = eng._best_objective + 10.0
        rec = eng.run_period()
        assert rec.escaped
        assert rec.actuated[0] != rec.proposals[0]

    def test_ranker_mode_queries_both_orders(self):
        transcript = io.StringIO()
        backend = RecordingBackend(ScriptedBackend(),
                                   TranscriptRecorder(transcript))
        eng = MacPeriodEngine(static_mac_spec(frames=200),
                              mac_strategy_json(),
                              AgentConfig(ranker_online=True),
                              backend=backend)
        eng.run(200)
        entries = [json.loads(line)
                   for line in transcript.getvalue().splitlines()]
        tags = [e["tag"] for e in entries]
        assert tags and all(t.endswith(("/forward", "/reversed"))
                            for t in tags)
        assert len([t for t in tags if t.endswith("/forward")]) == \
            len([t for t in tags if t.endswith("/reversed")])
        # deterministic backend answers both orders identically
        by_pair = {}
        for e in entries:
            key = e["tag"].rsplit("/", 1)[0]
            by_pair.setdefault(key, []).append(e["response"])
        assert all(len(set(v)) == 1 for v in by_pair.values())

    def test_window_objective_tracks_fair_value(self):
        spec = ScenarioSpec(nodes=[NodeConfig(KIND_TDMA, slots=(0,)),
                                   NodeConfig(KIND_TDMA, slots=(1,))],
                            total_frames=200, seed=1)
        env = MacEnvironment(spec)
        run_frames(env, None, 200)
        value = mac_window_objective(env.log, 100)
        # both nodes deliver exactly 1 success per 10-slot frame
        from coexlab.oracle import fair_objective
        assert value == pytest.approx(fair_objective([0.1, 0.1]))


class TestTcpPeriodEngine:
    def flows(self, *controllers):
        return [TcpFlowConfig(c) for c in controllers]

    def test_rejects_mac_strategy(self):
        spec = TcpScenarioSpec(flows=self.flows(CONTROLLER_AGENT),
                               total_rounds=100, seed=1)
        with pytest.raises(InvalidScenarioError):
            TcpPeriodEngine(spec, mac_strategy_json())

    def test_against_reno_is_fair(self):
        spec = TcpScenarioSpec(
            flows=self.flows(CONTROLLER_AGENT, CONTROLLER_RENO),
            total_rounds=2000, seed=11)
        eng = TcpPeriodEngine(spec, tcp_strategy_json(),
                              backend=ScriptedBackend())
        recs = eng.run(2000)
        tput = mean_flow_throughputs(recs, first_round=1000)
        assert jain_index(list(tput.values())) >= 0.95

    def test_backoff_rules_fire_under_congestion(self):
        # the agent first runs alone (round-trip floor on record), then
        # three renos pile in and inflate the queue past the trigger, so
        # the backoff rule shrinks the held window
        flows = [TcpFlowConfig(CONTROLLER_AGENT)]
        flows += [TcpFlowConfig(CONTROLLER_RENO, join_round=150)
                  for _ in range(3)]
        spec = TcpScenarioSpec(flows=flows, total_rounds=600, seed=2)
        rules = [{"trigger": {"signal": "rtt_inflation_ge",
                              "threshold": 0.4},
                  "effect": {"kind": "adjust_cwnd", "delta": -2}}]
        eng = TcpPeriodEngine(spec, tcp_strategy_json(base=8, rules=rules),
                              backend=ScriptedBackend())
        periods = run_collect(eng, 600)
        quiet = periods[1]
        assert quiet.had_report and quiet.proposals[0] == 8
        last = periods[-1]
        assert last.proposals[0] == 6

    def test_bit_deterministic_across_runs(self):
        outs = []
        for _ in range(2):
            spec = TcpScenarioSpec(
                flows=self.flows(CONTROLLER_AGENT, CONTROLLER_VEGAS),
                total_rounds=800, seed=4)
            eng = TcpPeriodEngine(spec, tcp_strategy_json(),
                                  backend=ScriptedBackend())
            eng.run(800)
            outs.append([(r.round_index, r.queue,
                          tuple(sorted((f, fr.acks)
                                       for f, fr in r.per_flow.items())))
                         for r in tcp_reference.records_from_log(eng.env)])
        assert outs[0] == outs[1]

    def test_joining_agent_holds_its_window_from_its_first_round(self):
        flows = [TcpFlowConfig(CONTROLLER_AGENT, leave_round=650),
                 TcpFlowConfig(CONTROLLER_AGENT, join_round=150),
                 TcpFlowConfig(CONTROLLER_RENO, join_round=120,
                               leave_round=820)]
        spec = TcpScenarioSpec(flows=flows, total_rounds=300, seed=6)
        eng = TcpPeriodEngine(spec, tcp_strategy_json(base=8, rules=[]))
        log = eng.run(300)
        # flow 1 joins mid-period; its window is held from round 150 on
        assert log.flow_values(log.cwnd, 1, 150, 154).tolist() == [8.0] * 4

    def test_partial_final_period(self):
        spec = TcpScenarioSpec(flows=self.flows(CONTROLLER_AGENT),
                               total_rounds=250, seed=1)
        eng = TcpPeriodEngine(spec, tcp_strategy_json(),
                              backend=ScriptedBackend())
        periods = run_collect(eng, 250)
        assert eng.env.log.n_rounds == 250
        assert [p.length for p in periods] == [100, 100, 50]

    def test_no_report_before_window_fills(self):
        spec = TcpScenarioSpec(flows=self.flows(CONTROLLER_AGENT),
                               total_rounds=300, seed=1)
        eng = TcpPeriodEngine(spec, tcp_strategy_json(),
                              backend=ScriptedBackend())
        periods = run_collect(eng, 300)
        assert not periods[0].had_report
        assert periods[1].had_report


class DecisionsThen:
    """Scripted backend whose node and flow decisions turn into ``reply``
    after the first ``good`` of them."""

    def __init__(self, good, reply):
        self.good = good
        self.reply = reply
        self.decisions = 0
        self.inner = ScriptedBackend()

    def complete(self, req):
        if req.request_tag.startswith(("node/", "flow/")):
            self.decisions += 1
            if self.decisions > self.good:
                return self.reply
        return self.inner.complete(req)


# JSON numbers Python parses to NaN, an infinity, or an int beyond floats
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400)


def non_finite_engine(domain, good, value):
    if domain == "mac":
        reply = '{"action": [%s]}' % ", ".join([value] + ["0.3"] * 9)
        return MacPeriodEngine(static_mac_spec(frames=400),
                               mac_strategy_json(),
                               backend=DecisionsThen(good, reply))
    spec = TcpScenarioSpec(flows=[TcpFlowConfig(CONTROLLER_AGENT),
                                  TcpFlowConfig(CONTROLLER_RENO)],
                           total_rounds=400, seed=1)
    return TcpPeriodEngine(spec, tcp_strategy_json(),
                           backend=DecisionsThen(good,
                                                 '{"action": %s}' % value))


@pytest.mark.parametrize("domain", ["mac", "tcp"])
@pytest.mark.parametrize("value", NON_FINITE,
                         ids=["nan", "inf", "-inf", "1e400", "401-digits"])
class TestNonFiniteDecisions:
    def test_first_period_reply_is_malformed(self, domain, value):
        engine = non_finite_engine(domain, 0, value)
        with pytest.raises(MalformedResponseError):
            engine.run_period()

    def test_later_reply_reuses_previous_decision(self, domain, value):
        engine = non_finite_engine(domain, 2, value)
        periods = run_collect(engine, engine.period * 4)
        assert [p.fallbacks for p in periods] == [(), (), (0,), (0,)]
        assert periods[3].decisions[0] \
            == periods[2].decisions[0] \
            == periods[1].decisions[0]


@pytest.mark.parametrize("domain", ["mac", "tcp"])
def test_calm_proposals_draw_nothing_from_their_shared_rng(domain,
                                                           monkeypatch):
    # exploration is on, so every actuated action draws. Each decision is
    # interpreted once; its proposal must equal the calm interpretation
    # (exploration and escape off) of the same decision, which draws
    # nothing, and the member's generator must advance by the actuated
    # draws alone
    from dataclasses import replace

    import numpy as np

    import coexlab.agent.online as online
    from coexlab.strategy import interpret_action

    calls = []

    def recording(strategy, ctx):
        before = ctx.rng.bit_generator.state
        out = interpret_action(strategy, ctx)
        calls.append((strategy, ctx, before, ctx.rng.bit_generator.state,
                      out))
        return out

    monkeypatch.setattr(online, "interpret_action", recording)
    explore = ExploreSpec(epsilon=0.3, sigma=0.5)
    if domain == "mac":
        engine = MacPeriodEngine(static_mac_spec(frames=400),
                                 mac_strategy_json(), explore=explore,
                                 backend=ScriptedBackend())
    else:
        spec = TcpScenarioSpec(flows=[TcpFlowConfig(CONTROLLER_AGENT),
                                      TcpFlowConfig(CONTROLLER_RENO)],
                               total_rounds=400, seed=1)
        engine = TcpPeriodEngine(spec, tcp_strategy_json(), explore=explore,
                                 backend=ScriptedBackend())
    periods = run_collect(engine, engine.period * 3)
    assert [sorted(p.actuated) for p in periods] == [[0]] * 3
    assert len(calls) == 3
    for period, (strategy, ctx, before, after, out) in zip(periods, calls):
        assert ctx.rng is engine._noise_rngs[0]
        assert period.proposals[0] == out.proposal
        assert period.actuated[0] == out.action
        fresh = np.random.default_rng(0)
        calm = interpret_action(replace(strategy, explore=ExploreSpec()),
                                replace(ctx, escape_sigma=None, rng=fresh))
        assert calm.action == out.proposal
        assert fresh.bit_generator.state == \
            np.random.default_rng(0).bit_generator.state
        replay = np.random.default_rng()
        replay.bit_generator.state = before
        assert interpret_action(strategy, replace(ctx, rng=replay)).action \
            == out.action
        assert replay.bit_generator.state == after != before


def test_two_flow_engine_checks_convergence_once_per_period(monkeypatch):
    import coexlab.agent.observer as observer
    import coexlab.agent.online as online

    calls = []

    def counted(actions, epsilon, periods):
        calls.append(len(actions))
        return actions_converged(actions, epsilon, periods)

    monkeypatch.setattr(observer, "actions_converged", counted)
    monkeypatch.setattr(online, "actions_converged", counted, raising=False)
    spec = TcpScenarioSpec(flows=[TcpFlowConfig(CONTROLLER_AGENT),
                                  TcpFlowConfig(CONTROLLER_AGENT),
                                  TcpFlowConfig(CONTROLLER_RENO)],
                           total_rounds=600, seed=1)
    engine = TcpPeriodEngine(spec, tcp_strategy_json(),
                             backend=ScriptedBackend())
    periods = run_collect(engine, 600)
    assert [sorted(p.actuated) for p in periods] == [[0, 1]] * 6
    # the first period has no observer report and so no convergence check
    assert [p.had_report for p in periods] == [False] + [True] * 5
    assert calls == [1, 2, 3, 4, 4]
    assert [p.converged for p in periods] == [False] * 4 + [True] * 2
