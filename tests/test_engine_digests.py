"""Byte-identity gate for period-engine paths no shipped scenario reaches:
the order-reversal ranker online, fallback after a backend outage, a
forced escape, and team members that join late or leave early.

Each case drives a ``MacPeriodEngine`` or ``TcpPeriodEngine`` directly and
hashes four things: the ``PeriodRecord`` list its periods returned, the
decision trace and the backend transcript as their writers stream them,
and the environment trajectory. The digests live in
``engine_digests.json`` beside this file. After a change that alters
engine output on purpose, regenerate them with

    PYTHONPATH=src python tests/test_engine_digests.py --write

which prints each ``case/key`` whose digest changed, and explain that
drift in CHANGES.md.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import tcp_reference
from period_records import run_collect
from coexlab.agent.config import AgentConfig
from coexlab.agent.online import MacPeriodEngine, TcpPeriodEngine
from coexlab.agent.trace import DecisionTrace, TraceSink
from coexlab.backends import RecordingBackend
from coexlab.errors import BackendUnavailableError
from coexlab.mac import (
    KIND_AGENT,
    KIND_ALOHA,
    KIND_TDMA,
    NodeConfig,
    ScenarioSpec,
)
from coexlab.scripted import ScriptedBackend
from coexlab.strategy import parse_strategy
from coexlab.tcp import (
    CONTROLLER_AGENT,
    CONTROLLER_RENO,
    CONTROLLER_VEGAS,
    TcpFlowConfig,
    TcpScenarioSpec,
)

DIGESTS = Path(__file__).resolve().parent / "engine_digests.json"


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


def mac_strategy(sigma=0.05, epsilon=0.1):
    return parse_strategy(json.dumps({
        "version": "strategy-v1", "domain": "mac",
        "base_action": [0.3] * 10,
        "rules": [{"trigger": {"signal": "slot_utilization_ge",
                               "theta": 0.9},
                   "effect": {"kind": "scale_all", "factor": 0.9}}],
        "explore": {"epsilon": epsilon, "sigma": sigma},
        "provenance": "generated",
    }))


def tcp_strategy(sigma=0.5):
    return parse_strategy(json.dumps({
        "version": "strategy-v1", "domain": "tcp", "base_action": 9,
        "rules": [
            {"trigger": {"signal": "rtt_inflation_ge", "threshold": 0.6},
             "effect": {"kind": "adjust_cwnd", "delta": -2}},
            {"trigger": {"signal": "env_change"},
             "effect": {"kind": "reset_exploration"}},
        ],
        "explore": {"epsilon": 0.0, "sigma": sigma},
        "provenance": "generated",
    }))


def mac_spec(frames, seed=5):
    return ScenarioSpec(nodes=[NodeConfig(KIND_AGENT),
                               NodeConfig(KIND_ALOHA, q=0.2),
                               NodeConfig(KIND_ALOHA, q=0.2)],
                        total_frames=frames, seed=seed)


def tcp_spec(rounds, *controllers, seed=4):
    return TcpScenarioSpec(flows=[TcpFlowConfig(c) for c in controllers],
                           total_rounds=rounds, seed=seed)


def _engine(cls, spec, strategy, inner, **kwargs):
    recorder = RecordingBackend(inner, io.StringIO())
    trace = DecisionTrace("engine digest",
                          sink=TraceSink(io.StringIO(), io.StringIO()))
    engine = cls(spec, strategy, backend=recorder, trace=trace, **kwargs)
    return engine, trace, recorder


def _run(parts, *lengths):
    """Run the engine of ``parts`` for each of ``lengths`` in turn; returns
    the engine, its period records, the trace and the recorder."""
    engine, trace, recorder = parts
    periods = [record for length in lengths
               for record in run_collect(engine, length)]
    return engine, periods, trace, recorder


def case_mac_ranker():
    return _run(_engine(MacPeriodEngine, mac_spec(300), mac_strategy(),
                        ScriptedBackend(),
                        config=AgentConfig(ranker_online=True)), 300)


def case_mac_outage():
    return _run(_engine(MacPeriodEngine, mac_spec(400), mac_strategy(),
                        FlakyBackend(fail_after=4)), 400)


def case_tcp_outage():
    return _run(_engine(TcpPeriodEngine,
                        tcp_spec(800, CONTROLLER_AGENT, CONTROLLER_RENO),
                        tcp_strategy(), FlakyBackend(fail_after=3)), 800)


def case_mac_escape():
    parts = _engine(MacPeriodEngine, mac_spec(900), mac_strategy(0.0, 0.0),
                    ScriptedBackend())
    engine, periods, trace, recorder = _run(parts, 600)
    engine._best_objective += 10.0
    periods += _run(parts, 300)[1]
    return engine, periods, trace, recorder


def case_tcp_escape():
    parts = _engine(TcpPeriodEngine,
                    tcp_spec(900, CONTROLLER_AGENT, CONTROLLER_VEGAS),
                    tcp_strategy(sigma=0.0), ScriptedBackend())
    engine, periods, trace, recorder = _run(parts, 600)
    engine._best_objective += 10.0
    periods += _run(parts, 300)[1]
    return engine, periods, trace, recorder


def case_mac_churn():
    spec = ScenarioSpec(nodes=[NodeConfig(KIND_AGENT, leave_frame=405),
                               NodeConfig(KIND_AGENT, join_frame=155),
                               NodeConfig(KIND_ALOHA, q=0.2),
                               NodeConfig(KIND_TDMA, slots=(2, 7),
                                          join_frame=250)],
                        total_frames=600, seed=8)
    return _run(_engine(MacPeriodEngine, spec, mac_strategy(),
                        ScriptedBackend()), 600)


def case_tcp_churn():
    spec = TcpScenarioSpec(
        flows=[TcpFlowConfig(CONTROLLER_AGENT, leave_round=650),
               TcpFlowConfig(CONTROLLER_AGENT, join_round=150),
               TcpFlowConfig(CONTROLLER_RENO, join_round=120,
                             leave_round=820)],
        total_rounds=1000, seed=6)
    return _run(_engine(TcpPeriodEngine, spec, tcp_strategy(),
                        ScriptedBackend()), 1000)


CASES = {
    "mac_ranker": case_mac_ranker,
    "mac_outage": case_mac_outage,
    "tcp_outage": case_tcp_outage,
    "mac_escape": case_mac_escape,
    "tcp_escape": case_tcp_escape,
    "mac_churn": case_mac_churn,
    "tcp_churn": case_tcp_churn,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_digests(name: str) -> dict:
    engine, periods, trace, recorder = CASES[name]()
    trace.close()
    trajectory = engine.env.log.records if isinstance(engine, MacPeriodEngine) \
        else tcp_reference.records_from_log(engine.env)
    return {
        "periods": _sha(repr(periods)),
        "trace": _sha(trace.sink.json_fh.getvalue()),
        "transcript": _sha(recorder.fh.getvalue()),
        "trajectory": _sha(repr(list(trajectory))),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_path_matches_recorded_digests(name):
    assert case_digests(name) == json.loads(DIGESTS.read_text())[name]


def test_cases_reach_their_paths():
    _, outage, _, _ = case_mac_outage()
    assert any(p.fallbacks for p in outage)
    _, escape, _, _ = case_tcp_escape()
    assert any(p.escaped for p in escape)
    _, churn, _, _ = case_mac_churn()
    assert [len(p.decisions) for p in churn][::15] == [1, 2, 2, 1]


def test_every_case_has_digests():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_digests.py --write")
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = {name: case_digests(name) for name in sorted(CASES)}
    for name, digests in new.items():
        for key, digest in digests.items():
            if old.get(name, {}).get(key) != digest:
                print(f"{name}/{key}")
    DIGESTS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
