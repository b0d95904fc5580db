"""The benchmark's tracer (``perfbench/traced.py``) wraps functions of the
package by name and reads attributes of their arguments and results. This
pins each of those names, so a change to the package that would break the
tracer fails here rather than only in the slower ``perfbench/selftest.py``.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from coexlab.agent.offline import asi_materialize
from coexlab.backends import RecordingBackend, user_request
from coexlab.mac import (
    KIND_AGENT,
    KIND_ALOHA,
    MacEnvironment,
    NodeConfig,
    ScenarioSpec,
    run_frames,
)
from coexlab.oracle import population_from_scenario, solve_aware
from coexlab.tcp import (
    CONTROLLER_RENO,
    TcpEnvironment,
    TcpFlowConfig,
    TcpScenarioSpec,
    run_rounds,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def traced():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("traced")
    finally:
        sys.path.remove(str(PERFBENCH))


def _resolve(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_hook_resolves(traced):
    assert traced.HOOKS
    for module_name, attr, _, _ in traced.HOOKS:
        assert callable(_resolve(module_name, attr)), (module_name, attr)


def test_every_engine_has_run_period(traced):
    for module_name, cls_name in traced.ENGINES:
        assert callable(_resolve(module_name, f"{cls_name}.run_period"))


def test_wrapped_parameter_names(traced):
    # the measures fall back to these keyword names
    assert list(inspect.signature(RecordingBackend.complete).parameters) \
        == ["self", "req"]
    assert list(inspect.signature(solve_aware).parameters)[:2] == \
        ["pop", "alpha"]


def test_slot_measure_reads_the_mac_log(traced):
    spec = ScenarioSpec(nodes=[NodeConfig(KIND_ALOHA, q=0.5)],
                        total_frames=3, seed=1)
    env = MacEnvironment(spec)
    done = traced._slots((env,), {})
    run_frames(env, None, 3)
    assert done(env.log) == {"slots": 30}


def test_round_measure_reads_the_tcp_clock(traced):
    env = TcpEnvironment(TcpScenarioSpec(
        flows=[TcpFlowConfig(CONTROLLER_RENO)], total_rounds=5, seed=1))
    done = traced._rounds((env,), {})
    log = run_rounds(env)
    assert done(log) == {"rounds": 5}


def test_prompt_measure_reads_request_messages(traced):
    req = user_request("hello", tag="t")
    assert traced._prompt_chars((None, req), {})("reply") == \
        {"prompt_chars": 5}
    assert traced._prompt_chars((None,), {"req": req})("reply") == \
        {"prompt_chars": 5}


def test_retry_measure_reads_the_materialize_result(traced):
    doc = json.dumps({"version": "strategy-v1", "domain": "mac",
                      "base_action": [0.5] * 10, "rules": [],
                      "explore": {"epsilon": 0.0, "sigma": 0.0},
                      "provenance": "generated"})
    result = asi_materialize("{", lambda diagnostics: doc, 2,
                             frame_len=10, domain="mac")
    assert traced._retries((), {})(result) == {"retries": 1}


def test_population_measure_reads_the_population(traced):
    spec = ScenarioSpec(nodes=[NodeConfig(KIND_AGENT),
                               NodeConfig(KIND_ALOHA, q=0.2)],
                        total_frames=3, seed=1)
    pop = population_from_scenario(spec, (0, 1))
    key = json.loads(traced._population((pop, 2.0), {})(None)["population"])
    assert key == [1, [0.2], [], 10, 2.0]
    assert traced._population((), {"pop": pop})(None) == \
        traced._population((pop, 1.0), {})(None)
