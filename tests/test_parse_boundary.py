"""Fuzz test of the parse boundary: whatever text a backend or a strategy
file holds, parsing, validation, interpretation and both engines' action
parsing end in a package error or a sound result, never another
exception.

The inputs are arbitrary JSON (NaN, the infinities, huge ints, wrong
types), strategy-shaped documents of either domain or none, ints past
the interpreter's digit limit and nesting past the recursion limit.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coexlab.agent.config import AgentConfig
from coexlab.agent.online import MacPeriodEngine, TcpPeriodEngine
from coexlab.backends import extract_json_text
from coexlab.errors import CoexlabError
from coexlab.mac import NodeConfig, ScenarioSpec
from coexlab.strategy import (
    PROVENANCES,
    ActionContext,
    Strategy,
    _EFFECTS,
    _SIGNALS,
    interpret_action,
    parse_strategy,
    validate_strategy,
)
from coexlab.tcp import TcpFlowConfig, TcpScenarioSpec

FRAME_LEN = 10
CWND_MAX = 64

ENGINES = (
    MacPeriodEngine(
        ScenarioSpec(nodes=[NodeConfig(kind="agent")], total_frames=10,
                     seed=1),
        Strategy(domain="mac", base_action=(0.5,) * FRAME_LEN),
        AgentConfig()),
    TcpPeriodEngine(
        TcpScenarioSpec(flows=[TcpFlowConfig(controller="agent")],
                        total_rounds=10, seed=1, cwnd_max=CWND_MAX),
        Strategy(domain="tcp", base_action=8), AgentConfig()),
)

numbers = (st.floats(0.0, 1.0) | st.integers(1, CWND_MAX)
           | st.integers(-10 ** 400, 10 ** 400)
           | st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)
loose = numbers | json_values
slot_lists = st.lists(st.integers(-2, FRAME_LEN + 1), max_size=4)

# a rule's tag: a name, or a JSON list or object in its place
def tags(names):
    return (st.sampled_from(sorted(names) + ["bogus"])
            | st.lists(json_values, max_size=2)
            | st.dictionaries(st.text(max_size=6), json_values, max_size=2))


triggers = st.fixed_dictionaries(
    {"signal": tags(_SIGNALS)},
    optional={"theta": loose, "threshold": loose,
              "slots": slot_lists | loose})
effects = st.fixed_dictionaries(
    {"kind": tags(_EFFECTS)},
    optional={"slot": st.integers(-2, FRAME_LEN + 1) | loose,
              "prob": loose, "factor": loose, "delta": loose,
              "slots": slot_lists | loose})
strategy_docs = st.fixed_dictionaries(
    {"version": st.sampled_from(["strategy-v1", "strategy-v0"]),
     "domain": st.sampled_from(["mac", "tcp", "phy"]) | loose,
     "base_action": (st.lists(numbers, min_size=FRAME_LEN,
                              max_size=FRAME_LEN)
                     | st.lists(numbers, max_size=12) | loose)},
    optional={"rules": st.lists(st.fixed_dictionaries(
                  {"trigger": triggers | loose, "effect": effects | loose}),
                  max_size=4) | loose,
              "explore": st.fixed_dictionaries(
                  {}, optional={"epsilon": loose, "sigma": loose}) | loose,
              "provenance": st.sampled_from(PROVENANCES) | loose})
action_docs = st.fixed_dictionaries({"action": (
    st.lists(numbers, min_size=FRAME_LEN, max_size=FRAME_LEN) | loose)})

documents = st.builds(json.dumps, strategy_docs | action_docs | json_values)
fenced = st.builds("```json\n{}\n```".format, documents)
# a sound header, so that parsing reaches every rule
rule_documents = st.builds(json.dumps, st.fixed_dictionaries(
    {"version": st.just("strategy-v1"),
     "domain": st.sampled_from(["mac", "tcp"]),
     "base_action": st.sampled_from([[0.5] * FRAME_LEN, 8]),
     "rules": st.lists(st.fixed_dictionaries(
         {"trigger": triggers, "effect": effects}), min_size=1, max_size=4)}))
# past the int digit limit or the recursion limit of the JSON decoder
huge_ints = st.builds(
    lambda template, digits: template.replace("X", "9" * digits),
    st.sampled_from(['{"version": "strategy-v1", "domain": "tcp", '
                     '"base_action": X}', '{"action": X}',
                     '{"action": [X]}', "X"]),
    st.integers(4290, 4400))
deep = st.builds(lambda prefix, depth: prefix + "[" * depth,
                 st.sampled_from(["", '{"action": ', '{"base_action": ']),
                 st.integers(1, 200000))
texts = (documents | fenced | rule_documents | huge_ints | deep
         | st.text(max_size=40))

contexts = st.builds(
    ActionContext,
    rng=st.integers(0, 2 ** 32 - 1).map(np.random.default_rng),
    slot_utilization=st.none() | st.lists(
        st.floats(0.0, 1.0), min_size=FRAME_LEN, max_size=FRAME_LEN),
    env_changed=st.booleans(),
    collision_rate=st.floats(0.0, 1.0),
    rtt_inflation=st.floats(0.0, 10.0),
    cwnd_max=st.just(CWND_MAX),
    escape_sigma=st.none() | st.floats(0.0, 1.0))


@settings(max_examples=400, deadline=None)
@given(text=texts, ctx=contexts)
def test_only_package_errors_escape(text, ctx):
    try:
        strategy = parse_strategy(extract_json_text(text))
    except CoexlabError:
        strategy = None
    if strategy is not None:
        for domain in (None, "mac", "tcp"):
            validate_strategy(strategy, frame_len=FRAME_LEN,
                              cwnd_max=CWND_MAX, domain=domain)
        if not validate_strategy(strategy, frame_len=FRAME_LEN,
                                 cwnd_max=CWND_MAX):
            action = interpret_action(strategy, ctx).action
            if strategy.domain == "mac":
                assert len(action) == FRAME_LEN
                assert all(0.0 <= p <= 1.0 for p in action)
            else:
                assert 1 <= action <= CWND_MAX
    for engine in ENGINES:
        try:
            engine._parse_action(text)
        except CoexlabError:
            pass
