"""Differential test: the table-driven trigger and effect code of
``coexlab.strategy`` against the hand-written parser and checker kept in
``strategy_reference``.

Parsing must give the same strategy id or the same diagnostics (path and
message, in order); validation of hand-built strategies, with any mix of
set parameters including NaN and out-of-range values, must give the same
diagnostics. The proposal ``interpret_action`` returns beside the actuated
action must equal the action of a calm interpretation (exploration and
escape off), which draws nothing from its generator.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import strategy_reference as ref
from coexlab.errors import StrategyParseError
from coexlab.strategy import (
    PROVENANCES,
    ActionContext,
    Effect,
    ExploreSpec,
    Rule,
    Strategy,
    Trigger,
    _EFFECTS,
    _SIGNALS,
    interpret_action,
    parse_strategy,
    strategy_id,
    validate_strategy,
)

FRAME_LEN = 10

floats = st.floats(-2.0, 3.0) | st.floats(allow_nan=True, allow_infinity=True)
numbers = floats | st.integers(-3, 70) | st.integers(-10 ** 400, 10 ** 400)
slot_ints = st.integers(-3, FRAME_LEN + 2)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)
finite = st.floats(-2.0, 3.0) | st.integers(-3, 70)
well_typed = {key: finite for key in
              ("theta", "threshold", "prob", "factor", "delta")}
well_typed["slot"] = slot_ints
well_typed["slots"] = st.lists(slot_ints, max_size=4)


def sound_part_docs(tag_field, table):
    """Trigger or effect objects that parse: a known tag and well-typed
    parameters, in or out of range."""
    return st.one_of([st.fixed_dictionaries(
        {tag_field: st.just(tag), **{key: well_typed[key] for key in req}},
        optional={key: well_typed[key] for key in opt})
        for tag, (req, opt) in sorted(table.items())])


def part_docs(tag_field, table):
    """Trigger or effect objects whose tag, when present, is a string, with
    any parameters holding any JSON value."""
    extra = st.dictionaries(st.sampled_from(["bogus", "Slot", "on"]),
                            json_values, max_size=2)
    tags = st.sampled_from(sorted(table) + ["bogus", "", "kind", "signal",
                                            None])
    return st.builds(
        lambda tag, chosen, more: {**more, **chosen, tag_field: tag}
        if tag is not None else {**more, **chosen},
        tags, st.fixed_dictionaries({}, optional=dict.fromkeys(
            well_typed, json_values)), extra)


sound_rule_docs = st.fixed_dictionaries(
    {"trigger": sound_part_docs("signal", _SIGNALS),
     "effect": sound_part_docs("kind", _EFFECTS)})
rule_docs = st.fixed_dictionaries(
    {"trigger": part_docs("signal", _SIGNALS) | json_values,
     "effect": part_docs("kind", _EFFECTS) | json_values},
    optional={"bogus": json_values})
headers = {"version": st.just("strategy-v1"),
           "domain": st.sampled_from(["mac", "tcp"]),
           "base_action": st.sampled_from([[0.5] * FRAME_LEN, 8])}
# documents that parse, so their ids are compared, and documents whose
# rules hold unknown, missing or ill-typed fields
strategy_docs = st.fixed_dictionaries(
    {**headers, "rules": st.lists(sound_rule_docs, max_size=4)},
    optional={"provenance": st.sampled_from(PROVENANCES)}
) | st.fixed_dictionaries(
    headers,
    optional={"rules": st.lists(rule_docs, min_size=1, max_size=4),
              "explore": st.fixed_dictionaries(
                  {}, optional={"epsilon": floats, "sigma": floats}),
              "provenance": st.sampled_from(PROVENANCES)})


def _parse_outcome(parse, ident, text):
    try:
        return ident(parse(text))
    except StrategyParseError as exc:
        return exc.diagnostics


@settings(max_examples=600, deadline=None)
@given(doc=strategy_docs)
def test_parse_matches_reference(doc):
    text = json.dumps(doc)
    assert _parse_outcome(parse_strategy, strategy_id, text) == \
        _parse_outcome(ref.parse_strategy, ref.strategy_id, text)


opt = st.none() | floats
opt_slots = st.none() | st.tuples() | st.lists(
    slot_ints, min_size=1, max_size=3).map(tuple)
triggers = st.builds(Trigger, signal=st.sampled_from(sorted(_SIGNALS)),
                     theta=opt, threshold=opt, slots=opt_slots)
effects = st.builds(Effect, kind=st.sampled_from(sorted(_EFFECTS)),
                    slot=st.none() | slot_ints, slots=opt_slots, prob=opt,
                    factor=opt, delta=opt)
mac_strategies = st.builds(
    Strategy, domain=st.just("mac"),
    base_action=st.lists(floats, min_size=FRAME_LEN - 1,
                         max_size=FRAME_LEN + 1).map(tuple))
tcp_strategies = st.builds(Strategy, domain=st.just("tcp"),
                           base_action=st.integers(-2, 70))
strategies = st.builds(
    lambda s, rules, explore: Strategy(s.domain, s.base_action,
                                       tuple(rules), explore),
    mac_strategies | tcp_strategies,
    st.lists(st.builds(Rule, triggers, effects), max_size=4),
    st.builds(ExploreSpec, floats, floats))


@settings(max_examples=600, deadline=None)
@given(s=strategies, frame_len=st.none() | st.just(FRAME_LEN),
       cwnd_max=st.none() | st.just(64),
       domain=st.none() | st.sampled_from(["mac", "tcp"]))
def test_validate_matches_reference(s, frame_len, cwnd_max, domain):
    kwargs = dict(frame_len=frame_len, cwnd_max=cwnd_max, domain=domain)
    assert validate_strategy(s, **kwargs) == \
        ref.validate_strategy(s, **kwargs)


@st.composite
def interpretations(draw):
    """A strategy that parses, with exploration in range and rules that
    may reset it, and a context of its domain with no generator yet."""
    domain = draw(st.sampled_from(["mac", "tcp"]))
    action = st.lists(st.floats(-0.5, 1.5), min_size=FRAME_LEN,
                      max_size=FRAME_LEN) if domain == "mac" \
        else st.integers(-5, 80)
    strategy = parse_strategy(json.dumps({
        "version": "strategy-v1", "domain": domain,
        "base_action": draw(action),
        "rules": draw(st.lists(sound_rule_docs, max_size=4)),
        "explore": {"epsilon": draw(st.just(0.0) | st.floats(0.0, 1.0)),
                    "sigma": draw(st.just(0.0) | st.floats(0.0, 2.0))}}))
    context = ActionContext(
        rng=None,
        slot_utilization=draw(st.none() | st.lists(
            st.floats(0.0, 1.0), min_size=FRAME_LEN,
            max_size=FRAME_LEN).map(tuple)),
        env_changed=draw(st.booleans()),
        collision_rate=draw(st.floats(0.0, 1.0)),
        rtt_inflation=draw(st.floats(0.0, 3.0)),
        cwnd_max=draw(st.integers(1, 70)),
        base_override=draw(st.none() | action),
        escape_sigma=draw(st.none() | st.floats(0.0, 2.0)))
    return strategy, context


@settings(max_examples=300, deadline=None)
@given(case=interpretations(), seed=st.integers(0, 2 ** 32 - 1))
def test_proposal_matches_calm_interpretation(case, seed):
    strategy, context = case
    fresh = np.random.default_rng(seed)
    calm = interpret_action(replace(strategy, explore=ExploreSpec()),
                            replace(context, escape_sigma=None, rng=fresh))
    out = interpret_action(strategy, replace(
        context, rng=np.random.default_rng(seed)))
    assert out.proposal == calm.action
    assert fresh.bit_generator.state == \
        np.random.default_rng(seed).bit_generator.state
