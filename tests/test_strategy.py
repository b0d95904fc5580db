"""Strategy document parsing, validation, identity and interpretation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexlab.errors import StrategyParseError
from coexlab.strategy import (
    ActionContext,
    Effect,
    ExploreSpec,
    Rule,
    Strategy,
    Trigger,
    interpret_action,
    parse_strategy,
    serialize_strategy,
    strategy_from_doc,
    validate_strategy,
)


def mac_strategy(base=None, rules=(), explore=None, provenance="generated"):
    return Strategy(
        domain="mac",
        base_action=tuple(base if base is not None else [0.1] * 10),
        rules=tuple(rules),
        explore=explore or ExploreSpec(),
        provenance=provenance,
    )


def ctx(seed=0, **kw):
    defaults = dict(
        rng=np.random.default_rng(seed),
        slot_utilization=(0.0,) * 10,
        env_changed=False,
        collision_rate=0.0,
        rtt_inflation=0.0,
    )
    defaults.update(kw)
    return ActionContext(**defaults)


class TestParseAndSerialize:
    def test_round_trip(self):
        s = mac_strategy(
            rules=[Rule(
                trigger=Trigger(signal="slot_utilization_ge", theta=0.9,
                                slots=(3, 5)),
                effect=Effect(kind="avoid_slots", slots=(3, 5)),
            )],
            explore=ExploreSpec(epsilon=0.1, sigma=0.05),
        )
        text = serialize_strategy(s)
        again = parse_strategy(text)
        assert again == s
        assert again.id == s.id

    def test_id_is_16_hex_chars(self):
        s = mac_strategy()
        assert len(s.id) == 16
        assert all(c in "0123456789abcdef" for c in s.id)

    def test_rule_order_changes_id(self):
        r1 = Rule(
            trigger=Trigger(signal="env_change"),
            effect=Effect(kind="set_slot_prob", slot=0, prob=0.5),
        )
        r2 = Rule(
            trigger=Trigger(signal="env_change"),
            effect=Effect(kind="scale_all", factor=0.5),
        )
        assert mac_strategy(rules=[r1, r2]).id != mac_strategy(rules=[r2, r1]).id

    def test_whitespace_insensitive_id(self):
        s = mac_strategy()
        compact = serialize_strategy(s)
        spaced = json.dumps(json.loads(compact), indent=4)
        assert parse_strategy(spaced).id == s.id

    def test_bad_json_reports_position(self):
        with pytest.raises(StrategyParseError) as err:
            parse_strategy('{"version": "strategy-v1",')
        assert any("line" in d.message for d in err.value.diagnostics)

    def test_unknown_signal_diagnostic(self):
        doc = {
            "version": "strategy-v1",
            "domain": "mac",
            "base_action": [0.1] * 10,
            "rules": [{
                "trigger": {"signal": "slot_utilisation_ge", "theta": 0.9},
                "effect": {"kind": "avoid_slots", "slots": [3]},
            }],
            "explore": {"epsilon": 0.0, "sigma": 0.0},
            "provenance": "generated",
        }
        with pytest.raises(StrategyParseError) as err:
            parse_strategy(json.dumps(doc))
        diags = err.value.diagnostics
        assert any("rules[0].trigger.signal" in d.path for d in diags)

    def test_unknown_top_level_field_rejected(self):
        doc = json.loads(serialize_strategy(mac_strategy()))
        doc["extra"] = 1
        with pytest.raises(StrategyParseError):
            parse_strategy(json.dumps(doc))

    def test_wrong_version_rejected(self):
        doc = json.loads(serialize_strategy(mac_strategy()))
        doc["version"] = "strategy-v2"
        with pytest.raises(StrategyParseError):
            parse_strategy(json.dumps(doc))


# strategy fields each holding one "@" placeholder for a JSON number token
_NUMBER_SITES = {
    "mac base_action entry": {"domain": "mac", "base_action":
                              ["@"] + [0.1] * 9},
    "tcp base_action": {"domain": "tcp", "base_action": "@"},
    "theta": {"domain": "mac", "base_action": [0.1] * 10, "rules": [
        {"trigger": {"signal": "slot_utilization_ge", "theta": "@"},
         "effect": {"kind": "avoid_slots", "slots": [3]}}]},
    "threshold": {"domain": "tcp", "base_action": 9, "rules": [
        {"trigger": {"signal": "collision_rate_ge", "threshold": "@"},
         "effect": {"kind": "adjust_cwnd", "delta": -2}}]},
    "prob": {"domain": "mac", "base_action": [0.1] * 10, "rules": [
        {"trigger": {"signal": "env_change"},
         "effect": {"kind": "set_slot_prob", "slot": 2, "prob": "@"}}]},
    "factor": {"domain": "tcp", "base_action": 9, "rules": [
        {"trigger": {"signal": "env_change"},
         "effect": {"kind": "scale_all", "factor": "@"}}]},
    "delta": {"domain": "tcp", "base_action": 9, "rules": [
        {"trigger": {"signal": "env_change"},
         "effect": {"kind": "adjust_cwnd", "delta": "@"}}]},
    "epsilon": {"domain": "tcp", "base_action": 9,
                "explore": {"epsilon": "@", "sigma": 0.0}},
    "sigma": {"domain": "mac", "base_action": [0.1] * 10,
              "explore": {"epsilon": 0.0, "sigma": "@"}},
}


def _site_text(site: str, token: str) -> str:
    doc = {"version": "strategy-v1", "provenance": "generated",
           **_NUMBER_SITES[site]}
    return json.dumps(doc).replace('"@"', token)


@pytest.mark.parametrize("site", sorted(_NUMBER_SITES))
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400",
                                   "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e400", "401-digits"])
def test_non_finite_numbers_refused(site, token):
    assert parse_strategy(_site_text(site, "1"))
    with pytest.raises(StrategyParseError):
        parse_strategy(_site_text(site, token))


class TestValidate:
    def test_clean_strategy_no_diagnostics(self):
        assert validate_strategy(mac_strategy(), frame_len=10) == []

    def test_prob_out_of_range(self):
        s = mac_strategy(base=[1.5] + [0.1] * 9)
        diags = validate_strategy(s, frame_len=10)
        assert any("base_action[0]" in d.path for d in diags)

    def test_slot_out_of_range(self):
        s = mac_strategy(rules=[Rule(
            trigger=Trigger(signal="env_change"),
            effect=Effect(kind="set_slot_prob", slot=12, prob=0.5),
        )])
        diags = validate_strategy(s, frame_len=10)
        assert any("slot" in d.path for d in diags)

    def test_domain_mismatch_effect(self):
        s = Strategy(
            domain="tcp", base_action=10,
            rules=(Rule(
                trigger=Trigger(signal="env_change"),
                effect=Effect(kind="avoid_slots", slots=(3,)),
            ),),
            explore=ExploreSpec(), provenance="generated",
        )
        diags = validate_strategy(s, cwnd_max=64)
        assert any("avoid_slots" in d.message for d in diags)

    def test_tcp_base_bounds(self):
        s = Strategy(domain="tcp", base_action=80, rules=(),
                     explore=ExploreSpec(), provenance="generated")
        diags = validate_strategy(s, cwnd_max=64)
        assert any("base_action" in d.path for d in diags)


class TestInterpret:
    def test_base_passthrough(self):
        out = interpret_action(mac_strategy(base=[0.3] * 10), ctx())
        assert out.action == pytest.approx((0.3,) * 10)
        assert out.fired_rules == ()

    def test_rules_apply_in_order_last_wins(self):
        r_set = Rule(
            trigger=Trigger(signal="env_change"),
            effect=Effect(kind="set_slot_prob", slot=2, prob=0.9),
        )
        r_avoid = Rule(
            trigger=Trigger(signal="env_change"),
            effect=Effect(kind="avoid_slots", slots=(2,)),
        )
        s = mac_strategy(rules=[r_set, r_avoid])
        out = interpret_action(s, ctx(env_changed=True))
        assert out.action[2] == 0.0
        assert out.fired_rules == (0, 1)
        s2 = mac_strategy(rules=[r_avoid, r_set])
        assert interpret_action(s2, ctx(env_changed=True)).action[2] == 0.9

    def test_scale_all(self):
        s = mac_strategy(base=[0.4] * 10, rules=[Rule(
            trigger=Trigger(signal="collision_rate_ge", threshold=0.3),
            effect=Effect(kind="scale_all", factor=0.5),
        )])
        out = interpret_action(s, ctx(collision_rate=0.5))
        assert out.action == pytest.approx((0.2,) * 10)
        assert interpret_action(s, ctx(collision_rate=0.1)).action == \
            pytest.approx((0.4,) * 10)

    def test_utilization_trigger_specific_slots(self):
        rule = Rule(
            trigger=Trigger(signal="slot_utilization_ge", theta=0.9,
                            slots=(3, 5)),
            effect=Effect(kind="avoid_slots", slots=(3, 5)),
        )
        s = mac_strategy(base=[0.5] * 10, rules=[rule])
        util = [0.0] * 10
        util[3] = 1.0
        out = interpret_action(s, ctx(slot_utilization=tuple(util)))
        assert out.action[3] == 0.0 and out.action[5] == 0.0
        out2 = interpret_action(s, ctx())
        assert out2.action[3] == 0.5

    def test_unused_slot_trigger(self):
        rule = Rule(
            trigger=Trigger(signal="slot_utilization_zero", slots=(7,)),
            effect=Effect(kind="set_slot_prob", slot=7, prob=1.0),
        )
        s = mac_strategy(base=[0.1] * 10, rules=[rule])
        out = interpret_action(s, ctx())
        assert out.action[7] == 1.0

    def test_epsilon_resample_deterministic(self):
        s = mac_strategy(base=[0.0] * 10,
                         explore=ExploreSpec(epsilon=1.0, sigma=0.0))
        a = interpret_action(s, ctx(seed=7))
        b = interpret_action(s, ctx(seed=7))
        assert a.action == b.action
        assert a.epsilon_resampled
        assert any(v > 0 for v in a.action)

    def test_sigma_perturbs(self):
        s = mac_strategy(base=[0.5] * 10,
                         explore=ExploreSpec(epsilon=0.0, sigma=0.05))
        out = interpret_action(s, ctx(seed=3))
        assert out.action != pytest.approx((0.5,) * 10)
        assert out.sigma_used == pytest.approx(0.05)

    def test_reset_exploration_effect(self):
        s = mac_strategy(
            base=[0.5] * 10,
            rules=[Rule(trigger=Trigger(signal="env_change"),
                        effect=Effect(kind="reset_exploration"))],
            explore=ExploreSpec(epsilon=1.0, sigma=0.5),
        )
        out = interpret_action(s, ctx(env_changed=True))
        assert out.action == pytest.approx((0.5,) * 10)
        assert out.exploration_reset
        assert not out.epsilon_resampled and out.sigma_used == 0.0

    def test_base_override_and_escape_sigma(self):
        s = mac_strategy(base=[0.1] * 10)
        out = interpret_action(
            s, ctx(base_override=(0.7,) * 10))
        assert out.action == pytest.approx((0.7,) * 10)
        boosted = interpret_action(
            s, ctx(seed=1, escape_sigma=0.2))
        assert boosted.sigma_used == pytest.approx(0.2)
        assert boosted.action != pytest.approx((0.1,) * 10)

    def test_tcp_adjust_and_clip(self):
        s = Strategy(
            domain="tcp", base_action=4,
            rules=(Rule(
                trigger=Trigger(signal="collision_rate_ge", threshold=0.3),
                effect=Effect(kind="adjust_cwnd", delta=-6),
            ),),
            explore=ExploreSpec(), provenance="generated",
        )
        out = interpret_action(s, ctx(collision_rate=0.5))
        assert out.action == 1  # clipped to the floor
        s2 = Strategy(domain="tcp", base_action=60, rules=(Rule(
            trigger=Trigger(signal="rtt_inflation_ge", threshold=0.5),
            effect=Effect(kind="adjust_cwnd", delta=10),
        ),), explore=ExploreSpec(), provenance="generated")
        out2 = interpret_action(s2, ctx(rtt_inflation=0.8))
        assert out2.action == 64

    def test_overflowing_window_clips_to_cwnd_max(self):
        s = Strategy(domain="tcp", base_action=9, rules=(Rule(
            trigger=Trigger(signal="env_change"),
            effect=Effect(kind="scale_all", factor=1e308),
        ),), explore=ExploreSpec(), provenance="generated")
        assert interpret_action(s, ctx(env_changed=True,
                                       cwnd_max=64)).action == 64

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                    min_size=10, max_size=10),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.5),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=150)
    def test_mac_output_always_valid(self, base, eps, sig, seed):
        s = mac_strategy(base=base, explore=ExploreSpec(epsilon=eps,
                                                        sigma=sig))
        out = interpret_action(s, ctx(seed=seed))
        assert len(out.action) == 10
        assert all(0.0 <= v <= 1.0 for v in out.action)


class TestDocHelpers:
    def test_from_doc_matches_parse(self):
        s = mac_strategy(explore=ExploreSpec(epsilon=0.05, sigma=0.01),
                         provenance="refined")
        doc = json.loads(serialize_strategy(s))
        assert strategy_from_doc(doc) == s
