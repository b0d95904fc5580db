"""The strategy parser and checker that spelled out every trigger and
effect parameter by hand, kept as the reference the table-driven code of
``coexlab.strategy`` must equal.

``parse_strategy`` parses triggers with ``_parse_trigger`` and effects
with ``_parse_effect``; ``strategy_id`` hashes the document that
``_trigger_doc`` and ``_effect_doc`` build; ``validate_strategy`` checks
each rule's parameters one by one. They raise or return the same
diagnostics, in the same order, as the package functions of those names.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

from coexlab.errors import StrategyParseError
from coexlab.strategy import (
    DOMAIN_MAC,
    DOMAIN_TCP,
    DOMAINS,
    EFFECT_ADJUST_CWND,
    EFFECT_AVOID_SLOTS,
    EFFECT_RESET_EXPLORATION,
    EFFECT_SCALE_ALL,
    EFFECT_SET_SLOT_PROB,
    PROVENANCES,
    SIGNAL_COLLISION_RATE_GE,
    SIGNAL_ENV_CHANGE,
    SIGNAL_RTT_INFLATION_GE,
    SIGNAL_UTILIZATION_GE,
    SIGNAL_UTILIZATION_ZERO,
    STRATEGY_VERSION,
    BaseAction,
    Diagnostic,
    Effect,
    ExploreSpec,
    Rule,
    Strategy,
    Trigger,
    finite_number,
)

# signal name -> (required params, optional params)
_SIGNALS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    SIGNAL_UTILIZATION_GE: (("theta",), ("slots",)),
    SIGNAL_UTILIZATION_ZERO: ((), ("slots",)),
    SIGNAL_ENV_CHANGE: ((), ()),
    SIGNAL_COLLISION_RATE_GE: (("threshold",), ()),
    SIGNAL_RTT_INFLATION_GE: (("threshold",), ()),
}

_EFFECTS: Dict[str, Tuple[str, ...]] = {
    EFFECT_SET_SLOT_PROB: ("slot", "prob"),
    EFFECT_SCALE_ALL: ("factor",),
    EFFECT_AVOID_SLOTS: ("slots",),
    EFFECT_ADJUST_CWND: ("delta",),
    EFFECT_RESET_EXPLORATION: (),
}

_MAC_ONLY_EFFECTS = (EFFECT_SET_SLOT_PROB, EFFECT_AVOID_SLOTS)
_TCP_ONLY_EFFECTS = (EFFECT_ADJUST_CWND,)
_MAC_ONLY_SIGNALS = (SIGNAL_UTILIZATION_GE, SIGNAL_UTILIZATION_ZERO)


def _trigger_doc(t: Trigger) -> Dict[str, object]:
    doc: Dict[str, object] = {"signal": t.signal}
    if t.theta is not None:
        doc["theta"] = t.theta
    if t.threshold is not None:
        doc["threshold"] = t.threshold
    if t.slots is not None:
        doc["slots"] = list(t.slots)
    return doc


def _effect_doc(e: Effect) -> Dict[str, object]:
    doc: Dict[str, object] = {"kind": e.kind}
    if e.slot is not None:
        doc["slot"] = e.slot
    if e.prob is not None:
        doc["prob"] = e.prob
    if e.factor is not None:
        doc["factor"] = e.factor
    if e.slots is not None:
        doc["slots"] = list(e.slots)
    if e.delta is not None:
        doc["delta"] = e.delta
    return doc


def strategy_id(s: Strategy) -> str:
    base = list(s.base_action) if s.domain == DOMAIN_MAC else s.base_action
    doc = {
        "version": STRATEGY_VERSION,
        "domain": s.domain,
        "base_action": base,
        "rules": [
            {"trigger": _trigger_doc(r.trigger), "effect": _effect_doc(r.effect)}
            for r in s.rules
        ],
        "explore": {"epsilon": s.explore.epsilon, "sigma": s.explore.sigma},
        "provenance": s.provenance,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _parse_trigger(raw, path: str, diags: List[Diagnostic]) -> Optional[Trigger]:
    if not isinstance(raw, dict):
        diags.append(Diagnostic(path, "trigger must be an object"))
        return None
    signal = raw.get("signal")
    if signal not in _SIGNALS:
        diags.append(Diagnostic(
            f"{path}.signal", f"unknown trigger signal {signal!r}"
        ))
        return None
    required, optional = _SIGNALS[signal]
    allowed = {"signal", *required, *optional}
    for key in raw:
        if key not in allowed:
            diags.append(Diagnostic(
                f"{path}.{key}", f"unknown field for signal {signal!r}"
            ))
    for key in required:
        if key not in raw:
            diags.append(Diagnostic(
                f"{path}.{key}", f"signal {signal!r} requires {key!r}"
            ))
            return None
    slots = None
    if "slots" in raw:
        if not isinstance(raw["slots"], list) or \
                not all(isinstance(x, int) and not isinstance(x, bool)
                        for x in raw["slots"]):
            diags.append(Diagnostic(f"{path}.slots", "must be a list of ints"))
            return None
        slots = tuple(raw["slots"])
    for key in ("theta", "threshold"):
        if key in raw and not finite_number(raw[key]):
            diags.append(Diagnostic(f"{path}.{key}",
                                    "must be a finite number"))
            return None
    return Trigger(signal=signal, theta=raw.get("theta"),
                   threshold=raw.get("threshold"), slots=slots)


def _parse_effect(raw, path: str, diags: List[Diagnostic]) -> Optional[Effect]:
    if not isinstance(raw, dict):
        diags.append(Diagnostic(path, "effect must be an object"))
        return None
    kind = raw.get("kind")
    if kind not in _EFFECTS:
        diags.append(Diagnostic(f"{path}.kind", f"unknown effect kind {kind!r}"))
        return None
    allowed = {"kind", *_EFFECTS[kind]}
    for key in raw:
        if key not in allowed:
            diags.append(Diagnostic(
                f"{path}.{key}", f"unknown field for effect {kind!r}"
            ))
    for key in _EFFECTS[kind]:
        if key not in raw:
            diags.append(Diagnostic(
                f"{path}.{key}", f"effect {kind!r} requires {key!r}"
            ))
            return None
    slots = None
    if "slots" in raw:
        if not isinstance(raw["slots"], list) or \
                not all(isinstance(x, int) and not isinstance(x, bool)
                        for x in raw["slots"]):
            diags.append(Diagnostic(f"{path}.slots", "must be a list of ints"))
            return None
        slots = tuple(raw["slots"])
    if "slot" in raw and (not isinstance(raw["slot"], int)
                          or isinstance(raw["slot"], bool)):
        diags.append(Diagnostic(f"{path}.slot", "must be an int"))
        return None
    for key in ("prob", "factor", "delta"):
        if key in raw and not finite_number(raw[key]):
            diags.append(Diagnostic(f"{path}.{key}",
                                    "must be a finite number"))
            return None
    return Effect(kind=kind, slot=raw.get("slot"), prob=raw.get("prob"),
                  factor=raw.get("factor"), slots=slots,
                  delta=raw.get("delta"))


def parse_strategy(text: str) -> Strategy:
    """Parse strategy text. Raises StrategyParseError carrying every
    diagnostic found (JSON syntax location, unknown names, missing or
    ill-typed fields)."""
    diags: List[Diagnostic] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StrategyParseError([Diagnostic(
            "$", f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        )]) from exc
    except (ValueError, RecursionError) as exc:
        # an integer beyond the digit limit, or nesting beyond the stack
        raise StrategyParseError([Diagnostic("$", str(exc))]) from exc
    if not isinstance(doc, dict):
        raise StrategyParseError([Diagnostic("$", "strategy must be a JSON object")])

    known = {"version", "domain", "base_action", "rules", "explore",
             "provenance"}
    for key in doc:
        if key not in known:
            diags.append(Diagnostic(key, "unknown field"))
    if doc.get("version") != STRATEGY_VERSION:
        diags.append(Diagnostic(
            "version", f"expected {STRATEGY_VERSION!r}, got {doc.get('version')!r}"
        ))
    domain = doc.get("domain")
    if domain not in DOMAINS:
        diags.append(Diagnostic("domain", f"unknown domain {domain!r}"))
        raise StrategyParseError(diags)

    base_raw = doc.get("base_action")
    base: Optional[BaseAction] = None
    if domain == DOMAIN_MAC:
        if not isinstance(base_raw, list) or \
                not all(finite_number(x) for x in base_raw):
            diags.append(Diagnostic(
                "base_action", "mac base_action must be a list of finite "
                               "numbers"))
        else:
            base = tuple(float(x) for x in base_raw)
    else:
        if not isinstance(base_raw, int) or not finite_number(base_raw):
            diags.append(Diagnostic("base_action",
                                    "tcp base_action must be an integer cwnd"))
        else:
            base = base_raw

    rules: List[Rule] = []
    raw_rules = doc.get("rules", [])
    if not isinstance(raw_rules, list):
        diags.append(Diagnostic("rules", "must be a list"))
    else:
        for i, raw_rule in enumerate(raw_rules):
            path = f"rules[{i}]"
            if not isinstance(raw_rule, dict):
                diags.append(Diagnostic(path, "rule must be an object"))
                continue
            for key in raw_rule:
                if key not in ("trigger", "effect"):
                    diags.append(Diagnostic(f"{path}.{key}", "unknown field"))
            trigger = _parse_trigger(raw_rule.get("trigger"),
                                     f"{path}.trigger", diags)
            effect = _parse_effect(raw_rule.get("effect"),
                                   f"{path}.effect", diags)
            if trigger is not None and effect is not None:
                rules.append(Rule(trigger=trigger, effect=effect))

    explore = ExploreSpec()
    raw_explore = doc.get("explore", {})
    if not isinstance(raw_explore, dict):
        diags.append(Diagnostic("explore", "must be an object"))
    else:
        for key in raw_explore:
            if key not in ("epsilon", "sigma"):
                diags.append(Diagnostic(f"explore.{key}", "unknown field"))
        eps = raw_explore.get("epsilon", 0.0)
        sig = raw_explore.get("sigma", 0.0)
        if not finite_number(eps) or not finite_number(sig):
            diags.append(Diagnostic("explore", "epsilon and sigma must be "
                                               "finite numbers"))
        else:
            explore = ExploreSpec(epsilon=float(eps), sigma=float(sig))

    provenance = doc.get("provenance", "generated")
    if provenance not in PROVENANCES:
        diags.append(Diagnostic(
            "provenance", f"must be one of {PROVENANCES}, got {provenance!r}"
        ))

    if diags or base is None:
        raise StrategyParseError(diags or
                                 [Diagnostic("base_action", "missing")])
    return Strategy(domain=domain, base_action=base, rules=tuple(rules),
                    explore=explore, provenance=provenance)


def validate_strategy(s: Strategy, frame_len: Optional[int] = None,
                      cwnd_max: Optional[int] = None,
                      domain: Optional[str] = None) -> List[Diagnostic]:
    """Range and cross-reference checks, and when ``domain`` is given the
    domain the caller runs. Returns diagnostics, empty when the strategy
    is sound; never raises."""
    if domain is not None and s.domain != domain:
        return [Diagnostic("domain", f"expected a {domain!r} strategy, "
                                     f"got {s.domain!r}")]
    diags: List[Diagnostic] = []
    if s.domain == DOMAIN_MAC:
        probs = s.base_action
        if frame_len is not None and len(probs) != frame_len:
            diags.append(Diagnostic(
                "base_action",
                f"length {len(probs)} does not match frame_len {frame_len}"
            ))
        limit = len(probs) if frame_len is None else frame_len
        for k, p in enumerate(probs):
            if not 0.0 <= p <= 1.0 or math.isnan(p):
                diags.append(Diagnostic(
                    f"base_action[{k}]", f"probability {p} outside [0, 1]"
                ))
    else:
        limit = frame_len or 0
        cwnd = s.base_action
        if cwnd < 1:
            diags.append(Diagnostic("base_action", f"cwnd {cwnd} must be >= 1"))
        if cwnd_max is not None and cwnd > cwnd_max:
            diags.append(Diagnostic(
                "base_action", f"cwnd {cwnd} above maximum {cwnd_max}"
            ))

    def check_slots(slots: Sequence[int], path: str) -> None:
        for slot in slots:
            if slot < 0 or (limit and slot >= limit):
                diags.append(Diagnostic(
                    path, f"slot {slot} outside [0, {limit})"
                ))

    for i, rule in enumerate(s.rules):
        tpath = f"rules[{i}].trigger"
        epath = f"rules[{i}].effect"
        trig, eff = rule.trigger, rule.effect
        if s.domain == DOMAIN_TCP and trig.signal in _MAC_ONLY_SIGNALS:
            diags.append(Diagnostic(
                tpath, f"signal {trig.signal!r} not valid for tcp strategies"
            ))
        if trig.theta is not None and not 0.0 <= trig.theta <= 1.0:
            diags.append(Diagnostic(f"{tpath}.theta",
                                    f"{trig.theta} outside [0, 1]"))
        if trig.threshold is not None and trig.threshold < 0.0:
            diags.append(Diagnostic(f"{tpath}.threshold",
                                    f"{trig.threshold} must be >= 0"))
        if trig.slots is not None:
            check_slots(trig.slots, f"{tpath}.slots")

        if s.domain == DOMAIN_MAC and eff.kind in _TCP_ONLY_EFFECTS:
            diags.append(Diagnostic(
                epath, f"effect {eff.kind!r} not valid for mac strategies"
            ))
        if s.domain == DOMAIN_TCP and eff.kind in _MAC_ONLY_EFFECTS:
            diags.append(Diagnostic(
                epath, f"effect {eff.kind!r} not valid for tcp strategies"
            ))
        if eff.slot is not None:
            check_slots([eff.slot], f"{epath}.slot")
        if eff.slots is not None:
            check_slots(eff.slots, f"{epath}.slots")
        if eff.prob is not None and not 0.0 <= eff.prob <= 1.0:
            diags.append(Diagnostic(f"{epath}.prob",
                                    f"{eff.prob} outside [0, 1]"))
        if eff.factor is not None and eff.factor < 0.0:
            diags.append(Diagnostic(f"{epath}.factor",
                                    f"{eff.factor} must be >= 0"))

    if not 0.0 <= s.explore.epsilon <= 1.0:
        diags.append(Diagnostic("explore.epsilon",
                                f"{s.explore.epsilon} outside [0, 1]"))
    if s.explore.sigma < 0.0:
        diags.append(Diagnostic("explore.sigma",
                                f"{s.explore.sigma} must be >= 0"))
    return diags
